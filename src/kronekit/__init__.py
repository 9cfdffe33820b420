"""Kronecker-decomposition compression toolkit for Transformer weights.

Importing the package sets numpy's OpenBLAS to one thread for the rest of
the host process and never restores it, so the importing program's own numpy
work runs on one BLAS thread too. The count OpenBLAS had until then fixes
the size of kronekit's thread pool (:mod:`kronekit.threads`). A later change
of that count, by threadpoolctl say, is not seen: the pool keeps its size,
its threads run on top of the BLAS threads, and a GEMM may lose its
one-thread bits.
"""

# first: from here on numpy's OpenBLAS runs one thread and the pool's size is fixed
from . import threads
from .kron import (FactorShape, KronFactorPair, dense_matvec_flops, kron_apply,
                   kron_flops, kron_product)
from .nkp import NkpResult, nearest_kronecker, rearrange
from .planner import (ArchSpec, CompressionPlan, PlanInfeasibleError, count_flops,
                      count_params, enumerate_shapes, make_plan, plan_for_ratio)
from .tensor import NamedTensorStore, ShapeError, make_rng

__all__ = [
    "ArchSpec", "CompressionPlan", "FactorShape", "KronFactorPair", "NamedTensorStore",
    "NkpResult", "PlanInfeasibleError", "ShapeError", "count_flops", "count_params",
    "dense_matvec_flops", "enumerate_shapes", "kron_apply", "kron_flops", "kron_product",
    "make_plan", "make_rng", "nearest_kronecker", "plan_for_ratio", "rearrange",
]
