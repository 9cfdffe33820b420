"""Kronecker-decomposition compression toolkit for Transformer weights."""

from .kron import (FactorShape, FlopCounter, KronFactorPair, dense_matvec_flops,
                   kron_apply, kron_flops, kron_matmul, kron_matvec, kron_product)
from .nkp import NkpResult, nearest_kronecker, rearrange
from .planner import (ArchSpec, CompressionPlan, PlanInfeasibleError, count_flops,
                      count_params, enumerate_shapes, make_plan, plan_for_ratio)
from .tensor import (NamedTensorStore, ShapeError, make_rng, matmul, reshape_vec, vec)

__all__ = [
    "ArchSpec", "CompressionPlan", "FactorShape", "FlopCounter", "KronFactorPair",
    "NamedTensorStore", "NkpResult", "PlanInfeasibleError", "ShapeError",
    "count_flops", "count_params", "dense_matvec_flops", "enumerate_shapes",
    "kron_apply", "kron_flops", "kron_matmul", "kron_matvec", "kron_product", "make_plan",
    "make_rng", "matmul", "nearest_kronecker", "plan_for_ratio", "rearrange",
    "reshape_vec", "vec",
]
