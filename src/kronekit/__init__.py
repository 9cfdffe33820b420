"""Kronecker-decomposition compression toolkit for Transformer weights."""

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
