"""Kronecker algebra: explicit product, reconstruction-free application
of W = A (x) B to row vectors, and FLOP cost models.

Both inner products are evaluated in whichever association order is cheaper;
ties prefer applying B first. :func:`kron_apply` is the one kernel: the
model and ``kronekit bench`` both run it. It applies B to
all input rows at once as one flat 2-D GEMM. How it applies A depends on
which factor is smaller (:func:`kron_layout`):

- A no larger than B (m1*n1 <= m2*n2, the FFN shapes): one broadcast
  ``np.matmul(A, Z)`` over the T matrices Z_t, which are already laid out
  for it, so the kernel makes no copy besides the two GEMM outputs.
- A larger than B (the attention shapes): one flat GEMM against A^T; a
  broadcast of a large A runs slower. Applied first, B is the left factor
  of its GEMM, so it writes the rows of B X_t^T (Van Loan, "The ubiquitous
  Kronecker product", 2000) straight in the layout that the A GEMM reads.
  The B product is freed before the output is allocated, and the A product
  is interleaved into the output one column of each A X_t B^T per row of
  B, so no more than two output-sized arrays are live at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .tensor import ShapeError


@dataclass(frozen=True, order=True)
class FactorShape:
    """Split of an (m1*m2) x (n1*n2) weight into A in m1 x n1, B in m2 x n2."""

    m1: int
    n1: int
    m2: int
    n2: int

    def __post_init__(self):
        if min(self.m1, self.n1, self.m2, self.n2) < 1:
            raise ShapeError(f"factor dimensions must be positive, got {self}")

    @property
    def rows(self) -> int:
        return self.m1 * self.m2

    @property
    def cols(self) -> int:
        return self.n1 * self.n2

    @property
    def param_count(self) -> int:
        return self.m1 * self.n1 + self.m2 * self.n2

    def to_json(self) -> dict:
        return {"m1": self.m1, "n1": self.n1, "m2": self.m2, "n2": self.n2}

    @classmethod
    def from_json(cls, d: dict) -> "FactorShape":
        return cls(int(d["m1"]), int(d["n1"]), int(d["m2"]), int(d["n2"]))


@dataclass(frozen=True)
class KronFactorPair:
    """Pair (A, B) standing in for the never-materialized W = A (x) B."""

    a: np.ndarray
    b: np.ndarray

    @property
    def shape(self) -> FactorShape:
        return FactorShape(self.a.shape[0], self.a.shape[1], self.b.shape[0], self.b.shape[1])

    @property
    def cols(self) -> int:
        return self.a.shape[1] * self.b.shape[1]


def kron_product(p: KronFactorPair) -> np.ndarray:
    """Explicit block matrix: block (i, j) equals A[i, j] * B."""
    return np.kron(p.a, p.b)


def _order_cost(shape: FactorShape) -> tuple[int, str]:
    """FLOPs per input vector and association order of the cheaper order;
    ties prefer applying B first."""
    m1, n1, m2, n2 = shape.m1, shape.n1, shape.m2, shape.n2
    b_first = (2 * n2 - 1) * m2 * n1 + (2 * n1 - 1) * m2 * m1
    a_first = (2 * n1 - 1) * n2 * m1 + (2 * n2 - 1) * m2 * m1
    return (b_first, "b_first") if b_first <= a_first else (a_first, "a_first")


def kron_flops(shape: FactorShape) -> int:
    """FLOPs of the factorized matvec for one input vector (min over orders)."""
    return _order_cost(shape)[0]


def dense_matvec_flops(m: int, n: int) -> int:
    """Standard dense count for W in R^{m x n} times x in R^n."""
    if m < 1 or n < 1:
        raise ShapeError(f"dimensions must be positive, got {m}x{n}")
    return (2 * n - 1) * m


def choose_order(shape: FactorShape) -> str:
    """Cheaper association order; ties prefer applying B first."""
    return _order_cost(shape)[1]


def kron_layout(shape: FactorShape) -> tuple[str, bool]:
    """Association order and whether :func:`kron_apply` applies A by one
    broadcast matmul (A no larger than B) rather than a flat GEMM."""
    return choose_order(shape), shape.m1 * shape.n1 <= shape.m2 * shape.n2


def kron_apply(a: np.ndarray, b: np.ndarray, x: np.ndarray,
               out: np.ndarray | None = None) -> np.ndarray:
    """``x @ (A (x) B)^T`` over the last axis of ``x``, any leading shape.

    Row t of ``x``, read row-major as X_t in n1 x n2, maps to A X_t B^T read
    row-major. B is one flat 2-D GEMM over all T rows. A small A is applied
    to every X_t by one broadcast matmul, with no copy; a large A is one
    flat GEMM whose product is interleaved into the output, which keeps the
    dtype of the GEMMs. The result goes into ``out`` if given: a
    C-contiguous array of the result's shape, such as a row slice of a
    larger one. The values do not depend on where they go.
    """
    (m1, n1), (m2, n2) = a.shape, b.shape
    x = np.asarray(x)
    if x.shape[-1] != n1 * n2:
        raise ShapeError(f"kron_apply: input width {x.shape[-1]}, expected {n1 * n2}")
    lead = x.shape[:-1]
    t = math.prod(lead)
    order, broadcast_a = kron_layout(FactorShape(m1, n1, m2, n2))
    if out is not None and (out.shape != (*lead, m1 * m2) or not out.flags.c_contiguous):
        raise ShapeError(f"kron_apply: out must be a C-contiguous {(*lead, m1 * m2)} array")
    if order == "b_first" and broadcast_a:
        z = x.reshape(t * n1, n2) @ b.T                              # rows of X_t B^T
        y = np.matmul(a, z.reshape(t, n1, m2),                       # A X_t B^T
                      out=None if out is None else out.reshape(t, m1, m2))
    elif order == "b_first":
        z = b @ x.reshape(t * n1, n2).T                              # [k, (s, j)]: (B X_s^T)[k, j]
        w = z.reshape(m2 * t, n1) @ a.T                              # [(k,s), i]: (A X_s B^T)[i, k]
        del z
        y = np.empty((t, m1, m2), dtype=w.dtype) if out is None else out.reshape(t, m1, m2)
        for k, col in enumerate(w.reshape(m2, t, m1)):
            y[:, :, k] = col                                         # column k of each A X_s B^T
    else:
        if broadcast_a:
            z = np.matmul(a, x.reshape(t, n1, n2))                   # A X_t
        else:
            z = x.reshape(t, n1, n2).swapaxes(1, 2).reshape(t * n2, n1) @ a.T  # rows of (A X_t)^T
            z = z.reshape(t, n2, m1).swapaxes(1, 2)                  # A X_t
        y = np.matmul(z.reshape(t * m1, n2), b.T,                    # rows of A X_t B^T
                      out=None if out is None else out.reshape(t * m1, m2))
    return y.reshape(*lead, m1 * m2) if out is None else out
