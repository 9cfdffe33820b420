"""Nearest-Kronecker-product approximation.

A dense W is rearranged so that Kronecker separability becomes rank-1
structure (Van Loan & Pitsianis, 1993); the dominant singular triplet of the
rearrangement, taken from one thin SVD, then yields the Frobenius-optimal
factor pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kron import FactorShape, KronFactorPair, kron_product
from .tensor import ShapeError


@dataclass(frozen=True)
class NkpResult:
    factors: KronFactorPair
    residual: float
    iterations: int  # always 0: direct solver, kept for callers that read it
    sigma: float  # dominant singular value of the rearranged matrix
    retained_energy: float  # sigma^2 / ||W||_F^2; 0.0 for the zero matrix


def rearrange(w: np.ndarray, shape: FactorShape) -> np.ndarray:
    """Permute W into an (m1 n1) x (m2 n2) matrix.

    Row (i*n1 + j) holds the m2 x n2 block at block position (i, j),
    flattened column-stacked. If W = A (x) B the result is exactly the outer
    product of A's entries with B's, hence rank 1. Entry permutation only, so
    the Frobenius norm is preserved.
    """
    m1, n1, m2, n2 = shape.m1, shape.n1, shape.m2, shape.n2
    if w.shape[0] != m1 * m2:
        raise ShapeError(f"rearrange: {w.shape[0]} rows, need m1*m2 = {m1}*{m2}")
    if w.shape[1] != n1 * n2:
        raise ShapeError(f"rearrange: {w.shape[1]} cols, need n1*n2 = {n1}*{n2}")
    w4 = w.reshape(m1, m2, n1, n2)
    # target index (i*n1 + j, q*m2 + p) <- w4[i, p, j, q]
    return w4.transpose(0, 2, 3, 1).reshape(m1 * n1, n2 * m2)


def nearest_kronecker(w: np.ndarray, shape: FactorShape) -> NkpResult:
    """Frobenius-optimal (A, B) of the given split for a dense W.

    sigma is split evenly between the factors and the sign is fixed so A's
    largest-magnitude entry is nonnegative; the product A (x) B is invariant
    under this gauge. Raises ValueError if W has a NaN or infinite entry,
    on which LAPACK's SVD fails or does not return.
    """
    m1, n1, m2, n2 = shape.m1, shape.n1, shape.m2, shape.n2
    if not np.all(np.isfinite(w)):
        raise ValueError("nearest_kronecker: W has non-finite entries")
    if not np.any(w):
        zero = KronFactorPair(np.zeros((m1, n1)), np.zeros((m2, n2)))
        return NkpResult(zero, 0.0, 0, 0.0, 0.0)
    us, s, vt = np.linalg.svd(rearrange(w, shape), full_matrices=False)
    sigma, u, v = float(s[0]), us[:, 0], vt[0]
    a = np.sqrt(sigma) * u.reshape(m1, n1)        # undoes the row (i*n1 + j) flattening
    b = np.sqrt(sigma) * v.reshape(n2, m2).T      # undoes the column-stacked block vec
    if a.flat[np.argmax(np.abs(a))] < 0:
        a, b = -a, -b
    pair = KronFactorPair(a, b)
    diff = w - kron_product(pair)
    with np.errstate(over="ignore"):
        residual = float(np.linalg.norm(diff))
    if residual == np.inf:  # an entry past about 1.3e154: its square overflows
        top = float(np.max(np.abs(diff)))
        residual = top * float(np.linalg.norm(diff / top))
    # sigma^2 / sum(s^2) as ratios to sigma, which do not overflow for sigma > 1e154
    return NkpResult(pair, residual, 0, sigma, 1.0 / float(np.sum((s / sigma) ** 2)))
