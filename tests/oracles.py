"""Independent oracles used by the test suite.

Everything here is deliberately slow and simple: index definitions, scalar
loops, some of them counting the multiplies and adds they execute, and a
cyclic Jacobi eigensolver, sharing no code paths with the library under test.
"""

from dataclasses import dataclass

import numpy as np

from kronekit.tensor import ShapeError


@dataclass
class FlopCounter:
    """Multiply/add accumulator for the counting oracles below."""

    mults: int = 0
    adds: int = 0

    @property
    def total(self) -> int:
        return self.mults + self.adds


def matmul_oracle(a: np.ndarray, b: np.ndarray, counter: FlopCounter | None = None) -> np.ndarray:
    """Triple-loop matrix product. With ``counter`` it counts every multiply
    and add it executes: q multiplies and q - 1 adds per output entry."""
    counter = counter if counter is not None else FlopCounter()
    p, q = a.shape
    _, r = b.shape
    out = np.empty((p, r))
    for i in range(p):
        for j in range(r):
            acc = a[i, 0] * b[0, j]
            counter.mults += 1
            for k in range(1, q):
                acc += a[i, k] * b[k, j]
                counter.mults += 1
                counter.adds += 1
            out[i, j] = acc
    return out


def vec(m: np.ndarray) -> np.ndarray:
    """Stack the columns of ``m`` into a single column vector.

    Entry k of the result is m[k mod rows, k div rows].
    """
    return m.reshape(-1, 1, order="F")


def reshape_vec(x: np.ndarray, r: int, c: int) -> np.ndarray:
    """Inverse of :func:`vec`: split a vector into c columns of length r."""
    flat = np.asarray(x).reshape(-1)
    if flat.size != r * c:
        raise ShapeError(f"reshape: vector of length {flat.size} cannot fill {r}x{c}")
    return flat.reshape(r, c, order="F")


def kron_matvec_oracle(a: np.ndarray, b: np.ndarray, x: np.ndarray, order: str,
                       counter: FlopCounter | None = None) -> np.ndarray:
    """(A (x) B) x = vec(B R(x) A^T) by loop products, W never formed.

    R(x) = reshape_vec(x, n2, n1) cuts x into n1 columns of length n2.
    ``order`` "b_first" forms B R(x) first, "a_first" forms R(x) A^T first;
    ``counter`` counts what the chosen order executes.
    """
    (_, n1), (_, n2) = a.shape, b.shape
    r = reshape_vec(x, n2, n1)
    if order == "b_first":
        y = matmul_oracle(matmul_oracle(b, r, counter), a.T, counter)
    elif order == "a_first":
        y = matmul_oracle(b, matmul_oracle(r, a.T, counter), counter)
    else:
        raise ValueError(f"unknown association order {order!r}")
    return vec(y).ravel()


def kron_embed_oracle(table: np.ndarray, row: np.ndarray, ids: np.ndarray,
                      counter: FlopCounter) -> np.ndarray:
    """Factorized embedding lookup: token t expands to the Kronecker product
    of its table row with the shared 1 x n row, counting every multiply."""
    ids = np.asarray(ids).reshape(-1)
    brow = row[0]
    k, n = table.shape[1], brow.size
    out = np.empty((ids.size, k * n))
    for t, tok in enumerate(ids):
        for i in range(k):
            for j in range(n):
                out[t, i * n + j] = table[tok, i] * brow[j]
                counter.mults += 1
    return out


def kron_oracle(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entry-by-entry Kronecker product from the index definition."""
    m1, n1 = a.shape
    m2, n2 = b.shape
    out = np.zeros((m1 * m2, n1 * n2))
    for i in range(m1 * m2):
        for j in range(n1 * n2):
            out[i, j] = a[i // m2, j // n2] * b[i % m2, j % n2]
    return out


def jacobi_eigenvalues(s: np.ndarray, sweeps: int = 50, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a symmetric matrix by cyclic Jacobi rotations."""
    a = np.array(s, dtype=np.float64)
    n = a.shape[0]
    for _ in range(sweeps):
        off = np.sqrt(np.sum(np.tril(a, -1) ** 2))
        if off <= tol * np.linalg.norm(a):
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                if a[p, q] == 0.0:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * a[p, q])
                t = np.sign(theta) / (abs(theta) + np.sqrt(theta * theta + 1.0))
                if theta == 0.0:
                    t = 1.0
                c = 1.0 / np.sqrt(t * t + 1.0)
                sgn = t * c
                rot = np.eye(n)
                rot[p, p] = rot[q, q] = c
                rot[p, q] = sgn
                rot[q, p] = -sgn
                a = rot.T @ a @ rot
    return np.sort(np.diag(a))[::-1]


def dominant_sigma_oracle(m: np.ndarray) -> float:
    """Largest singular value via Jacobi eigenvalues of the Gram matrix."""
    gram = m.T @ m if m.shape[0] >= m.shape[1] else m @ m.T
    eigs = jacobi_eigenvalues(gram)
    return float(np.sqrt(max(eigs[0], 0.0)))


def central_difference(f, x0: float, h: float = 1e-5) -> float:
    """Two-point central finite difference of a scalar function."""
    return (f(x0 + h) - f(x0 - h)) / (2.0 * h)
