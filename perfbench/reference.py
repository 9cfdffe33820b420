"""Independent computations the benchmark checks the program against.

A plain-numpy post-LN encoder that multiplies every factor pair out with
``np.kron`` and uses ``scipy.special.erf`` for GELU, and the Van Loan
rearrangement whose singular values give the optimal Kronecker residual.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

LN_EPS = 1e-6


def dense_weights(tensors: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Every linear map and the token embedding as a dense matrix."""
    out = {}
    for name, m in tensors.items():
        if name == "embedding.table":
            out["embedding.dense"] = np.kron(m, tensors["embedding.row"])
        elif name.endswith(".a"):
            out[name[:-2] + ".dense"] = np.kron(m, tensors[name[:-2] + ".b"])
        elif name.endswith(".dense"):
            out[name] = m
    return out


def _ln(x, gamma, beta):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + LN_EPS) * gamma.ravel() + beta.ravel()


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / np.sqrt(2.0)))


def encoder(tensors: dict[str, np.ndarray], arch: dict, ids: np.ndarray) -> dict:
    """Post-LN encoder forward: embedding output, every attention and FFN
    sublayer output, and the logits of the mean-pooled last layer."""
    t, w = tensors, dense_weights(tensors)
    b, s = ids.shape
    heads, d = arch["heads"], arch["hidden"]
    dk = d // heads
    x = _ln(w["embedding.dense"][ids] + t["embedding.position"][:s],
            t["embedding.ln.gamma"], t["embedding.ln.beta"])
    out = {"E": x, "attn_out": [], "ffn_out": []}
    for i in range(arch["layers"]):
        p = f"layer.{i}"

        def linear(v, key, bias):
            return v @ w[f"{p}.{key}.dense"].T + t[f"{p}.{bias}"].ravel()

        def split(v):
            return v.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)
        q, k, v = (split(linear(x, f"attn.{n}", f"attn.b{n[1]}")) for n in ("wq", "wk", "wv"))
        scores = q @ k.transpose(0, 1, 3, 2) / np.sqrt(dk)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ctx = (e / e.sum(axis=-1, keepdims=True)) @ v
        ctx = ctx.transpose(0, 2, 1, 3).reshape(b, s, d)
        x = _ln(x + linear(ctx, "attn.wo", "attn.bo"),
                t[f"{p}.attn.ln.gamma"], t[f"{p}.attn.ln.beta"])
        out["attn_out"].append(x)
        h = _gelu(linear(x, "ffn.w1", "ffn.b1"))
        x = _ln(x + linear(h, "ffn.w2", "ffn.b2"), t[f"{p}.ffn.ln.gamma"], t[f"{p}.ffn.ln.beta"])
        out["ffn_out"].append(x)
    out["logits"] = x.mean(axis=1) @ t["head.weight"].T + t["head.bias"].ravel()
    return out


def close(got: np.ndarray, want: np.ndarray, rtol: float) -> bool:
    """Max-norm agreement relative to the reference's own scale."""
    got, want = np.asarray(got), np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = max(float(np.abs(want).max()), 1.0)
    return float(np.abs(got - want).max()) <= rtol * scale


def rearranged(w: np.ndarray, shape) -> np.ndarray:
    """Van Loan rearrangement: row (i, j) holds block (i, j) of W, so that
    W = A (x) B becomes the rank-1 matrix vec(A) vec(B)^T."""
    m1, n1, m2, n2 = shape
    return w.reshape(m1, m2, n1, n2).transpose(0, 2, 1, 3).reshape(m1 * n1, m2 * n2)


def optimal_residual(w: np.ndarray, shape) -> float:
    """min ||W - A (x) B||_F = sqrt(||W||^2 - sigma_1^2), summed over the
    trailing singular values to avoid the cancellation."""
    sv = np.linalg.svd(rearranged(w, shape), compute_uv=False)
    return float(np.sqrt(np.sum(sv[1:] ** 2)))
