"""Minimal reverse-mode automatic differentiation over float64 numpy arrays.

Covers exactly the operations the toy Transformer and the distillation
losses need: broadcast add/mul, batched matmul, the fused linear map
``linear`` (a dense W or a Kronecker pair (A, B), with its optional bias,
residual, scale and GELU in one node), reshape, transpose and axis
``permute``, gather, concat, erf-GELU, tanh, row softmax, layernorm, mean,
and cross-entropy.
Backward passes run in a fixed topological order, so replays with identical
inputs are bitwise deterministic. An op on tensors none of which requires
grad records no graph, so ``TransformerModel.freeze()`` is how to run
inference: each intermediate is freed as soon as nothing refers to it, and
the model's forward then holds only its trace plus one block per thread
(the graph path is unchanged).

``linear``, softmax and layernorm work in place on the arrays they
allocate themselves (never on an input), with the same operations in the
same order as the separate textbook ops, so their values do not depend on
whether a graph is recorded. ``linear`` adds its residual and bias, scales
and applies GELU in the kernel's fresh output, in place when no graph is
kept; the model's GELU is this one, not ``gelu``. Without a graph
layernorm returns its own buffer as the output. No op here splits its
work: a frozen forward calls them on blocks of rows that the threads of
:func:`kronekit.threads.run` share (see :mod:`kronekit.model`). Every GEMM
runs on one OpenBLAS thread: importing kronekit sets that for the process.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erf

from . import kron

_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT2PI = 1.0 / np.sqrt(2.0 * np.pi)
_LN_EPS = 1e-6


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` (inverse of numpy broadcasting)."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for ax, size in enumerate(shape):
        if size == 1 and grad.shape[ax] != 1:
            grad = grad.sum(axis=ax, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    __slots__ = ("value", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, value, requires_grad: bool = False, parents=(), backward=None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad or any(p.requires_grad for p in parents)
        # a node nothing differentiates through keeps no graph, so the inputs
        # and the arrays its backward closure captured are freed with it
        self._parents = parents if self.requires_grad else ()
        self._backward = backward if self.requires_grad else None

    @property
    def shape(self):
        return self.value.shape

    def _accumulate(self, g: np.ndarray) -> None:
        self.grad = g if self.grad is None else self.grad + g

    def backward(self) -> None:
        if self.value.size != 1:
            raise ValueError("backward() requires a scalar loss")
        order: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in seen or not node.requires_grad:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                stack.append((p, False))
        self._accumulate(np.ones_like(self.value))
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ----------------------------------------------------------- arithmetic

    def __add__(self, other):
        other = _as_tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g, other.value.shape))
        return Tensor(self.value + other.value, parents=(self, other), backward=backward)

    def __sub__(self, other):
        return self + (_as_tensor(other) * -1.0)

    def __mul__(self, other):
        other = _as_tensor(other)

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g * other.value, self.value.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(g * self.value, other.value.shape))
        return Tensor(self.value * other.value, parents=(self, other), backward=backward)

    __rmul__ = __mul__

    def __matmul__(self, other):
        other = _as_tensor(other)
        a, b = self.value, other.value

        def backward(g):
            if self.requires_grad:
                self._accumulate(_unbroadcast(g @ np.swapaxes(b, -1, -2), a.shape))
            if other.requires_grad:
                other._accumulate(_unbroadcast(np.swapaxes(a, -1, -2) @ g, b.shape))
        return Tensor(a @ b, parents=(self, other), backward=backward)

    # --------------------------------------------------------- shape moves

    def reshape(self, *shape):
        def backward(g):
            if self.requires_grad:
                self._accumulate(g.reshape(self.value.shape))
        return Tensor(self.value.reshape(*shape), parents=(self,), backward=backward)

    def permute(self, *axes: int):
        """Axes reordered as ``np.transpose(value, axes)``, a view."""
        inverse = np.argsort(axes)

        def backward(g):
            if self.requires_grad:
                # contiguous, so that reductions over this grad (bias sums)
                # run in the same order as over any other grad
                self._accumulate(np.ascontiguousarray(np.transpose(g, inverse)))
        return Tensor(np.transpose(self.value, axes), parents=(self,), backward=backward)

    def mean(self, axis=None):
        denom = self.value.size if axis is None else self.value.shape[axis]

        def backward(g):
            if self.requires_grad:
                if axis is None:
                    self._accumulate(np.full_like(self.value, g / denom))
                else:
                    self._accumulate(np.expand_dims(g, axis) / denom
                                     * np.ones_like(self.value))
        return Tensor(self.value.mean(axis=axis), parents=(self,), backward=backward)


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def parameter(value) -> Tensor:
    # force C order so views of .value (reshape, ravel) behave predictably
    return Tensor(np.array(value, dtype=np.float64, order="C"), requires_grad=True)


def gather_rows(table: Tensor, ids: np.ndarray) -> Tensor:
    """table[ids] for an integer index array; grads scatter-add back."""
    ids = np.asarray(ids)

    def backward(g):
        if table.requires_grad:
            full = np.zeros_like(table.value)
            np.add.at(full, ids, g)
            table._accumulate(full)
    return Tensor(table.value[ids], parents=(table,), backward=backward)


def concat_last(parts: list[Tensor]) -> Tensor:
    sizes = [p.value.shape[-1] for p in parts]

    def backward(g):
        off = 0
        for p, size in zip(parts, sizes):
            if p.requires_grad:
                p._accumulate(g[..., off:off + size])
            off += size
    return Tensor(np.concatenate([p.value for p in parts], axis=-1), parents=tuple(parts),
                  backward=backward)


def _gelu_cdf(v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Phi(v) = 0.5 (1 + erf(v / sqrt(2))), written into ``out``.

    erf runs on |v| / sqrt(2) and v's sign is copied back: scipy's erf
    computes erf(-x) as -erf(x), so the bits are its own, and its loop
    never branches on a sign it cannot predict."""
    np.multiply(v, _INV_SQRT2, out=out)
    np.abs(out, out=out)
    erf(out, out=out)
    np.copysign(out, v, out=out)
    out += 1.0
    out *= 0.5
    return out


def _gelu_grad(g: np.ndarray, v: np.ndarray, cdf: np.ndarray) -> np.ndarray:
    pdf = _INV_SQRT2PI * np.exp(-0.5 * v * v)
    return g * (cdf + v * pdf)


def gelu(x: Tensor) -> Tensor:
    """erf-based GELU: 0.5 x (1 + erf(x / sqrt(2)))."""
    v = x.value
    cdf = _gelu_cdf(v, np.empty_like(v))

    def backward(g):
        x._accumulate(_gelu_grad(g, v, cdf))
    return Tensor(v * cdf, parents=(x,), backward=backward)


def linear(x: Tensor, weight: Tensor | tuple[Tensor, Tensor], bias: Tensor | None = None, *,
           residual: Tensor | None = None, scale: float | None = None,
           gelu: bool = False) -> Tensor:
    """``act(scale * (x @ W^T + residual + bias))`` over the last axis, one node.

    ``weight`` is a dense W (out x in) or a pair (A, B) standing for
    W = A (x) B, applied by ``kron.kron_apply`` without forming W. The
    residual, bias (if any), scale and GELU (``act``) are applied in that
    order in place on the product's fresh array, so each value equals that
    of the separate ops. The backward runs the kernel on the transposed
    factors.
    """
    xv = x.value
    factors = (weight,) if isinstance(weight, Tensor) else tuple(weight)
    # the backward explores x's subgraph before the residual's, as it does
    # for ``residual + x @ W^T``, so grads accumulate in the same order
    parents = ((residual,) if residual is not None else ()) + (x, *factors) \
        + ((bias,) if bias is not None else ())
    out = _epilogue(_kernel(xv, factors), None if residual is None else residual.value,
                    bias, scale)
    if not any(p.requires_grad for p in parents):
        if gelu:
            out *= _gelu_cdf(out, np.empty_like(out))
        return Tensor(out)
    if gelu:
        pre, cdf = out, _gelu_cdf(out, np.empty_like(out))
        out = pre * cdf

    def backward(g):
        if gelu:
            g = _gelu_grad(g, pre, cdf)
        if scale is not None:
            g = g * scale
        if residual is not None and residual.requires_grad:
            residual._accumulate(_unbroadcast(g, residual.value.shape))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_unbroadcast(g, bias.value.shape))
        if len(factors) == 1:
            w = factors[0]
            if x.requires_grad:
                x._accumulate(g @ w.value)
            if w.requires_grad:  # dW = (sum over the batch of X^T G)^T
                xtg = np.swapaxes(xv, -1, -2) @ g
                w._accumulate(np.swapaxes(_unbroadcast(xtg, w.value.shape[::-1]), -1, -2))
            return
        a, b = factors
        av, bv = a.value, b.value
        (m1, n1), (m2, n2) = av.shape, bv.shape
        if x.requires_grad:  # g @ (A (x) B) = g @ (A^T (x) B^T)^T
            x._accumulate(kron.kron_apply(av.T, bv.T, g))
        if a.requires_grad or b.requires_grad:
            # dA = sum_t G_t B X_t^T and dB = sum_t G_t^T A X_t, with G_t in
            # m1 x m2 and X_t in n1 x n2 laid out so that t joins a GEMM axis
            t = g.size // (m1 * m2)
            gi = g.reshape(t, m1, m2).swapaxes(0, 1).reshape(m1 * t, m2)
            xk = xv.reshape(t, n1, n2).swapaxes(0, 1).reshape(n1, t * n2)
            if a.requires_grad:
                a._accumulate((gi @ bv).reshape(m1, t * n2) @ xk.T)
            if b.requires_grad:
                b._accumulate(gi.T @ (av @ xk).reshape(m1 * t, n2))
    return Tensor(out, requires_grad=True, parents=parents, backward=backward)


def _kernel(xv: np.ndarray, factors: tuple) -> np.ndarray:
    """``xv @ W^T`` for a dense W or a factor pair."""
    if len(factors) == 1:
        return xv @ factors[0].value.T
    return kron.kron_apply(factors[0].value, factors[1].value, xv)


def _epilogue(y: np.ndarray, residual: np.ndarray | None, bias: Tensor | None,
              scale: float | None) -> np.ndarray:
    """``scale * (y + residual + bias)`` in place on ``y``."""
    if residual is not None:
        y += residual
    if bias is not None:
        y += bias.value
    if scale is not None:
        y *= scale
    return y


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.value)

    def backward(g):
        x._accumulate(g * (1.0 - y * y))
    return Tensor(y, parents=(x,), backward=backward)


def softmax_last(x: Tensor, out: np.ndarray | None = None) -> Tensor:
    """Softmax over the last axis: subtract the row max, ``exp``, divide by
    the row sum. With ``out`` (which may be ``x``'s own array, when nothing
    reads ``x`` again) every pass runs in place there."""
    v = x.value
    s = np.subtract(v, v.max(axis=-1, keepdims=True), out=out)
    np.exp(s, out=s)
    s /= s.sum(axis=-1, keepdims=True)

    def backward(g):
        if x.requires_grad:
            dot = (g * s).sum(axis=-1, keepdims=True)
            x._accumulate(s * (g - dot))
    return Tensor(s, parents=(x,), backward=backward)


def layer_norm(x: Tensor, gamma: Tensor, beta: Tensor) -> Tensor:
    """Normalize over the last axis, then scale and shift."""
    v = x.value
    mu = v.mean(axis=-1, keepdims=True)
    xhat = v - mu
    with np.errstate(over="ignore"):
        var = (xhat ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + _LN_EPS)
    big = np.isinf(var[..., 0])
    if big.any():  # a deviation past ~1e154 overflows its square: scale by max|row| first
        r = xhat[big]
        m = np.abs(r).max(axis=-1, keepdims=True)
        inv[big] = 1.0 / (m * np.sqrt(((r / m) ** 2).mean(axis=-1, keepdims=True)))
    xhat *= inv
    if not (x.requires_grad or gamma.requires_grad or beta.requires_grad):
        xhat *= gamma.value  # no graph to keep xhat for: it becomes the output
        xhat += beta.value
        return Tensor(xhat)
    out = xhat * gamma.value
    out += beta.value

    def backward(g):
        if gamma.requires_grad:
            gamma._accumulate(_unbroadcast(g * xhat, gamma.value.shape))
        if beta.requires_grad:
            beta._accumulate(_unbroadcast(g, beta.value.shape))
        if x.requires_grad:
            gx = g * gamma.value
            term1 = gx
            term2 = gx.mean(axis=-1, keepdims=True)
            term3 = xhat * (gx * xhat).mean(axis=-1, keepdims=True)
            x._accumulate(inv * (term1 - term2 - term3))
    return Tensor(out, parents=(x, gamma, beta), backward=backward)


def mse(a: Tensor, b: Tensor) -> Tensor:
    """Mean over all elements of the squared difference."""
    diff = a - b
    return (diff * diff).mean()


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Mean softmax cross-entropy for integer labels; logits (batch, classes)."""
    labels = np.asarray(labels)
    v = logits.value
    shifted = v - v.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    logp = shifted - logsumexp
    picked = logp[np.arange(len(labels)), labels]

    def backward(g):
        if logits.requires_grad:
            p = np.exp(logp)
            onehot = np.zeros_like(p)
            onehot[np.arange(len(labels)), labels] = 1.0
            logits._accumulate(g * (p - onehot) / len(labels))
    return Tensor(-picked.mean(), parents=(logits,), backward=backward)
