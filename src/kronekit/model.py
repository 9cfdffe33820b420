"""Toy Transformer encoder with interchangeable dense and Kronecker weights.

Dense and factorized variants expose identical layer I/O shapes, so traces
line up tensor-for-tensor between a teacher and its compressed student.
Layout is post-LN: sublayer output = LN(x + f(x)). Forward always runs
batched; single sequences become a batch of one.

A forward that records a graph keeps what the backward needs. A layer with
no graph (a frozen model) runs as three passes over blocks: token rows
project Q, K and V; score slices form the context; token rows take the
context through the O-projection, residual and LayerNorm, then the FFN.
It frees each activation at its last use and holds only the trace plus
one block per thread. Its trace keeps each layer's scaled Q and K in place
of the (batch, heads, seq, seq) score stack, which is formed only when
read.

The blocks of a pass are work items that the calling thread shares with a
pool of as many threads as OpenBLAS was given at import, N, while every
GEMM runs on one OpenBLAS thread (:mod:`kronekit.threads`). A row pass
splits into a multiple of N equal blocks, or runs in the caller on the
whole arrays when it fits in one. Each block runs the GEMMs and ufuncs of
the unblocked, serial pass, so the values are the same whatever the
thread count, wherever a GEMM's bits do not depend on its row count. That holds for the plans the
tests run; in the bundled OpenBLAS it fails for a GEMM with few output
columns over a long input, as in a plan whose FFN factor B has one or
three rows.

A model is its named tensors: ``TransformerModel.params`` maps each KTS1
checkpoint name to a tensor. ``planner.layout`` is the one definition of
that naming and order; construction, loading, saving and the parameter and
FLOP counts all walk it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import threads
from .autodiff import Tensor
from .kron import FactorShape
from .nkp import NkpResult, nearest_kronecker
from .planner import ArchSpec, CompressionPlan, check_plan, layout
from .tensor import NamedTensorStore, ShapeError

# With no graph to record, each work item of the forward holds one block of these:
_ATTENTION_BLOCK = 1 << 18  # score elements (2 MiB of float64) per attention block
_ROW_BLOCK = 1 << 17        # elements of the widest row (1 MiB of float64) per row block

def factor_names(slot: str) -> tuple[str, str]:
    """Checkpoint names of the (A, B) factors of a factored weight slot. The
    embedding's A is the v x (d/n) lookup table and its B the 1 x n row
    shared across the vocabulary."""
    if slot == "embedding":
        return "embedding.table", "embedding.row"
    return f"{slot}.a", f"{slot}.b"


# ------------------------------------------------------------- weight kinds

@dataclass
class DenseWeight:
    w: Tensor  # out x in

    def apply(self, x: Tensor, bias: Tensor | None, **epilogue) -> Tensor:
        """``x @ W^T + bias`` and its epilogue (``ad.linear``) as one node."""
        return ad.linear(x, self.w, bias, **epilogue)


@dataclass
class KronWeight:
    a: Tensor  # m1 x n1
    b: Tensor  # m2 x n2

    @property
    def shape(self) -> FactorShape:
        return FactorShape(self.a.shape[0], self.a.shape[1], self.b.shape[0], self.b.shape[1])

    def apply(self, x: Tensor, bias: Tensor | None, **epilogue) -> Tensor:
        """Reconstruction-free ``x @ (A (x) B)^T + bias`` over the last axis,
        with its epilogue (``ad.linear``), as one node."""
        return ad.linear(x, (self.a, self.b), bias, **epilogue)


def weight(params: dict[str, Tensor], slot: str) -> DenseWeight | KronWeight:
    """The dense or factored view of one weight slot of ``params``."""
    dense = params.get(f"{slot}.dense")
    if dense is not None:
        return DenseWeight(dense)
    a, b = factor_names(slot)
    return KronWeight(params[a], params[b])


@dataclass
class TransformerModel:
    arch: ArchSpec
    params: dict[str, Tensor]  # checkpoint name -> tensor, in layout order

    def parameters(self) -> dict[str, Tensor]:
        return dict(self.params)

    def freeze(self) -> "TransformerModel":
        for t in self.params.values():
            t.requires_grad = False
        return self


@dataclass
class ForwardTrace:
    """Everything the distillation losses need from one forward pass.

    All tensors carry a leading batch axis. attn_scores holds the pre-softmax
    scaled score stacks (batch, heads, seq, seq) per layer; a frozen forward
    keeps each as a :class:`FrozenScores` that forms it on first read.
    attn_out and ffn_out hold the post-LN sublayer outputs (batch, seq, d).
    """

    E: Tensor
    attn_scores: list[Tensor] = field(default_factory=list)
    attn_out: list[Tensor] = field(default_factory=list)
    ffn_out: list[Tensor] = field(default_factory=list)
    logits: Tensor | None = None


# ------------------------------------------------------------------ forward

def embed(embedding: DenseWeight | KronWeight, token_ids: np.ndarray) -> Tensor:
    """Token embedding rows of a v x d table, or of ``table (x) row``;
    factorized lookups expand tile-by-tile, the v x d table is never
    materialized."""
    ids = np.asarray(token_ids)
    table = embedding.w if isinstance(embedding, DenseWeight) else embedding.a
    vocab = table.shape[0]
    lo, hi = (ids.min(), ids.max()) if ids.size else (0, 0)
    if lo < 0 or hi >= vocab:
        raise IndexError(f"token id {lo if lo < 0 else hi} out of range [0, {vocab})")
    rows = ad.gather_rows(table, ids)
    if isinstance(embedding, DenseWeight):
        return rows
    k = table.shape[1]
    n = embedding.b.shape[1]
    tiles = rows.reshape(*ids.shape, k, 1) @ embedding.b  # (..., d/n, n)
    return tiles.reshape(*ids.shape, k * n)


def _records_graph(params: dict[str, Tensor], prefix: str, x: Tensor) -> bool:
    """Whether the ``{prefix}.*`` sublayer applied to ``x`` records a graph."""
    return x.requires_grad or any(t.requires_grad for name, t in params.items()
                                  if name.startswith(f"{prefix}."))


def attention_forward(params: dict[str, Tensor], prefix: str, x: Tensor,
                      heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head attention body of the ``{prefix}.*`` tensors: returns
    (projected output, pre-softmax score stack). Residual/LN are applied by
    the caller.

    All heads run as one batch over (batch, heads, seq, d_k) views of Q, K
    and V. Q is scaled by 1/sqrt(d_k) before the scores matmul; for a d_k
    that is a power of four (16, 64) that equals scaling the scores, exactly.
    With a graph to record, Q and K are dropped once the scores exist, V once
    the context does. With none, the context is built by
    :func:`_frozen_attention`.
    """
    b, s, d = x.shape
    if d % heads != 0:
        raise ShapeError(f"hidden {d} not divisible by {heads} heads")
    wo, bo = weight(params, f"{prefix}.wo"), params.get(f"{prefix}.bo")
    if not _records_graph(params, prefix, x):
        scores, ctx = _frozen_attention(params, prefix, x, heads)
        return wo.apply(ctx, bo), scores
    dk = d // heads

    def project(w: str, **epilogue) -> Tensor:  # (b, s, heads, dk)
        out = weight(params, f"{prefix}.w{w}").apply(x, params.get(f"{prefix}.b{w}"), **epilogue)
        return out.reshape(b, s, heads, dk)

    q = project("q", scale=1.0 / np.sqrt(dk)).permute(0, 2, 1, 3)  # (b, h, s, dk)
    k = project("k").permute(0, 2, 3, 1)                           # (b, h, dk, s)
    scores = q @ k
    v = project("v").permute(0, 2, 1, 3)
    ctx = (ad.softmax_last(scores) @ v).permute(0, 2, 1, 3).reshape(b, s, d)
    return wo.apply(ctx, bo), scores


class FrozenScores(Tensor):
    """The pre-softmax score stack ``q @ k`` of a frozen attention layer, kept
    as its (b, h, s, dk) Q and (b, h, dk, s) K until ``.value`` is first read.

    That read forms the stack by the same batched matmul the graph path runs
    and keeps it in place of Q and K; ``.shape`` never forms it. Like any
    tensor with no graph, it has no parents and no backward."""

    __slots__ = ("_qk",)

    def __init__(self, q: np.ndarray, k: np.ndarray):
        self._qk = q, k
        self.grad, self.requires_grad, self._parents, self._backward = None, False, (), None

    @property
    def value(self) -> np.ndarray:
        if self._qk is not None:
            Tensor.value.__set__(self, np.matmul(*self._qk))
            self._qk = None
        return Tensor.value.__get__(self)

    @property
    def shape(self):
        if self._qk is None:
            return self.value.shape
        q, k = self._qk
        return (*q.shape[:-1], k.shape[-1])


def _row_blocks(arrays: list[np.ndarray], most: int) -> list[tuple[np.ndarray, ...]]:
    """The work items of a row pass: blocks of the same token rows of each
    of ``arrays`` (of one leading shape), as views. Rows that fit in
    ``most`` are one block of the whole arrays, so that each GEMM has the
    shape it has in the graph path. Else :func:`threads.split` cuts the
    stack of rows (rows, n), where a stack of single rows (..., 1, n) stays
    one of (rows, 1, n): numpy multiplies each of those by GEMV, which
    rounds otherwise than a GEMM over several rows, so a split must keep
    them single."""
    single = arrays[0].ndim > 2 and arrays[0].shape[-2] == 1
    rows = [a.reshape(-1, *(1,) * single, a.shape[-1]) for a in arrays]
    if len(rows[0]) <= most:
        return [tuple(arrays)]
    return [tuple(r[lines] for r in rows) for lines in threads.split(len(rows[0]), most)]


def _frozen_attention(params: dict[str, Tensor], prefix: str, x: Tensor,
                      heads: int) -> tuple[FrozenScores, Tensor]:
    """The scores and the (b, s, d) context of the ``{prefix}.*`` attention
    with no graph, in two passes of :func:`threads.run`.

    First, blocks of token rows (:func:`_row_blocks`) project Q, K and V,
    each into its rows of its own array. Then blocks of whole (seq x seq)
    score slices, one batch row's heads at a time or several whole batch
    rows, form softmax(q @ k) @ v. Each forms its scores in one array and
    takes the softmax in place there, and writes its product through a
    (b, h, s, dk) view of the (b, s, h, dk) context, so no permuted copy is
    made; every slice is the same GEMM as in the unblocked product. V is
    freed on return; the scores keep Q and K.
    """
    b, s, d = x.shape
    h, dk = heads, d // heads
    maps = [(weight(params, f"{prefix}.w{w}"), params.get(f"{prefix}.b{w}"), scale)
            for w, scale in (("q", 1.0 / np.sqrt(dk)), ("k", None), ("v", None))]
    qkv = [np.empty(x.shape) for _ in maps]

    def project(block: tuple[np.ndarray, ...]) -> None:
        rows, *outs = block
        for (w, bias, scale), out in zip(maps, outs):
            out[...] = w.apply(Tensor(rows), bias, scale=scale).value

    threads.run(project, _row_blocks([x.value, *qkv], _ROW_BLOCK // d))
    q, k, v = (a.reshape(b, s, h, dk) for a in qkv)
    q, k, v = q.transpose(0, 2, 1, 3), k.transpose(0, 2, 3, 1), v.transpose(0, 2, 1, 3)
    heads_per = min(h, max(1, _ATTENTION_BLOCK // (s * s)))
    rows_per = max(1, _ATTENTION_BLOCK // (h * s * s)) if heads_per == h else 1
    ctx = np.empty((b, s, h, dk))
    ctx_heads = ctx.transpose(0, 2, 1, 3)

    def context(blk: tuple[slice, slice]) -> None:
        scores = np.matmul(q[blk], k[blk])
        np.matmul(ad.softmax_last(Tensor(scores), out=scores).value, v[blk], out=ctx_heads[blk])

    threads.run(context, [np.s_[i:i + rows_per, j:j + heads_per]
                          for i in range(0, b, rows_per) for j in range(0, h, heads_per)])
    return FrozenScores(q, k), Tensor(ctx.reshape(b, s, d))


def ffn_forward(params: dict[str, Tensor], prefix: str, x: Tensor) -> Tensor:
    """Position-wise FFN of the ``{prefix}.*`` tensors with residual and
    post-LN. The hidden is freed before the LayerNorm."""
    w1, w2 = weight(params, f"{prefix}.w1"), weight(params, f"{prefix}.w2")
    b1, b2 = params.get(f"{prefix}.b1"), params.get(f"{prefix}.b2")
    return ad.layer_norm(w2.apply(w1.apply(x, b1, gelu=True), b2, residual=x),
                         params[f"{prefix}.ln.gamma"], params[f"{prefix}.ln.beta"])


def _frozen_layer(params: dict[str, Tensor], i: int, x: Tensor,
                  arch: ArchSpec) -> tuple[FrozenScores, Tensor, Tensor]:
    """Scores, attention output and FFN output of layer ``i`` with no graph,
    in three passes of :func:`threads.run`: the two of
    :func:`_frozen_attention`, then blocks of token rows that each take
    their rows of the context through the O-projection, the residual and
    LayerNorm (the attention output) and then :func:`ffn_forward`.

    The attention output is written over the context's own rows, which no
    other block reads. A block's FFN hidden, and the GELU's temporary beside
    it, hold at most ``_ROW_BLOCK`` elements each.
    """
    attn = f"layer.{i}.attn"
    scores, ctx = _frozen_attention(params, attn, x, arch.heads)
    wo, bo = weight(params, f"{attn}.wo"), params.get(f"{attn}.bo")
    gamma, beta = params[f"{attn}.ln.gamma"], params[f"{attn}.ln.beta"]
    out = np.empty(x.shape)

    def block(views: tuple[np.ndarray, ...]) -> None:
        rows, context, ffn_out = views
        a = ad.layer_norm(Tensor(rows) + wo.apply(Tensor(context), bo), gamma, beta)
        context[...] = a.value
        ffn_out[...] = ffn_forward(params, f"layer.{i}.ffn", a).value

    threads.run(block, _row_blocks([x.value, ctx.value, out],
                                   _ROW_BLOCK // max(arch.hidden, arch.ffn_dim)))
    return scores, ctx, Tensor(out)


def forward(model: TransformerModel, token_ids) -> ForwardTrace:
    """Full forward pass capturing all distillation features."""
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ShapeError(f"token ids must be (batch, seq) or (seq,), got {ids.shape}")
    b, s = ids.shape
    if s > model.arch.max_seq_len:
        raise ShapeError(f"sequence length {s} exceeds max {model.arch.max_seq_len}")
    p, arch = model.params, model.arch
    x = embed(weight(p, "embedding"), ids) + ad.gather_rows(p["embedding.position"],
                                                            np.arange(s))
    if arch.has_segment_embeddings:              # every token is in segment 0
        x = x + ad.gather_rows(p["embedding.segment"], [0])
    x = ad.layer_norm(x, p["embedding.ln.gamma"], p["embedding.ln.beta"])
    trace = ForwardTrace(E=x)
    for i in range(arch.layers):
        if _records_graph(p, f"layer.{i}", x):
            attn = f"layer.{i}.attn"
            a, scores = attention_forward(p, attn, x, arch.heads)
            a = x + a                            # frees the projection
            a = ad.layer_norm(a, p[f"{attn}.ln.gamma"], p[f"{attn}.ln.beta"])
            x = ffn_forward(p, f"layer.{i}.ffn", a)
        else:
            scores, a, x = _frozen_layer(p, i, x, arch)
        trace.attn_scores.append(scores)
        trace.attn_out.append(a)
        trace.ffn_out.append(x)
    pooled = x.mean(axis=1)                      # (batch, d)
    if arch.has_pooler:
        pooled = ad.tanh(ad.linear(pooled, p["pooler.weight"], p.get("pooler.bias")))
    trace.logits = ad.linear(pooled, p["head.weight"], p["head.bias"])
    return trace


# ------------------------------------------------------------- construction

# init scale of the slots not scaled by 1/sqrt(fan-in)
_INIT_SCALE = {"embedding": 0.1, "embedding.position": 0.02, "embedding.segment": 0.02}


def build_dense_model(arch: ArchSpec, rng: np.random.Generator) -> TransformerModel:
    """Dense model drawn from ``rng`` slot by slot in layout order: Gaussian
    matrices, zero biases and LayerNorm shifts, unit LayerNorm gains."""
    params: dict[str, Tensor] = {}
    for slot, rows, cols, group in layout(arch):
        if rows is None:
            value = np.ones(cols) if slot.endswith(".gamma") else np.zeros(cols)
        else:
            value = rng.standard_normal((rows, cols))
            value = value * _INIT_SCALE[slot] if slot in _INIT_SCALE else value / np.sqrt(cols)
        params[f"{slot}.dense" if group else slot] = ad.parameter(value)
    return TransformerModel(arch, params)


class FactorizationError(ValueError):
    """A teacher weight the nearest-Kronecker solver cannot factor; the
    message names the tensor."""


def init_student_from_teacher(teacher: TransformerModel, plan: CompressionPlan,
                              rng: np.random.Generator | None = None,
                              ) -> tuple[TransformerModel, dict[str, NkpResult]]:
    """Compress a dense teacher in one walk over :func:`layout`: plan groups
    get their nearest Kronecker approximation, everything else is copied
    verbatim; a group slot without ``{slot}.dense`` raises ShapeError.

    Returns the student and the NKP result of each factorized weight, keyed
    by the teacher's checkpoint name (``embedding.dense``,
    ``layer.0.attn.wq.dense``, ...). The plan is checked against the
    architecture (:func:`check_plan`) before any factorization. The result
    is deterministic; ``rng`` is unused and kept only so that existing
    callers that pass it keep working."""
    arch = teacher.arch
    shapes = check_plan(arch, plan)
    params: dict[str, Tensor] = {}
    results: dict[str, NkpResult] = {}
    for slot, _, _, group in layout(arch):
        if not group:
            params[slot] = ad.parameter(teacher.params[slot].value)
            continue
        name = f"{slot}.dense"
        if name not in teacher.params:
            raise ShapeError(f"teacher tensor {name!r} is missing: the teacher must be dense")
        try:
            res = nearest_kronecker(teacher.params[name].value, shapes[group])
        except ValueError as exc:  # non-finite entries
            raise FactorizationError(f"factor initialization failed for {name!r}: {exc}") from exc
        results[name] = res
        a, b = factor_names(slot)
        params[a], params[b] = ad.parameter(res.factors.a), ad.parameter(res.factors.b)
    return TransformerModel(arch, params), results


# ----------------------------------------------------------- serialization

def model_to_store(model: TransformerModel) -> NamedTensorStore:
    store = NamedTensorStore()
    for name, t in model.params.items():
        v = t.value
        store.add(name, v if v.ndim == 2 else v.reshape(1, -1))
    return store


def model_from_store(store: NamedTensorStore, arch: ArchSpec) -> TransformerModel:
    """Model from a checkpoint, checked against ``arch``: a missing tensor
    raises ``KeyError``, and a tensor (or factor pair) of the wrong shape or
    one the architecture does not use raises ``ShapeError``, each naming it.
    A weight slot with neither its dense tensor nor any factor is reported
    missing under its dense name.

    The model shares the store's arrays (a float32 tensor is cast to a new
    float64 array), so loading a checkpoint holds its payload once; training
    replaces a parameter's ``.value`` and never writes into it."""

    def shared(v):
        return Tensor(np.ascontiguousarray(v, dtype=np.float64), requires_grad=True)

    def get(name, shape=None):
        if name not in store:
            raise KeyError(f"checkpoint is missing tensor {name!r}")
        v = store[name]
        if shape is not None and v.shape != shape:
            raise ShapeError(f"{name} is {v.shape[0]}x{v.shape[1]}, "
                             f"expected {shape[0]}x{shape[1]}")
        return v

    params: dict[str, Tensor] = {}
    for slot, rows, cols, group in layout(arch):
        pair = factor_names(slot)
        if not group:
            v = get(slot, (rows or 1, cols))
            params[slot] = shared(v if rows else v.reshape(-1))
        elif f"{slot}.dense" in store or not any(n in store for n in pair):
            params[f"{slot}.dense"] = shared(get(f"{slot}.dense", (rows, cols)))
        else:
            a, b = get(pair[0]), get(pair[1])
            if group == "embedding" and b.shape[0] != 1:
                raise ShapeError(f"{pair[1]} is {b.shape[0]}x{b.shape[1]}, "
                                 f"expected a single row")
            got = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
            if got != (rows, cols):
                raise ShapeError(f"kron({pair[0]}, {pair[1]}) is {got[0]}x{got[1]}, "
                                 f"expected {rows}x{cols}")
            params[pair[0]], params[pair[1]] = shared(a), shared(b)
    unused = [name for name in store.names() if name not in params]
    if unused:
        raise ShapeError(f"checkpoint tensor {unused[0]!r} is not used by the "
                         f"architecture ({len(unused)} unused)")
    return TransformerModel(arch, params)
