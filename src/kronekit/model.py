"""Toy Transformer encoder with interchangeable dense and Kronecker weights.

Dense and factorized variants expose identical layer I/O shapes, so traces
line up tensor-for-tensor between a teacher and its compressed student.
Layout is post-LN: sublayer output = LN(x + f(x)). Forward always runs
batched; single sequences become a batch of one.

Checkpoint naming (KTS1 stores):
    embedding.dense | embedding.table + embedding.row
    embedding.position, embedding.ln.gamma, embedding.ln.beta
    layer.{i}.attn.{wq|wk|wv|wo}.{dense | a + b}
    layer.{i}.attn.{bq|bk|bv|bo}, layer.{i}.attn.ln.{gamma|beta}
    layer.{i}.ffn.{w1|w2}.{dense | a + b}
    layer.{i}.ffn.{b1|b2}, layer.{i}.ffn.ln.{gamma|beta}
    head.weight, head.bias
Vectors are stored as 1 x n matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .kron import FactorShape
from .nkp import NkpResult, nearest_kronecker
from .planner import ArchSpec, CompressionPlan
from .tensor import NamedTensorStore, ShapeError


# ------------------------------------------------------------- weight kinds

@dataclass
class DenseWeight:
    w: Tensor  # out x in

    def apply(self, x: Tensor) -> Tensor:
        return x @ self.w.transpose_last()

    def named(self, prefix: str):
        yield f"{prefix}.dense", self.w


@dataclass
class KronWeight:
    a: Tensor  # m1 x n1
    b: Tensor  # m2 x n2

    @property
    def shape(self) -> FactorShape:
        return FactorShape(self.a.shape[0], self.a.shape[1], self.b.shape[0], self.b.shape[1])

    def apply(self, x: Tensor) -> Tensor:
        """Reconstruction-free application to row vectors in the last axis."""
        return ad.kron_apply(x, self.a, self.b)

    def named(self, prefix: str):
        yield f"{prefix}.a", self.a
        yield f"{prefix}.b", self.b


@dataclass
class DenseEmbedding:
    table: Tensor  # v x d

    def named(self):
        yield "embedding.dense", self.table


@dataclass
class KronEmbedding:
    table: Tensor  # v x (d/n), the lookup factor
    row: Tensor    # 1 x n, shared across the vocabulary

    def named(self):
        yield "embedding.table", self.table
        yield "embedding.row", self.row


@dataclass
class AttentionWeights:
    wq: DenseWeight | KronWeight
    wk: DenseWeight | KronWeight
    wv: DenseWeight | KronWeight
    wo: DenseWeight | KronWeight
    bq: Tensor
    bk: Tensor
    bv: Tensor
    bo: Tensor


@dataclass
class FfnWeights:
    w1: DenseWeight | KronWeight
    w2: DenseWeight | KronWeight
    b1: Tensor
    b2: Tensor


@dataclass
class LayerWeights:
    attn: AttentionWeights
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ffn: FfnWeights
    ln2_gamma: Tensor
    ln2_beta: Tensor


@dataclass
class TransformerModel:
    arch: ArchSpec
    embedding: DenseEmbedding | KronEmbedding
    position: Tensor          # max_seq_len x d
    emb_ln_gamma: Tensor
    emb_ln_beta: Tensor
    layers: list[LayerWeights]
    head_w: Tensor            # num_classes x d
    head_b: Tensor            # num_classes

    def parameters(self) -> dict[str, Tensor]:
        out: dict[str, Tensor] = dict(self.embedding.named())
        out["embedding.position"] = self.position
        out["embedding.ln.gamma"] = self.emb_ln_gamma
        out["embedding.ln.beta"] = self.emb_ln_beta
        for i, lay in enumerate(self.layers):
            for key, wobj in (("wq", lay.attn.wq), ("wk", lay.attn.wk),
                              ("wv", lay.attn.wv), ("wo", lay.attn.wo)):
                out.update(wobj.named(f"layer.{i}.attn.{key}"))
            for key, t in (("bq", lay.attn.bq), ("bk", lay.attn.bk),
                           ("bv", lay.attn.bv), ("bo", lay.attn.bo)):
                out[f"layer.{i}.attn.{key}"] = t
            out[f"layer.{i}.attn.ln.gamma"] = lay.ln1_gamma
            out[f"layer.{i}.attn.ln.beta"] = lay.ln1_beta
            out.update(lay.ffn.w1.named(f"layer.{i}.ffn.w1"))
            out.update(lay.ffn.w2.named(f"layer.{i}.ffn.w2"))
            out[f"layer.{i}.ffn.b1"] = lay.ffn.b1
            out[f"layer.{i}.ffn.b2"] = lay.ffn.b2
            out[f"layer.{i}.ffn.ln.gamma"] = lay.ln2_gamma
            out[f"layer.{i}.ffn.ln.beta"] = lay.ln2_beta
        out["head.weight"] = self.head_w
        out["head.bias"] = self.head_b
        return out

    def freeze(self) -> "TransformerModel":
        for t in self.parameters().values():
            t.requires_grad = False
        return self


@dataclass
class ForwardTrace:
    """Everything the distillation losses need from one forward pass.

    All tensors carry a leading batch axis. attn_scores holds the pre-softmax
    scaled score stacks (batch, heads, seq, seq) per layer; attn_out and
    ffn_out hold the sublayer outputs (batch, seq, d).
    """

    E: Tensor
    attn_scores: list[Tensor] = field(default_factory=list)
    attn_out: list[Tensor] = field(default_factory=list)
    ffn_out: list[Tensor] = field(default_factory=list)
    logits: Tensor | None = None


# ------------------------------------------------------------------ forward

def embed(embedding: DenseEmbedding | KronEmbedding, token_ids: np.ndarray) -> Tensor:
    """Token embedding rows; factorized lookups expand tile-by-tile, the
    v x d table is never materialized."""
    ids = np.asarray(token_ids)
    vocab = embedding.table.shape[0]
    lo, hi = (ids.min(), ids.max()) if ids.size else (0, 0)
    if lo < 0 or hi >= vocab:
        raise IndexError(f"token id {lo if lo < 0 else hi} out of range [0, {vocab})")
    if isinstance(embedding, DenseEmbedding):
        return ad.gather_rows(embedding.table, ids)
    rows = ad.gather_rows(embedding.table, ids)          # (..., d/n)
    k = embedding.table.shape[1]
    n = embedding.row.shape[1]
    tiles = rows.reshape(*ids.shape, k, 1) @ embedding.row  # (..., d/n, n)
    return tiles.reshape(*ids.shape, k * n)


def attention_forward(w: AttentionWeights, x: Tensor, heads: int) -> tuple[Tensor, Tensor]:
    """Multi-head attention body: returns (projected output, pre-softmax
    score stack). Residual/LN are applied by the caller.

    All heads run as one batch over (batch, heads, seq, d_k) views of Q, K
    and V. Q is scaled by 1/sqrt(d_k) before the scores matmul; for a d_k
    that is a power of four (16, 64) that equals scaling the scores, exactly.
    """
    b, s, d = x.shape
    if d % heads != 0:
        raise ShapeError(f"hidden {d} not divisible by {heads} heads")
    dk = d // heads
    q = (w.wq.apply(x) + w.bq) * (1.0 / np.sqrt(dk))
    k = w.wk.apply(x) + w.bk
    v = w.wv.apply(x) + w.bv
    q = q.reshape(b, s, heads, dk).permute(0, 2, 1, 3)    # (b, h, s, dk)
    kt = k.reshape(b, s, heads, dk).permute(0, 2, 3, 1)   # (b, h, dk, s)
    v = v.reshape(b, s, heads, dk).permute(0, 2, 1, 3)
    scores = q @ kt
    ctx = (ad.softmax_last(scores) @ v).permute(0, 2, 1, 3).reshape(b, s, d)
    return w.wo.apply(ctx) + w.bo, scores


def ffn_forward(w: FfnWeights, x: Tensor, ln_gamma: Tensor, ln_beta: Tensor) -> Tensor:
    """Position-wise FFN with residual and post-LN."""
    h = ad.gelu(w.w1.apply(x) + w.b1)
    return ad.layer_norm(x + w.w2.apply(h) + w.b2, ln_gamma, ln_beta)


def forward(model: TransformerModel, token_ids,
            attention_feature: str = "sublayer_output") -> ForwardTrace:
    """Full forward pass capturing all distillation features.

    attention_feature picks what attn_out records: the post-LN sublayer
    output ("sublayer_output", default) or the raw projected attention
    output before residual/LN ("projection_output").
    """
    if attention_feature not in ("sublayer_output", "projection_output"):
        raise ValueError(f"unknown attention_feature {attention_feature!r}")
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim == 1:
        ids = ids[None, :]
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ShapeError(f"token ids must be (batch, seq) or (seq,), got {ids.shape}")
    b, s = ids.shape
    if s > model.arch.max_seq_len:
        raise ShapeError(f"sequence length {s} exceeds max {model.arch.max_seq_len}")
    tok = embed(model.embedding, ids)
    pos = ad.gather_rows(model.position, np.arange(s))
    x = ad.layer_norm(tok + pos, model.emb_ln_gamma, model.emb_ln_beta)
    trace = ForwardTrace(E=x)
    for lay in model.layers:
        a_raw, o_stack = attention_forward(lay.attn, x, model.arch.heads)
        x = ad.layer_norm(x + a_raw, lay.ln1_gamma, lay.ln1_beta)
        trace.attn_scores.append(o_stack)
        trace.attn_out.append(x if attention_feature == "sublayer_output" else a_raw)
        x = ffn_forward(lay.ffn, x, lay.ln2_gamma, lay.ln2_beta)
        trace.ffn_out.append(x)
    pooled = x.mean(axis=1)                      # (batch, d)
    trace.logits = pooled @ model.head_w.transpose_last() + model.head_b
    return trace


# ------------------------------------------------------------- construction

def build_dense_model(arch: ArchSpec, rng: np.random.Generator,
                      init_scale: float = 1.0) -> TransformerModel:
    d, f = arch.hidden, arch.ffn_dim

    def weight(rows, cols):
        return ad.parameter(rng.standard_normal((rows, cols)) * init_scale / np.sqrt(cols))

    def bias(n):
        return ad.parameter(np.zeros(n))

    def ln_pair():
        return ad.parameter(np.ones(d)), ad.parameter(np.zeros(d))

    emb = DenseEmbedding(ad.parameter(rng.standard_normal((arch.vocab_size, d)) * 0.1))
    position = ad.parameter(rng.standard_normal((arch.max_seq_len, d)) * 0.02)
    emb_g, emb_b = ln_pair()
    layers = []
    for _ in range(arch.layers):
        attn = AttentionWeights(
            wq=DenseWeight(weight(d, d)), wk=DenseWeight(weight(d, d)),
            wv=DenseWeight(weight(d, d)), wo=DenseWeight(weight(d, d)),
            bq=bias(d), bk=bias(d), bv=bias(d), bo=bias(d))
        g1, b1 = ln_pair()
        ffn = FfnWeights(w1=DenseWeight(weight(f, d)), w2=DenseWeight(weight(d, f)),
                         b1=bias(f), b2=bias(d))
        g2, b2 = ln_pair()
        layers.append(LayerWeights(attn, g1, b1, ffn, g2, b2))
    head_w = ad.parameter(rng.standard_normal((arch.num_classes, d)) * init_scale / np.sqrt(d))
    head_b = ad.parameter(np.zeros(arch.num_classes))
    return TransformerModel(arch, emb, position, emb_g, emb_b, layers, head_w, head_b)


def _nkp_weight(name: str, w: np.ndarray, shape: FactorShape,
                results: dict[str, NkpResult]) -> KronWeight:
    try:
        res = nearest_kronecker(w, shape)
    except ValueError as exc:  # non-finite entries
        raise RuntimeError(f"factor initialization failed for {name!r}: {exc}") from exc
    results[name] = res
    return KronWeight(ad.parameter(res.factors.a), ad.parameter(res.factors.b))


def init_student_from_teacher(teacher: TransformerModel, plan: CompressionPlan,
                              rng: np.random.Generator | None = None,
                              ) -> tuple[TransformerModel, dict[str, NkpResult]]:
    """Compress a dense teacher: factorized groups get their nearest
    Kronecker approximation, everything else is copied verbatim.

    Returns the student and the NKP result of each factorized weight, keyed
    by the teacher's checkpoint name (``embedding.dense``,
    ``layer.0.attn.wq.dense``, ...). Every plan group is checked against the
    architecture before any factorization; a misfit raises ``ShapeError``
    naming the group. The result is deterministic; ``rng`` is unused and kept
    only so that existing callers that pass it keep working."""
    arch = teacher.arch
    d, f = arch.hidden, arch.ffn_dim
    for group, shape, rows, cols in (("attention", plan.attention_shape, d, d),
                                     ("ffn1", plan.ffn1_shape, f, d),
                                     ("ffn2", plan.ffn2_shape, d, f)):
        if (shape.rows, shape.cols) != (rows, cols):
            raise ShapeError(f"plan {group} shape is {shape.rows}x{shape.cols}, "
                             f"the architecture's weight is {rows}x{cols}")
    if d % plan.embedding_n != 0:
        raise ShapeError(f"plan embedding_n={plan.embedding_n} does not divide {d}")
    if not isinstance(teacher.embedding, DenseEmbedding):
        raise ShapeError("teacher must be dense")
    results: dict[str, NkpResult] = {}

    def copy(t: Tensor) -> Tensor:
        return ad.parameter(t.value.copy())

    emb_shape = FactorShape(arch.vocab_size, d // plan.embedding_n, 1, plan.embedding_n)
    kw = _nkp_weight("embedding.dense", teacher.embedding.table.value, emb_shape, results)
    embedding = KronEmbedding(table=kw.a, row=kw.b)

    layers = []
    for i, lay in enumerate(teacher.layers):
        def factor(key, wobj, shape):
            if not isinstance(wobj, DenseWeight):
                raise ShapeError("teacher must be dense")
            return _nkp_weight(f"layer.{i}.{key}.dense", wobj.w.value, shape, results)
        attn = AttentionWeights(
            wq=factor("attn.wq", lay.attn.wq, plan.attention_shape),
            wk=factor("attn.wk", lay.attn.wk, plan.attention_shape),
            wv=factor("attn.wv", lay.attn.wv, plan.attention_shape),
            wo=factor("attn.wo", lay.attn.wo, plan.attention_shape),
            bq=copy(lay.attn.bq), bk=copy(lay.attn.bk),
            bv=copy(lay.attn.bv), bo=copy(lay.attn.bo))
        ffn = FfnWeights(
            w1=factor("ffn.w1", lay.ffn.w1, plan.ffn1_shape),
            w2=factor("ffn.w2", lay.ffn.w2, plan.ffn2_shape),
            b1=copy(lay.ffn.b1), b2=copy(lay.ffn.b2))
        layers.append(LayerWeights(attn, copy(lay.ln1_gamma), copy(lay.ln1_beta),
                                   ffn, copy(lay.ln2_gamma), copy(lay.ln2_beta)))
    student = TransformerModel(arch, embedding, copy(teacher.position),
                               copy(teacher.emb_ln_gamma), copy(teacher.emb_ln_beta),
                               layers, copy(teacher.head_w), copy(teacher.head_b))
    return student, results


# ----------------------------------------------------------- serialization

def model_to_store(model: TransformerModel) -> NamedTensorStore:
    store = NamedTensorStore()
    for name, t in model.parameters().items():
        v = t.value
        store.add(name, v if v.ndim == 2 else v.reshape(1, -1))
    return store


def model_from_store(store: NamedTensorStore, arch: ArchSpec) -> TransformerModel:
    """Model from a checkpoint, checked against ``arch``: a missing tensor
    raises ``KeyError``, and a tensor (or factor pair) of the wrong shape or
    one the architecture does not use raises ``ShapeError``, each naming it."""
    d, f = arch.hidden, arch.ffn_dim

    def tensor(name):
        if name not in store:
            raise KeyError(f"checkpoint is missing tensor {name!r}")
        return store[name]

    def get(name, rows, cols=None):
        # cols=None: a vector of length rows, stored as a 1 x rows matrix
        v = tensor(name)
        want = (rows, cols) if cols is not None else (1, rows)
        if v.shape != want:
            raise ShapeError(f"{name} is {v.shape[0]}x{v.shape[1]}, "
                             f"expected {want[0]}x{want[1]}")
        return ad.parameter(v if cols is not None else v.reshape(-1))

    def factors(name_a, name_b, rows, cols):
        a, b = tensor(name_a), tensor(name_b)
        got = (a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])
        if got != (rows, cols):
            raise ShapeError(f"kron({name_a}, {name_b}) is {got[0]}x{got[1]}, "
                             f"expected {rows}x{cols}")
        return ad.parameter(a), ad.parameter(b)

    def weight_at(prefix, rows, cols):
        if f"{prefix}.dense" in store:
            return DenseWeight(get(f"{prefix}.dense", rows, cols))
        return KronWeight(*factors(f"{prefix}.a", f"{prefix}.b", rows, cols))

    if "embedding.dense" in store:
        embedding = DenseEmbedding(get("embedding.dense", arch.vocab_size, d))
    else:
        # rows multiply out to vocab_size only if the shared row is 1 x n
        embedding = KronEmbedding(*factors("embedding.table", "embedding.row",
                                           arch.vocab_size, d))
    layers = []
    for i in range(arch.layers):
        p = f"layer.{i}"
        attn = AttentionWeights(
            wq=weight_at(f"{p}.attn.wq", d, d), wk=weight_at(f"{p}.attn.wk", d, d),
            wv=weight_at(f"{p}.attn.wv", d, d), wo=weight_at(f"{p}.attn.wo", d, d),
            bq=get(f"{p}.attn.bq", d), bk=get(f"{p}.attn.bk", d),
            bv=get(f"{p}.attn.bv", d), bo=get(f"{p}.attn.bo", d))
        ffn = FfnWeights(w1=weight_at(f"{p}.ffn.w1", f, d), w2=weight_at(f"{p}.ffn.w2", d, f),
                         b1=get(f"{p}.ffn.b1", f), b2=get(f"{p}.ffn.b2", d))
        layers.append(LayerWeights(attn, get(f"{p}.attn.ln.gamma", d),
                                   get(f"{p}.attn.ln.beta", d), ffn,
                                   get(f"{p}.ffn.ln.gamma", d),
                                   get(f"{p}.ffn.ln.beta", d)))
    model = TransformerModel(arch, embedding, get("embedding.position", arch.max_seq_len, d),
                             get("embedding.ln.gamma", d), get("embedding.ln.beta", d),
                             layers, get("head.weight", arch.num_classes, d),
                             get("head.bias", arch.num_classes))
    used = model.parameters()
    unused = [name for name in store.names() if name not in used]
    if unused:
        raise ShapeError(f"checkpoint tensor {unused[0]!r} is not used by the "
                         f"architecture ({len(unused)} unused)")
    return model
