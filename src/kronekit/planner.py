"""Factor-shape planning, the model layout, and parameter/FLOP accounting.

:func:`layout` is the one description of what the model holds; every count
walks it. Conventions (also emitted by the CLI report):

* Parameters: every checkpoint entry except the task head (:func:`counted`),
  a plan group counted as its factor pair. The published totals for the
  compressed base model are only reproducible without bias vectors, so the
  reproduction config ships with has_biases=false.
* FLOPs: per-token matvec costs of the attention and FFN weights times
  sequence length, plus the factorized embedding reconstruction (d
  multiplies per token). Attention score/context matmuls and softmax are
  identical between the dense and factorized models and are excluded from
  the headline total, matching the published table; they are still computed
  in the breakdown.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields

from .kron import FactorShape, dense_matvec_flops, kron_flops
from .tensor import ShapeError

SOFTMAX_FLOPS_PER_ELEMENT = 5  # exp + sum + div approximation, per row element


_KINDS = {int: "a positive integer", bool: "true or false", dict: "an object",
          tuple: "a pair of positive integers"}


def _positive_int(v) -> bool:
    return type(v) is int and v >= 1  # exact type: JSON true is not a dimension


def _require_object(d, where: str) -> None:
    if not isinstance(d, dict):
        raise ShapeError(f"{where}: expected a JSON object, got {type(d).__name__}")


def json_field(d, key: str, where: str, kind: type = int):
    """``d[key]`` of a parsed JSON config, checked to be ``kind``: a positive
    integer, a boolean, an object, or (tuple) a pair of positive integers.
    A non-object ``d`` or a missing or malformed field raises ShapeError
    naming the field."""
    _require_object(d, where)
    if key not in d:
        raise ShapeError(f"{where}: missing field {key!r}")
    v = d[key]
    if kind is int:
        ok = _positive_int(v)
    elif kind is tuple:
        ok = isinstance(v, list) and len(v) == 2 and all(map(_positive_int, v))
    else:
        ok = type(v) is kind
    if not ok:
        raise ShapeError(f"{where}: field {key!r} must be {_KINDS[kind]}, got {v!r}")
    return tuple(v) if kind is tuple else v


class PlanInfeasibleError(ValueError):
    def __init__(self, target: float, max_achievable: float):
        super().__init__(
            f"target compression ratio {target:g} is infeasible; "
            f"maximum achievable is {max_achievable:.2f}")
        self.max_achievable = max_achievable


@dataclass(frozen=True)
class ArchSpec:
    vocab_size: int
    hidden: int
    layers: int
    heads: int
    ffn_dim: int
    max_seq_len: int
    has_segment_embeddings: bool = False
    has_biases: bool = True
    has_pooler: bool = False
    num_classes: int = 2

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ShapeError(f"hidden {self.hidden} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    @classmethod
    def from_json(cls, d: dict) -> "ArchSpec":
        """Unknown keys are ignored; a missing dimension, a dimension that is
        not a positive integer, a flag that is not a boolean, or
        ``has_position_embeddings`` or ``has_layernorm`` other than true (the
        model has no variant without them) raises ShapeError naming the field."""
        _require_object(d, "arch")
        for name in ("has_position_embeddings", "has_layernorm"):
            if d.get(name, True) is not True:
                raise ShapeError(f"arch: field {name!r} must be true, got {d[name]!r}")
        kinds = {f.name: int if f.default is MISSING else type(f.default)
                 for f in fields(cls) if f.default is MISSING or f.name in d}
        return cls(**{name: json_field(d, name, "arch", kind) for name, kind in kinds.items()})

    @classmethod
    def load(cls, path) -> "ArchSpec":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


@dataclass(frozen=True)
class CompressionPlan:
    """Per-group factor shapes; attention_shape is shared by Wq/Wk/Wv/Wo and
    ffn2_shape is ffn1_shape with both factor shapes transposed."""

    attention_shape: FactorShape
    ffn1_shape: FactorShape
    ffn2_shape: FactorShape
    embedding_n: int

    def to_json(self, arch: ArchSpec, seq_len: int) -> dict:
        return {
            "attention_shape": self.attention_shape.to_json(),
            "ffn1_shape": self.ffn1_shape.to_json(),
            "ffn2_shape": self.ffn2_shape.to_json(),
            "embedding_n": self.embedding_n,
            "total_params": count_params(arch, self),
            "compression_factor": count_params(arch) / count_params(arch, self),
            "total_flops": count_flops(arch, self, seq_len),
        }

    @classmethod
    def from_json(cls, d: dict) -> "CompressionPlan":
        """A missing or malformed field raises ShapeError naming it."""
        def shape(key: str) -> FactorShape:
            s = json_field(d, key, "plan", dict)
            for k in ("m1", "n1", "m2", "n2"):
                json_field(s, k, f"plan {key}")
            return FactorShape.from_json(s)
        return cls(shape("attention_shape"), shape("ffn1_shape"), shape("ffn2_shape"),
                   json_field(d, "embedding_n", "plan"))


def _divisors(n: int) -> list[int]:
    return [d for d in range(1, n + 1) if n % d == 0]


def swap_shape(s: FactorShape) -> FactorShape:
    """Transpose both factors: the published FFN convention for W2 vs W1."""
    return FactorShape(m1=s.n1, n1=s.m1, m2=s.n2, n2=s.m2)


def make_plan(arch: ArchSpec, attention: tuple[int, int], ffn1: tuple[int, int],
              embedding_n: int) -> CompressionPlan:
    """Build a plan from (m1, n1) choices, deriving (m2, n2) from the arch."""
    d, f = arch.hidden, arch.ffn_dim
    am1, an1 = attention
    fm1, fn1 = ffn1
    for label, (dim, div) in {"attention m1": (d, am1), "attention n1": (d, an1),
                              "ffn m1": (f, fm1), "ffn n1": (d, fn1),
                              "embedding n": (d, embedding_n)}.items():
        if dim % div != 0:
            raise ShapeError(f"{label}={div} does not divide {dim}")
    att = FactorShape(am1, an1, d // am1, d // an1)
    ffn1_shape = FactorShape(fm1, fn1, f // fm1, d // fn1)
    return CompressionPlan(att, ffn1_shape, swap_shape(ffn1_shape), embedding_n)


def enumerate_shapes(rows: int, cols: int) -> list[FactorShape]:
    """All divisor splits of a rows x cols weight, cheapest FLOPs first."""
    if rows < 1 or cols < 1:
        raise ShapeError(f"dimensions must be positive, got {rows}x{cols}")
    shapes = [FactorShape(m1, n1, rows // m1, cols // n1)
              for m1 in _divisors(rows) for n1 in _divisors(cols)]
    shapes.sort(key=lambda s: (kron_flops(s), s.param_count, (s.m1, s.n1)))
    return shapes


# ------------------------------------------------------------------- layout

def layout(arch: ArchSpec):
    """Every checkpoint slot in checkpoint order, as ``(name, rows, cols, group)``.

    A slot with a plan group (``embedding``, ``attention``, ``ffn1``,
    ``ffn2``) is a weight matrix stored either dense as ``{name}.dense`` or
    factored as the pair ``model.factor_names`` gives. Any other slot is
    stored under its own name; ``rows`` None marks a vector of length
    ``cols``, stored as a 1 x cols matrix. The flags add the segment table
    and the pooler, and drop every bias but the task head's.
    """
    d, f = arch.hidden, arch.ffn_dim
    attn_biases = ("bq", "bk", "bv", "bo") if arch.has_biases else ()
    ffn_biases = (("b1", f), ("b2", d)) if arch.has_biases else ()
    yield "embedding", arch.vocab_size, d, "embedding"
    yield "embedding.position", arch.max_seq_len, d, None
    if arch.has_segment_embeddings:
        yield "embedding.segment", 2, d, None
    yield "embedding.ln.gamma", None, d, None
    yield "embedding.ln.beta", None, d, None
    for i in range(arch.layers):
        p = f"layer.{i}"
        for w in ("wq", "wk", "wv", "wo"):
            yield f"{p}.attn.{w}", d, d, "attention"
        for b in attn_biases + ("ln.gamma", "ln.beta"):
            yield f"{p}.attn.{b}", None, d, None
        yield f"{p}.ffn.w1", f, d, "ffn1"
        yield f"{p}.ffn.w2", d, f, "ffn2"
        for b, n in ffn_biases + (("ln.gamma", d), ("ln.beta", d)):
            yield f"{p}.ffn.{b}", None, n, None
    if arch.has_pooler:  # dense, never factored
        yield "pooler.weight", d, d, None
        if arch.has_biases:
            yield "pooler.bias", None, d, None
    yield "head.weight", arch.num_classes, d, None
    yield "head.bias", None, arch.num_classes, None


def counted(name: str) -> bool:
    """The head rule: the task head (``head.*``) is not part of the compressed
    model, so no parameter count includes it."""
    return not name.startswith("head.")


def check_plan(arch: ArchSpec, plan: CompressionPlan) -> dict[str, FactorShape]:
    """Each plan group's factor shape for ``arch``, embedding included; a
    group that does not fit the architecture raises ``ShapeError`` naming it."""
    d = arch.hidden
    shapes = {"attention": plan.attention_shape, "ffn1": plan.ffn1_shape,
              "ffn2": plan.ffn2_shape}
    sizes = {group: (rows, cols) for _, rows, cols, group in layout(arch) if group}
    for group, shape in shapes.items():
        rows, cols = sizes[group]
        if (shape.rows, shape.cols) != (rows, cols):
            raise ShapeError(f"plan {group} shape is {shape.rows}x{shape.cols}, "
                             f"the architecture's weight is {rows}x{cols}")
    if d % plan.embedding_n != 0:
        raise ShapeError(f"plan embedding_n={plan.embedding_n} does not divide {d}")
    shapes["embedding"] = FactorShape(arch.vocab_size, d // plan.embedding_n, 1, plan.embedding_n)
    return shapes


def count_params(arch: ArchSpec, plan: CompressionPlan | None = None) -> int:
    """Entries of the checkpoint of ``arch`` compressed by ``plan`` (dense
    when None), less the task head."""
    shapes = check_plan(arch, plan) if plan else {}
    return sum(shapes[group].param_count if group in shapes else (rows or 1) * cols
               for name, rows, cols, group in layout(arch) if counted(name))


# --------------------------------------------------------------------- FLOPs

@dataclass(frozen=True)
class FlopsBreakdown:
    linear: int
    embedding: int
    attention_scores: int
    softmax: int

    def total(self) -> int:
        return self.linear + self.embedding


def flops_breakdown(arch: ArchSpec, plan: CompressionPlan | None, seq_len: int) -> FlopsBreakdown:
    if seq_len < 1:
        raise ShapeError(f"seq_len must be positive, got {seq_len}")
    d, dk, h, layers = arch.hidden, arch.head_dim, arch.heads, arch.layers
    s = seq_len
    shapes = check_plan(arch, plan) if plan else {}
    linear = s * sum(kron_flops(shapes[group]) if plan else dense_matvec_flops(rows, cols)
                     for _, rows, cols, group in layout(arch)
                     if group in ("attention", "ffn1", "ffn2"))
    embedding = 0 if plan is None else d * s  # one multiply per reconstructed element
    scores = layers * h * (s * s * (2 * dk - 1) + s * dk * (2 * s - 1))
    softmax = layers * h * s * s * SOFTMAX_FLOPS_PER_ELEMENT
    return FlopsBreakdown(linear, embedding, scores, softmax)


def count_flops(arch: ArchSpec, plan: CompressionPlan | None, seq_len: int) -> int:
    """Forward-pass FLOPs for one sequence under the documented convention."""
    return flops_breakdown(arch, plan, seq_len).total()


# ---------------------------------------------------------------- plan search

def _pareto(options: list[tuple[int, int, object]]) -> list[tuple[int, int, object]]:
    """Keep options not dominated in (params, flops); sorted by params."""
    options = sorted(options)
    front, best_flops = [], None
    for params, flops, payload in options:
        if best_flops is None or flops < best_flops:
            front.append((params, flops, payload))
            best_flops = flops
    return front


def plan_for_ratio(arch: ArchSpec, target_ratio: float) -> CompressionPlan:
    """Cheapest-FLOPs plan whose whole-model compression meets the target.

    FLOP ties are broken toward the smallest parameter count, then the
    lexicographically smallest shapes, so the search is deterministic.
    The FLOP minimum is the rank-one split (A a row, B a column) with
    embedding row length d, and it is near the parameter minimum, so every
    target up to its own ratio returns that one plan: on BERT-base, every
    target up to 89.66 gives attention (1, 768, 768, 1), FFN1
    (1, 768, 3072, 1) and ``embedding_n`` 768.
    """
    if target_ratio <= 1:
        raise ValueError(f"target_ratio must exceed 1, got {target_ratio}")
    d, f, layers, v = arch.hidden, arch.ffn_dim, arch.layers, arch.vocab_size
    dense_total = count_params(arch)
    fixed = dense_total - sum(rows * cols for _, rows, cols, group in layout(arch) if group)

    att_opts = [(layers * 4 * s.param_count, layers * 4 * kron_flops(s), s)
                for s in enumerate_shapes(d, d)]
    ffn_opts = []
    for s1 in enumerate_shapes(f, d):
        s2 = swap_shape(s1)
        ffn_opts.append((layers * (s1.param_count + s2.param_count),
                         layers * (kron_flops(s1) + kron_flops(s2)), s1))
    # every row length costs the same d FLOPs per token: take the fewest parameters
    ep, n = min((v * (d // n) + n, n) for n in _divisors(d))

    budget = dense_total / target_ratio
    min_params = fixed + min(p for p, _, _ in att_opts) + min(p for p, _, _ in ffn_opts) + ep
    if min_params > budget:
        raise PlanInfeasibleError(target_ratio, dense_total / min_params)

    # the fewest-parameter option of each front is in the loop, so best is always set
    best = None  # (flops, params, att, ffn1)
    for ap, af, att in _pareto(att_opts):
        for fp, ff, ffn1 in _pareto(ffn_opts):
            if fixed + ap + fp + ep > budget:
                continue
            key = (af + ff, fixed + ap + fp + ep, (att.m1, att.n1), (ffn1.m1, ffn1.n1))
            if best is None or key < best:
                best = key
    _, _, (am1, an1), (fm1, fn1) = best
    return make_plan(arch, (am1, an1), (fm1, fn1), n)
