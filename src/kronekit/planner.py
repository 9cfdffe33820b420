"""Factor-shape planning and whole-model parameter/FLOP accounting.

Accounting conventions (also emitted by the CLI report):

* Parameters: token embedding, position/segment embeddings, layernorm
  parameters, the four attention matrices, the two FFN matrices, and the
  pooler weight, each gated by the ArchSpec flags. The published totals for
  the compressed base model are only reproducible when bias vectors are
  excluded, so the reproduction config ships with has_biases=false.
* FLOPs: per-token linear-layer matvec costs times sequence length and layer
  count, plus the factorized embedding reconstruction (d multiplies per
  token). Attention score/context matmuls and softmax are identical between
  the dense and factorized models and are excluded from the headline total,
  matching the published table; they are still computed in the breakdown.
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
        self.target = target
        self.max_achievable = max_achievable


@dataclass(frozen=True)
class ArchSpec:
    vocab_size: int
    hidden: int
    layers: int
    heads: int
    ffn_dim: int
    max_seq_len: int
    has_position_embeddings: bool = True
    has_segment_embeddings: bool = True
    has_layernorm: bool = True
    has_biases: bool = True
    has_pooler: bool = True
    num_classes: int = 2

    def __post_init__(self):
        if self.hidden % self.heads != 0:
            raise ShapeError(f"hidden {self.hidden} not divisible by heads {self.heads}")

    @property
    def head_dim(self) -> int:
        return self.hidden // self.heads

    def to_json(self) -> dict:
        return {
            "vocab_size": self.vocab_size, "hidden": self.hidden, "layers": self.layers,
            "heads": self.heads, "ffn_dim": self.ffn_dim, "max_seq_len": self.max_seq_len,
            "has_position_embeddings": self.has_position_embeddings,
            "has_segment_embeddings": self.has_segment_embeddings,
            "has_layernorm": self.has_layernorm, "has_biases": self.has_biases,
            "has_pooler": self.has_pooler, "num_classes": self.num_classes,
        }

    @classmethod
    def from_json(cls, d: dict) -> "ArchSpec":
        """Unknown keys are ignored; a missing dimension, a dimension that is
        not a positive integer or a flag that is not a boolean raises
        ShapeError naming the field."""
        _require_object(d, "arch")
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

    def to_json(self, arch: ArchSpec | None = None, seq_len: int | None = None) -> dict:
        d = {
            "attention_shape": self.attention_shape.to_json(),
            "ffn1_shape": self.ffn1_shape.to_json(),
            "ffn2_shape": self.ffn2_shape.to_json(),
            "embedding_n": self.embedding_n,
        }
        if arch is not None:
            d["total_params"] = count_params(arch, self)
            d["compression_factor"] = count_params(arch) / count_params(arch, self)
            if seq_len is not None:
                d["total_flops"] = count_flops(arch, self, seq_len)
        return d

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

    @classmethod
    def load(cls, path) -> "CompressionPlan":
        with open(path) as fh:
            return cls.from_json(json.load(fh))


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


# ---------------------------------------------------------------- parameters

def _embedding_params(arch: ArchSpec, plan: CompressionPlan | None) -> int:
    if plan is None:
        return arch.vocab_size * arch.hidden
    n = plan.embedding_n
    return arch.vocab_size * (arch.hidden // n) + n


def params_breakdown(arch: ArchSpec, plan: CompressionPlan | None = None) -> dict[str, int]:
    d, f = arch.hidden, arch.ffn_dim
    out = {"token_embedding": _embedding_params(arch, plan)}
    out["position_embedding"] = arch.max_seq_len * d if arch.has_position_embeddings else 0
    out["segment_embedding"] = 2 * d if arch.has_segment_embeddings else 0
    out["embedding_layernorm"] = 2 * d if arch.has_layernorm else 0
    if plan is None:
        attn_w, ffn_w = 4 * d * d, 2 * f * d
    else:
        attn_w = 4 * plan.attention_shape.param_count
        ffn_w = plan.ffn1_shape.param_count + plan.ffn2_shape.param_count
    per_layer = attn_w + ffn_w
    if arch.has_biases:
        per_layer += 4 * d + f + d
    if arch.has_layernorm:
        per_layer += 4 * d
    out["encoder_layers"] = arch.layers * per_layer
    out["pooler"] = (d * d + (d if arch.has_biases else 0)) if arch.has_pooler else 0
    return out


def count_params(arch: ArchSpec, plan: CompressionPlan | None = None) -> int:
    return sum(params_breakdown(arch, plan).values())


# --------------------------------------------------------------------- FLOPs

@dataclass(frozen=True)
class FlopsBreakdown:
    linear: int
    embedding: int
    attention_scores: int
    softmax: int

    def total(self, include_attention: bool = False) -> int:
        t = self.linear + self.embedding
        if include_attention:
            t += self.attention_scores + self.softmax
        return t


def _linear_flops_per_token(arch: ArchSpec, plan: CompressionPlan | None) -> int:
    d, f = arch.hidden, arch.ffn_dim
    if plan is None:
        return 4 * dense_matvec_flops(d, d) + dense_matvec_flops(f, d) + dense_matvec_flops(d, f)
    return (4 * kron_flops(plan.attention_shape)
            + kron_flops(plan.ffn1_shape) + kron_flops(plan.ffn2_shape))


def flops_breakdown(arch: ArchSpec, plan: CompressionPlan | None, seq_len: int) -> FlopsBreakdown:
    if seq_len < 1:
        raise ShapeError(f"seq_len must be positive, got {seq_len}")
    d, dk, h, layers = arch.hidden, arch.head_dim, arch.heads, arch.layers
    s = seq_len
    linear = layers * s * _linear_flops_per_token(arch, plan)
    embedding = 0 if plan is None else d * s  # one multiply per reconstructed element
    scores = layers * h * (s * s * (2 * dk - 1) + s * dk * (2 * s - 1))
    softmax = layers * h * s * s * SOFTMAX_FLOPS_PER_ELEMENT
    return FlopsBreakdown(linear, embedding, scores, softmax)


def count_flops(arch: ArchSpec, plan: CompressionPlan | None, seq_len: int,
                include_attention: bool = False) -> int:
    """Forward-pass FLOPs for one sequence under the documented convention."""
    return flops_breakdown(arch, plan, seq_len).total(include_attention)


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
    """
    if target_ratio <= 1:
        raise ValueError(f"target_ratio must exceed 1, got {target_ratio}")
    d, f, layers, v = arch.hidden, arch.ffn_dim, arch.layers, arch.vocab_size
    dense_total = count_params(arch)
    fixed = dense_total - (v * d + layers * (4 * d * d + 2 * f * d))

    att_opts = [(layers * 4 * s.param_count, layers * 4 * kron_flops(s), s)
                for s in enumerate_shapes(d, d)]
    ffn_opts = []
    for s1 in enumerate_shapes(f, d):
        s2 = swap_shape(s1)
        ffn_opts.append((layers * (s1.param_count + s2.param_count),
                         layers * (kron_flops(s1) + kron_flops(s2)), s1))
    emb_opts = [(v * (d // n) + n, d, n) for n in _divisors(d)]

    budget = dense_total / target_ratio
    min_params = fixed + min(p for p, _, _ in att_opts) + min(p for p, _, _ in ffn_opts) \
        + min(p for p, _, _ in emb_opts)
    if min_params > budget:
        raise PlanInfeasibleError(target_ratio, dense_total / min_params)

    best = None  # (flops, params, att, ffn1, n)
    for ap, af, att in _pareto(att_opts):
        for fp, ff, ffn1 in _pareto(ffn_opts):
            for ep, ef, n in _pareto(emb_opts):
                if fixed + ap + fp + ep > budget:
                    continue
                key = (af + ff + ef, fixed + ap + fp + ep,
                       (att.m1, att.n1), (ffn1.m1, ffn1.n1), n)
                if best is None or key < best:
                    best = key
    if best is None:
        raise PlanInfeasibleError(target_ratio, dense_total / min_params)
    _, _, (am1, an1), (fm1, fn1), n = best
    return make_plan(arch, (am1, an1), (fm1, fn1), n)
