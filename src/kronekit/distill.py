"""Distillation objective and training loop.

Intermediate losses match the embedding output, the pre-softmax attention
score stacks, and the FFN sublayer outputs between student and teacher; the
projection loss compares pooled last-layer features against the teacher's
features mapped through a learnable square matrix P (initialized to the
identity). The logits term is the mean squared error to the teacher's
logits. The pre-training-style stage uses the intermediate terms only; the
fine-tuning stage adds projection, logits, and task cross-entropy.

Training is plain SGD, single-threaded, and bit-deterministic for a fixed
seed. History rows deliberately carry no timestamps so replays are
byte-identical; wall time is reported separately by the CLI.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .model import ForwardTrace, TransformerModel, forward
from .planner import ArchSpec

STAGES = ("pretrain_kd", "finetune_kd", "no_kd")
INTERMEDIATE_COMPONENTS = ("embedding", "attention", "ffn")
ALL_COMPONENTS = ("embedding", "attention", "ffn", "projection", "logits", "ce")
BATCH_SIZE = 8


class TraceMismatchError(ValueError):
    pass


class TrainDivergedError(RuntimeError):
    def __init__(self, step: int, last_bundle: dict | None):
        super().__init__(f"non-finite loss at step {step}")
        self.step = step
        self.last_bundle = last_bundle


def make_projection(d: int) -> Tensor:
    """Learnable 2d x 2d map for the projection loss, identity at init."""
    return ad.parameter(np.eye(2 * d))


@dataclass
class KdLossBundle:
    embedding: Tensor
    attention: Tensor
    ffn: Tensor
    projection: Tensor
    logits: Tensor
    ce: Tensor
    total: Tensor

    def floats(self) -> dict[str, float]:
        return {name: float(getattr(self, name).value)
                for name in (*ALL_COMPONENTS, "total")}


@dataclass
class TrainConfig:
    stage: str
    steps: int
    lr: float = 1e-3
    seed: int = 0
    clip: float | None = None

    def __post_init__(self):
        if self.stage not in STAGES:
            raise ValueError(f"unknown stage {self.stage!r}")

    @property
    def components(self) -> tuple[str, ...]:
        if self.stage == "pretrain_kd":
            return INTERMEDIATE_COMPONENTS
        if self.stage == "no_kd":
            return ("ce",)
        return ALL_COMPONENTS


def _check_pair(name: str, s: Tensor, t: Tensor) -> None:
    if s.shape != t.shape:
        raise TraceMismatchError(f"{name}: student {s.shape} vs teacher {t.shape}")


def _pool(x: Tensor) -> Tensor:
    return x.mean(axis=-2)  # average over the sequence positions


def _zero() -> Tensor:
    return Tensor(0.0)


def kd_losses(student_trace: ForwardTrace, teacher_trace: ForwardTrace,
              proj: Tensor | None = None, labels: np.ndarray | None = None,
              components: tuple[str, ...] = ALL_COMPONENTS) -> KdLossBundle:
    """All loss terms for one batch; disabled components stay at zero and
    contribute nothing to the graph."""
    st, tt = student_trace, teacher_trace
    if len(st.attn_scores) != len(tt.attn_scores):
        raise TraceMismatchError(
            f"layer counts differ: {len(st.attn_scores)} vs {len(tt.attn_scores)}")

    emb = att = ffn_l = proj_l = log_l = ce_l = None
    if "embedding" in components:
        _check_pair("embedding output", st.E, tt.E)
        emb = ad.mse(st.E, tt.E)
    if "attention" in components:
        att = _zero()
        for i, (so, to) in enumerate(zip(st.attn_scores, tt.attn_scores)):
            _check_pair(f"layer {i} attention scores", so, to)
            att = att + ad.mse(so, to)
    if "ffn" in components:
        ffn_l = _zero()
        for i, (sh, th) in enumerate(zip(st.ffn_out, tt.ffn_out)):
            _check_pair(f"layer {i} ffn output", sh, th)
            ffn_l = ffn_l + ad.mse(sh, th)
    if "projection" in components:
        if proj is None:
            raise ValueError("projection component requires a projection matrix")
        gs = ad.concat_last([_pool(st.attn_out[-1]), _pool(st.ffn_out[-1])])
        gt = ad.concat_last([_pool(tt.attn_out[-1]), _pool(tt.ffn_out[-1])])
        _check_pair("pooled features", gs, gt)
        proj_l = ad.mse(gs, gt @ proj.transpose_last())
    if "logits" in components:
        _check_pair("logits", st.logits, tt.logits)
        log_l = ad.mse(st.logits, tt.logits)
    if "ce" in components:
        if labels is None:
            raise ValueError("ce component requires labels")
        logits2d = st.logits.reshape(-1, st.logits.shape[-1])
        ce_l = ad.cross_entropy(logits2d, labels)

    parts = dict(embedding=emb, attention=att, ffn=ffn_l,
                 projection=proj_l, logits=log_l, ce=ce_l)
    total = _zero()
    for v in parts.values():
        if v is not None:
            total = total + v
    return KdLossBundle(**{k: (v if v is not None else _zero()) for k, v in parts.items()},
                        total=total)


def grad(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Analytic gradients of a scalar loss for the given parameter tensors."""
    for p in params.values():
        p.grad = None
    loss.backward()
    return {name: (p.grad if p.grad is not None else np.zeros_like(p.value))
            for name, p in params.items()}


# ------------------------------------------------------------ training loop

def make_synthetic_task(arch: ArchSpec, n: int, seq_len: int,
                        rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Two-class sequence task: the label says whether the first token id
    falls in the upper half of the vocabulary."""
    ids = rng.integers(0, arch.vocab_size, size=(n, seq_len))
    labels = (ids[:, 0] >= arch.vocab_size // 2).astype(np.int64)
    return ids, labels


def _trainable(student: TransformerModel, proj: Tensor, cfg: TrainConfig) -> dict[str, Tensor]:
    params = student.parameters()
    if cfg.stage == "pretrain_kd":
        params.pop("head.weight")
        params.pop("head.bias")
    elif cfg.stage == "finetune_kd":
        params["projection.p"] = proj
    return params


def train(student: TransformerModel, teacher: TransformerModel | None,
          data: tuple[np.ndarray, np.ndarray], cfg: TrainConfig,
          proj: Tensor | None = None) -> list[dict]:
    """SGD over the configured loss mask; returns the per-step history.

    The teacher is used read-only. May be None for the plain-CE stage.
    """
    if cfg.stage != "no_kd" and teacher is None:
        raise ValueError(f"stage {cfg.stage} needs a teacher")
    inputs, labels = data
    if proj is None:
        proj = make_projection(student.arch.hidden)
    params = _trainable(student, proj, cfg)
    order = sorted(params)  # fixed update order for bitwise replay
    rng = np.random.default_rng(cfg.seed)
    n = len(inputs)
    history: list[dict] = []
    last_finite: dict | None = None
    for step in range(cfg.steps):
        idx = rng.choice(n, size=min(BATCH_SIZE, n), replace=False)
        batch_ids, batch_labels = inputs[idx], labels[idx]
        st = forward(student, batch_ids)
        if teacher is not None:
            tt = forward(teacher, batch_ids)
        else:
            tt = st  # unused: no_kd computes only the CE term
        bundle = kd_losses(st, tt, proj=proj, labels=batch_labels,
                           components=cfg.components)
        record = {"step": step, **bundle.floats()}
        if not np.isfinite(record["total"]):
            raise TrainDivergedError(step, last_finite)
        history.append(record)
        last_finite = record
        grads = grad(bundle.total, params)
        if cfg.clip is not None:
            gnorm = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
            if gnorm > cfg.clip:
                scale = cfg.clip / gnorm
                grads = {k: g * scale for k, g in grads.items()}
        for name in order:
            params[name].value = params[name].value - cfg.lr * grads[name]
    return history


def write_history(history: list[dict], path) -> None:
    """One JSON object per step; key order and float formatting are fixed,
    so identical runs produce byte-identical files."""
    with open(path, "w") as fh:
        for record in history:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")


# -------------------------------------------------------- evaluation helpers

REGIMES = (("none", "no_kd"), ("none", "kd"), ("kd", "no_kd"), ("kd", "kd"))


def run_ablation(arch: ArchSpec, plan, seed: int = 0, student_steps: int = 300) -> dict:
    """Four-regime {pretrain KD?} x {finetune KD?} comparison at toy scale.

    The teacher trains on the full corpus; the pretraining KD stage reuses it
    (intermediate losses need no labels), while the fine-tuning stage only
    sees a small labeled subset, so plain CE fine-tuning overfits and the
    teacher's features act as a regularizer. All regimes share the teacher,
    the data, the student initialization, and the total step budget; only the
    loss masks differ.

    The recipe is fixed: 8-token sequences, a 256-sequence corpus whose first
    48 are the task set, 256 held-out sequences; the teacher trains 1500 steps
    at lr 0.3, KD stages at lr 0.08, plain CE fine-tuning at lr 0.3, clip 1.0.
    """
    from .model import build_dense_model, init_student_from_teacher

    data_rng = np.random.default_rng(seed)
    corpus = make_synthetic_task(arch, 256, 8, data_rng)
    eval_data = make_synthetic_task(arch, 256, 8, data_rng)
    task_data = (corpus[0][:48], corpus[1][:48])

    teacher = build_dense_model(arch, np.random.default_rng(seed + 1))
    train(teacher, None, corpus, TrainConfig(stage="no_kd", steps=1500, lr=0.3, seed=seed))
    teacher.freeze()

    results = {"teacher": eval_metrics(teacher, teacher, eval_data), "regimes": {}}
    half = student_steps // 2
    for pretrain, finetune in REGIMES:
        student, _ = init_student_from_teacher(teacher, plan)
        proj = make_projection(arch.hidden)
        history: list[dict] = []
        remaining = student_steps
        if pretrain == "kd":
            history += train(student, teacher, corpus,
                             TrainConfig(stage="pretrain_kd", steps=half, lr=0.08,
                                         seed=seed + 3, clip=1.0), proj=proj)
            remaining -= half
        stage = "finetune_kd" if finetune == "kd" else "no_kd"
        lr = 0.08 if finetune == "kd" else 0.3
        history += train(student, teacher if finetune == "kd" else None, task_data,
                         TrainConfig(stage=stage, steps=remaining, lr=lr,
                                     seed=seed + 4, clip=1.0), proj=proj)
        metrics = eval_metrics(student, teacher, eval_data)
        results["regimes"][f"{pretrain}/{finetune}"] = {
            "pretrain": pretrain, "finetune": finetune, **metrics,
            "final_intermediate_loss": sum(
                history[-1][c] for c in INTERMEDIATE_COMPONENTS) if history else None,
        }
    return results


def eval_metrics(student: TransformerModel, teacher: TransformerModel,
                 data: tuple[np.ndarray, np.ndarray]) -> dict[str, float]:
    """Held-out task CE and MSE to the teacher's logits."""
    inputs, labels = data
    st = forward(student, inputs)
    tt = forward(teacher, inputs)
    ce = ad.cross_entropy(st.logits.reshape(-1, st.logits.shape[-1]), labels)
    logit_mse = ad.mse(st.logits, tt.logits)
    pred = st.logits.value.argmax(axis=-1)
    return {"ce": float(ce.value), "teacher_logit_mse": float(logit_mse.value),
            "accuracy": float((pred == labels).mean())}
