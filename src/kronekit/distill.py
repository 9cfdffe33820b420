"""Distillation objective and training loop.

Intermediate losses match the embedding output, the pre-softmax attention
score stacks, and the FFN sublayer outputs between student and teacher; the
projection loss compares pooled last-layer features against the teacher's
features mapped through a learnable square matrix P (initialized to the
identity). The logits term is the mean squared error to the teacher's
logits. ``STAGES`` is the one per-stage rule: it maps each stage to the terms
it computes, the intermediate ones for ``pretrain_kd``, all six for
``finetune_kd`` and the task cross-entropy for ``no_kd``. Every stage updates
every student parameter and the projection; a term the stage skips gives a
zero gradient, and ``v - lr * 0.0`` is ``v`` bit for bit. The teacher forward
runs only when a term reads it. ``train_teacher`` is the one teacher recipe
(a dense draw from ``seed + 1``, ``no_kd`` SGD at lr 0.3, frozen), used by
the CLI and ``run_ablation``.

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
from .model import (ForwardTrace, TransformerModel, build_dense_model, forward,
                    init_student_from_teacher)
from .planner import ArchSpec

INTERMEDIATE_COMPONENTS = ("embedding", "attention", "ffn")
ALL_COMPONENTS = ("embedding", "attention", "ffn", "projection", "logits", "ce")
STAGES = {"pretrain_kd": INTERMEDIATE_COMPONENTS, "finetune_kd": ALL_COMPONENTS,
          "no_kd": ("ce",)}
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
        return STAGES[self.stage]


def _check_pair(name: str, s: Tensor, t: Tensor) -> None:
    if s.shape != t.shape:
        raise TraceMismatchError(f"{name}: student {s.shape} vs teacher {t.shape}")


def _pool(x: Tensor) -> Tensor:
    return x.mean(axis=-2)  # average over the sequence positions


def _zero() -> Tensor:
    return Tensor(0.0)


def _layer_mse(name: str, student: list[Tensor], teacher: list[Tensor]) -> Tensor:
    """Sum over layers of the MSE between paired per-layer features."""
    total = _zero()
    for i, (s, t) in enumerate(zip(student, teacher)):
        _check_pair(f"layer {i} {name}", s, t)
        total = total + ad.mse(s, t)
    return total


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
        att = _layer_mse("attention scores", st.attn_scores, tt.attn_scores)
    if "ffn" in components:
        ffn_l = _layer_mse("ffn output", st.ffn_out, tt.ffn_out)
    if "projection" in components:
        if proj is None:
            raise ValueError("projection component requires a projection matrix")
        gs = ad.concat_last([_pool(st.attn_out[-1]), _pool(st.ffn_out[-1])])
        gt = ad.concat_last([_pool(tt.attn_out[-1]), _pool(tt.ffn_out[-1])])
        _check_pair("pooled features", gs, gt)
        proj_l = ad.mse(gs, ad.linear(gt, proj))
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


def train(student: TransformerModel, teacher: TransformerModel | None,
          data: tuple[np.ndarray, np.ndarray], cfg: TrainConfig,
          proj: Tensor | None = None) -> list[dict]:
    """SGD over the stage's loss terms; returns the per-step history.

    The teacher is used read-only. May be None for the plain-CE stage.
    """
    reads_teacher = cfg.components != ("ce",)
    if reads_teacher and teacher is None:
        raise ValueError(f"stage {cfg.stage} needs a teacher")
    inputs, labels = data
    if proj is None:
        proj = make_projection(student.arch.hidden)
    params = {**student.parameters(), "projection.p": proj}
    order = sorted(params)  # fixed update order for bitwise replay
    rng = np.random.default_rng(cfg.seed)
    n = len(inputs)
    history: list[dict] = []
    last_finite: dict | None = None
    for step in range(cfg.steps):
        idx = rng.choice(n, size=min(BATCH_SIZE, n), replace=False)
        batch_ids, batch_labels = inputs[idx], labels[idx]
        st = forward(student, batch_ids)
        tt = forward(teacher, batch_ids) if reads_teacher else st  # CE reads only st
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


def train_teacher(arch: ArchSpec, data: tuple[np.ndarray, np.ndarray], seed: int,
                  steps: int) -> TransformerModel:
    """The dense teacher: drawn from ``seed + 1``, trained with plain CE at
    lr 0.3 on ``data`` with ``seed``, and returned frozen."""
    teacher = build_dense_model(arch, np.random.default_rng(seed + 1))
    train(teacher, None, data, TrainConfig(stage="no_kd", steps=steps, lr=0.3, seed=seed))
    return teacher.freeze()


# -------------------------------------------------------- evaluation helpers

REGIMES = (("none", "no_kd"), ("none", "kd"), ("kd", "no_kd"), ("kd", "kd"))


def run_ablation(arch: ArchSpec, plan, seed: int = 0, student_steps: int = 300) -> dict:
    """Four-regime {pretrain KD?} x {finetune KD?} comparison at toy scale.

    The teacher (``train_teacher``, 1500 steps) trains on the full corpus;
    the pretraining KD stage reuses it (intermediate losses need no labels),
    while the fine-tuning stage only sees a small labeled subset, so plain CE
    fine-tuning overfits and the teacher's features act as a regularizer.
    All regimes share the teacher, the data, the student initialization, and
    the total step budget; only the stages differ.

    The recipe is fixed: 8-token sequences, a 256-sequence corpus whose first
    48 are the task set, 256 held-out sequences; KD stages at lr 0.08, plain
    CE fine-tuning at lr 0.3, clip 1.0. Returns ``eval_metrics`` of the
    teacher and of each regime's student, keyed ``"<pretrain>/<finetune>"``.
    """
    data_rng = np.random.default_rng(seed)
    corpus = make_synthetic_task(arch, 256, 8, data_rng)
    eval_data = make_synthetic_task(arch, 256, 8, data_rng)
    task_data = (corpus[0][:48], corpus[1][:48])
    teacher = train_teacher(arch, corpus, seed, 1500)

    results = {"teacher": eval_metrics(teacher, teacher, eval_data), "regimes": {}}
    half = student_steps // 2
    for pretrain, finetune in REGIMES:
        student, _ = init_student_from_teacher(teacher, plan)
        proj = make_projection(arch.hidden)
        remaining = student_steps
        if pretrain == "kd":
            train(student, teacher, corpus,
                  TrainConfig(stage="pretrain_kd", steps=half, lr=0.08,
                              seed=seed + 3, clip=1.0), proj=proj)
            remaining -= half
        stage = "finetune_kd" if finetune == "kd" else "no_kd"
        lr = 0.08 if finetune == "kd" else 0.3
        train(student, teacher, task_data,
              TrainConfig(stage=stage, steps=remaining, lr=lr, seed=seed + 4, clip=1.0),
              proj=proj)
        results["regimes"][f"{pretrain}/{finetune}"] = {
            "pretrain": pretrain, "finetune": finetune,
            **eval_metrics(student, teacher, eval_data)}
    return results


def eval_metrics(student: TransformerModel, teacher: TransformerModel,
                 data: tuple[np.ndarray, np.ndarray]) -> dict[str, float]:
    """Held-out task CE, MSE to the teacher's logits, and accuracy."""
    inputs, labels = data
    st = forward(student, inputs)
    losses = kd_losses(st, forward(teacher, inputs), labels=labels,
                       components=("logits", "ce"))
    pred = st.logits.value.argmax(axis=-1)
    return {"ce": float(losses.ce.value), "teacher_logit_mse": float(losses.logits.value),
            "accuracy": float((pred == labels).mean())}
