import copy

import numpy as np
import pytest

from kronekit import distill as kd
from kronekit.autodiff import Tensor
from kronekit.model import build_dense_model, forward, init_student_from_teacher
from kronekit.planner import ArchSpec, make_plan
from kronekit.tensor import make_rng

from conftest import config_path

TOY = ArchSpec.load(config_path("toy.json"))
PLAN = make_plan(TOY, (16, 16), (8, 4), 4)


def traces(seed=0, batch=2, s=4):
    teacher = build_dense_model(TOY, make_rng(seed))
    student, _ = init_student_from_teacher(teacher, PLAN, rng=make_rng(seed + 1))
    ids = make_rng(seed + 2).integers(0, TOY.vocab_size, size=(batch, s))
    labels = make_rng(seed + 3).integers(0, TOY.num_classes, size=batch)
    return forward(student, ids), forward(teacher, ids), labels


def test_kd_losses_match_loop_oracle():
    st, tt, labels = traces()
    proj = kd.make_projection(TOY.hidden)
    bundle = kd.kd_losses(st, tt, proj=proj, labels=labels)

    def mse(a, b):
        return float(np.mean((a - b) ** 2))

    assert np.isclose(bundle.embedding.value, mse(st.E.value, tt.E.value))
    want_att = sum(mse(a.value, b.value) for a, b in zip(st.attn_scores, tt.attn_scores))
    assert np.isclose(bundle.attention.value, want_att)
    want_ffn = sum(mse(a.value, b.value) for a, b in zip(st.ffn_out, tt.ffn_out))
    assert np.isclose(bundle.ffn.value, want_ffn)
    gs = np.concatenate([st.attn_out[-1].value.mean(axis=1),
                         st.ffn_out[-1].value.mean(axis=1)], axis=-1)
    gt = np.concatenate([tt.attn_out[-1].value.mean(axis=1),
                         tt.ffn_out[-1].value.mean(axis=1)], axis=-1)
    assert np.isclose(bundle.projection.value, mse(gs, gt @ proj.value.T))
    assert np.isclose(bundle.logits.value, mse(st.logits.value, tt.logits.value))
    lv = st.logits.value
    logp = lv - np.log(np.exp(lv - lv.max(-1, keepdims=True)).sum(-1, keepdims=True)) \
        - lv.max(-1, keepdims=True)
    assert np.isclose(bundle.ce.value, -logp[np.arange(len(labels)), labels].mean())
    total = sum(bundle.floats()[c] for c in kd.ALL_COMPONENTS)
    assert np.isclose(bundle.total.value, total)


def test_self_distillation_is_zero():
    teacher = build_dense_model(TOY, make_rng(1))
    ids = make_rng(2).integers(0, TOY.vocab_size, size=(2, 4))
    t1, t2 = forward(teacher, ids), forward(teacher, ids)
    bundle = kd.kd_losses(t1, t2, proj=kd.make_projection(TOY.hidden),
                          labels=np.zeros(2, dtype=int))
    for name in ("embedding", "attention", "ffn", "projection", "logits"):
        assert bundle.floats()[name] == 0.0
    assert bundle.ce.value > 0.0


def test_constant_offset_gives_unit_mse():
    st, tt, _ = traces(seed=3)
    st.E = st.E * 0.0 + Tensor(tt.E.value) + 1.0
    bundle = kd.kd_losses(st, tt, components=("embedding",))
    assert np.isclose(bundle.embedding.value, 1.0)


def test_trace_mismatch_detection():
    st, tt, labels = traces(seed=4)
    short = copy.copy(tt)
    short.attn_scores = tt.attn_scores[:-1]
    with pytest.raises(kd.TraceMismatchError):
        kd.kd_losses(st, short, proj=kd.make_projection(TOY.hidden), labels=labels)


def test_component_requirements():
    st, tt, _ = traces(seed=5)
    with pytest.raises(ValueError):
        kd.kd_losses(st, tt, components=("projection",))  # needs proj
    with pytest.raises(ValueError):
        kd.kd_losses(st, tt, components=("ce",))          # needs labels


def test_stage_masks():
    cfg = kd.TrainConfig(stage="pretrain_kd", steps=1)
    assert cfg.components == kd.INTERMEDIATE_COMPONENTS
    assert kd.TrainConfig(stage="no_kd", steps=1).components == ("ce",)
    assert kd.TrainConfig(stage="finetune_kd", steps=1).components == kd.ALL_COMPONENTS
    with pytest.raises(ValueError):
        kd.TrainConfig(stage="warmup", steps=1)


def test_pretrain_stage_freezes_head():
    teacher = build_dense_model(TOY, make_rng(7)).freeze()
    student, _ = init_student_from_teacher(teacher, PLAN, rng=make_rng(8))
    head_before = student.params["head.weight"].value.copy()
    data = kd.make_synthetic_task(TOY, 16, 4, make_rng(9))
    proj = kd.make_projection(TOY.hidden)
    proj_before = proj.value.copy()
    kd.train(student, teacher, data, kd.TrainConfig(stage="pretrain_kd", steps=3, lr=0.05),
             proj=proj)
    assert np.array_equal(student.params["head.weight"].value, head_before)
    # but the factorized weights did move
    assert not np.array_equal(student.params["embedding.table"].value,
                              teacher.params["embedding.dense"].value[:, :8])
    # a stage whose terms skip the projection leaves it bit-unchanged
    kd.train(student, teacher, data, kd.TrainConfig(stage="no_kd", steps=3, lr=0.05),
             proj=proj)
    assert np.array_equal(proj.value, proj_before)
    kd.train(student, teacher, data, kd.TrainConfig(stage="finetune_kd", steps=3, lr=0.05),
             proj=proj)
    assert not np.array_equal(proj.value, proj_before)


def test_no_kd_stage_skips_teacher_forward(monkeypatch):
    teacher = build_dense_model(TOY, make_rng(7)).freeze()
    student, _ = init_student_from_teacher(teacher, PLAN, rng=make_rng(8))
    data = kd.make_synthetic_task(TOY, 16, 4, make_rng(9))
    calls = []

    def counting_forward(model, ids):
        calls.append(model)
        return forward(model, ids)

    monkeypatch.setattr(kd, "forward", counting_forward)
    kd.train(student, teacher, data, kd.TrainConfig(stage="no_kd", steps=3, lr=0.05))
    assert len(calls) == 3 and all(m is student for m in calls)


def test_train_zero_lr_is_noop():
    teacher = build_dense_model(TOY, make_rng(10)).freeze()
    student, _ = init_student_from_teacher(teacher, PLAN, rng=make_rng(11))
    before = {k: v.value.copy() for k, v in student.parameters().items()}
    data = kd.make_synthetic_task(TOY, 16, 4, make_rng(12))
    history = kd.train(student, teacher, data,
                       kd.TrainConfig(stage="finetune_kd", steps=4, lr=0.0))
    assert len(history) == 4
    for k, v in student.parameters().items():
        assert np.array_equal(v.value, before[k])


def test_train_requires_teacher_for_kd_stages():
    student = build_dense_model(TOY, make_rng(13))
    data = kd.make_synthetic_task(TOY, 8, 4, make_rng(14))
    with pytest.raises(ValueError):
        kd.train(student, None, data, kd.TrainConfig(stage="finetune_kd", steps=1))


def test_train_deterministic_history():
    def run():
        teacher = build_dense_model(TOY, make_rng(15)).freeze()
        student, _ = init_student_from_teacher(teacher, PLAN, rng=make_rng(16))
        data = kd.make_synthetic_task(TOY, 32, 4, make_rng(17))
        return kd.train(student, teacher, data,
                        kd.TrainConfig(stage="finetune_kd", steps=5, lr=0.01, clip=1.0))
    assert run() == run()


def test_train_divergence_raises_with_context():
    teacher = build_dense_model(TOY, make_rng(18)).freeze()
    student, _ = init_student_from_teacher(teacher, PLAN, rng=make_rng(19))
    data = kd.make_synthetic_task(TOY, 16, 4, make_rng(20))
    with pytest.raises(kd.TrainDivergedError) as err, \
            np.errstate(over="ignore", invalid="ignore"):
        kd.train(student, teacher, data,
                 kd.TrainConfig(stage="finetune_kd", steps=200, lr=50.0))
    assert err.value.step >= 1
    assert err.value.last_bundle is not None and "total" in err.value.last_bundle


def test_gradient_clipping_stabilizes():
    teacher = build_dense_model(TOY, make_rng(18)).freeze()
    student, _ = init_student_from_teacher(teacher, PLAN, rng=make_rng(19))
    data = kd.make_synthetic_task(TOY, 16, 4, make_rng(20))
    history = kd.train(student, teacher, data,
                       kd.TrainConfig(stage="finetune_kd", steps=30, lr=0.05, clip=1.0))
    assert all(np.isfinite(h["total"]) for h in history)


def test_make_synthetic_task_rule():
    ids, labels = kd.make_synthetic_task(TOY, 100, 6, make_rng(21))
    assert ids.shape == (100, 6)
    assert np.array_equal(labels, (ids[:, 0] >= TOY.vocab_size // 2).astype(int))
    again = kd.make_synthetic_task(TOY, 100, 6, make_rng(21))
    assert np.array_equal(ids, again[0])


def test_write_history_bytes_deterministic(tmp_path):
    history = [{"step": 0, "total": 1.25, "ce": 0.5}, {"step": 1, "total": 1.0, "ce": 0.25}]
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    kd.write_history(history, p1)
    kd.write_history(list(history), p2)
    assert p1.read_bytes() == p2.read_bytes()
    lines = p1.read_text().splitlines()
    assert len(lines) == 2 and lines[0].startswith("{\"ce\":")


def test_eval_metrics_perfect_student():
    teacher = build_dense_model(TOY, make_rng(22)).freeze()
    data = kd.make_synthetic_task(TOY, 16, 4, make_rng(23))
    m = kd.eval_metrics(teacher, teacher, data)
    assert m["teacher_logit_mse"] == 0.0
    assert 0.0 <= m["accuracy"] <= 1.0 and m["ce"] > 0.0
