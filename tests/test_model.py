import numpy as np
import pytest

from kronekit import autodiff as ad
from kronekit import distill as kd
from kronekit.kron import KronFactorPair, kron_product
from kronekit.model import (AttentionWeights, DenseEmbedding, DenseWeight,
                            KronEmbedding, KronWeight, attention_forward,
                            build_dense_model, embed, forward, init_student_from_teacher,
                            model_from_store, model_to_store)
from kronekit.planner import ArchSpec, make_plan
from kronekit.tensor import NamedTensorStore, ShapeError, make_rng

from conftest import config_path
from oracles import FlopCounter, kron_embed_oracle

TOY = ArchSpec.load(config_path("toy.json"))
PLAN = make_plan(TOY, (16, 16), (8, 4), 4)


def toy_exact_kron_teacher(seed=0):
    """Dense model whose weights are exact Kronecker products of PLAN's shapes."""
    rng = make_rng(seed)
    teacher = build_dense_model(TOY, rng)
    d = TOY.hidden
    emb = np.kron(rng.standard_normal((TOY.vocab_size, d // 4)) * 0.1,
                  rng.standard_normal((1, 4)))
    teacher.embedding.table.value = emb
    for lay in teacher.layers:
        for wobj, shape in ((lay.attn.wq, PLAN.attention_shape),
                            (lay.attn.wk, PLAN.attention_shape),
                            (lay.attn.wv, PLAN.attention_shape),
                            (lay.attn.wo, PLAN.attention_shape),
                            (lay.ffn.w1, PLAN.ffn1_shape),
                            (lay.ffn.w2, PLAN.ffn2_shape)):
            a = rng.standard_normal((shape.m1, shape.n1)) / np.sqrt(shape.n1)
            b = rng.standard_normal((shape.m2, shape.n2)) / np.sqrt(shape.n2)
            wobj.w.value = np.kron(a, b)
    return teacher


def exact_kron_model(teacher, plan):
    """Teacher rebuilt with factor pairs that reproduce its weights exactly.

    Only valid when the teacher's weights are themselves exact Kronecker
    products of the planned shapes, as in :func:`toy_exact_kron_teacher`."""
    student, results = init_student_from_teacher(teacher, plan)
    worst = max(r.residual for r in results.values())
    if worst > 1e-6:
        raise ValueError(f"teacher weights are not exact Kronecker products (residual {worst:.3e})")
    return student


# ---------------------------------------------------------------- embeddings

def test_kron_embedding_hand_example():
    emb = KronEmbedding(table=ad.parameter([[2.0], [3.0]]),
                        row=ad.parameter([[1.0, 10.0]]))
    out = embed(emb, np.array([0, 1]))
    assert np.array_equal(out.value, [[2.0, 20.0], [3.0, 30.0]])


def test_kron_embedding_matches_dense_reconstruction():
    rng = make_rng(0)
    table = rng.standard_normal((10, 3))
    row = rng.standard_normal((1, 4))
    kron = KronEmbedding(ad.parameter(table), ad.parameter(row))
    dense = DenseEmbedding(ad.parameter(np.kron(table, row)))
    ids = rng.integers(0, 10, size=(2, 5))
    assert np.allclose(embed(kron, ids).value, embed(dense, ids).value, atol=1e-12)


def test_embed_out_of_range():
    dense = DenseEmbedding(ad.parameter(np.zeros((4, 2))))
    kron = KronEmbedding(ad.parameter(np.zeros((4, 1))), ad.parameter(np.ones((1, 2))))
    for emb in (dense, kron):
        for bad in (-1, 4):  # -1 must not wrap round to the last vocab row
            with pytest.raises(IndexError, match=f"token id {bad} out of range"):
                embed(emb, np.array([[0, bad], [1, 2]]))


def test_embed_counted_exact_cost_and_values():
    rng = make_rng(1)
    emb = KronEmbedding(ad.parameter(rng.standard_normal((10, 3))),
                        ad.parameter(rng.standard_normal((1, 4))))
    ids = rng.integers(0, 10, size=7)
    counter = FlopCounter()
    out = kron_embed_oracle(emb.table.value, emb.row.value, ids, counter)
    assert counter.mults == 7 * 12  # exactly d multiplies per token
    assert counter.adds == 0
    assert np.allclose(out, embed(emb, ids).value, atol=1e-12)


# ----------------------------------------------------------------- attention

def test_attention_forward_matches_manual_numpy():
    rng = make_rng(2)
    d, heads, s = 4, 2, 3
    w = AttentionWeights(
        wq=DenseWeight(ad.parameter(rng.standard_normal((d, d)))),
        wk=DenseWeight(ad.parameter(rng.standard_normal((d, d)))),
        wv=DenseWeight(ad.parameter(rng.standard_normal((d, d)))),
        wo=DenseWeight(ad.parameter(rng.standard_normal((d, d)))),
        bq=ad.parameter(rng.standard_normal(d)), bk=ad.parameter(rng.standard_normal(d)),
        bv=ad.parameter(rng.standard_normal(d)), bo=ad.parameter(rng.standard_normal(d)))
    x = ad.Tensor(rng.standard_normal((1, s, d)))
    a, o_stack = attention_forward(w, x, heads)
    assert a.shape == (1, s, d)
    assert o_stack.shape == (1, heads, s, s)

    xv = x.value[0]
    q = xv @ w.wq.w.value.T + w.bq.value
    k = xv @ w.wk.w.value.T + w.bk.value
    v = xv @ w.wv.w.value.T + w.bv.value
    dk = d // heads
    ctx = []
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dk)
        assert np.allclose(o_stack.value[0, h], scores, atol=1e-12)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ctx.append((e / e.sum(axis=-1, keepdims=True)) @ v[:, sl])
    want = np.concatenate(ctx, axis=-1) @ w.wo.w.value.T + w.bo.value
    assert np.allclose(a.value[0], want, atol=1e-12)


def test_kron_weight_apply_matches_reconstruction():
    rng = make_rng(3)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((2, 5))
    kw = KronWeight(ad.parameter(a), ad.parameter(b))
    x = ad.Tensor(rng.standard_normal((2, 6, 15)))
    dense = kron_product(KronFactorPair(a, b))
    assert np.allclose(kw.apply(x).value, x.value @ dense.T, atol=1e-11)


def test_kron_weight_apply_is_one_graph_node(monkeypatch):
    rng = make_rng(3)
    kw = KronWeight(ad.parameter(rng.standard_normal((4, 3))),
                    ad.parameter(rng.standard_normal((2, 5))))
    x = ad.Tensor(rng.standard_normal((2, 6, 15)))
    made = []
    init = ad.Tensor.__init__

    def counted_init(obj, *args, **kwargs):
        made.append(obj)
        init(obj, *args, **kwargs)
    monkeypatch.setattr(ad.Tensor, "__init__", counted_init)
    y = kw.apply(x)
    assert made == [y]
    assert y._parents == (x, kw.a, kw.b)


# ------------------------------------------------------------------- forward

def test_forward_batches_single_sequences():
    model = build_dense_model(TOY, make_rng(4))
    one = forward(model, np.array([1, 2, 3]))
    many = forward(model, np.array([[1, 2, 3]]))
    assert one.logits.shape == (1, TOY.num_classes)
    assert np.allclose(one.logits.value, many.logits.value, atol=1e-14)


def test_forward_validation():
    model = build_dense_model(TOY, make_rng(5))
    with pytest.raises(ShapeError):
        forward(model, np.zeros((2, TOY.max_seq_len + 1), dtype=int))
    with pytest.raises(ValueError):
        forward(model, np.array([1, 2]), attention_feature="everything")


def test_forward_attention_feature_switch():
    model = build_dense_model(TOY, make_rng(6))
    ids = make_rng(7).integers(0, TOY.vocab_size, size=(2, 5))
    sub = forward(model, ids)
    raw = forward(model, ids, attention_feature="projection_output")
    assert not np.allclose(sub.attn_out[0].value, raw.attn_out[0].value)
    assert np.allclose(sub.ffn_out[-1].value, raw.ffn_out[-1].value, atol=1e-14)
    assert np.allclose(sub.logits.value, raw.logits.value, atol=1e-14)


def test_forward_dense_vs_exact_kron():
    teacher = toy_exact_kron_teacher()
    student = exact_kron_model(teacher, PLAN)
    ids = make_rng(9).integers(0, TOY.vocab_size, size=(3, 6))
    t, s = forward(teacher, ids), forward(student, ids)
    assert np.abs(t.E.value - s.E.value).max() < 1e-10
    for a, b in zip(t.attn_scores + t.attn_out + t.ffn_out,
                    s.attn_scores + s.attn_out + s.ffn_out):
        assert np.abs(a.value - b.value).max() < 1e-10
    assert np.abs(t.logits.value - s.logits.value).max() < 1e-10


def test_exact_kron_model_rejects_generic_weights():
    teacher = build_dense_model(TOY, make_rng(10))
    with pytest.raises(ValueError):
        exact_kron_model(teacher, PLAN)


def test_init_student_reports_residuals():
    teacher = build_dense_model(TOY, make_rng(12))
    student, results = init_student_from_teacher(teacher, PLAN, rng=make_rng(13))
    assert set(results) == {"embedding.dense"} | {
        f"layer.{i}.{k}.dense" for i in range(TOY.layers)
        for k in ("attn.wq", "attn.wk", "attn.wv", "attn.wo", "ffn.w1", "ffn.w2")}
    assert all(r.residual >= 0 for r in results.values())
    # copied pieces are verbatim but independent
    assert np.array_equal(student.position.value, teacher.position.value)
    student.position.value[0, 0] += 1.0
    assert not np.array_equal(student.position.value, teacher.position.value)


def test_build_dense_model_deterministic():
    a = build_dense_model(TOY, make_rng(14))
    b = build_dense_model(TOY, make_rng(14))
    for (na, ta), (nb, tb) in zip(a.parameters().items(), b.parameters().items()):
        assert na == nb and np.array_equal(ta.value, tb.value)


# ------------------------------------------------------------- serialization

def test_model_store_round_trip(tmp_path):
    teacher = build_dense_model(TOY, make_rng(15))
    student, _ = init_student_from_teacher(teacher, PLAN, rng=make_rng(16))
    for model in (teacher, student):
        path = tmp_path / "model.kts"
        model_to_store(model).save(path)
        loaded = model_from_store(NamedTensorStore.load(path), TOY)
        ids = make_rng(17).integers(0, TOY.vocab_size, size=(2, 4))
        assert np.allclose(forward(model, ids).logits.value,
                           forward(loaded, ids).logits.value, atol=1e-14)


def test_model_from_store_missing_tensor(tmp_path):
    store = model_to_store(build_dense_model(TOY, make_rng(18)))
    broken = NamedTensorStore()
    for name, m in store.items():
        if name != "head.weight":
            broken.add(name, m)
    with pytest.raises(KeyError):
        model_from_store(broken, TOY)


def test_model_from_store_checks_shapes():
    teacher = build_dense_model(TOY, make_rng(18))
    student, _ = init_student_from_teacher(teacher, PLAN)
    dense, kron = model_to_store(teacher), model_to_store(student)
    for store, name, bad in ((dense, "layer.1.ffn.w1.dense", np.zeros((64, 31))),
                             (dense, "embedding.position", np.zeros((16, 33))),
                             (dense, "head.bias", np.zeros((1, 3))),
                             (kron, "layer.0.attn.wo.b", np.zeros((2, 3))),
                             (kron, "embedding.row", np.zeros((2, 4)))):
        broken = NamedTensorStore()
        for n, m in store.items():
            broken.add(n, bad if n == name else m)
        with pytest.raises(ShapeError, match=name):
            model_from_store(broken, TOY)


# ------------------------------------------------------------ frozen forward

def _trace_tensors(trace):
    return [trace.E, *trace.attn_scores, *trace.attn_out, *trace.ffn_out, trace.logits]


def test_frozen_forward_keeps_no_graph():
    # bit-equal values also guard the in-place GELU/softmax/layernorm branches
    teacher = build_dense_model(TOY, make_rng(19))
    student, _ = init_student_from_teacher(teacher, PLAN)
    ids = make_rng(20).integers(0, TOY.vocab_size, size=(2, 4))
    for model in (teacher, student):
        live = forward(model, ids)
        assert all(t._parents for t in _trace_tensors(live))
        frozen = forward(model.freeze(), ids)
        for a, b in zip(_trace_tensors(live), _trace_tensors(frozen), strict=True):
            assert b._parents == () and b._backward is None and not b.requires_grad
            assert np.array_equal(a.value, b.value)


def test_frozen_teacher_leaves_student_grads_unchanged():
    ids = make_rng(21).integers(0, TOY.vocab_size, size=(2, 4))
    labels = np.array([0, 1])
    grads = []
    for freeze in (False, True):
        teacher = build_dense_model(TOY, make_rng(22))
        student, _ = init_student_from_teacher(teacher, PLAN)
        if freeze:
            teacher.freeze()
        proj = kd.make_projection(TOY.hidden)
        kd.kd_losses(forward(student, ids), forward(teacher, ids),
                     proj=proj, labels=labels).total.backward()
        grads.append({n: t.grad for n, t in student.parameters().items()} | {"proj": proj.grad})
    assert grads[0].keys() == grads[1].keys()
    for name, g in grads[0].items():
        assert g is not None and np.array_equal(g, grads[1][name]), name
