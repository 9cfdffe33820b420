import hashlib
import re
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest

from kronekit import autodiff as ad
from kronekit import distill as kd
from kronekit import threads
from kronekit.kron import KronFactorPair, kron_product
from kronekit.model import (DenseWeight, KronWeight, TransformerModel, attention_forward,
                            build_dense_model, embed, forward, init_student_from_teacher,
                            layout, model_from_store, model_to_store)
from kronekit.planner import ArchSpec, make_plan, plan_for_ratio
from kronekit.tensor import NamedTensorStore, ShapeError, make_rng

from conftest import config_path
from oracles import FlopCounter, kron_embed_oracle
from test_autodiff import fd_check

TOY = ArchSpec.load(config_path("toy.json"))
PLAN = make_plan(TOY, (16, 16), (8, 4), 4)


def toy_exact_kron_teacher(seed=0):
    """Dense model whose weights are exact Kronecker products of PLAN's shapes."""
    rng = make_rng(seed)
    teacher = build_dense_model(TOY, rng)
    d = TOY.hidden
    emb = np.kron(rng.standard_normal((TOY.vocab_size, d // 4)) * 0.1,
                  rng.standard_normal((1, 4)))
    teacher.params["embedding.dense"].value = emb
    shapes = {"attention": PLAN.attention_shape, "ffn1": PLAN.ffn1_shape,
              "ffn2": PLAN.ffn2_shape}
    for slot, _, _, group in layout(TOY):
        if group in shapes:
            shape = shapes[group]
            a = rng.standard_normal((shape.m1, shape.n1)) / np.sqrt(shape.n1)
            b = rng.standard_normal((shape.m2, shape.n2)) / np.sqrt(shape.n2)
            teacher.params[f"{slot}.dense"].value = np.kron(a, b)
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
    emb = KronWeight(ad.parameter([[2.0], [3.0]]), ad.parameter([[1.0, 10.0]]))
    out = embed(emb, np.array([0, 1]))
    assert np.array_equal(out.value, [[2.0, 20.0], [3.0, 30.0]])


def test_kron_embedding_matches_dense_reconstruction():
    rng = make_rng(0)
    table = rng.standard_normal((10, 3))
    row = rng.standard_normal((1, 4))
    kron = KronWeight(ad.parameter(table), ad.parameter(row))
    dense = DenseWeight(ad.parameter(np.kron(table, row)))
    ids = rng.integers(0, 10, size=(2, 5))
    assert np.allclose(embed(kron, ids).value, embed(dense, ids).value, atol=1e-12)


def test_embed_out_of_range():
    dense = DenseWeight(ad.parameter(np.zeros((4, 2))))
    kron = KronWeight(ad.parameter(np.zeros((4, 1))), ad.parameter(np.ones((1, 2))))
    for emb in (dense, kron):
        for bad in (-1, 4):  # -1 must not wrap round to the last vocab row
            with pytest.raises(IndexError, match=f"token id {bad} out of range"):
                embed(emb, np.array([[0, bad], [1, 2]]))


def test_embed_counted_exact_cost_and_values():
    rng = make_rng(1)
    emb = KronWeight(ad.parameter(rng.standard_normal((10, 3))),
                     ad.parameter(rng.standard_normal((1, 4))))
    ids = rng.integers(0, 10, size=7)
    counter = FlopCounter()
    out = kron_embed_oracle(emb.a.value, emb.b.value, ids, counter)
    assert counter.mults == 7 * 12  # exactly d multiplies per token
    assert counter.adds == 0
    assert np.allclose(out, embed(emb, ids).value, atol=1e-12)


# ----------------------------------------------------------------- attention

def test_attention_forward_matches_manual_numpy():
    rng = make_rng(2)
    d, heads, s = 4, 2, 3
    w = {f"attn.{k}.dense": ad.parameter(rng.standard_normal((d, d)))
         for k in ("wq", "wk", "wv", "wo")}
    w |= {f"attn.{k}": ad.parameter(rng.standard_normal(d)) for k in ("bq", "bk", "bv", "bo")}
    val = {name: t.value for name, t in w.items()}
    x = ad.Tensor(rng.standard_normal((1, s, d)))
    a, o_stack = attention_forward(w, "attn", x, heads)
    assert a.shape == (1, s, d)
    assert o_stack.shape == (1, heads, s, s)

    xv = x.value[0]
    q = xv @ val["attn.wq.dense"].T + val["attn.bq"]
    k = xv @ val["attn.wk.dense"].T + val["attn.bk"]
    v = xv @ val["attn.wv.dense"].T + val["attn.bv"]
    dk = d // heads
    ctx = []
    for h in range(heads):
        sl = slice(h * dk, (h + 1) * dk)
        scores = q[:, sl] @ k[:, sl].T / np.sqrt(dk)
        assert np.allclose(o_stack.value[0, h], scores, atol=1e-12)
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        ctx.append((e / e.sum(axis=-1, keepdims=True)) @ v[:, sl])
    want = np.concatenate(ctx, axis=-1) @ val["attn.wo.dense"].T + val["attn.bo"]
    assert np.allclose(a.value[0], want, atol=1e-12)


def test_kron_weight_apply_matches_reconstruction():
    rng = make_rng(3)
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((2, 5))
    kw = KronWeight(ad.parameter(a), ad.parameter(b))
    x = ad.Tensor(rng.standard_normal((2, 6, 15)))
    bias = ad.Tensor(rng.standard_normal(8))
    dense = kron_product(KronFactorPair(a, b))
    assert np.allclose(kw.apply(x, bias).value, x.value @ dense.T + bias.value, atol=1e-11)


def test_kron_weight_apply_is_one_graph_node(monkeypatch):
    rng = make_rng(3)
    kw = KronWeight(ad.parameter(rng.standard_normal((4, 3))),
                    ad.parameter(rng.standard_normal((2, 5))))
    x = ad.Tensor(rng.standard_normal((2, 6, 15)))
    bias = ad.parameter(rng.standard_normal(8))
    made = []
    init = ad.Tensor.__init__

    def counted_init(obj, *args, **kwargs):
        made.append(obj)
        init(obj, *args, **kwargs)
    monkeypatch.setattr(ad.Tensor, "__init__", counted_init)
    y = kw.apply(x, bias, scale=0.5, gelu=True)
    assert made == [y]
    assert y._parents == (x, kw.a, kw.b, bias)


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
    position = "embedding.position"
    assert np.array_equal(student.params[position].value, teacher.params[position].value)
    student.params[position].value[0, 0] += 1.0
    assert not np.array_equal(student.params[position].value, teacher.params[position].value)


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


def _toy_stores():
    """Checkpoints of the toy dense teacher and of its Kronecker student."""
    teacher = build_dense_model(TOY, make_rng(18))
    student, _ = init_student_from_teacher(teacher, PLAN)
    return model_to_store(teacher), model_to_store(student)


def _edited(store, name, bad=None):
    """``store`` with tensor ``name`` dropped, or replaced by ``bad``."""
    out = NamedTensorStore()
    for n, m in store.items():
        if n != name:
            out.add(n, m)
        elif bad is not None:
            out.add(n, bad)
    return out


def test_model_from_store_missing_tensor():
    for store in _toy_stores():
        for name in store.names():
            with pytest.raises(KeyError, match=re.escape(repr(name))):
                model_from_store(_edited(store, name), TOY)


def test_model_from_store_checks_shapes():
    dense, kron = _toy_stores()
    cases = [(dense, "layer.1.ffn.w1.dense", np.zeros((64, 31))),
             (dense, "embedding.position", np.zeros((16, 33))),
             (dense, "head.bias", np.zeros((1, 3))),
             (kron, "layer.0.attn.wo.b", np.zeros((2, 3))),
             (kron, "embedding.row", np.zeros((2, 4)))]
    cases += [(store, name, np.zeros((m.shape[0], m.shape[1] + 1)))
              for store in (dense, kron) for name, m in store.items()]
    for store, name, bad in cases:
        with pytest.raises(ShapeError, match=re.escape(name)):
            model_from_store(_edited(store, name, bad), TOY)


def test_checkpoint_bytes_pinned(tmp_path):
    # layout() fixes both the RNG draw order of build_dense_model and the
    # checkpoint order; criterion 10 depends on the exact teacher draw
    teacher = build_dense_model(TOY, np.random.default_rng(0))
    student, _ = init_student_from_teacher(teacher, PLAN)  # PLAN is configs/toy_shapes.json
    for model, want in (
            (teacher, "59f70725a32c232ef7a35e8031521d87e9c9d8c54a9ed131a17c0bcd4faf1633"),
            (student, "660890a86654041b662564b945492997e1de42829f11f614f0562f641fd8ebd6")):
        path = tmp_path / "model.kts"
        model_to_store(model).save(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def test_segment_table_and_pooler():
    arch = replace(TOY, has_biases=False, has_segment_embeddings=True, has_pooler=True)
    model = build_dense_model(arch, make_rng(27))
    names = list(model.params)
    assert names[1:3] == ["embedding.position", "embedding.segment"]
    assert names[-3:] == ["pooler.weight", "head.weight", "head.bias"]
    assert not any(re.search(r"\.b[qkvo12]$", name) for name in names)
    ids = make_rng(28).integers(0, arch.vocab_size, size=(2, 4))
    trace = forward(model, ids)
    # every token gets segment row 0; the pooler is tanh(W mean(x)), no bias
    v = {name: t.value for name, t in model.params.items()}
    e = v["embedding.dense"][ids] + v["embedding.position"][:4] + v["embedding.segment"][0]
    e = (e - e.mean(-1, keepdims=True)) / np.sqrt(e.var(-1, keepdims=True) + 1e-6)
    assert np.allclose(trace.E.value, e * v["embedding.ln.gamma"] + v["embedding.ln.beta"])
    pooled = np.tanh(trace.ffn_out[-1].value.mean(axis=1) @ v["pooler.weight"].T)
    assert np.allclose(trace.logits.value, pooled @ v["head.weight"].T + v["head.bias"])
    labels = np.array([0, 1])
    fd_check(lambda: ad.cross_entropy(forward(model, ids).logits, labels),
             [model.params["pooler.weight"], model.params["embedding.segment"]],
             make_rng(29), samples=16)


# ------------------------------------------------------------ frozen forward

def _trace_tensors(trace):
    return [trace.E, *trace.attn_scores, *trace.attn_out, *trace.ffn_out, trace.logits]


def test_frozen_forward_keeps_no_graph():
    # bit-equal values also guard the in-place GELU/softmax/layernorm branches
    # (8, 8) is a distill batch: each GEMM must keep its graph-path shape
    teacher = build_dense_model(TOY, make_rng(19))
    student, _ = init_student_from_teacher(teacher, PLAN)
    for shape in ((2, 4), (8, 8)):
        ids = make_rng(20).integers(0, TOY.vocab_size, size=shape)
        for model in (teacher, student):
            live = forward(_trainable(model), ids)
            assert all(t._parents for t in _trace_tensors(live))
            frozen = forward(model.freeze(), ids)
            for a, b in zip(_trace_tensors(live), _trace_tensors(frozen), strict=True):
                assert b._parents == () and b._backward is None and not b.requires_grad
                assert np.array_equal(a.value, b.value)


@pytest.fixture(scope="module")
def bert_models():
    """A one-layer BERT-width dense teacher with a segment table, a pooler,
    nonzero biases and LayerNorm shifts, and its kron8 and kron19 students,
    all frozen."""
    arch = replace(ArchSpec.load(config_path("bert_base.json")), layers=1, vocab_size=512,
                   has_biases=True)
    teacher = build_dense_model(arch, make_rng(23))
    rng = make_rng(25)
    for t in teacher.parameters().values():
        if t.value.ndim == 1:
            t.value = t.value + 0.1 * rng.standard_normal(t.value.shape)
    plans = {"kron8": make_plan(arch, (384, 384), (8, 2), 8),
             "kron19": make_plan(arch, (384, 48), (16, 2), 12)}
    models = {"dense": teacher} | {name: init_student_from_teacher(teacher, plan)[0]
                                   for name, plan in plans.items()}
    return {name: model.freeze() for name, model in models.items()}


def _trainable(model, frozen=()):
    """The same weight arrays as tensors that require grad, except those
    whose names start with one of the ``frozen`` prefixes."""
    return TransformerModel(model.arch, {name: ad.Tensor(t.value,
                                                         requires_grad=not name.startswith(frozen))
                                         for name, t in model.params.items()})


def _count_calls(monkeypatch, name):
    """A list that grows by one per call the model makes to ``autodiff.<name>``."""
    calls = []
    fn = getattr(ad, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    monkeypatch.setattr(ad, name, counted)
    return calls


def test_frozen_forward_bit_identical_at_bert_width(bert_models, monkeypatch, four_workers):
    # At four workers, a frozen pass at (3, 180) runs softmax @ V over blocks
    # of 8 + 4 heads of one batch row and its last row pass over 16 blocks of
    # 33 or 34 tokens (the fewest multiple of four of at most 42); at (12, 48),
    # softmax @ V over blocks of 9 + 3 whole batch rows and the row pass over
    # 16 blocks of 36 tokens; (2, 64) fits in one attention block and runs
    # the row pass over 4 blocks of 32 tokens; (171, 4), over 20 blocks of 34
    # or 35; and (5, 1), whose single rows each go through GEMV, in one.
    # LayerNorm runs after the embedding, then twice per block of that pass.
    # A plan_for_ratio plan whose factors have sides of 3 and 4 runs too.
    dense = bert_models["dense"]
    models = {**bert_models, "ratio4": init_student_from_teacher(
        dense, plan_for_ratio(dense.arch, 4.0))[0].freeze()}
    softmax = _count_calls(monkeypatch, "softmax_last")
    norms = _count_calls(monkeypatch, "layer_norm")
    for shape, softmax_calls, row_blocks in (((3, 180), 6, 16), ((12, 48), 2, 16),
                                             ((2, 64), 1, 4), ((171, 4), 1, 20),
                                             ((5, 1), 1, 1)):
        ids = make_rng(24).integers(0, 512, size=shape)
        for model in models.values():
            live = _trace_tensors(forward(_trainable(model), ids))
            assert (len(softmax), len(norms)) == (1, 3)
            softmax.clear()
            norms.clear()
            frozen = _trace_tensors(forward(model, ids))
            assert (len(softmax), len(norms)) == (softmax_calls, 1 + 2 * row_blocks)
            softmax.clear()
            norms.clear()
            for a, b in zip(live, frozen, strict=True):
                assert a._parents and not b._parents
                assert np.array_equal(a.value, b.value)
    # A frozen attention sublayer of a model that trains its FFN forms its
    # scores as a frozen model does, also at a ragged length, where a score
    # GEMM's bits would depend on OpenBLAS's thread count.
    ids = make_rng(24).integers(0, 512, size=(3, 181))
    for model in models.values():
        part = forward(_trainable(model, frozen=("embedding.", "layer.0.attn.")), ids)
        assert part.ffn_out[0]._parents and not part.attn_out[0]._parents
        for a, b in zip(_trace_tensors(part), _trace_tensors(forward(model, ids)), strict=True):
            assert np.array_equal(a.value, b.value)


def test_frozen_forward_shares_attention_blocks_among_threads(bert_models, monkeypatch):
    # at (1, 384) attention runs as 12 one-head blocks, taken in turn by the
    # caller and the pool, each on one OpenBLAS thread
    blas = threads.blas()
    if blas is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be controlled here")
    get = blas[0]
    pool = ThreadPoolExecutor(1, "kronekit-test")
    monkeypatch.setattr(threads, "_workers", 2)
    monkeypatch.setattr(threads, "_pool", pool)
    seen = []
    softmax = ad.softmax_last

    def recorded(*args, **kwargs):
        seen.append((threading.get_ident(), get()))
        return softmax(*args, **kwargs)
    monkeypatch.setattr(ad, "softmax_last", recorded)
    try:
        forward(bert_models["kron19"], make_rng(31).integers(0, 512, size=(1, 384)))
    finally:
        pool.shutdown()
    assert len(seen) == 12
    assert len({ident for ident, _ in seen}) > 1
    assert {count for _, count in seen} == {1}


def test_frozen_row_passes_share_their_blocks_among_threads(bert_models, monkeypatch,
                                                           four_workers):
    # at (8, 128), Q/K/V run over 8 blocks of 128 tokens (at most 170) and
    # the O-projection through the FFN over 28 blocks of 36 or 37 (at most 42)
    runs = []
    run = threads.run

    def recorded(fn, items):
        idents = set()

        def item(it):
            idents.add(threading.get_ident())
            fn(it)
        runs.append((len(items), idents))
        run(item, items)
    monkeypatch.setattr(threads, "run", recorded)
    forward(bert_models["kron19"], make_rng(32).integers(0, 512, size=(8, 128)))
    (qkv, qkv_threads), _, (rows, row_threads) = runs  # the heads' pass between
    assert (qkv, rows) == (8, 28)
    assert len(qkv_threads) > 1 and len(row_threads) > 1


def test_toy_frozen_forward_runs_in_the_caller(monkeypatch, four_workers):
    # every pass of a toy model fits in one block, so none reaches the pool
    class NoPool:
        def submit(self, fn):
            raise AssertionError("a toy forward submitted work to the pool")
    monkeypatch.setattr(threads, "_pool", NoPool())
    teacher = build_dense_model(TOY, make_rng(33)).freeze()
    student = init_student_from_teacher(teacher, PLAN)[0].freeze()
    for model in (teacher, student):
        for shape in ((8, 8), (32, TOY.max_seq_len)):
            forward(model, make_rng(34).integers(0, TOY.vocab_size, size=shape))


def _held_bytes(trace):
    """Bytes of the arrays a frozen trace holds, read without forming its
    deferred score stacks: each score entry holds its Q and K."""
    arrays = [t.value for t in (trace.E, *trace.attn_out, *trace.ffn_out, trace.logits)]
    arrays += [a for t in trace.attn_scores for a in t._qk]
    return sum(a.nbytes for a in arrays)


def _traced_peak(fn):
    """The peak bytes tracemalloc saw allocated while ``fn()`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _frozen_peak(model, ids):
    """The tracemalloc peak of a frozen forward and the trace it returns."""
    forward(model, ids)  # first-call allocations stay out of the count
    traces = []
    return _traced_peak(lambda: traces.append(forward(model, ids))), traces[0]


def test_frozen_forward_peak_memory(bert_models):
    # A frozen forward holds its trace plus about two (tokens x hidden)
    # float64 arrays at most. At (3, 180) tokens one such array is 3.3 MB;
    # the trace (activations plus each layer's Q and K) is 16.6 MB and the
    # kron8 student peaks 1.9 arrays past it. It peaked 8.3 past it when each
    # forward held q, k, v, the whole probability stack and the FFN hidden to
    # the end of their sublayer.
    ids = make_rng(26).integers(0, 512, size=(3, 180))
    model = bert_models["kron8"]
    peak, trace = _frozen_peak(model, ids)
    assert peak <= _held_bytes(trace) + 3 * ids.size * model.arch.hidden * 8


def test_frozen_forward_forms_no_score_stack(bert_models):
    # At (1, 384) one (1, 12, 384, 384) score stack is 14.2 MB, six
    # (tokens x hidden) arrays; a frozen forward forms it one head at a time
    # and its trace keeps Q and K, a third of its bytes.
    ids = make_rng(27).integers(0, 512, size=(1, 384))
    for model in bert_models.values():
        peak, trace = _frozen_peak(model, ids)
        assert peak <= _held_bytes(trace) + 3 * ids.size * model.arch.hidden * 8


def test_frozen_scores_form_on_first_read(bert_models):
    model = bert_models["kron19"]
    arch = model.arch
    ids = make_rng(30).integers(0, 512, size=(2, 64))
    (want,) = forward(_trainable(model), ids).attn_scores
    (got,) = forward(model, ids).attn_scores
    assert got._parents == () and got._backward is None and not got.requires_grad
    stack = 2 * arch.heads * 64 * 64 * 8
    assert _traced_peak(lambda: got.shape) < stack
    assert got.shape == (2, arch.heads, 64, 64) and got._qk is not None
    assert np.array_equal(got.value, want.value)
    assert got.value is got.value and got._qk is None
    for s in (64, 384):  # whole batch rows, then single heads, per block
        empty = np.zeros((0, s), dtype=np.int64)
        for m in (model, _trainable(model)):
            trace = forward(m, empty)
            assert [t.shape for t in trace.attn_scores] == [(0, arch.heads, s, s)]
            assert trace.attn_scores[0].value.shape == (0, arch.heads, s, s)
            assert trace.logits.shape == (0, arch.num_classes)


# ------------------------------------------------------ checkpoint memory

@pytest.fixture(scope="module")
def bert_checkpoints(bert_models, tmp_path_factory):
    """Each BERT-width model's store and the KTS file it was saved to."""
    root = tmp_path_factory.mktemp("checkpoints")
    out = {}
    for name, model in bert_models.items():
        store = model_to_store(model)
        store.save(root / f"{name}.kts")
        out[name] = store, root / f"{name}.kts"
    return out


def test_checkpoint_io_holds_the_payload_at_most_once(bert_models, bert_checkpoints):
    # The dense one-layer store is 63 MB of float64. Peak allocation over
    # that payload: save 0.00, load 1.00, model_from_store(load) 1.00. They
    # were 2.12, 2.30 and 2.30 when save built the whole file as bytes, load
    # read it whole and copied each tensor out of it twice, and
    # model_from_store copied every array again.
    store, path = bert_checkpoints["dense"]
    arch = bert_models["dense"].arch
    payload = sum(m.nbytes for _, m in store.items())
    assert payload > 50e6
    assert _traced_peak(lambda: store.save(path)) <= 0.1 * payload
    assert _traced_peak(lambda: NamedTensorStore.load(path)) <= 1.1 * payload
    assert _traced_peak(lambda: model_from_store(NamedTensorStore.load(path), arch)) \
        <= 1.1 * payload


def test_model_shares_the_loaded_store_arrays(bert_models, bert_checkpoints):
    for name, (saved, path) in bert_checkpoints.items():
        store = NamedTensorStore.load(path)
        model = model_from_store(store, bert_models[name].arch)
        assert model.params.keys() == set(store.names())
        for tensor_name, t in model.params.items():
            assert np.shares_memory(t.value, store[tensor_name])
            assert np.array_equal(t.value.reshape(saved[tensor_name].shape),
                                  saved[tensor_name])


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
