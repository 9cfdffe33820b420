import json
import tracemalloc

import numpy as np
import pytest

from kronekit.kron import (FactorShape, KronFactorPair, choose_order, dense_matvec_flops,
                           kron_apply, kron_flops, kron_layout, kron_product)
from kronekit.planner import ArchSpec, make_plan
from kronekit.tensor import ShapeError, make_rng

from conftest import config_path
from oracles import FlopCounter, kron_matvec_oracle, kron_oracle


def random_pair(rng, hi=9) -> KronFactorPair:
    m1, n1, m2, n2 = rng.integers(1, hi, size=4)
    return KronFactorPair(rng.standard_normal((m1, n1)), rng.standard_normal((m2, n2)))


def test_factor_shape_properties_and_json():
    s = FactorShape(3, 4, 5, 6)
    assert (s.rows, s.cols, s.param_count) == (15, 24, 3 * 4 + 5 * 6)
    assert FactorShape.from_json(s.to_json()) == s
    with pytest.raises(ShapeError):
        FactorShape(0, 1, 1, 1)


def test_kron_product_matches_index_oracle():
    rng = make_rng(0)
    for _ in range(10):
        p = random_pair(rng, hi=6)
        assert np.array_equal(kron_product(p), kron_oracle(p.a, p.b))


def test_kron_product_bilinear():
    rng = make_rng(1)
    a1, a2 = rng.standard_normal((2, 3, 4))
    b = rng.standard_normal((2, 5))
    lhs = kron_product(KronFactorPair(2.0 * a1 - 3.0 * a2, b))
    rhs = 2.0 * kron_product(KronFactorPair(a1, b)) - 3.0 * kron_product(KronFactorPair(a2, b))
    assert np.allclose(lhs, rhs, atol=1e-12)


def test_kron_product_rank_multiplicative():
    rng = make_rng(2)
    a = rng.standard_normal((5, 2)) @ rng.standard_normal((2, 5))  # rank 2
    b = rng.standard_normal((4, 3)) @ rng.standard_normal((3, 4))  # rank 3
    assert np.linalg.matrix_rank(kron_product(KronFactorPair(a, b))) == 6


def test_kron_matvec_matches_reconstruction():
    # the loop oracle in both orders and the kernel all equal W x
    rng = make_rng(3)
    for _ in range(50):
        p = random_pair(rng)
        x = rng.standard_normal(p.cols)
        want = kron_product(p) @ x
        for order in ("b_first", "a_first"):
            assert np.allclose(kron_matvec_oracle(p.a, p.b, x, order), want, atol=1e-11)
        assert np.allclose(kron_apply(p.a, p.b, x), want, atol=1e-11)


def test_kron_matvec_validation():
    p = KronFactorPair(np.zeros((2, 2)), np.zeros((2, 2)))
    with pytest.raises(ShapeError):
        kron_matvec_oracle(p.a, p.b, np.zeros(5), "b_first")
    with pytest.raises(ValueError):
        kron_matvec_oracle(p.a, p.b, np.zeros(4), "sideways")


def test_kron_flops_published_example():
    assert kron_flops(FactorShape(384, 384, 2, 2)) == 591_360


def test_kron_flops_is_min_over_orders():
    rng = make_rng(5)
    for _ in range(50):
        m1, n1, m2, n2 = (int(v) for v in rng.integers(1, 10, size=4))
        s = FactorShape(m1, n1, m2, n2)
        b_first = (2 * n2 - 1) * m2 * n1 + (2 * n1 - 1) * m2 * m1
        a_first = (2 * n1 - 1) * n2 * m1 + (2 * n2 - 1) * m2 * m1
        assert kron_flops(s) == min(b_first, a_first)


def test_kron_flops_beats_dense_for_balanced_splits():
    # nontrivial balanced splits are where the factorization pays off
    for s in (FactorShape(384, 384, 2, 2), FactorShape(16, 16, 2, 2),
              FactorShape(8, 8, 8, 8)):
        assert kron_flops(s) < dense_matvec_flops(s.rows, s.cols)


def test_choose_order_tie_prefers_b_first():
    # fully symmetric shapes make both association orders cost the same
    assert choose_order(FactorShape(3, 3, 3, 3)) == "b_first"


def test_counter_matches_flops_model():
    rng = make_rng(6)
    for _ in range(20):
        p = random_pair(rng, hi=7)
        s = p.shape
        x = rng.standard_normal(s.cols)
        counter = FlopCounter()
        kron_matvec_oracle(p.a, p.b, x, choose_order(s), counter)
        assert counter.total == kron_flops(s)


def test_counter_matches_forced_branch_formula():
    rng = make_rng(7)
    p = random_pair(rng, hi=7)
    s = p.shape
    x = rng.standard_normal(s.cols)
    b_first = (2 * s.n2 - 1) * s.m2 * s.n1 + (2 * s.n1 - 1) * s.m2 * s.m1
    a_first = (2 * s.n1 - 1) * s.n2 * s.m1 + (2 * s.n2 - 1) * s.m2 * s.m1
    for order, want in (("b_first", b_first), ("a_first", a_first)):
        counter = FlopCounter()
        kron_matvec_oracle(p.a, p.b, x, order, counter)
        assert counter.total == want


def test_kron_apply_rejects_wrong_width():
    with pytest.raises(ShapeError, match="input width 5, expected 4"):
        kron_apply(np.zeros((2, 2)), np.zeros((2, 2)), np.zeros((3, 5)))


def test_kron_apply_matches_reconstruction_property():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    seen_layouts = set()

    @hypothesis.settings(max_examples=80, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.tuples(*[st.integers(1, 6)] * 4),
                      st.sampled_from([(), (1,), (2, 3)]), st.integers(0, 2**32 - 1))
    def check(dims, lead, seed):
        s = FactorShape(*dims)
        seen_layouts.add(kron_layout(s))
        rng = make_rng(seed)
        a = rng.standard_normal((s.m1, s.n1))
        b = rng.standard_normal((s.m2, s.n2))
        x = rng.standard_normal((*lead, s.cols))
        want = x @ np.kron(a, b).T
        # the same factors as transposed views, as ad.linear's backward passes them
        for fa, fb in ((a, b), (np.ascontiguousarray(a.T).T, np.ascontiguousarray(b.T).T)):
            got = kron_apply(fa, fb, x)
            assert got.shape == (*lead, s.rows)
            assert np.linalg.norm(got - want) <= 1e-10 * max(np.linalg.norm(want), 1e-300)
            # out= into a row slice of a larger array: the same bits, only there
            big = np.full((3, *lead, s.rows), np.nan)
            kron_apply(fa, fb, x, out=big[1])
            assert np.array_equal(big[1], got) and np.isnan(big[::2]).all()

    check()
    # both association orders, each with A broadcast (small A) and flat
    assert seen_layouts == {(order, small_a) for order in ("b_first", "a_first")
                            for small_a in (True, False)}


# (group, factor shape at BERT width, (order, A broadcast)) of each paper plan
PLAN_LAYOUTS = {
    "kron8_shapes.json": [
        ("attention", FactorShape(384, 384, 2, 2), ("b_first", False)),
        ("ffn1", FactorShape(8, 2, 384, 384), ("b_first", True)),
        ("ffn2", FactorShape(2, 8, 384, 384), ("a_first", True)),
    ],
    "kron19_shapes.json": [
        ("attention", FactorShape(384, 48, 2, 16), ("b_first", False)),
        ("ffn1", FactorShape(16, 2, 192, 384), ("b_first", True)),
        ("ffn2", FactorShape(2, 16, 384, 192), ("a_first", True)),
    ],
}


# one shape of each layout: b_first then a_first, each with A broadcast then flat
FOUR_LAYOUTS = [FactorShape(8, 2, 4, 4), FactorShape(4, 4, 2, 2),
                FactorShape(2, 8, 4, 4), FactorShape(2, 8, 3, 3)]


def test_kron_apply_keeps_float32():
    rng = make_rng(8)
    assert {kron_layout(s) for s in FOUR_LAYOUTS} == {
        (order, small_a) for order in ("b_first", "a_first") for small_a in (True, False)}
    for s in FOUR_LAYOUTS:
        a = rng.standard_normal((s.m1, s.n1)).astype(np.float32)
        b = rng.standard_normal((s.m2, s.n2)).astype(np.float32)
        x = rng.standard_normal((2, 3, s.cols)).astype(np.float32)
        got = kron_apply(a, b, x)
        assert got.dtype == np.float32, s
        assert np.allclose(got, x @ np.kron(a, b).T, rtol=1e-4, atol=1e-4)


@pytest.mark.parametrize("shape", sorted(
    {shape for rows in PLAN_LAYOUTS.values() for _, shape, _ in rows}
    | {FactorShape(16, 16, 2, 2)}),
    ids=lambda s: f"{s.m1}x{s.n1}-{s.m2}x{s.n2}")
def test_kron_apply_peak_memory(shape):
    # at most two output-sized arrays live at once: the A product and the output
    rng = make_rng(9)
    a = rng.standard_normal((shape.m1, shape.n1))
    b = rng.standard_normal((shape.m2, shape.n2))
    x = rng.standard_normal((1024, shape.cols))
    tracemalloc.start()
    try:
        y = kron_apply(a, b, x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * y.nbytes + 64 * 1024, f"{peak / y.nbytes:.2f}x the output"


@pytest.mark.parametrize("plan_file", sorted(PLAN_LAYOUTS))
def test_kron_layout_of_the_paper_plans(plan_file):
    arch = ArchSpec.load(config_path("bert_base.json"))
    with open(config_path(plan_file)) as fh:
        spec = json.load(fh)
    plan = make_plan(arch, tuple(spec["attention"]), tuple(spec["ffn1"]), spec["embedding_n"])
    for group, shape, layout in PLAN_LAYOUTS[plan_file]:
        assert getattr(plan, f"{group}_shape") == shape
        assert kron_layout(shape) == layout
        assert layout[0] == choose_order(shape)


def test_dense_matvec_flops():
    assert dense_matvec_flops(3, 4) == 7 * 3
    with pytest.raises(ShapeError):
        dense_matvec_flops(0, 4)
