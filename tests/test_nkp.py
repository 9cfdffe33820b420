import math
import warnings

import numpy as np
import pytest

from kronekit.kron import FactorShape, KronFactorPair, kron_product
from kronekit.model import build_dense_model
from kronekit.nkp import nearest_kronecker, rearrange
from kronekit.planner import ArchSpec, make_plan
from kronekit.tensor import ShapeError, make_rng

from conftest import config_path
from oracles import dominant_sigma_oracle, vec


def test_rearrange_is_an_isometry():
    rng = make_rng(0)
    for _ in range(10):
        m1, n1, m2, n2 = rng.integers(1, 6, size=4)
        w = rng.standard_normal((m1 * m2, n1 * n2))
        r = rearrange(w, FactorShape(m1, n1, m2, n2))
        assert r.shape == (m1 * n1, m2 * n2)
        assert np.isclose(np.linalg.norm(r), np.linalg.norm(w))
        assert np.array_equal(np.sort(r.ravel()), np.sort(w.ravel()))


def test_rearrange_index_oracle():
    rng = make_rng(1)
    m1, n1, m2, n2 = 3, 2, 4, 5
    w = rng.standard_normal((m1 * m2, n1 * n2))
    r = rearrange(w, FactorShape(m1, n1, m2, n2))
    for i in range(m1):
        for j in range(n1):
            for p in range(m2):
                for q in range(n2):
                    assert r[i * n1 + j, q * m2 + p] == w[i * m2 + p, j * n2 + q]


def test_rearrange_of_kron_is_outer_product():
    rng = make_rng(2)
    a = rng.standard_normal((3, 4))
    b = rng.standard_normal((2, 5))
    w = kron_product(KronFactorPair(a, b))
    r = rearrange(w, FactorShape(3, 4, 2, 5))
    want = np.outer(a.reshape(-1), vec(b).reshape(-1))
    assert np.allclose(r, want, atol=1e-12)
    assert np.linalg.matrix_rank(r) == 1


def test_rearrange_shape_validation():
    with pytest.raises(ShapeError):
        rearrange(np.zeros((5, 4)), FactorShape(2, 2, 2, 2))
    with pytest.raises(ShapeError):
        rearrange(np.zeros((4, 5)), FactorShape(2, 2, 2, 2))


def test_dominant_triplet_matches_jacobi_oracle():
    rng = make_rng(3)
    for _ in range(10):
        m1, n1, m2, n2 = rng.integers(1, 5, size=4)
        shape = FactorShape(m1, n1, m2, n2)
        w = rng.standard_normal((shape.rows, shape.cols))
        sigma = nearest_kronecker(w, shape).sigma
        assert abs(sigma - dominant_sigma_oracle(rearrange(w, shape))) < 1e-8 * max(1.0, sigma)


def test_nearest_kronecker_exact_recovery():
    rng = make_rng(5)
    for _ in range(20):
        m1, n1, m2, n2 = rng.integers(1, 7, size=4)
        pair = KronFactorPair(rng.standard_normal((m1, n1)), rng.standard_normal((m2, n2)))
        w = kron_product(pair)
        res = nearest_kronecker(w, pair.shape)
        assert res.residual < 1e-9 * np.linalg.norm(w)
        assert np.allclose(kron_product(res.factors), w, atol=1e-9 * np.linalg.norm(w))


def test_nearest_kronecker_sign_convention():
    rng = make_rng(6)
    pair = KronFactorPair(-rng.random((3, 3)) - 0.5, rng.standard_normal((2, 2)))
    res = nearest_kronecker(kron_product(pair), pair.shape)
    a = res.factors.a
    assert a.flat[np.argmax(np.abs(a))] >= 0


def test_nearest_kronecker_zero_matrix():
    res = nearest_kronecker(np.zeros((6, 6)), FactorShape(2, 3, 3, 2))
    assert res.residual == 0.0 and res.sigma == 0.0 and res.retained_energy == 0.0
    assert not np.any(res.factors.a) and not np.any(res.factors.b)


def test_nearest_kronecker_residual_matches_trailing_spectrum():
    # the optimal residual is the norm of the rearrangement minus its
    # dominant rank-1 part: sqrt(sum of the squared trailing singular values)
    rng = make_rng(7)
    shape = FactorShape(3, 4, 2, 3)
    w = rng.standard_normal((shape.rows, shape.cols))
    res = nearest_kronecker(w, shape)
    svals = np.linalg.svd(rearrange(w, shape), compute_uv=False)
    want = float(np.sqrt(np.sum(svals[1:] ** 2)))
    assert abs(res.residual - want) < 1e-8
    assert abs(res.sigma - svals[0]) < 1e-8


def test_nearest_kronecker_residual_past_square_overflow():
    # the toy teacher's FFN2 weight with one entry near 1.4e307: the rounding
    # error left at that entry is past 1.3e154, so its square overflows
    arch = ArchSpec.load(config_path("toy.json"))
    w = build_dense_model(arch, make_rng(0)).params["layer.0.ffn.w2.dense"].value.copy()
    w[0, 0] = 1.4384525385606322e+307
    shape = make_plan(arch, (16, 16), (8, 4), 4).ffn2_shape
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = nearest_kronecker(w, shape)
    diff = w - kron_product(res.factors)
    assert 1e154 < np.max(np.abs(diff)) and np.isfinite(res.residual)
    assert res.residual == pytest.approx(math.hypot(*diff.ravel()), rel=1e-12)


def _unrearrange(r: np.ndarray, shape: FactorShape) -> np.ndarray:
    """Inverse of ``rearrange``: the W whose rearrangement is ``r``."""
    m1, n1, m2, n2 = shape.m1, shape.n1, shape.m2, shape.n2
    return r.reshape(m1, n1, n2, m2).transpose(0, 3, 1, 2).reshape(m1 * m2, n1 * n2)


def test_nearest_kronecker_near_degenerate_top_pair():
    # sigma2 / sigma1 = 0.9995 stalls any power iteration; the direct SVD
    # still reaches the optimum
    rng = make_rng(9)
    shape = FactorShape(8, 6, 5, 7)
    rows, cols = shape.m1 * shape.n1, shape.m2 * shape.n2
    k = min(rows, cols)
    svals = np.concatenate([[1.0, 0.9995], np.linspace(0.5, 0.01, k - 2)])
    u, _ = np.linalg.qr(rng.standard_normal((rows, k)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, k)))
    r = (u * svals) @ v.T
    w = _unrearrange(r, shape)
    assert np.array_equal(rearrange(w, shape), r)
    res = nearest_kronecker(w, shape)
    want = float(np.sqrt(np.sum(svals[1:] ** 2)))
    assert abs(res.residual - want) < 1e-9 * want
    assert abs(res.sigma - 1.0) < 1e-12
    assert abs(res.retained_energy - 1.0 / np.sum(svals ** 2)) < 1e-12
    assert res.iterations == 0


def test_nearest_kronecker_rejects_non_finite():
    for bad in (np.nan, np.inf, -np.inf):
        w = np.ones((4, 4))
        w[1, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            nearest_kronecker(w, FactorShape(2, 2, 2, 2))


def test_nearest_kronecker_properties():
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hypothesis.settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.tuples(*[st.integers(1, 5)] * 4), st.integers(0, 2**32 - 1))
    def check(dims, seed):
        rng = make_rng(seed)
        shape = FactorShape(*dims)
        # exact products are recovered
        pair = KronFactorPair(rng.standard_normal((shape.m1, shape.n1)),
                              rng.standard_normal((shape.m2, shape.n2)))
        w = kron_product(pair)
        norm = np.linalg.norm(w)
        res = nearest_kronecker(w, shape)
        assert res.residual < 1e-9 * norm
        assert np.allclose(kron_product(res.factors), w, atol=1e-9 * norm)
        assert abs(res.retained_energy - 1.0) < 1e-9
        # the residual of a generic W is its trailing spectrum
        w = rng.standard_normal((shape.rows, shape.cols))
        norm = np.linalg.norm(w)
        res = nearest_kronecker(w, shape)
        svals = np.linalg.svd(rearrange(w, shape), compute_uv=False)
        assert abs(res.residual - np.sqrt(np.sum(svals[1:] ** 2))) < 1e-9 * norm
        assert abs(res.sigma - svals[0]) < 1e-9 * norm
        assert abs(res.retained_energy - svals[0] ** 2 / norm ** 2) < 1e-9

    check()


def test_nearest_kronecker_local_optimality_probe():
    # perturbing the returned factors in random directions never helps
    rng = make_rng(8)
    shape = FactorShape(3, 3, 3, 3)
    w = rng.standard_normal((shape.rows, shape.cols))
    res = nearest_kronecker(w, shape)
    for _ in range(20):
        da = 1e-4 * rng.standard_normal(res.factors.a.shape)
        db = 1e-4 * rng.standard_normal(res.factors.b.shape)
        perturbed = KronFactorPair(res.factors.a + da, res.factors.b + db)
        assert np.linalg.norm(w - kron_product(perturbed)) >= res.residual - 1e-12
