import numpy as np
import pytest

from kronekit import autodiff as ad
from kronekit.kron import FactorShape, choose_order, kron_apply
from kronekit.tensor import make_rng


def fd_check(build, params, rng, samples=5, h=1e-5, tol=1e-6):
    """Central-difference check on sampled entries of every parameter."""
    loss = build()
    for p in params:
        p.grad = None
    loss.backward()
    for p in params:
        grad = p.grad if p.grad is not None else np.zeros_like(p.value)
        flat = p.value.reshape(-1)
        idx = rng.choice(flat.size, size=min(samples, flat.size), replace=False)
        for i in idx:
            keep = flat[i]
            flat[i] = keep + h
            up = float(build().value)
            flat[i] = keep - h
            down = float(build().value)
            flat[i] = keep
            fd = (up - down) / (2.0 * h)
            assert abs(grad.reshape(-1)[i] - fd) <= tol * max(1.0, abs(fd))


def test_elementwise_and_matmul_grads():
    rng = make_rng(0)
    a = ad.parameter(rng.standard_normal((3, 4)))
    b = ad.parameter(rng.standard_normal((4, 5)))
    c = ad.parameter(rng.standard_normal((1, 5)))  # broadcasts over rows

    def build():
        return (((a @ b) * 2.0 + c) * (a @ b)).mean()

    fd_check(build, [a, b, c], rng)


def test_batched_matmul_broadcast_grads():
    rng = make_rng(1)
    a = ad.parameter(rng.standard_normal((2, 3, 4)))
    w = ad.parameter(rng.standard_normal((4, 3)))  # broadcast over the batch

    def build():
        return (a @ w).mean()

    fd_check(build, [a, w], rng)


def test_shape_op_grads():
    rng = make_rng(2)
    x = ad.parameter(rng.standard_normal((2, 3, 4)))

    def build():
        y = x.reshape(2, 12).permute(1, 0)
        return (y * y).mean(axis=1).mean() + y.mean() * 0.1

    fd_check(build, [x], rng)


def test_permute_grads():
    rng = make_rng(10)
    x = ad.parameter(rng.standard_normal((2, 3, 4, 5)))
    c = ad.Tensor(rng.standard_normal((4, 2, 5, 3)))

    def build():
        y = x.permute(2, 0, 3, 1)
        return (y * y * 0.5 + y * c).mean()

    fd_check(build, [x], rng, samples=24)
    # a strided grad would make later reductions over it sum in another order
    assert x.grad.flags.c_contiguous


def test_gather_concat_grads():
    rng = make_rng(3)
    table = ad.parameter(rng.standard_normal((6, 4)))
    ids = np.array([0, 2, 2, 5])  # repeated index exercises scatter-add

    def build():
        g = ad.gather_rows(table, ids)
        both = ad.concat_last([g, g * 0.5])
        return (both * both).mean()

    fd_check(build, [table], rng)


def test_nonlinearity_grads():
    rng = make_rng(4)
    x = ad.parameter(rng.standard_normal((3, 5)))

    def build():
        return (ad.gelu(x) * ad.softmax_last(x)).mean() + ad.tanh(x).mean()

    fd_check(build, [x], rng)


def test_layer_norm_grads():
    rng = make_rng(5)
    x = ad.parameter(rng.standard_normal((2, 4, 6)))
    gamma = ad.parameter(rng.standard_normal(6))
    beta = ad.parameter(rng.standard_normal(6))

    def build():
        y = ad.layer_norm(x, gamma, beta)
        return (y * y).mean()

    fd_check(build, [x, gamma, beta], rng)


def test_layer_norm_row_past_square_overflow():
    # a deviation above about 1.3e154 overflows its square; the row must
    # still normalize, and the other rows must not change by a bit
    x = np.array([[1e200, 1.0, -2.0, 3.0], [0.5, 1.0, -2.0, 3.0]])
    gamma, beta = ad.Tensor(np.ones(4)), ad.Tensor(np.zeros(4))
    want = np.array([np.sqrt(3), -1 / np.sqrt(3), -1 / np.sqrt(3), -1 / np.sqrt(3)])
    alone = ad.layer_norm(ad.Tensor(x[1:]), gamma, beta).value
    for inp in (ad.Tensor(x.copy()), ad.parameter(x.copy())):
        out = ad.layer_norm(inp, gamma, beta).value
        np.testing.assert_allclose(out[0], want, rtol=1e-15)
        assert np.array_equal(out[1:], alone)


def test_gelu_cdf_keeps_the_bits_of_scipy_erf():
    # _gelu_cdf takes erf of |v| / sqrt(2) and copies v's sign back. That
    # keeps scipy's bits because its erf computes erf(-x) as -erf(x), across
    # its switch to erfc at |x| = 1 and its saturation near |x| = 6. A NaN
    # stays a NaN, with v's sign bit where scipy's is always clear.
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    from scipy.special import erf
    near = st.sampled_from([1.0, 6.0]).flatmap(
        lambda m: st.floats(m * (1 - 1e-12), m * (1 + 1e-12)))
    signed_near = st.tuples(near, st.sampled_from([1.0, -1.0])).map(lambda p: p[0] * p[1])

    def same_bits(a, b):
        nan = np.isnan(a)
        return np.array_equal(nan, np.isnan(b)) and np.array_equal(
            a[~nan].view(np.uint64), b[~nan].view(np.uint64))

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @hypothesis.given(st.lists(st.floats() | signed_near, min_size=1, max_size=32))
    def check(values):
        x = np.array(values)
        assert same_bits(np.copysign(erf(np.abs(x)), x), erf(x))
        with np.errstate(over="ignore"):
            v = x * np.sqrt(2.0)  # erf's argument near x again
        want = (erf(v * (1.0 / np.sqrt(2.0))) + 1.0) * 0.5
        assert same_bits(ad._gelu_cdf(v, np.empty_like(v)), want)

    check()


# weight kind -> (x width, weight shapes, output width)
LINEAR_WEIGHTS = {
    "dense": (5, [(4, 5)], 4),
    "kron_b_first": (8, [(3, 2), (2, 4)], 6),
    "kron_a_first": (8, [(2, 4), (3, 2)], 6),
}


@pytest.mark.parametrize("epilogue", ["bias", "no_bias", "residual", "scale", "gelu"])
@pytest.mark.parametrize("kind", sorted(LINEAR_WEIGHTS))
def test_linear_grads(kind, epilogue):
    width, shapes, out = LINEAR_WEIGHTS[kind]
    if kind != "dense":  # the kernel picks the association order from the shapes
        (m1, n1), (m2, n2) = shapes
        assert choose_order(FactorShape(m1, n1, m2, n2)) == kind[len("kron_"):]
    rng = make_rng(9)
    x = ad.parameter(rng.standard_normal((2, 3, width)))
    ws = [ad.parameter(rng.standard_normal(s)) for s in shapes]
    bias = None if epilogue == "no_bias" else ad.parameter(rng.standard_normal(out))
    residual = ad.parameter(rng.standard_normal((2, 3, out)))
    kwargs = {"bias": {}, "no_bias": {}, "residual": {"residual": residual},
              "scale": {"scale": 0.37}, "gelu": {"gelu": True}}[epilogue]
    params = [p for p in (x, *ws, bias) if p is not None] \
        + ([residual] if epilogue == "residual" else [])
    c = ad.Tensor(rng.standard_normal((2, 3, out)))
    weight = ws[0] if kind == "dense" else tuple(ws)

    def build():
        y = ad.linear(x, weight, bias, **kwargs)
        return (y * y * 0.5 + y * c).mean()

    fd_check(build, params, rng, samples=24)
    # one node, with or without a graph, whose value equals the separate
    # ops it fuses, bit for bit
    wv = [w.value for w in ws]
    want = ad.Tensor(x.value @ wv[0].T if kind == "dense" else kron_apply(*wv, x.value))
    if epilogue == "residual":
        want = ad.Tensor(residual.value) + want
    if bias is not None:
        want = want + ad.Tensor(bias.value)
    if epilogue == "scale":
        want = want * kwargs["scale"]
    if epilogue == "gelu":
        want = ad.gelu(want)
    frozen = {k: ad.Tensor(v.value) if isinstance(v, ad.Tensor) else v for k, v in kwargs.items()}
    frozen_weight = ad.Tensor(wv[0]) if kind == "dense" else tuple(map(ad.Tensor, wv))
    assert np.array_equal(ad.linear(x, weight, bias, **kwargs).value, want.value)
    frozen_bias = None if bias is None else ad.Tensor(bias.value)
    assert np.array_equal(ad.linear(ad.Tensor(x.value), frozen_weight, frozen_bias,
                                    **frozen).value, want.value)


def test_loss_grads():
    rng = make_rng(6)
    logits = ad.parameter(rng.standard_normal((4, 3)))
    target = ad.Tensor(rng.standard_normal((4, 3)))
    labels = np.array([0, 2, 1, 1])

    def build():
        return ad.mse(logits, target) + ad.cross_entropy(logits, labels)

    fd_check(build, [logits], rng)


def test_cross_entropy_matches_definition():
    rng = make_rng(7)
    logits = ad.Tensor(rng.standard_normal((5, 3)))
    labels = np.array([0, 1, 2, 0, 1])
    v = logits.value
    p = np.exp(v) / np.exp(v).sum(axis=-1, keepdims=True)
    want = -np.log(p[np.arange(5), labels]).mean()
    assert np.isclose(ad.cross_entropy(logits, labels).value, want)


def test_backward_requires_scalar():
    x = ad.parameter(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        (x * 2.0).backward()


def test_grad_accumulates_over_reuse():
    x = ad.parameter(np.array([[3.0]]))
    y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
    y.mean().backward()
    assert np.isclose(x.grad[0, 0], 8.0)


# op name -> (op over its tensor inputs, shapes of those inputs)
GRAPH_OPS = {
    "add": (lambda x, y: x + y, [(2, 3), (1, 3)]),
    "mul": (lambda x, y: x * y, [(2, 3), (2, 3)]),
    "matmul": (lambda x, y: x @ y, [(2, 3), (3, 4)]),
    "reshape": (lambda x: x.reshape(3, 2), [(2, 3)]),
    "permute": (lambda x: x.permute(2, 0, 1), [(2, 3, 4)]),
    "mean": (lambda x: x.mean(axis=1), [(2, 3)]),
    "gather_rows": (lambda t: ad.gather_rows(t, np.array([0, 2, 2])), [(4, 3)]),
    "concat_last": (lambda x, y: ad.concat_last([x, y]), [(2, 3), (2, 1)]),
    "linear": (lambda x, a, b, c, r: ad.linear(x, (a, b), c, residual=r, gelu=True),
               [(2, 6), (2, 3), (4, 2), (8,), (2, 8)]),
    "linear_dense": (lambda x, w, c: ad.linear(x, w, c, scale=0.5), [(2, 3), (4, 3), (4,)]),
    "linear_no_bias": (lambda x, w: ad.linear(x, w), [(2, 3), (4, 3)]),
    "gelu": (ad.gelu, [(2, 3)]),
    "tanh": (ad.tanh, [(2, 3)]),
    "softmax_last": (ad.softmax_last, [(2, 3)]),
    "layer_norm": (ad.layer_norm, [(2, 3), (3,), (3,)]),
    "cross_entropy": (lambda x: ad.cross_entropy(x, np.array([0, 2])), [(2, 3)]),
}


@pytest.mark.parametrize("name", sorted(GRAPH_OPS))
def test_graph_kept_only_when_an_input_requires_grad(name):
    op, shapes = GRAPH_OPS[name]
    rng = make_rng(8)
    values = [rng.standard_normal(s) for s in shapes]
    frozen = op(*(ad.Tensor(v) for v in values))
    assert not frozen.requires_grad
    assert frozen._parents == () and frozen._backward is None
    for i in range(len(values)):
        inputs = [ad.parameter(v) if j == i else ad.Tensor(v) for j, v in enumerate(values)]
        out = op(*inputs)
        assert out.requires_grad and out._backward is not None
        assert any(p is inputs[i] for p in out._parents)
        assert np.array_equal(out.value, frozen.value)
