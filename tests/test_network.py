import itertools
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowquad import network as net_mod
from flowquad.flow import FlowMap
from flowquad.errors import InvalidArgumentError, NumericalOverflowError
from flowquad.network import (
    Architecture,
    MlpVectorField,
    ProductGadgetNetwork,
    bspline_eval,
    bspline_recursive,
    capacity_constants,
    hypothesis_architecture,
    load_checkpoint,
    product_gadget,
    save_checkpoint,
)


def small_net(dim=2, depth=2, width=8, seed=0):
    arch = hypothesis_architecture(dim, depth, width)
    return MlpVectorField(arch, rng=np.random.default_rng(seed))


def value_vjp(net, x, t, lam_v):
    """vjp of the value term alone, through a tangent cache."""
    cache = net.forward_with_cache(x, t, need_tangents=True)[1]
    return net.vjp(cache, lam_v=lam_v, lam_div=np.zeros(len(cache["raw"])))


# ---------------------------------------------------------------------------
# architecture bookkeeping
# ---------------------------------------------------------------------------


def test_param_count_formula():
    arch = Architecture((3, 8, 8, 2))
    expect = (3 * 8 + 8) + (8 * 8 + 8) + (8 * 2 + 2)
    assert arch.param_count == expect
    assert arch.hidden_depth == 2
    assert arch.width == 8


def test_hypothesis_architecture_validates_width():
    with pytest.raises(InvalidArgumentError):
        hypothesis_architecture(4, 2, 3)  # W < d + 1


def test_hypothesis_architecture_param_envelope():
    for d, L, W in [(1, 2, 16), (2, 3, 8), (2, 2, 4)]:
        arch = hypothesis_architecture(d, L, W)
        assert arch.param_count <= 2 * L * W * W
    # a single hidden layer legitimately exceeds the envelope (L+1 affine maps)
    assert hypothesis_architecture(3, 1, 4).param_count == 35


# ---------------------------------------------------------------------------
# forward evaluation
# ---------------------------------------------------------------------------


def test_zero_parameters_give_zero_field():
    arch = hypothesis_architecture(2, 2, 8)
    net = MlpVectorField(arch, theta=np.zeros(arch.param_count))
    x = np.random.default_rng(0).uniform(size=(5, 2))
    np.testing.assert_array_equal(net.forward(x, 0.3), 0.0)


def test_mask_zeroes_boundary_components():
    net = small_net(dim=2)
    v = net.forward(np.array([0.0, 0.4]), 0.5)
    assert v[0] == 0.0
    v = net.forward(np.array([0.7, 1.0]), 0.5)
    assert v[1] == 0.0


def test_hand_set_single_unit():
    # one hidden ReQU unit computing relu(x - 0.5)^2, times the mask x(1 - x)
    arch = Architecture((2, 1, 1), activation_power=2)
    theta = np.zeros(arch.param_count)
    theta[0] = 1.0   # W0 = [1, 0]
    theta[2] = -0.5  # b0
    theta[3] = 1.0   # W1
    net = MlpVectorField(arch, theta=theta)
    assert abs(net.forward(np.array([0.75]), 0.0)[0] - 0.0625 * 0.1875) < 1e-15


def test_forward_overflow_reports_layer():
    arch = Architecture((2, 4, 1), activation_power=2)
    net = MlpVectorField(arch, theta=np.full(arch.param_count, np.inf))
    with pytest.raises(NumericalOverflowError) as err:
        net.forward(np.array([0.5]), 0.0)
    assert err.value.layer == 0


@pytest.mark.parametrize("tangents", [False, True])
def test_overflow_inside_a_layer_raises_without_a_warning(tangents):
    # 1e100 weights: layer 0 gives ~1e100, its square 1e200, layer 1 ~4e300,
    # whose square overflows; layer 2 then reads inf.  Warnings are errors
    # under this suite's settings, so a warning fails the test.
    arch = Architecture((2, 4, 4, 1), activation_power=2)
    net = MlpVectorField(arch, theta=np.full(arch.param_count, 1e100))
    with pytest.raises(NumericalOverflowError) as err:
        net.forward_with_cache(np.array([[0.5]]), 0.5, need_tangents=tangents)
    assert err.value.layer == 2


def test_tangent_overflow_raises_though_the_values_stay_finite():
    # 4.2e43 weights: the values reach 7.5e307 at the output layer, whose
    # tangent rows (about 2e308) overflow
    arch = Architecture((2, 4, 4, 1), activation_power=2)
    net = MlpVectorField(arch, theta=np.full(arch.param_count, 4.2e43))
    x = np.array([[0.5]])
    assert np.isfinite(net.forward(x, 0.0)).all()
    calls = [lambda: net.forward_with_cache(x, 0.0, need_tangents=True),
             lambda: net.divergence(x, 0.0), lambda: net.value_jacobian_divergence(x, 0.0)]
    for call in calls:
        with pytest.raises(NumericalOverflowError) as err:
            call()
        assert err.value.layer == 2


def guarded_net(bias_edits):
    """A small d = 1 field with the given (layer, unit, value) bias entries."""
    arch = Architecture((2, 4, 4, 1), activation_power=2)
    net = MlpVectorField(arch, rng=np.random.default_rng(31))
    for layer, unit, value in bias_edits:
        net.layers[layer][1][unit] = value
    return net


@pytest.mark.parametrize("tangents", [False, True])
def test_overflow_names_the_first_of_two_non_finite_layers(tangents):
    # an infinite layer-1 bias makes layers 1 and 2 non-finite
    net = guarded_net([(1, 0, np.inf)])
    with pytest.raises(NumericalOverflowError) as err:
        net.forward_with_cache(np.array([[0.5], [0.25]]), 0.5, need_tangents=tangents)
    assert err.value.layer == 1


@pytest.mark.parametrize("tangents", [False, True])
def test_negative_infinite_hidden_pre_activation_raises(tangents):
    # ReLU maps -inf to 0, so every later layer stays finite
    net = guarded_net([(0, 2, -np.inf)])
    with pytest.raises(NumericalOverflowError) as err:
        net.forward_with_cache(np.array([[0.5], [0.25]]), 0.5, need_tangents=tangents)
    assert err.value.layer == 0


@pytest.mark.parametrize("tangents", [False, True])
def test_a_stale_non_finite_value_of_a_larger_call_never_raises(tangents):
    # the 3-row call leaves non-finite pre-activations past the part of the
    # grow-only buffers that a 2-row call lays out and checks
    net = guarded_net([])
    x = np.array([[0.5], [0.25], [1e200]])
    with pytest.raises(NumericalOverflowError):
        net.forward_with_cache(x, 0.5, need_tangents=tangents)
    got = net.forward_with_cache(x[:2], 0.5, need_tangents=tangents)
    want = net.clone().forward_with_cache(x[:2], 0.5, need_tangents=tangents)
    np.testing.assert_array_equal(got[0], want[0])
    if tangents:
        np.testing.assert_array_equal(got[1]["div"], want[1]["div"])


def test_a_smaller_call_reuses_the_buffers_of_a_larger_one():
    # 70 rows take two tiles, 3 rows one
    net = small_net(3, 2, 8, seed=27)
    x = np.random.default_rng(28).uniform(size=(70, 3))
    net.value_jacobian_divergence(x, 0.2)
    buffers = net._buffers(70, True)
    for got, want in zip(net.value_jacobian_divergence(x[:3], 0.6),
                         net.clone().value_jacobian_divergence(x[:3], 0.6)):
        np.testing.assert_array_equal(got, want)
    assert net._buffers(3, True) is buffers and buffers["capacity"] == 2 * net_mod.TILE_ROWS


# ---------------------------------------------------------------------------
# reverse mode
# ---------------------------------------------------------------------------


def fd_gradient(fun, theta, h=1e-5):
    g = np.zeros_like(theta)
    for i in range(len(theta)):
        tp = theta.copy()
        tp[i] += h
        tm = theta.copy()
        tm[i] -= h
        g[i] = (fun(tp) - fun(tm)) / (2 * h)
    return g


@pytest.mark.parametrize("dim,depth,width,seed", [(1, 2, 6, 1), (2, 3, 8, 2), (3, 1, 8, 3)])
def test_backward_matches_finite_differences(dim, depth, width, seed):
    net = small_net(dim, depth, width, seed)
    rng = np.random.default_rng(seed + 100)
    x = rng.uniform(0.1, 0.9, size=(4, dim))
    lam = rng.normal(size=(4, dim))
    g_an, _ = value_vjp(net, x, 0.37, lam)

    def fun(theta):
        probe = MlpVectorField(net.arch, theta=theta)
        return float(np.sum(probe.forward(x, 0.37) * lam))

    g_fd = fd_gradient(fun, net.theta.copy())
    denom = max(np.max(np.abs(g_fd)), 1e-10)
    assert np.max(np.abs(g_an - g_fd)) / denom < 1e-6


def test_backward_input_gradient_matches_fd():
    net = small_net(2, 2, 8, 5)
    x = np.array([[0.3, 0.6]])
    lam = np.array([[1.0, -2.0]])
    _, gx = value_vjp(net, x, 0.5, lam)
    h = 1e-6
    for k in range(2):
        xp = x.copy()
        xp[0, k] += h
        xm = x.copy()
        xm[0, k] -= h
        fd = (np.sum(net.forward(xp, 0.5) * lam) - np.sum(net.forward(xm, 0.5) * lam)) / (2 * h)
        assert abs(gx[0, k] - fd) < 1e-6


def test_zero_theta_gradient_structure():
    # dead quadratic activations: only the output bias carries gradient
    arch = hypothesis_architecture(2, 2, 6)
    net = MlpVectorField(arch, theta=np.zeros(arch.param_count))
    x = np.array([[0.4, 0.7]])
    g, _ = value_vjp(net, x, 0.2, np.ones((1, 2)))
    o = 0
    for li, (din, dout) in enumerate(zip(arch.widths[:-1], arch.widths[1:])):
        wslice = g[o : o + din * dout]
        o += din * dout
        bslice = g[o : o + dout]
        o += dout
        assert np.all(wslice == 0.0), f"layer {li} weights"
        if li < arch.hidden_depth:
            assert np.all(bslice == 0.0), f"layer {li} bias"
        else:
            assert np.any(bslice != 0.0)


def test_linear_mode_matches_least_squares_gradient():
    # ReLU with every hidden pre-activation positive acts as the identity:
    # the raw output is affine and the gradient has a closed form; the
    # mask eta scales the cotangent to resid * eta
    arch = Architecture((2, 3, 1), activation_power=1)
    rng = np.random.default_rng(8)
    theta = rng.uniform(-0.5, 0.5, size=arch.param_count)
    net = MlpVectorField(arch, theta=theta)
    net.layers[0][1][:] += 1.5  # b0: pre-activations stay >= 0.25 on [0, 1] x {0.5}
    w0, b0 = net.layers[0]
    w1, b1 = net.layers[1]
    x = rng.uniform(size=(6, 1))
    u = np.concatenate([x, np.full((6, 1), 0.5)], axis=1)
    y = rng.normal(size=(6, 1))
    resid = (u @ w0.T + b0) @ w1.T + b1 - y

    g, _ = value_vjp(net, x, 0.5, resid)  # of sum resid . v
    r = resid * x * (1.0 - x)
    grad_w0 = w1.T @ r.T @ u
    grad_b0 = (r @ w1).sum(axis=0)
    grad_w1 = r.T @ (u @ w0.T + b0)
    grad_b1 = r.sum(axis=0)
    expect = np.concatenate(
        [grad_w0.ravel(), grad_b0, grad_w1.ravel(), grad_b1]
    )
    np.testing.assert_allclose(g, expect, atol=1e-12)


# ---------------------------------------------------------------------------
# divergence
# ---------------------------------------------------------------------------


def test_divergence_zero_field():
    arch = hypothesis_architecture(2, 2, 8)
    net = MlpVectorField(arch, theta=np.zeros(arch.param_count))
    assert net.divergence(np.array([0.4, 0.5]), 0.1) == 0.0


def test_divergence_identity_field_masked():
    # raw field v(x) = x through ReLU on positive pre-activations; masked
    # divergence at the center is d * 0.25
    d = 3
    arch = Architecture((d + 1, d + 1, d), activation_power=1)
    theta = np.zeros(arch.param_count)
    w0 = np.eye(d + 1)
    theta[: (d + 1) ** 2] = w0.ravel()
    o = (d + 1) ** 2 + (d + 1)
    w1 = np.zeros((d, d + 1))
    w1[:, :d] = np.eye(d)
    theta[o : o + d * (d + 1)] = w1.ravel()
    net = MlpVectorField(arch, theta=theta)
    x = np.full(d, 0.5)
    assert abs(net.divergence(x, 0.0) - d * 0.25) < 1e-14
    # general point: sum of eta_i + x_i (1 - 2 x_i)
    x = np.array([0.2, 0.6, 0.9])
    expect = np.sum(x * (1 - x) + x * (1 - 2 * x))
    assert abs(net.divergence(x, 0.0) - expect) < 1e-13


def test_divergence_matches_fd_jacobian_trace():
    net = small_net(2, 2, 8, seed=11)
    x = np.array([0.35, 0.55])
    h = 1e-6
    fd = 0.0
    for k in range(2):
        xp = x.copy()
        xp[k] += h
        xm = x.copy()
        xm[k] -= h
        fd += (net.forward(xp, 0.4)[k] - net.forward(xm, 0.4)[k]) / (2 * h)
    assert abs(net.divergence(x, 0.4) - fd) < 1e-6


def test_divergence_gradient_matches_fd():
    # joint reverse pass: d(div)/dtheta against central differences
    net = small_net(2, 2, 6, seed=13)
    x = np.array([[0.3, 0.7]])
    _, cache = net.forward_with_cache(x, 0.25, need_tangents=True)
    g_an, gx_an = net.vjp(cache, lam_v=0, lam_div=np.array([1.0]))

    def fun(theta):
        probe = MlpVectorField(net.arch, theta=theta)
        return probe.divergence(x[0], 0.25)

    g_fd = fd_gradient(fun, net.theta.copy())
    denom = max(np.max(np.abs(g_fd)), 1e-10)
    assert np.max(np.abs(g_an - g_fd)) / denom < 1e-5

    h = 1e-6
    for k in range(2):
        xp = x[0].copy()
        xp[k] += h
        xm = x[0].copy()
        xm[k] -= h
        fd = (net.divergence(xp, 0.25) - net.divergence(xm, 0.25)) / (2 * h)
        assert abs(gx_an[0, k] - fd) < 2e-5


# (dim, depth, activation power); power 1 has sigma'' = 0
JOINT_VJP_CASES = list(itertools.product([1, 2, 3], [1, 3], [1, 2, 3]))


@pytest.mark.parametrize("dim, depth, power", JOINT_VJP_CASES)
def test_joint_vjp_matches_fd_on_batches(dim, depth, power):
    # B > 1 with both cotangents: a sample/axis mix-up in the stacked
    # ((d+1)*B, W) value and tangent rows shows in gtheta and in gx
    check_joint_vjp(dim, depth, power, batch=5)


@pytest.mark.parametrize("dim, depth, power", JOINT_VJP_CASES)
def test_joint_vjp_matches_fd_on_one_row(dim, depth, power):
    # one row goes through numpy's matrix-vector products
    check_joint_vjp(dim, depth, power, batch=1)


def check_joint_vjp(dim, depth, power, batch):
    t = 0.35
    arch = hypothesis_architecture(dim, depth, 6, activation_power=power)
    seed = 100 * dim + 10 * depth + power + 1
    net = MlpVectorField(arch, rng=np.random.default_rng(seed))
    rng = np.random.default_rng(seed + 1)
    x = rng.uniform(0.1, 0.9, size=(batch, dim))
    lam_v = rng.normal(size=(batch, dim))
    lam_div = rng.normal(size=batch)
    v, cache = net.forward_with_cache(x, t, need_tangents=True)
    div = cache["div"]
    g_an, gx_an = net.vjp(cache, lam_v=lam_v, lam_div=lam_div)

    # the network's buffers, used on other rows in between, give the same
    # bits, and so does a fresh network
    net.vjp(net.forward_with_cache(1.0 - x, 0.9, need_tangents=True)[1],
            lam_v=lam_v, lam_div=lam_div)
    fresh = net.clone()
    for probe in (net, fresh):
        v_again, cache_again = probe.forward_with_cache(x, t, need_tangents=True)
        again = (v_again, cache_again["div"], *probe.vjp(cache_again, lam_v, lam_div))
        for got, want in zip(again, (v, div, g_an, gx_an)):
            np.testing.assert_array_equal(got, want)

    def loss(probe, xs):
        v, c = probe.forward_with_cache(xs, t, need_tangents=True)
        return float(np.sum(lam_v * v) + np.sum(lam_div * c["div"]))

    g_fd = fd_gradient(
        lambda theta: loss(MlpVectorField(arch, theta=theta), x),
        net.theta.copy(),
    )
    assert np.max(np.abs(g_an - g_fd)) / max(np.max(np.abs(g_fd)), 1e-10) < 1e-5

    gx_fd = fd_gradient(lambda flat: loss(net, flat.reshape(batch, dim)), x.ravel())
    np.testing.assert_allclose(gx_an.ravel(), gx_fd, rtol=0, atol=1e-5 * np.max(np.abs(gx_fd)))


@pytest.mark.parametrize("batch", [1, 2, 3, 5, 7, 256])
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_stacked_value_rows_are_bitwise_the_value_only_evaluation(dim, batch):
    # the BLAS picks its kernel by the shape, so the last bits of a product
    # can depend on its row count (at width 32, or for one row): the value
    # rows of a stacked block must not share a product with its tangents
    for seed, width in itertools.product(range(3), [8, 16, 32]):
        arch = hypothesis_architecture(dim, 2, width)
        net = MlpVectorField(arch, rng=np.random.default_rng(seed))
        x = np.random.default_rng(seed + 100).uniform(0.05, 0.95, size=(batch, dim))
        np.testing.assert_array_equal(net.forward_with_cache(x, 0.3, need_tangents=True)[0],
                                      net.forward(x, 0.3))


@pytest.mark.parametrize("dim, batch", [(1, 2), (2, 5), (3, 4)])
def test_grouped_vjp_matches_one_vjp_per_group(dim, batch):
    # three groups of `batch` rows, each with its own time, in one cache
    net = small_net(dim, 2, 8, seed=29)
    rng = np.random.default_rng(30)
    x = rng.uniform(0.05, 0.95, size=(3, batch, dim))
    t = np.array([0.1, 0.4, 0.9])
    lam_v, lam_div = rng.normal(size=(3, batch, dim)), rng.normal(size=(3, batch))
    separate = [net.vjp(net.forward_with_cache(x[g], t[g], need_tangents=True)[1],
                        lam_v=lam_v[g], lam_div=lam_div[g]) for g in range(3)]
    _, cache = net.forward_with_cache(x.reshape(-1, dim), np.repeat(t, batch),
                                      need_tangents=True)
    for g in (2, 1, 0):
        gtheta, gx = net.vjp(cache, lam_v=lam_v[g], lam_div=lam_div[g], group=g)
        np.testing.assert_array_equal(gx, separate[g][1])
        assert (gtheta is None) == (g > 0)
    np.testing.assert_allclose(gtheta, sum(s[0] for s in separate), rtol=1e-13, atol=1e-13)
    with pytest.raises(InvalidArgumentError, match="group 3"):
        net.vjp(cache, lam_v=lam_v[0], lam_div=lam_div[0], group=3)


def test_vjp_needs_a_tangent_cache():
    net = small_net(2, 2, 8, seed=21)
    x = np.random.default_rng(22).uniform(size=(3, 2))
    cache = net.forward_with_cache(x, 0.4)[1]
    with pytest.raises(InvalidArgumentError, match="tangent"):
        net.vjp(cache, lam_v=np.ones((3, 2)), lam_div=np.zeros(3))


def test_forward_into_one_workspace_returns_fresh_values():
    # two evaluations into the network's one value buffer set
    net = small_net(2, 2, 8, seed=23)
    x = np.random.default_rng(24).uniform(size=(2, 4, 2))
    first = net.forward(x[0], 0.3)
    kept = first.copy()
    net.forward(x[1], 0.7)
    np.testing.assert_array_equal(first, kept)
    np.testing.assert_array_equal(first, net.clone().forward(x[0], 0.3))


def test_value_jacobian_divergence_results_survive_later_evaluations():
    net = small_net(2, 2, 8, seed=25)
    x = np.random.default_rng(26).uniform(size=(2, 4, 2))
    first = net.value_jacobian_divergence(x[0], 0.3)
    kept = [a.copy() for a in first]
    net.value_jacobian_divergence(x[1], 0.7)
    net.forward_with_cache(x[1], 0.7, need_tangents=True)
    for got, want in zip(first, kept):
        np.testing.assert_array_equal(got, want)


def test_value_jacobian_divergence_matches_fd_on_batches():
    batch, dim, t, h = 6, 3, 0.6, 1e-6
    net = small_net(dim, 2, 8, seed=19)
    x = np.random.default_rng(20).uniform(0.1, 0.9, size=(batch, dim))
    v, jac, div = net.value_jacobian_divergence(x, t)
    np.testing.assert_array_equal(v, net.forward(x, t))
    fd = np.empty((batch, dim, dim))
    for k in range(dim):
        xp = x.copy()
        xp[:, k] += h
        xm = x.copy()
        xm[:, k] -= h
        fd[:, :, k] = (net.forward(xp, t) - net.forward(xm, t)) / (2 * h)
    np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-7)
    np.testing.assert_allclose(div, np.trace(jac, axis1=1, axis2=2), rtol=0, atol=1e-14)
    np.testing.assert_allclose(div, net.divergence(x, t), rtol=0, atol=0)


def test_smoothness_across_kink():
    # ReLU^s is C^{s-1}: the (s-1)-th difference quotient has an O(h) jump
    for s in (2, 3):
        f = lambda x: net_mod.relu_power(x, s)
        h = 1e-4
        if s == 2:
            deriv = lambda x: (f(x + h) - f(x - h)) / (2 * h)
        else:
            deriv = lambda x: (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)
        jump = abs(deriv(1e-6) - deriv(-1e-6))
        assert jump < 10 * h


def test_parameter_box_projection():
    net = small_net(2, 2, 6, seed=17)
    net.set_theta(np.linspace(-3, 3, net.arch.param_count))
    net.project_theta()
    assert np.max(np.abs(net.theta)) <= 1.0


# ---------------------------------------------------------------------------
# B-splines
# ---------------------------------------------------------------------------


def test_bspline_degree0_indicator():
    assert bspline_eval(0, 0, 0.5) == 1.0
    assert bspline_eval(0, 0, -0.1) == 0.0
    assert bspline_eval(0, 0, 1.0) == 0.0
    assert bspline_eval(0, 0, 0.0) == 1.0


def test_bspline_quadratic_peak():
    assert abs(bspline_eval(2, 0, 1.5) - 0.75) < 1e-15
    assert abs(bspline_recursive(2, 0, 1.5) - 0.75) < 1e-15


def test_bspline_eval_equals_recursion_bulk():
    rng = np.random.default_rng(23)
    xs = rng.uniform(-1.0, 6.0, size=1000)
    for s in range(5):
        a = bspline_eval(s, 0, xs)
        b = bspline_recursive(s, 0, xs)
        assert np.max(np.abs(a - b)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(
    s=st.integers(min_value=0, max_value=4),
    j=st.integers(min_value=-2, max_value=2),
    x=st.floats(min_value=-3.0, max_value=8.0, allow_nan=False),
)
def test_bspline_identity_property(s, j, x):
    assert abs(bspline_eval(s, j, x) - bspline_recursive(s, j, x)) < 1e-12


def test_bspline_partition_of_unity_and_support():
    xs = np.linspace(0.0, 3.0, 301)
    for s in (1, 2, 3):
        total = sum(bspline_eval(s, j, xs) for j in range(-s, 4))
        np.testing.assert_allclose(total, 1.0, atol=1e-12)
        lo, hi = 0, s + 1  # the support of bspline_eval(s, 0, .)
        assert bspline_eval(s, 0, lo - 0.5) == 0.0 and bspline_eval(s, 0, hi + 0.5) == 0.0
        inside = np.linspace(lo + 1e-3, hi - 1e-3, 50)
        assert np.all(bspline_eval(s, 0, inside) >= 0)


# ---------------------------------------------------------------------------
# product gadget
# ---------------------------------------------------------------------------


def test_gadget_simple_products():
    assert abs(product_gadget(2, [3.0, 4.0]) - 12.0) < 1e-12
    assert product_gadget(3, [0.0, 0.5, -0.7]) == 0.0
    assert abs(product_gadget(3, [1.0, 1.0, 1.0]) - 1.0) < 1e-12


def test_gadget_padding_identity():
    assert abs(product_gadget(3, [0.4, -0.6]) - (0.4 * -0.6)) < 1e-13


@pytest.mark.parametrize("s", [2, 3])
def test_gadget_random_inputs(s):
    rng = np.random.default_rng(29 + s)
    for _ in range(50):
        xs = rng.uniform(-1, 1, size=s)
        assert abs(product_gadget(s, xs) - np.prod(xs)) < 1e-12


def test_gadget_architecture_and_box():
    g = ProductGadgetNetwork(3)
    assert g.arch.widths == (3, 16, 1)
    assert np.max(np.abs(g.w_hidden)) <= 1.0
    assert np.max(np.abs(g.w_out)) <= 1.0


# ---------------------------------------------------------------------------
# capacity constants
# ---------------------------------------------------------------------------


def exact_constants(L, W, d):
    """Hand evaluation with exact rational arithmetic."""
    lip0 = Fraction(L) * Fraction(2 * W) ** (2 ** (L + 2) + 2 * L - 3) * Fraction(d + 1) ** (2**L)
    c = Fraction(2 * W) ** (2**L - 2) * Fraction(d + 1) ** (2 ** (L - 2))
    inner = 8 * W**2 * c + 2 * W**2 * lip0 + 2 * W * (c + 1)
    lip1 = Fraction(L, 4) * ((2 * W) ** 2 * c) ** (L - 1) * inner + lip0
    return lip0, lip1, c


def frac_log(f):
    return mp.log(mp.mpf(f.numerator)) - mp.log(mp.mpf(f.denominator))


@pytest.mark.parametrize("L,W,d", [(2, 4, 2), (3, 8, 3)])
def test_capacity_logs_match_exact_arithmetic(L, W, d):
    got = capacity_constants(L, W, d)
    lip0, lip1, c = exact_constants(L, W, d)
    assert abs(float(got.log_lip0 - frac_log(lip0))) < 1e-9
    assert abs(float(got.log_lip1 - frac_log(lip1))) < 1e-9
    assert abs(float(got.log_c - frac_log(c))) < 1e-9
    assert not got.degenerate


def test_capacity_degenerate_depth_one():
    got = capacity_constants(1, 8, 3)
    assert got.degenerate
    assert float(got.log_c) == 0.0


def test_lip1_dominates_lip0():
    for L in (1, 2, 3, 4):
        for W in (2, 4, 8):
            for d in (1, 2, 3):
                got = capacity_constants(L, W, d)
                assert got.log_lip1 > got.log_lip0


def test_lip0_monotone():
    base = capacity_constants(2, 4, 2).log_lip0
    assert capacity_constants(3, 4, 2).log_lip0 > base
    assert capacity_constants(2, 5, 2).log_lip0 > base
    assert capacity_constants(2, 4, 3).log_lip0 > base


def test_envelope_bound_is_exp_tower():
    got = capacity_constants(2, 4, 2, c_d=1.0, c_dkl=1.0)
    # log bound = (1*4)^(2^7) = 4^128
    assert abs(float(mp.log(got.log_lbar_bound) - 128 * mp.log(4))) < 1e-9


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    net = small_net(2, 2, 6, seed=37)
    path = tmp_path / "net.ckpt"
    save_checkpoint(FlowMap(net, dim=2, steps=12), path)
    back = load_checkpoint(path)
    assert (back.dim, back.steps) == (2, 12)
    assert back.field.arch == net.arch
    header = ["flowquad-net 2", "s 2 mask 1 steps 12 widths 3 6 6 2"]
    assert path.read_text().splitlines()[:2] == header
    np.testing.assert_array_equal(back.field.theta, net.theta)
    x = np.random.default_rng(0).uniform(size=(3, 2))
    np.testing.assert_array_equal(back.field.forward(x, 0.3), net.forward(x, 0.3))


def test_version_1_checkpoint_is_rejected_for_its_missing_step_count(tmp_path):
    path = tmp_path / "old.ckpt"
    path.write_text("flowquad-net 1\ns 2 mask 1 widths 2 1\n0.5\n0.5\n0.5\n")
    with pytest.raises(InvalidArgumentError, match=r"old\.ckpt: version 1 has no RK4 step count"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("flowquad-net\n", id="bare-magic"),
        pytest.param("flowquad-net 2\n", id="no-header"),
        pytest.param("flowquad-net 2\ns 2 mask\n", id="short-header"),
        pytest.param("flowquad-net 2\ns two mask 1 steps 4 widths 3 2\n", id="power-not-a-number"),
        pytest.param("flowquad-net 2\ns 2 mask 1 steps 4 widths 2 1\n0.5\nabc\n",
                     id="value-not-a-number"),
        pytest.param("flowquad-net 2\ns 2 mask 1 steps 4 widths 2 1\n0.5\n", id="too-few-values"),
        pytest.param("flowquad-net 2\ns 2 mask 1 steps 4 widths 2 1\n0.5\nnan\n0.5\n",
                     id="value-nan"),
        pytest.param("flowquad-net 2\ns 2 mask 0 steps 4 widths 2 1\n0.5\n0.5\n0.5\n",
                     id="mask-0"),
        pytest.param("flowquad-net 2\ns 2 mask 7 steps 4 widths 2 1\n0.5\n0.5\n0.5\n",
                     id="mask-7"),
        pytest.param("flowquad-net 2\ns 2 mask 1 steps 0 widths 2 1\n0.5\n0.5\n0.5\n",
                     id="steps-0"),
        pytest.param("flowquad-net 2\ns 2 mask 1 steps -2 widths 2 1\n0.5\n0.5\n0.5\n",
                     id="steps-negative"),
        pytest.param("flowquad-net 2\ns 2 mask 1 steps 2.5 widths 2 1\n0.5\n0.5\n0.5\n",
                     id="steps-not-integral"),
        pytest.param("flowquad-net 2\ns 2 mask 1 steps widths 2 1\n0.5\n0.5\n0.5\n",
                     id="steps-missing"),
        pytest.param("flowquad-net 2\ns 2 mask 1 widths 2 1\n0.5\n0.5\n0.5\n", id="no-steps-key"),
        pytest.param("flowquad-net 3\ns 2 mask 1 steps 4 widths 2 1\n0.5\n0.5\n0.5\n",
                     id="version-3"),
        pytest.param(b"flowquad-net 2\n\xff\n", id="not-utf8"),
    ],
)
def test_malformed_checkpoint_names_the_file(tmp_path, text):
    path = tmp_path / "net.ckpt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(InvalidArgumentError, match="net.ckpt"):
        load_checkpoint(path)
