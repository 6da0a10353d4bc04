import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.stats import chi2

import flowquad
from flowquad import densities as dn
from flowquad.errors import InvalidArgumentError
from flowquad.transport import KrTransport, TransportField


def tilt2x_transport(dim=1):
    source = dn.uniform_density(dim)
    target = dn.product_density([dn.linear_tilt(0.0, 2.0) for _ in range(dim)])
    return KrTransport(source, target)


def mixed_transport():
    """2D product target mixing an analytic and a Newton-inverted quantile."""
    source = dn.uniform_density(2)
    target = dn.product_density(
        [dn.linear_tilt(0.5, 1.0), dn.cosine_bump(0.5, freq=2, phase=0.25)]
    )
    return KrTransport(source, target)


# ---------------------------------------------------------------------------
# per-axis CDFs and quantiles
# ---------------------------------------------------------------------------


def test_uniform_conditional_cdf():
    t = KrTransport(dn.uniform_density(2), dn.uniform_density(2))
    for f in t.source.factors:
        assert abs(f.cdf(0.5) - 0.5) < 1e-14
    np.testing.assert_array_equal(t.kr_map([0.3, 0.5]), [0.3, 0.5])


def test_tilt_conditional_cdf_value():
    t = tilt2x_transport()
    assert abs(t.target.factors[0].cdf(0.5) - 0.25) < 1e-14


def test_quadratic_factor_total_mass():
    # density 6x(1-x) + 0.1, normalized by 1.1
    pdf = lambda x: (6 * np.asarray(x) * (1 - np.asarray(x)) + 0.1) / 1.1
    cdf = lambda x: (3 * np.asarray(x) ** 2 - 2 * np.asarray(x) ** 3 + 0.1 * np.asarray(x)) / 1.1
    factor = dn.Density1D(
        name="bump", params={}, pdf=pdf, cdf=cdf,
    )
    t = KrTransport(dn.product_density([factor]), dn.uniform_density(1))
    assert abs(factor.cdf(1.0) - 1.0) < 1e-12
    assert abs(t.kr_map([1.0])[0] - 1.0) < 1e-12


def test_cdf_inverse_boundaries_and_value():
    quantile = tilt2x_transport().target.factors[0].quantile
    assert quantile(0.0) == 0.0
    assert quantile(1.0) == 1.0
    assert abs(quantile(0.25) - 0.5) < 1e-10


def test_cdf_inverse_round_trip():
    # the tilt inverts in closed form, the cosine bump by guarded Newton
    for f in mixed_transport().target.factors:
        for x in np.linspace(0.05, 0.95, 7):
            assert abs(f.quantile(f.cdf(x)) - x) < 1e-9


def test_cdf_inverse_rejects_bad_u():
    t = tilt2x_transport()
    with pytest.raises(InvalidArgumentError):
        t.target.factors[0].quantile(1.5)


# ---------------------------------------------------------------------------
# the transport map
# ---------------------------------------------------------------------------


def test_identity_transport():
    dens = dn.product_density([dn.cosine_bump(0.4), dn.linear_tilt(0.5, 1.0)])
    t = KrTransport(dens, dens)
    rng = np.random.default_rng(1)
    for x in rng.uniform(size=(20, 2)):
        np.testing.assert_allclose(t.kr_map(x), x, atol=1e-8)


def test_sqrt_map_for_tilt_target():
    t = tilt2x_transport()
    xs = np.random.default_rng(2).uniform(size=100)
    mapped = np.array([t.kr_map([x])[0] for x in xs])
    assert np.max(np.abs(mapped - np.sqrt(xs))) < 1e-8


def test_triangular_dependence():
    # the map of a product is diagonal: each component reads its own axis
    t = mixed_transport()
    a = t.kr_map([0.3, 0.6])
    b = t.kr_map([0.3, 0.9])
    c = t.kr_map([0.7, 0.6])
    assert a[0] == b[0]
    assert a[1] == c[1]


def test_componentwise_monotone():
    t = mixed_transport()
    rng = np.random.default_rng(3)
    for k in range(2):
        for _ in range(100):
            base = rng.uniform(0.02, 0.95, size=2)
            bumped = base.copy()
            bumped[k] = base[k] + 0.02
            assert t.kr_map(bumped)[k] > t.kr_map(base)[k]


def test_endpoints_fixed():
    t = mixed_transport()
    for first in (0.25, 0.75):
        lo = t.kr_map([first, 0.0])
        hi = t.kr_map([first, 1.0])
        assert abs(lo[1] - 0.0) < 1e-9
        assert abs(hi[1] - 1.0) < 1e-9


def test_pushforward_quadrature_consistency():
    # integral of qoi(T(x)) dnu == integral of qoi dmu, fine tensor Gauss rule
    t = mixed_transport()
    gx, gw = np.polynomial.legendre.leggauss(33)
    gx = 0.5 * (gx + 1)
    gw = 0.5 * gw
    pts = np.stack([g.ravel() for g in np.meshgrid(gx, gx, indexing="ij")], axis=-1)
    wts = np.multiply.outer(gw, gw).ravel()

    qoi = lambda y: y[:, 0] + y[:, 1] ** 2
    mapped = t.kr_map_batch(pts)
    lhs = np.dot(wts, qoi(mapped))
    rhs = np.dot(wts * t.target.evaluate(pts), qoi(pts))
    assert abs(lhs - rhs) < 1e-4


def test_pushforward_chi_square_2d():
    # exact sampler for the product target (2x)(2y): histogram test at 1%
    t = tilt2x_transport(dim=2)
    rng = np.random.default_rng(12345)
    samples = t.kr_map_batch(rng.uniform(size=(10_000, 2)))
    edges = np.linspace(0, 1, 6)
    counts, _, _ = np.histogram2d(samples[:, 0], samples[:, 1], bins=[edges, edges])
    marg = edges[1:] ** 2 - edges[:-1] ** 2
    expected = 10_000 * np.outer(marg, marg)
    stat = np.sum((counts - expected) ** 2 / expected)
    assert stat < chi2.ppf(0.99, 24), stat


# ---------------------------------------------------------------------------
# displacement interpolation and the induced field
# ---------------------------------------------------------------------------


def interpolate(t, x, s):
    """The straight-line interpolation s*T(x) + (1-s)*x that
    displacement_inverse inverts, as (n, d) rows."""
    return s * t.kr_map_batch(x) + (1.0 - s) * np.atleast_2d(x)


def test_displacement_endpoints():
    t = tilt2x_transport()
    x = np.array([0.3])
    np.testing.assert_array_equal(t.displacement_inverse(x, 0.0), x)
    np.testing.assert_allclose(t.displacement_inverse(t.kr_map(x), 1.0), x, atol=1e-10)


def test_displacement_midpoint_value():
    t = tilt2x_transport()
    # T(0.25) = 0.5, so the midpoint interpolation is 0.375
    assert abs(interpolate(t, np.array([0.25]), 0.5)[0, 0] - 0.375) < 1e-10


def test_displacement_inverse_round_trip():
    t = mixed_transport()
    rng = np.random.default_rng(4)
    for s in (0.0, 0.25, 0.5, 1.0):
        for x in rng.uniform(0.05, 0.95, size=(5, 2)):
            y = interpolate(t, x, s)
            back = t.displacement_inverse(y, s)
            assert np.max(np.abs(back - x)) < 1e-8
            again = interpolate(t, back, s)
            assert np.max(np.abs(again - y)) < 1e-9


def test_displacement_inverse_example():
    t = tilt2x_transport()
    assert abs(t.displacement_inverse(np.array([0.375]), 0.5)[0] - 0.25) < 1e-9


def test_target_field_zero_for_identity():
    dens = dn.product_density([dn.cosine_bump(0.4)])
    t = KrTransport(dens, dens)
    for s in (0.0, 0.5, 1.0):
        np.testing.assert_allclose(t.target_field(np.array([0.4]), s), 0.0, atol=1e-8)


def test_target_field_at_time_zero():
    t = tilt2x_transport()
    y = np.array([0.49])
    expect = t.kr_map(y) - y
    np.testing.assert_allclose(t.target_field(y, 0.0), expect, atol=1e-12)


def test_target_field_vanishing_normal_components():
    t = mixed_transport()
    for s in (0.25, 0.75):
        for face_val in (0.0, 1.0):
            u = t.target_field(np.array([face_val, 0.5]), s)
            assert abs(u[0]) < 1e-7
            u = t.target_field(np.array([0.5, face_val]), s)
            assert abs(u[1]) < 1e-7


@pytest.mark.parametrize("s", [0.0, 0.3, 0.5, 1.0])
def test_batched_inverse_and_field_equal_row_calls(s):
    t = mixed_transport()
    ys = np.random.default_rng(6).uniform(size=(40, 2))
    ys[:4] = [[0.0, 0.5], [1.0, 0.5], [0.5, 0.0], [0.5, 1.0]]
    # the solver stops each row once its own residual is below 1e-12
    for query in (t.displacement_inverse, t.target_field):
        rows = np.array([query(y, s) for y in ys])
        np.testing.assert_array_equal(query(ys, s), rows)


def test_kr_map_batch_equals_row_calls():
    target = dn.product_density([dn.cosine_bump(0.5), dn.cosine_bump(-0.3, freq=2, phase=0.25)])
    t = KrTransport(dn.uniform_density(2), target)
    xs = np.random.default_rng(7).uniform(size=(200, 2))
    np.testing.assert_array_equal(t.kr_map_batch(xs), [t.kr_map(x) for x in xs])


def test_flow_consistency_against_interpolation():
    # integrating the field must land on the interpolation path
    t = tilt2x_transport()
    x = np.array([0.36])
    for s_end in (0.25, 0.5, 1.0):
        n = 64
        h = s_end / n
        y = x.copy()
        s = 0.0
        for _ in range(n):
            k1 = t.target_field(y, s)
            k2 = t.target_field(y + 0.5 * h * k1, s + 0.5 * h)
            k3 = t.target_field(y + 0.5 * h * k2, s + 0.5 * h)
            k4 = t.target_field(y + h * k3, s + h)
            y = y + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
            s += h
        expect = interpolate(t, x, s_end)
        assert np.max(np.abs(y - expect)) < 1e-5


def test_transport_field_adapter_divergence():
    t = tilt2x_transport()
    field = TransportField(t)
    x = np.array([[0.4]])
    h = 1e-6
    fd = (field(np.array([[0.4 + h]]), 0.3)[0, 0] - field(np.array([[0.4 - h]]), 0.3)[0, 0]) / (2 * h)
    assert abs(field.divergence(x, 0.3)[0] - fd) < 1e-4


_NO_SCIPY = """
import sys
from flowquad import densities as dn
from flowquad.flow import FlowMap, flow_forward, log_pushforward_density
from flowquad.transport import KrTransport, TransportField
target = dn.product_density([dn.linear_tilt(0.5, 1.0), dn.cosine_bump(0.5)])
t = KrTransport(dn.uniform_density(2), target)
fm = FlowMap(TransportField(t), dim=2, steps=4)
flow_forward(fm, [[0.3, 0.6], [0.8, 0.1]])
log_pushforward_density(fm, t.source, [[0.3, 0.6], [0.8, 0.1]])
print("scipy" in sys.modules)
"""


def test_exact_transport_flow_imports_no_scipy(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowquad.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    done = subprocess.run([sys.executable, "-c", _NO_SCIPY], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False"]
