import numpy as np
import pytest

from flowquad import densities as dn
from flowquad.errors import InvalidArgumentError


@pytest.mark.parametrize(
    "factory",
    [
        dn.uniform1d,
        lambda: dn.linear_tilt(0.5, 1.0),
        lambda: dn.linear_tilt(0.0, 2.0),
        lambda: dn.cosine_bump(0.5),
        lambda: dn.cosine_bump(-0.3, freq=2, phase=0.25),
    ],
)
def test_1d_family_is_normalized(factory):
    f = factory()
    xs = np.linspace(0, 1, 4001)
    from scipy.integrate import simpson

    assert abs(simpson(f.pdf(xs), x=xs) - 1.0) < 1e-8
    assert abs(f.cdf(0.0)) < 1e-14
    assert abs(f.cdf(1.0) - 1.0) < 1e-12


@pytest.mark.parametrize(
    "factory",
    [
        lambda: dn.linear_tilt(0.5, 1.0),
        lambda: dn.linear_tilt(0.0, 2.0),
        lambda: dn.cosine_bump(0.5),
        lambda: dn.cosine_bump(-0.3, freq=2, phase=0.25),
        lambda: dn.linear_tilt(1e200, 1e200),  # a * a overflows unless scaled first
    ],
)
def test_quantile_inverts_cdf(factory):
    f = factory()
    us = np.linspace(0.0, 1.0, 101)
    xs = f.quantile(us)
    assert np.max(np.abs(f.cdf(xs) - us)) < 1e-10


def test_linear_tilt_closed_forms():
    f = dn.linear_tilt(0.0, 2.0)  # density 2x
    assert abs(f.cdf(0.5) - 0.25) < 1e-15
    assert abs(f.quantile(0.25) - 0.5) < 1e-12
    assert f.lower == 0.0 and abs(f.upper - 2.0) < 1e-15


def test_cdf_bounds_against_pdf_extrema():
    f = dn.cosine_bump(0.5)
    xs = np.linspace(0, 1, 2001)
    vals = f.pdf(xs)
    assert vals.min() >= f.lower - 1e-12
    assert vals.max() <= f.upper + 1e-12


def test_grad_log_matches_finite_differences():
    for f in (dn.linear_tilt(0.5, 1.0), dn.cosine_bump(0.4, freq=2)):
        xs = np.linspace(0.05, 0.95, 19)
        h = 1e-6
        fd = (np.log(f.pdf(xs + h)) - np.log(f.pdf(xs - h))) / (2 * h)
        assert np.max(np.abs(f.grad_log(xs) - fd)) < 1e-6


def test_product_density_bounds_and_mass():
    dens = dn.product_density([dn.linear_tilt(0.2, 1.6), dn.cosine_bump(0.3)])
    dn.check_bounds_on_lattice(dens)
    assert abs(dn.total_mass(dens) - 1.0) < 1e-6
    # the product's gradient bound is finite wherever each factor's is
    steep = dn.product_density([dn.cosine_bump(0.999999, freq=1e300), dn.uniform1d()])
    assert steep.lipschitz == steep.factors[0].lipschitz


def test_uniform_density_is_one():
    dens = dn.uniform_density(3)
    pts = np.random.default_rng(0).uniform(size=(10, 3))
    np.testing.assert_allclose(dens.evaluate(pts), 1.0)
    assert abs(dn.total_mass(dens) - 1.0) < 1e-10


def test_custom_density_mass_check():
    dens = dn.custom_density(
        2,
        lambda x: (1.0 + 0.5 * x[:, 0] * x[:, 1]) / 1.125,
        lower=1.0 / 1.125,
        upper=1.5 / 1.125,
        name="coupled",
    )
    assert abs(dn.total_mass(dens) - 1.0) < 1e-10
    dn.check_bounds_on_lattice(dens)


def test_invalid_families_rejected():
    with pytest.raises(InvalidArgumentError):
        dn.linear_tilt(-0.1, 1.0)
    with pytest.raises(InvalidArgumentError):
        dn.cosine_bump(1.0)
    with pytest.raises(InvalidArgumentError):  # the closed-form mass cancels to 1.0
        dn.cosine_bump(-0.1078, 3.37e-267, -0.1078)
    with pytest.raises(InvalidArgumentError):
        dn.make_density_1d("nope")


def test_registry_round_trip():
    f = dn.make_density_1d("linear_tilt", {"a": 0.0, "b": 2.0})
    assert f.name == "linear_tilt"
    assert abs(f.cdf(0.5) - 0.25) < 1e-15
