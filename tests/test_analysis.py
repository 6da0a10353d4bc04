
import math

import numpy as np
import pytest

from flowquad import analysis as an
from flowquad import densities as dn
from flowquad import quadrature as quad
from flowquad.errors import InvalidArgumentError, UnsupportedDimensionError
from flowquad.flow import FlowMap, flow_forward
from flowquad.network import MlpVectorField, hypothesis_architecture
from flowquad.transport import KrTransport, TransportField


class ZeroField:
    def __call__(self, x, t):
        return np.zeros_like(np.atleast_2d(x))

    def divergence(self, x, t):
        return np.zeros(len(np.atleast_2d(x)))


def zero_flow(dim, steps=8):
    return FlowMap(ZeroField(), dim=dim, steps=steps)


def random_net_flow(dim=1, seed=0, steps=32):
    arch = hypothesis_architecture(dim, 2, 8)
    net = MlpVectorField(arch, rng=np.random.default_rng(seed))
    return FlowMap(net, dim=dim, steps=steps)


def tilt_target(dim=1, a=0.0, b=2.0):
    return dn.product_density([dn.linear_tilt(a, b) for _ in range(dim)])


# ---------------------------------------------------------------------------
# qoi plumbing
# ---------------------------------------------------------------------------


def test_qoi_families():
    q = an.make_qoi("coordinate", 2, {"axis": 1})
    assert q.evaluate(np.array([[0.2, 0.7]]))[0] == 0.7
    q = an.make_qoi("product", 2)
    assert q.evaluate(np.array([[0.5, 0.4]]))[0] == 0.2
    probe, _ = quad.tensor_product([np.linspace(0, 1, 33)] * 2, [np.ones(33)] * 2)
    assert np.max(np.abs(q.evaluate(probe))) <= q.sup_norm
    with pytest.raises(InvalidArgumentError):
        an.make_qoi("nope", 2)


# each family's row-wise formula before QoIs were built from per-axis factors
ROW_FORMULAS = {
    "product": lambda x: np.prod(x, axis=1),
    "cos_product": lambda x: np.prod(np.cos(x), axis=1),
    "abs_product": lambda x: np.prod(np.abs(x - 0.5), axis=1),
    "constant": lambda x: np.ones(len(x)),
}


@pytest.mark.parametrize("dim", [1, 2, 6])
def test_factor_qois_equal_row_formulas(dim):
    x = np.random.default_rng(dim).uniform(size=(9000, dim))
    for family, formula in ROW_FORMULAS.items():
        np.testing.assert_array_equal(an.make_qoi(family, dim).evaluate(x), formula(x))
    for axis in range(dim):
        q = an.make_qoi("coordinate", dim, {"axis": axis})
        np.testing.assert_array_equal(q.evaluate(x), x[:, axis])
    assert an.make_qoi("abs_product", dim).sup_norm == 0.5**dim


# ---------------------------------------------------------------------------
# the reference value
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("dim", [4, 6, 70])
def test_reference_matches_closed_forms_at_any_dim(dim):
    cos_ref = an.reference_expectation(dn.uniform_density(dim), an.make_qoi("cos_product", dim))
    assert cos_ref == pytest.approx(math.sin(1.0) ** dim, rel=1e-13)
    tilt_ref = an.reference_expectation(tilt_target(dim), an.make_qoi("product", dim))
    assert tilt_ref == pytest.approx((2.0 / 3.0) ** dim, rel=1e-13)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_reference_matches_dense_sum(dim):
    factors = [dn.linear_tilt(0.0, 2.0), dn.cosine_bump(0.5), dn.linear_tilt(0.5, 1.0)]
    target = dn.product_density(factors[:dim])
    pts, wt = quad.tensor_gauss(dim, quad.REFERENCE_POINTS)
    dens = target.evaluate(pts)
    for family in QOI_FAMILIES:
        q = an.make_qoi(family, dim)
        terms = q.evaluate(pts) * dens
        got = an.reference_expectation(target, q)
        # both sides are exactly rounded sums: equal at d = 1, and a product
        # of d rounded 1-D sums at d >= 2
        dense = math.fsum(wt * terms)
        if dim == 1:
            assert got == dense
        else:
            assert abs(got - dense) <= 4 * math.ulp(dense)


# ---------------------------------------------------------------------------
# integration via the flow
# ---------------------------------------------------------------------------


def test_identity_flow_constant_qoi():
    grid = quad.smolyak(2, 2)
    got = an.integrate_via_flow(grid, zero_flow(2), an.make_qoi("constant", 2))
    assert abs(got - 1.0) < 1e-10


def test_kr_flow_reaches_analytic_expectation_1d():
    src = dn.uniform_density(1)
    transport = KrTransport(src, tilt_target(1))
    fm = FlowMap(TransportField(transport), dim=1, steps=64)
    grid = quad.smolyak(1, 4)
    got = an.integrate_via_flow(grid, fm, an.make_qoi("coordinate", 1))
    assert abs(got - 2.0 / 3.0) < 1e-3


def test_kr_flow_product_target_2d():
    src = dn.uniform_density(2)
    target = tilt_target(2, a=0.2, b=1.6)
    transport = KrTransport(src, target)
    fm = FlowMap(TransportField(transport), dim=2, steps=32)
    grid = quad.smolyak(2, 3)
    got = an.integrate_via_flow(grid, fm, an.make_qoi("product", 2))
    marginal = 0.1 + 1.6 / 3.0  # E[x] under 0.2 + 1.6 x
    assert abs(got - marginal**2) < 1e-3


# ---------------------------------------------------------------------------
# reuse of pushed nodes
# ---------------------------------------------------------------------------

QOI_FAMILIES = ("coordinate", "product", "cos_product", "abs_product", "constant")


def level_sweep(fm):
    """Estimates of every QoI family at levels 1-4, all on the same flow map."""
    qois = [an.make_qoi(family, fm.dim) for family in QOI_FAMILIES]
    return [[an.integrate_via_flow(quad.smolyak(fm.dim, level), fm, q) for q in qois]
            for level in range(1, 5)]


def fresh_estimate(grid, fm, qoi):
    """The estimate from a new flow map, which has pushed nothing yet."""
    return an.integrate_via_flow(grid, FlowMap(fm.field, dim=fm.dim, steps=fm.steps), qoi)


def count_pushed_rows(monkeypatch):
    pushed = []
    push = an.flow_forward

    def counting(fm, x, *args, **kwargs):
        pushed.append(len(x))
        return push(fm, x, *args, **kwargs)

    monkeypatch.setattr(an, "flow_forward", counting)
    return pushed


def test_reused_images_equal_fresh_flow_maps():
    fm = random_net_flow(dim=3, seed=5, steps=16)
    qois = [an.make_qoi(family, 3) for family in QOI_FAMILIES]
    fresh = [
        [fresh_estimate(quad.smolyak(3, level), fm, q) for q in qois] for level in range(1, 5)
    ]
    assert level_sweep(fm) == fresh


def test_each_distinct_node_is_pushed_once(monkeypatch):
    pushed = count_pushed_rows(monkeypatch)
    level_sweep(random_net_flow(dim=3, seed=5, steps=16))
    # Clenshaw-Curtis levels are nested: the level-4 grid holds every node
    assert len(pushed) == 4
    assert sum(pushed) == quad.smolyak(3, 4).node_count


@pytest.mark.parametrize("change", ["theta", "project_theta", "steps"])
def test_changed_flow_is_pushed_again(change):
    fm = random_net_flow(dim=3, seed=5, steps=16)
    net = fm.field
    net.theta[0] = 1.5  # outside [-1, 1], so projecting changes it
    grid = quad.smolyak(3, 3)
    q = an.make_qoi("cos_product", 3)
    before = an.integrate_via_flow(grid, fm, q)
    if change == "theta":
        net.theta[:] = np.roll(net.theta, 1)
    elif change == "project_theta":
        net.project_theta()
    else:
        fm.steps = 8
    after = an.integrate_via_flow(grid, fm, q)
    assert after == fresh_estimate(grid, fm, q)
    assert after != before


def test_integrate_via_flow_accepts_only_one_thread(monkeypatch):
    pushed = count_pushed_rows(monkeypatch)
    fm = random_net_flow(dim=2, seed=3)
    grid = quad.smolyak(2, 3)
    q = an.make_qoi("cos_product", 2)
    with pytest.raises(InvalidArgumentError):
        an.integrate_via_flow(grid, fm, q, threads=2)
    assert not pushed


def test_fields_without_parameters_are_pushed_every_call(monkeypatch):
    transport = KrTransport(dn.uniform_density(2), tilt_target(2, a=0.2, b=1.6))
    grid = quad.smolyak(2, 2)
    q = an.make_qoi("product", 2)
    for fm in (zero_flow(2), FlowMap(TransportField(transport), dim=2, steps=4)):
        direct = quad.kahan_sum(grid.weights * q.evaluate(flow_forward(fm, grid.nodes)))
        pushed = count_pushed_rows(monkeypatch)
        assert an.integrate_via_flow(grid, fm, q) == direct
        assert an.integrate_via_flow(grid, fm, q) == direct
        assert pushed == [grid.node_count] * 2


def test_total_error():
    assert an.total_error(1.0, 1.0) == 0.0
    assert an.total_error(2.0 / 3.0, 0.5) == pytest.approx(1.0 / 6.0)


# ---------------------------------------------------------------------------
# quadrature error
# ---------------------------------------------------------------------------


def test_quadrature_error_exact_for_low_degree_polynomials():
    grid = quad.smolyak(1, 2)  # 5 nodes, exact below degree 5
    q = an.QoI((lambda t: t**3,), sup_norm=1.0, name="cubic")
    fm = zero_flow(1)
    oracle = an.pullback_integral_oracle(fm, q, dn.uniform_density(1))
    err = abs(oracle - an.integrate_via_flow(grid, fm, q))
    assert err < 1e-11


def test_exactness_transfer_identity_flow():
    # identity transport + polynomial qoi: the total error collapses to zero
    grid = quad.smolyak(1, 2)
    q = an.QoI((lambda t: t**3,), sup_norm=1.0, name="cubic")
    estimate = an.integrate_via_flow(grid, zero_flow(1), q)
    reference = an.reference_expectation(dn.uniform_density(1), q)
    assert an.total_error(reference, estimate) < 1e-10


def test_quadrature_error_decreases_with_level():
    fm = random_net_flow(dim=1, seed=5)
    q = an.make_qoi("cos_product", 1)
    src = dn.uniform_density(1)
    oracle = an.pullback_integral_oracle(fm, q, src)
    errs = []
    for level in range(1, 7):
        grid = quad.smolyak(1, level)
        errs.append(abs(oracle - an.integrate_via_flow(grid, fm, q)))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= 1.1 * hi + 1e-14


def test_rough_qoi_decays_slower_than_smooth():
    src = dn.uniform_density(1)
    fm = zero_flow(1)
    smooth = an.make_qoi("cos_product", 1)
    rough = an.QoI((lambda t: np.abs(t - 0.4),), sup_norm=0.6, name="kink")

    def err_at(qoi, level):
        grid = quad.smolyak(1, level)
        oracle = an.pullback_integral_oracle(fm, qoi, src)
        return abs(oracle - an.integrate_via_flow(grid, fm, qoi))

    decay_smooth = err_at(smooth, 5) / max(err_at(smooth, 1), 1e-16)
    decay_rough = err_at(rough, 5) / max(err_at(rough, 1), 1e-16)
    assert decay_rough > decay_smooth
    assert err_at(rough, 5) < err_at(rough, 1)


def test_quadrature_error_rejects_high_dim():
    grid = quad.smolyak(1, 1)
    with pytest.raises(UnsupportedDimensionError):
        an.pullback_integral_oracle(
            FlowMap(ZeroField(), dim=4, steps=4), an.make_qoi("constant", 4),
            dn.uniform_density(4),
        )


# ---------------------------------------------------------------------------
# divergence estimates
# ---------------------------------------------------------------------------


def test_kl_and_tv_zero_for_identity_model():
    src = dn.uniform_density(1)
    fm = zero_flow(1)
    kl, _ = an.kl_estimate(src, fm, src)
    assert kl == 0.0
    assert an.tv_estimate(src, fm, src) == 0.0


def test_tv_uniform_vs_tilt_quarter():
    # the integrand |2x - 1| has a kink, so the dense grid carries ~1e-4 error
    target = tilt_target(1)
    got = an.tv_estimate(target, zero_flow(1), dn.uniform_density(1), points_per_axis=129)
    assert abs(got - 0.25) < 5e-4


def test_kl_oracle_flow_near_zero():
    src = dn.uniform_density(1)
    target = tilt_target(1, a=0.2, b=1.6)
    transport = KrTransport(src, target)
    fm = FlowMap(TransportField(transport), dim=1, steps=64)
    kl, _ = an.kl_estimate(target, fm, src, points_per_axis=33)
    assert abs(kl) < 2e-3


def test_kl_mc_mode_matches_grid():
    src = dn.uniform_density(1)
    target = tilt_target(1, a=0.5, b=1.0)
    fm = random_net_flow(dim=1, seed=7)
    kl_grid, _ = an.kl_estimate(target, fm, src)
    rng = np.random.default_rng(11)
    fresh = target.factors[0].quantile(rng.uniform(size=4000)).reshape(-1, 1)
    kl_mc, se = an.kl_estimate(target, fm, src, mode="mc", samples=fresh)
    assert se is not None
    assert abs(kl_mc - kl_grid) < 4 * se + 1e-3


def test_shared_tv_kl_pass_equals_standalone_estimates():
    src = dn.uniform_density(2)
    target = dn.product_density([dn.linear_tilt(0.0, 2.0), dn.cosine_bump(0.5)])
    fm = random_net_flow(dim=2, seed=5, steps=8)
    tv, kl = an.tv_kl_estimate(target, fm, src, points_per_axis=17)
    assert tv == an.tv_estimate(target, fm, src, points_per_axis=17)
    assert kl == an.kl_estimate(target, fm, src, points_per_axis=17)[0]


def test_tv_kl_estimates_reject_dim_three():
    src = dn.uniform_density(3)
    fm = zero_flow(3)
    for estimate in (an.tv_estimate, an.tv_kl_estimate, an.kl_estimate):
        with pytest.raises(UnsupportedDimensionError):
            estimate(src, fm, src)


def test_tv_bounds_and_pinsker():
    src = dn.uniform_density(1)
    target = tilt_target(1)
    fm = random_net_flow(dim=1, seed=9)
    tv = an.tv_estimate(target, fm, src)
    kl, _ = an.kl_estimate(target, fm, src)
    assert 0.0 <= tv <= 1.0
    assert an.pinsker_check(tv, kl)


def test_decomposition_inequality_measured():
    src = dn.uniform_density(1)
    target = tilt_target(1)
    fm = random_net_flow(dim=1, seed=13)
    q = an.make_qoi("coordinate", 1)
    grid = quad.smolyak(1, 3)
    estimate = an.integrate_via_flow(grid, fm, q)
    reference = an.reference_expectation(target, q)
    total = an.total_error(reference, estimate)
    quad_err = abs(an.pullback_integral_oracle(fm, q, src) - estimate)
    tv = an.tv_estimate(target, fm, src)
    assert an.decomposition_check(total, q.sup_norm, tv, quad_err)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def sample_report():
    return an.ErrorReport(
        total_error=0.01,
        quadrature_error=0.001,
        learning_error_tv_bound=0.02,
        kl_estimate=0.0008,
        reference_value=2.0 / 3.0,
        estimate=0.6567,
        dim=1,
        level=4,
        node_count=17,
        sample_size=2000,
        seed=7,
        metadata={"architecture": [2, 16, 16, 1]},
    )


def test_report_json_round_trip(tmp_path):
    rep = sample_report()
    path = tmp_path / "results.jsonl"
    an.append_reports(path, [rep, rep])
    back = an.read_reports(path)
    assert len(back) == 2
    assert back[0] == rep


def test_report_csv_deterministic(tmp_path):
    rep = sample_report()
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    an.write_convergence_csv(p1, [rep])
    an.write_convergence_csv(p2, [rep])
    assert p1.read_bytes() == p2.read_bytes()
    header, row = p1.read_text().splitlines()
    assert header == an.CSV_HEADER
    assert row.split(",")[0] == "2000"
