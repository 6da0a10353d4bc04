import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flowquad import densities as dn
from flowquad import quadrature as quad
from flowquad.errors import EvaluationError, InvalidArgumentError, InvalidWeightError

SQ2 = math.sqrt(2.0) / 2.0


# ---------------------------------------------------------------------------
# univariate nodes and weights
# ---------------------------------------------------------------------------


def test_cc_nodes_m3_reference():
    np.testing.assert_allclose(quad.cc_nodes(3), [-1.0, 0.0, 1.0], atol=0)


def test_cc_nodes_single_point_is_midpoint():
    np.testing.assert_allclose(quad.cc_nodes(1, (0.0, 1.0)), [0.5])


def test_cc_nodes_m5_chebyshev_extrema():
    # cos(k*pi/4) for k = 4..0
    np.testing.assert_allclose(
        quad.cc_nodes(5), [-1.0, -SQ2, 0.0, SQ2, 1.0], atol=1e-15
    )


def test_cc_nodes_symmetric_and_sorted():
    for m in (3, 5, 9, 17, 33):
        x = quad.cc_nodes(m)
        assert np.all(np.diff(x) > 0)
        np.testing.assert_array_equal(x, -x[::-1])


def test_cc_nodes_invalid_count():
    with pytest.raises(InvalidArgumentError):
        quad.cc_nodes(0)


def test_cc_weights_m3_uniform_closed_form():
    # 3x3 Vandermonde moment system on [-1,1]: w = (1/3, 4/3, 1/3)
    np.testing.assert_allclose(quad.cc_weights(3), [1 / 3, 4 / 3, 1 / 3], atol=1e-14)


def test_cc_weights_m1_probability_density():
    w = quad.cc_weights(1, (0.0, 1.0), weight=lambda x: 2.0 * x)
    np.testing.assert_allclose(w, [1.0], atol=1e-12)


def test_cc_weights_m5_uniform_moments():
    x = quad.cc_nodes(5)
    w = quad.cc_weights(5)
    assert abs(w.sum() - 2.0) < 1e-13
    assert abs(np.dot(w, x**2) - 2.0 / 3.0) < 1e-13
    assert abs(np.dot(w, x**4) - 2.0 / 5.0) < 1e-13


def test_cc_weights_negative_weight_rejected():
    with pytest.raises(InvalidWeightError):
        quad.cc_weights(5, (0.0, 1.0), weight=lambda x: np.cos(3 * np.pi * x))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weight_rejected(bad):
    def weight(x):
        return np.where(x < 0.5, 1.0, bad)

    with pytest.raises(InvalidWeightError):
        quad.cc_weights(5, (0.0, 1.0), weight=weight)
    with pytest.raises(InvalidWeightError):
        quad.smolyak(2, 2, weights=weight)


@pytest.mark.parametrize("m", [1, 3, 5, 9, 17, 33])
def test_uniform_exactness_all_degrees(m):
    # m-point rule integrates x^p, p < m, on [0,1] exactly
    x = quad.cc_nodes(m, (0.0, 1.0))
    w = quad.cc_weights(m, (0.0, 1.0))
    for p in range(m):
        exact = 1.0 / (p + 1)
        err = abs(np.dot(w, x**p) - exact)
        assert err <= 1e-11 * abs(exact), f"m={m} p={p} err={err}"


@pytest.mark.parametrize("m", [1, 3, 5, 9, 17])
def test_weighted_exactness_linear_tilt(m):
    # density 2x on [0,1]: integral of x^p * 2x dx = 2/(p+2)
    x = quad.cc_nodes(m, (0.0, 1.0))
    w = quad.cc_weights(m, (0.0, 1.0), weight=lambda t: 2.0 * t)
    for p in range(m):
        exact = 2.0 / (p + 2)
        assert abs(np.dot(w, x**p) - exact) <= 1e-11 * abs(exact)


def test_weighted_exactness_cosine_density():
    dens = lambda t: 1.0 + 0.5 * np.cos(np.pi * t)

    def exact_moment(p):
        # int_0^1 x^p (1 + 0.5 cos(pi x)) dx by 10_000-panel Simpson (oracle)
        xs = np.linspace(0.0, 1.0, 20001)
        ys = xs**p * dens(xs)
        from scipy.integrate import simpson

        return simpson(ys, x=xs)

    m = 9
    x = quad.cc_nodes(m, (0.0, 1.0))
    w = quad.cc_weights(m, (0.0, 1.0), weight=dens)
    for p in range(m):
        exact = exact_moment(p)
        assert abs(np.dot(w, x**p) - exact) <= 1e-10 * max(1.0, abs(exact))


def test_growth_sequence():
    assert [quad.growth(i) for i in range(1, 7)] == [1, 3, 5, 9, 17, 33]
    with pytest.raises(InvalidArgumentError):
        quad.growth(0)


# ---------------------------------------------------------------------------
# tensorized rules
# ---------------------------------------------------------------------------


def _rules_for(entries, domain=(0.0, 1.0), weight=None):
    return [quad.cc_rule(quad.growth(k), domain, weight) for k in entries]


def test_tensor_rule_midpoint():
    nodes, w = quad.tensor_rule((1, 1), _rules_for((1, 1)))
    np.testing.assert_allclose(nodes, [[0.5, 0.5]])
    np.testing.assert_allclose(w, [1.0], atol=1e-14)


def test_tensor_rule_2x1():
    nodes, w = quad.tensor_rule((2, 1), _rules_for((2, 1)))
    np.testing.assert_allclose(nodes, [[0.0, 0.5], [0.5, 0.5], [1.0, 0.5]])
    assert abs(w.sum() - 1.0) < 1e-12


def test_tensor_rule_2x2_mass():
    nodes, w = quad.tensor_rule((2, 2), _rules_for((2, 2)))
    assert nodes.shape == (9, 2)
    assert abs(w.sum() - 1.0) < 1e-12


def test_tensor_product_equals_meshgrid_and_outer_products():
    rng = np.random.default_rng(3)
    node_axes = [rng.uniform(size=n) for n in (3, 1, 4)]
    weight_axes = [rng.uniform(size=n) for n in (3, 1, 4)]
    rows, w = quad.tensor_product(node_axes, weight_axes)
    mesh = np.meshgrid(*node_axes, indexing="ij")
    np.testing.assert_array_equal(rows, np.stack([g.ravel() for g in mesh], axis=-1))
    outer = np.multiply.outer(np.multiply.outer(*weight_axes[:2]), weight_axes[2])
    np.testing.assert_array_equal(w, outer.ravel())


def test_tensor_rules_past_64_axes():
    # an n-D numpy array has at most 64 axes; rows are filled as one 2-D array
    nodes, w = quad.tensor_gauss(70, 1)
    np.testing.assert_array_equal(nodes, np.full((1, 70), 0.5))
    np.testing.assert_array_equal(w, [1.0])
    entries = (1,) * 30 + (2,) + (1,) * 39
    nodes, w = quad.tensor_rule(entries, _rules_for(entries))
    expected = np.full((3, 70), 0.5)
    expected[:, 30] = [0.0, 0.5, 1.0]
    np.testing.assert_array_equal(nodes, expected)
    assert abs(w.sum() - 1.0) < 1e-12
    two = [np.array([0.5])] * 69 + [np.array([0.25, 0.75])]
    rows, w = quad.tensor_product(two, [np.array([2.0])] + [np.ones(len(a)) for a in two])
    assert rows.shape == (2, 70)
    np.testing.assert_array_equal(rows[:, 69], [0.25, 0.75])
    np.testing.assert_array_equal(w, [2.0, 2.0])


def test_tensor_rule_dimension_mismatch():
    with pytest.raises(InvalidArgumentError):
        quad.tensor_rule((2, 2), _rules_for((2,)))
    with pytest.raises(InvalidArgumentError):
        quad.tensor_rule((2, 2), _rules_for((2, 3)))


# ---------------------------------------------------------------------------
# Smolyak grids
# ---------------------------------------------------------------------------


def brute_force_smolyak_value(dim, level, f, weight=None):
    """Independent oracle: expand the alternating sum of tensor rules directly."""
    q = level + dim
    total = 0.0
    for entries in itertools.product(range(1, q + 1), repeat=dim):
        k = sum(entries)
        if not (q - dim + 1 <= k <= q):
            continue
        coeff = (-1) ** (q - k) * math.comb(dim - 1, q - k)
        nodes, w = quad.tensor_rule(entries, _rules_for(entries, weight=weight))
        vals = np.array([f(x) for x in nodes])
        total += coeff * float(np.dot(w, vals))
    return total


def brute_force_node_union(dim, level):
    """Set-union cardinality of all admissible tensor grids (rounded keys)."""
    q = level + dim
    pts = set()
    for entries in itertools.product(range(1, q + 1), repeat=dim):
        k = sum(entries)
        if not (q - dim + 1 <= k <= q):
            continue
        nodes, _ = quad.tensor_rule(entries, _rules_for(entries))
        for row in nodes:
            pts.add(tuple(np.round(row, 12)))
    return len(pts)


def test_smolyak_d1_collapses_to_univariate():
    for level in range(4):
        grid = quad.smolyak(1, level)
        m = quad.growth(level + 1)
        np.testing.assert_array_equal(grid.nodes.ravel(), quad.cc_nodes(m, (0.0, 1.0)))
        np.testing.assert_allclose(grid.weights, quad.cc_weights(m, (0.0, 1.0)), atol=1e-14)


def test_smolyak_level0_single_node():
    grid = quad.smolyak(2, 0)
    np.testing.assert_allclose(grid.nodes, [[0.5, 0.5]])
    np.testing.assert_allclose(grid.weights, [1.0], atol=1e-14)


def test_smolyak_node_count_matches_union_oracle():
    for dim, level in [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)]:
        grid = quad.smolyak(dim, level)
        assert grid.node_count == brute_force_node_union(dim, level)


def test_smolyak_matches_brute_force_on_random_polynomials():
    rng = np.random.default_rng(7)
    for dim, level in [(2, 1), (2, 3), (3, 2)]:
        grid = quad.smolyak(dim, level)
        for _ in range(5):
            coef = rng.uniform(-1, 1, size=(3,) * dim)

            def f(x, coef=coef):
                val = 0.0
                for powers in itertools.product(range(3), repeat=len(x)):
                    val += coef[powers] * np.prod([xi**p for xi, p in zip(x, powers)])
                return val

            ours = quad.apply(grid, f)
            oracle = brute_force_smolyak_value(dim, level, f)
            assert abs(ours - oracle) < 1e-12


def test_smolyak_combination_band_and_coefficients():
    dim, level = 3, 2
    q = dim + level
    grid = quad.smolyak(dim, level)
    for mi, coeff in grid.combination_terms:
        assert q - dim + 1 <= mi.total <= q
        assert coeff == (-1) ** (q - mi.total) * math.comb(dim - 1, q - mi.total)


def test_smolyak_combination_terms_reproduce_unit_mass():
    grid = quad.smolyak(2, 3)
    total = 0.0
    for mi, coeff in grid.combination_terms:
        _, w = quad.tensor_rule(mi, _rules_for(mi.entries))
        total += coeff * w.sum()
    assert abs(total - 1.0) < 1e-12
    assert abs(grid.weights.sum() - 1.0) < 1e-10


def test_smolyak_nesting():
    for dim in (1, 2):
        coarse = quad.smolyak(dim, 1)
        fine = quad.smolyak(dim, 2)
        fine_set = {tuple(row) for row in fine.nodes}
        for row in coarse.nodes:
            assert tuple(row) in fine_set  # exact float match via canonical lattice


def test_smolyak_weighted_probability_mass():
    dens = lambda t: 2.0 * t
    grid = quad.smolyak(2, 2, weights=dens)
    assert abs(grid.weights.sum() - 1.0) < 1e-10


def test_smolyak_distinct_axis_weights():
    w1 = lambda t: 0.5 + t  # normalized linear tilt
    w2 = lambda t: 2.0 * t
    grid = quad.smolyak(2, 3, weights=[w1, w2])
    assert abs(grid.weights.sum() - 1.0) < 1e-10
    # E[x1 * x2^2] factorizes: int x(0.5+x) dx * int x^2 2x dx = (7/12)(1/2)
    got = quad.apply(grid, lambda x: x[0] * x[1] ** 2)
    assert abs(got - (7.0 / 12.0) * 0.5) < 1e-10


def _reduced_angle_ids(m):
    """(num, den) with node cos(pi * num / den), reduced, ascending nodes."""
    if m == 1:
        return [(1, 2)]
    ids = []
    for j in range(m):
        num, den = m - 1 - j, m - 1
        while num % 2 == 0 and den > 1:
            num //= 2
            den //= 2
        ids.append((num, den))
    return ids


def dict_smolyak(dim, level, weights=None, domain=(0.0, 1.0)):
    """Reference assembly: every tensor point of every combination term,
    keyed by its reduced angle fractions and summed in a dict in term
    order."""
    a, b = domain
    per_dim_weight = [weights] * dim if weights is None or callable(weights) else weights
    q = level + dim
    ids = [_reduced_angle_ids(quad.growth(k)) for k in range(1, level + 2)]
    rule_w = [
        [quad.cc_weights(quad.growth(k), domain, w) for k in range(1, level + 2)]
        for w in per_dim_weight
    ]
    accum, terms = {}, []
    for total in range(max(dim, q - dim + 1), q + 1):
        coeff = (-1) ** (q - total) * math.comb(dim - 1, q - total)
        for entries in quad._compositions(total, dim):
            terms.append((quad.MultiIndex(entries), coeff))
            for combo in itertools.product(*(range(quad.growth(k)) for k in entries)):
                key = tuple(ids[k - 1][j] for k, j in zip(entries, combo))
                w = coeff
                for i, (k, j) in enumerate(zip(entries, combo)):
                    w *= rule_w[i][k - 1][j]
                accum[key] = accum.get(key, 0.0) + w
    nodes = np.array(
        [[quad._affine_to((a, b), quad._cos_pi_frac(n, d)) for n, d in key] for key in accum]
    ).reshape(len(accum), dim)
    order = np.lexsort(nodes.T[::-1])
    return nodes[order], np.array(list(accum.values()))[order], tuple(terms)


def _tilt(slope):
    return dn.linear_tilt(1.0 - 0.5 * slope, 1.0 + 0.5 * slope).pdf


@pytest.mark.parametrize(
    "dim,level,weights,domain",
    [
        pytest.param(1, 0, None, (0.0, 1.0), id="d1-l0"),
        pytest.param(1, 5, None, (0.0, 1.0), id="d1-l5"),
        pytest.param(2, 6, None, (0.0, 1.0), id="d2-l6"),
        pytest.param(3, 8, None, (0.0, 1.0), id="d3-l8"),
        pytest.param(6, 5, _tilt(0.6), (0.0, 1.0), id="d6-l5-shared-weight"),
        pytest.param(6, 5, [_tilt(0.1 * i) for i in range(6)], (0.0, 1.0), id="d6-l5-six-weights"),
        pytest.param(10, 4, None, (0.0, 1.0), id="d10-l4"),
        pytest.param(
            3, 4, [lambda x: 1.0 + 0.1 * x, None, np.exp], (-1.0, 2.5), id="d3-l4-mixed-domain"
        ),
        # (2**3 + 1)**20 >= 2**63: too many lattice points for one int64 code per node
        pytest.param(20, 3, None, (0.0, 1.0), id="d20-l3"),
        # radix 3: 3**39 <= 2**63 keeps one key word, 3**40 > 2**63 spills into a second
        pytest.param(39, 1, None, (0.0, 1.0), id="d39-l1"),
        pytest.param(40, 1, None, (0.0, 1.0), id="d40-l1"),
        pytest.param(2, 11, None, (0.0, 1.0), id="d2-l11"),
    ],
)
def test_smolyak_bitwise_equals_dict_assembly(dim, level, weights, domain):
    nodes, wts, terms = dict_smolyak(dim, level, weights, domain)
    grid = quad.smolyak(dim, level, weights=weights, domain=domain)
    np.testing.assert_array_equal(grid.nodes, nodes)
    np.testing.assert_array_equal(grid.weights, wts)
    assert grid.combination_terms == terms


def test_weight_is_evaluated_on_every_call_into_fresh_weights():
    calls = []

    def density(x):
        calls.append(len(x))
        return np.exp(x)

    for m in (1, 5):  # the 1-point weight is the moment itself
        first = quad.cc_weights(m, (0.0, 1.0), density)
        expected, evaluations = first.copy(), len(calls)
        first[0] = -1.0
        np.testing.assert_array_equal(quad.cc_weights(m, (0.0, 1.0), density), expected)
        assert len(calls) == 2 * evaluations
        calls.clear()
    weights = [density] + [lambda x: 1.0 + (x - 0.5)] * 5
    np.testing.assert_array_equal(quad.smolyak(6, 3, weights=weights).weights,
                                  quad.smolyak(6, 3, weights=weights).weights)


def test_smolyak_solves_each_axis_moments_once():
    calls = []

    def density(x):
        calls.append(len(x))
        return np.exp(x)

    dim, level = 3, 4
    quad.cc_weights(quad.growth(level + 1), (0.0, 1.0), density)
    single = len(calls)
    calls.clear()
    quad.smolyak(dim, level, weights=density)
    # one solve per axis at the top level's point count, not one per level
    assert len(calls) == dim * single


@pytest.mark.parametrize("dim, level", [(1, 0), (1, 6), (2, 5), (3, 4), (6, 3), (20, 3),
                                        (39, 1), (2, 11), (1500, 0)])
def test_tensor_rows_counts_the_rows_of_every_term(dim, level):
    terms = quad.smolyak(dim, level).combination_terms
    rows = sum(math.prod(quad.growth(k) for k in mi.entries) for mi, _ in terms)
    assert quad.tensor_rows(dim, level) == rows


def test_a_grid_above_the_row_cap_raises_before_it_is_built(monkeypatch):
    # d = 1 has one term of 2**level + 1 rows; d = 6, level 9 has 4,143,229
    assert quad.tensor_rows(1, 21) == 2**21 + 1
    assert quad.tensor_rows(6, 9) == 4_143_229 <= quad.MAX_TENSOR_ROWS
    monkeypatch.setattr(quad, "_compositions", None)  # no term list is made
    for dim, level in [(1, 22), (1, 70), (1, 10**12), (7, 9), (1000, 3)]:
        with pytest.raises(InvalidArgumentError, match=f"level-{level} grid at dim {dim}"):
            quad.smolyak(dim, level)


def _integrals_of_chebyshev(n):
    """Integrals of T_0..T_{n-1} over [-1, 1]."""
    return np.array([2.0 / (1.0 - k * k) if k % 2 == 0 else 0.0 for k in range(n)])


def _tilt_moments(a, b, m):
    # a + b x on [0, 1] is (a + b/2 + (b/2) xi) / 2 on [-1, 1], and xi T_k = (T_{k+1} + T_|k-1|) / 2
    i, k = _integrals_of_chebyshev(m + 1), np.arange(m)
    return 0.5 * ((a + 0.5 * b) * i[:m] + 0.25 * b * (i[k + 1] + i[abs(k - 1)]))


def _quad_moments(pdf, m):
    from scipy.integrate import quad as scipy_quad

    # x = (1 + cos t) / 2 makes each integrand smooth and periodic on [0, pi]
    return [scipy_quad(lambda t: pdf(0.5 + 0.5 * math.cos(t)) * math.cos(k * t) * 0.5 * math.sin(t),
                       0.0, math.pi, limit=1000, epsabs=1e-13, epsrel=0)[0]
            for k in range(m)]


@pytest.mark.parametrize(
    "pdf, m, reference, tol",
    [pytest.param(dn.uniform1d().pdf, m, lambda m: _tilt_moments(1.0, 0.0, m), 2e-15,
                  id=f"uniform-m{m}") for m in (33, 65, 257)]
    + [pytest.param(lambda x: 0.4 + 1.2 * x, m, lambda m: _tilt_moments(0.4, 1.2, m), 2e-15,
                    id=f"tilt-m{m}") for m in (33, 65, 257)]
    + [pytest.param(dn.cosine_bump(0.5, freq=f).pdf, 33, None, 1e-11, id=f"bump-freq{f}")
       for f in (1, 40, 160, 320)],
)
def test_weighted_moments_match_closed_forms_and_quad(pdf, m, reference, tol):
    got = quad._chebyshev_moments(pdf, m, (0.0, 1.0))
    want = reference(m) if reference else _quad_moments(pdf, m)
    np.testing.assert_allclose(got, want, rtol=0, atol=tol)


def test_weight_with_a_jump_is_rejected():
    def weight(x):
        return np.where(x < 0.3, 1.0, 2.0)

    with pytest.raises(InvalidWeightError, match="not resolved"):
        quad.cc_weights(5, (0.0, 1.0), weight=weight)
    with pytest.raises(InvalidWeightError):
        quad.smolyak(2, 2, weights=weight)


def test_node_count_asymptotic_values():
    assert quad.node_count_asymptotic(10, 0) == 1.0
    assert quad.node_count_asymptotic(4, 2) == 32.0
    assert abs(quad.node_count_asymptotic(2, 3) - 32.0 / 3.0) < 1e-12


def test_asymptotic_vs_exact_counts():
    # order-of-magnitude agreement at desk scale
    for dim in (4, 6, 8):
        for level in (1, 2, 3):
            exact = quad.smolyak(dim, level).node_count
            approx = quad.node_count_asymptotic(dim, level)
            ratio = exact / approx
            assert 1 / 3 <= ratio <= 3, (dim, level, exact, approx)


# ---------------------------------------------------------------------------
# apply
# ---------------------------------------------------------------------------


def test_apply_constant_is_total_mass():
    grid = quad.smolyak(3, 2)
    assert abs(quad.apply(grid, lambda x: 1.0) - 1.0) < 1e-10


def test_apply_product_integrand():
    grid = quad.smolyak(2, 2)
    val = quad.apply(grid, lambda x: x[0] * x[1])
    assert abs(val - 0.25) < 1e-12


def test_apply_cosine_product():
    grid = quad.smolyak(2, 4)
    val = quad.apply(grid, lambda x: math.cos(x[0]) * math.cos(x[1]))
    assert abs(val - math.sin(1.0) ** 2) < 1e-8


def test_apply_vectorized_matches_scalar():
    grid = quad.smolyak(2, 3)
    f_scalar = lambda x: math.exp(x[0]) * (1 + x[1])
    f_vec = lambda xs: np.exp(xs[:, 0]) * (1 + xs[:, 1])
    assert abs(quad.apply(grid, f_scalar) - quad.apply(grid, f_vec, vectorized=True)) < 1e-13


def test_apply_does_not_depend_on_node_order():
    # terms from 1 to e^120 with mixed-sign weights: compensated summation
    # gave different last bits for different orders
    grid = quad.smolyak(3, 5)
    rng = np.random.default_rng(0)
    sums = set()
    for _ in range(20):
        order = rng.permutation(grid.node_count)
        shuffled = quad.SparseGrid(dim=3, level=5, nodes=grid.nodes[order],
                                   weights=grid.weights[order], combination_terms=())
        sums.add(quad.apply(shuffled, lambda x: np.exp(40.0 * x).prod(axis=1), vectorized=True))
    assert len(sums) == 1, sums


def test_apply_nonfinite_reports_node():
    grid = quad.smolyak(2, 1)
    bad = 3

    def f(x, count=[0]):
        count[0] += 1
        return math.nan if count[0] - 1 == bad else 1.0

    with pytest.raises(EvaluationError) as err:
        quad.apply(grid, f)
    assert err.value.node_index == bad


def test_convergence_trend_smooth_integrand():
    # error non-increasing in level up to a 10% tolerance band
    f = lambda x: math.exp(x[0] * x[1])
    xs = np.linspace(0, 1, 513)
    from scipy.integrate import simpson

    inner = np.array([simpson(np.exp(x1 * xs), x=xs) for x1 in xs])
    truth = simpson(inner, x=xs)
    errs = []
    for level in range(1, 7):
        grid = quad.smolyak(2, level)
        errs.append(abs(quad.apply(grid, f) - truth))
    for lo, hi in zip(errs[1:], errs[:-1]):
        assert lo <= 1.1 * hi + 1e-15, errs


@settings(max_examples=30, deadline=None)
@given(
    p=st.integers(min_value=0, max_value=8),
    mi=st.sampled_from([9, 17, 33]),
)
def test_exactness_property_random_monomials(p, mi):
    x = quad.cc_nodes(mi, (0.0, 1.0))
    w = quad.cc_weights(mi, (0.0, 1.0))
    exact = 1.0 / (p + 1)
    assert abs(np.dot(w, x**p) - exact) <= 1e-11 * exact


# ---------------------------------------------------------------------------
# file round trip
# ---------------------------------------------------------------------------


def test_grid_file_roundtrip(tmp_path):
    grid = quad.smolyak(2, 3)
    path = tmp_path / "grid.txt"
    quad.write_grid(grid, path)
    back = quad.read_grid(path)
    assert back.dim == grid.dim and back.level == grid.level
    np.testing.assert_array_equal(back.nodes, grid.nodes)
    np.testing.assert_array_equal(back.weights, grid.weights)


@pytest.mark.parametrize(
    "text",
    [
        pytest.param("1 0\n", id="short-header"),
        pytest.param("1 0 x\n", id="count-not-a-number"),
        pytest.param("0 0 1\n0.5\n", id="dim-zero"),
        pytest.param("1 0 2\n0.5 1.0\n", id="too-few-rows"),
        pytest.param("2 0 1\n0.5 1.0\n", id="row-too-short"),
        pytest.param("1 0 1\n0.5 1.0 0.0\n", id="row-too-long"),
        pytest.param("1 0 1\n0.5 abc\n", id="value-not-a-number"),
        pytest.param("1 0 1\n0.5 nan\n", id="value-nan"),
        pytest.param(b"1 0 1\n\xff\n", id="not-utf8"),
    ],
)
def test_malformed_grid_file_names_the_file(tmp_path, text):
    path = tmp_path / "grid.txt"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with pytest.raises(InvalidArgumentError, match="grid.txt"):
        quad.read_grid(path)
