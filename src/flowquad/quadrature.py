"""Clenshaw-Curtis rules, tensorization, and Smolyak sparse grids.

Univariate rules use the Chebyshev-extrema nodes on [-1, 1], mapped
affinely to the requested interval.  Weights are solved from Chebyshev
moment matching (closed-form moments for the uniform weight, the
Chebyshev interpolant of a user density otherwise), so every m-point
rule integrates polynomials of degree < m exactly against its weight.
Both transforms are one FFT-based DCT-I, and no reduction calls BLAS, so
a rule's bits do not depend on the BLAS thread count.

Sparse grids combine tensor rules over the admissible multi-index band
with alternating binomial coefficients.  Every nested node of a grid
lies on one dyadic lattice cos(pi j / N), so each tensor point is a
packed integer key of its lattice indices and coincident nodes are
merged by exact integer comparison, never by comparing floats.
smolyak finds every term's points by index arithmetic; tensor rules and
the tensor Gauss-Legendre rule of the dense oracles are built by
tensor_product.
"""

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import EvaluationError, InvalidArgumentError, InvalidWeightError

REFERENCE_POINTS = 129  # Gauss-Legendre points per axis of every dense reference
_CHEB_MAX_DEGREE = 4096  # largest interpolant degree of a weight
_CHEB_TOL = 1e-14  # tail coefficients of a resolved weight, relative to the largest
MAX_TENSOR_ROWS = 2**22  # most tensor rows of a Smolyak grid; d = 6, level 8 has 1,317,499


def _cos_pi_frac(num, den):
    """cos(pi * num / den) with exact symmetry.

    Evaluating the reflected angle for num/den > 1/2 keeps node sets exactly
    symmetric and puts the midpoint at exactly 0.
    """
    if 2 * num == den:
        return 0.0
    if 2 * num < den:  # cos(0) is exactly 1, so the ends are exactly +-1
        return math.cos(math.pi * num / den)
    return -math.cos(math.pi * (den - num) / den)


def _affine_to(domain, xi):
    a, b = domain
    return 0.5 * (a + b) + 0.5 * (b - a) * xi


def _check_domain(domain):
    a, b = float(domain[0]), float(domain[1])
    if not a < b:
        raise InvalidArgumentError(f"domain must satisfy a < b, got ({a}, {b})")
    return a, b


def growth(level):
    """Closed nonlinear growth: 1 point at level 1, then 2**(i-1) + 1."""
    if level < 1:
        raise InvalidArgumentError(f"growth level must be >= 1, got {level}")
    return 1 if level == 1 else 2 ** (level - 1) + 1


def cc_nodes(m, domain=(-1.0, 1.0)):
    """Ascending Chebyshev-extrema nodes of the m-point rule on `domain`.

    The single-point rule sits at the interval midpoint.
    """
    a, b = _check_domain(domain)
    if m < 1:
        raise InvalidArgumentError(f"point count must be >= 1, got {m}")
    if m == 1:
        return np.array([0.5 * (a + b)])
    n = m - 1
    xi = np.array([_cos_pi_frac(n - j, n) for j in range(m)])
    return _affine_to((a, b), xi)


def _uniform_chebyshev_moments(m):
    # integral of T_k over [-1, 1]: 0 for odd k, 2/(1-k^2) for even k
    mom = np.zeros(m)
    k = np.arange(0, m, 2)
    mom[::2] = 2.0 / (1.0 - k * k)
    return mom


def _dct1(v):
    """(2/n) sum''_j v_j cos(pi j k / n), k = 0..n, halved at k = 0 and n.

    One DCT-I through a real FFT of the even extension.  It maps values at
    the n + 1 Chebyshev extrema cos(pi j / n) to Chebyshev coefficients,
    and Chebyshev moments to the weights of those nodes.
    """
    n = len(v) - 1
    out = np.fft.rfft(np.concatenate([v, v[-2:0:-1]])).real / n
    out[[0, n]] *= 0.5
    return out


def _chebyshev_moments(weight, m, domain):
    """Moments of T_k, k < m, against `weight` (None: Lebesgue measure).

    Moment k does not depend on m.  A callable weight is interpolated at
    N + 1 Chebyshev extrema, the interval ends included, with N doubled
    from 16 until the last 8 coefficients are at most _CHEB_TOL of the
    largest; a weight unresolved at _CHEB_MAX_DEGREE raises
    InvalidWeightError.  T_j T_k = (T_{j+k} + T_|j-k|) / 2 turns the
    coefficients into moments with the closed-form integrals of T_n.
    """
    a, b = domain
    if weight is None:
        return _uniform_chebyshev_moments(m) * (0.5 * (b - a))
    n = 16
    while True:
        x = cc_nodes(n + 1, (a, b))[::-1]  # cos(pi j / n), j = 0..n, mapped
        dens = np.broadcast_to(np.asarray(weight(x), dtype=float), x.shape)
        if not (np.all(np.isfinite(dens)) and np.all(dens >= 0)):
            raise InvalidWeightError(
                "weight function is not finite and >= 0 at the Chebyshev points")
        # Jacobian of the affine map folds the physical density into [-1, 1].
        coef = _dct1(dens * (0.5 * (b - a)))
        if np.all(np.abs(coef[-8:]) <= _CHEB_TOL * np.abs(coef).max()):
            break
        if n >= _CHEB_MAX_DEGREE:
            raise InvalidWeightError(
                f"weight function is not resolved by a degree-{n} Chebyshev interpolant")
        n *= 2
    integrals = _uniform_chebyshev_moments(n + m)
    j, k = np.arange(n + 1)[:, None], np.arange(m)[None, :]
    return 0.5 * np.einsum("j,jk->k", coef, integrals[j + k] + integrals[abs(j - k)])


def _weights_from_moments(mom):
    """Ascending-node weights of the len(mom)-point rule matching `mom`."""
    if len(mom) == 1:  # the midpoint carries the whole mass
        return mom
    return _dct1(mom)[::-1].copy()  # weights of cos(pi j / n); nodes are reported ascending


def cc_weights(m, domain=(-1.0, 1.0), weight=None):
    """Weights of the m-point Clenshaw-Curtis rule on `domain`.

    weight=None integrates against Lebesgue measure (total mass b - a);
    a callable is treated as a nonnegative density on the interval.
    Matches the first m Chebyshev moments of the weight, hence exact for
    all polynomials of degree < m.
    """
    a, b = _check_domain(domain)
    if m < 1:
        raise InvalidArgumentError(f"point count must be >= 1, got {m}")
    return _weights_from_moments(_chebyshev_moments(weight, m, (a, b)))


@dataclass(frozen=True)
class Rule1D:
    """A univariate quadrature rule: ascending nodes, matching weights."""

    nodes: np.ndarray
    weights: np.ndarray
    domain: tuple
    point_count: int

    def __post_init__(self):
        if len(self.nodes) != len(self.weights) or len(self.nodes) != self.point_count:
            raise InvalidArgumentError("nodes/weights/point_count are inconsistent")
        a, b = self.domain
        if np.any(np.diff(self.nodes) <= 0):
            raise InvalidArgumentError("nodes must be strictly increasing")
        if self.nodes[0] < a - 1e-14 or self.nodes[-1] > b + 1e-14:
            raise InvalidArgumentError("nodes leave the domain")
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)


def cc_rule(m, domain=(0.0, 1.0), weight=None):
    """Construct the m-point Clenshaw-Curtis Rule1D on `domain`."""
    return Rule1D(nodes=cc_nodes(m, domain), weights=cc_weights(m, domain, weight),
                  domain=tuple(domain), point_count=m)


def tensor_product(node_axes, weight_axes):
    """Cartesian product of per-axis node arrays, last axis fastest, and the
    products of per-axis weight arrays folded in axis order: (rows (M, d),
    weights (M,)).

    Rows are filled into one 2-D array, so any number of axes works (an
    n-D numpy array has at most 64 axes).  A leading 1-element weight axis
    scales every product first.
    """
    sizes = [len(axis) for axis in node_axes]
    dim = len(sizes)
    rows = np.empty((math.prod(sizes), dim), dtype=np.result_type(*node_axes))
    for i, axis in enumerate(node_axes):
        rows.reshape(math.prod(sizes[:i]), sizes[i], -1, dim)[..., i] = axis[:, None]
    weights = functools.reduce(lambda p, w: np.outer(p, w).ravel(), weight_axes)
    return rows, weights


def tensor_gauss(dim, points_per_axis):
    """Tensor Gauss-Legendre rule on [0, 1]^dim: (points, weights)."""
    gx, gw = np.polynomial.legendre.leggauss(points_per_axis)
    return tensor_product([0.5 * (gx + 1.0)] * dim, [0.5 * gw] * dim)


@dataclass(frozen=True)
class MultiIndex:
    """A d-tuple of positive rule levels."""

    entries: tuple

    def __post_init__(self):
        if not self.entries or any(k < 1 for k in self.entries):
            raise InvalidArgumentError(f"multi-index entries must be >= 1, got {self.entries}")

    @property
    def total(self):
        return sum(self.entries)


def tensor_rule(index, per_dim_rules):
    """Cartesian product of univariate rules with product weights.

    per_dim_rules[i] must carry growth(index_i) points.
    Returns (nodes (M, d), weights (M,)).
    """
    entries = (index if isinstance(index, MultiIndex) else MultiIndex(tuple(index))).entries
    if len(per_dim_rules) != len(entries):
        raise InvalidArgumentError(
            f"index has {len(entries)} entries but {len(per_dim_rules)} rules were given")
    for i, (k, rule) in enumerate(zip(entries, per_dim_rules)):
        if rule.point_count != growth(k):
            raise InvalidArgumentError(
                f"rule {i} has {rule.point_count} points, expected growth({k}) = {growth(k)}")
    return tensor_product([r.nodes for r in per_dim_rules], [r.weights for r in per_dim_rules])


@dataclass(frozen=True)
class SparseGrid:
    """Flat deduplicated node/weight list of a Smolyak rule.

    Weights are signed; combination_terms records the multi-index band and
    alternating coefficients the grid was assembled from.
    """

    dim: int
    level: int
    nodes: np.ndarray
    weights: np.ndarray
    combination_terms: tuple

    def __post_init__(self):
        self.nodes.setflags(write=False)
        self.weights.setflags(write=False)

    @property
    def node_count(self):
        return len(self.weights)


def _compositions(total, parts):
    """Tuples of `parts` positive integers summing to `total`, in lexicographic order."""
    for cuts in itertools.combinations(range(1, total), parts - 1):
        ends = (0,) + cuts + (total,)
        yield tuple(b - a for a, b in zip(ends, ends[1:]))


def tensor_rows(dim, level):
    """Tensor rows of smolyak(dim, level) before coincident nodes merge;
    InvalidArgumentError above MAX_TENSOR_ROWS.

    Counted with Python ints, without listing the terms.  A term's
    multi-index is 1 + j with max(0, level - dim + 1) <= |j| <= level and
    has prod growth(1 + j_i) rows; the j with m positive entries and
    |j| = n have comb(dim, m) times the y**n coefficient of g(y)**m rows,
    g(y) = sum over i >= 1 of growth(1 + i) y**i.
    """
    rows = MAX_TENSOR_ROWS + 1  # the term (level + 1, 1, ..., 1) alone has 2**level + 1
    if level < MAX_TENSOR_ROWS.bit_length():
        g = [0] + [growth(1 + i) for i in range(1, level + 1)]
        power, rows = [1] + [0] * level, 0  # g(y)**m by degree, from m = 0
        for m in range(min(dim, level) + 1):
            rows += math.comb(dim, m) * sum(power[max(0, level - dim + 1) :])
            power = [sum(power[i] * g[n - i] for i in range(n + 1)) for n in range(level + 1)]
    if rows > MAX_TENSOR_ROWS:
        raise InvalidArgumentError(f"a level-{level} grid at dim {dim} has more than "
                                   f"{MAX_TENSOR_ROWS} tensor rows")
    return rows


def smolyak(dim, level, weights=None, domain=(0.0, 1.0)):
    """Assemble the sparse grid of the given dimension and sparsity level.

    `weights` is None (uniform), a single density callable used on every
    axis, or a sequence of d per-axis density callables.  Each axis solves
    its moments once; every level's weights come from a prefix of them.

    A grid of more than MAX_TENSOR_ROWS tensor rows (see tensor_rows)
    raises InvalidArgumentError before anything is built.
    Every node lies on the lattice cos(pi j / N)^d, N = max(2, 2**level).
    Tensor rows are found by index arithmetic and keyed by integers, so
    coincident nodes merge by exact comparison, their weights summed in
    combination order; nodes come out in lexicographic order.
    """
    a, b = _check_domain(domain)
    if dim < 1:
        raise InvalidArgumentError(f"dim must be >= 1, got {dim}")
    if level < 0:
        raise InvalidArgumentError(f"level must be >= 0, got {level}")
    if weights is None or callable(weights):
        per_dim_weight = [weights] * dim
    else:
        per_dim_weight = list(weights)
        if len(per_dim_weight) != dim:
            raise InvalidArgumentError(f"got {len(per_dim_weight)} axis weights for dim {dim}")
    tensor_rows(dim, level)

    q = level + dim
    terms = [(MultiIndex(entries), (-1) ** (q - total) * math.comb(dim - 1, q - total))
             for total in range(max(dim, q - dim + 1), q + 1)
             for entries in _compositions(total, dim)]

    # The rules of levels 1..level+1 lie end to end, each ascending; node
    # cos(pi j / N) is stored as its digit N - j, which grows with the node.
    fine = max(2, 2**level)
    points = [growth(k) for k in range(1, level + 2)]  # per level
    digits = np.concatenate([[fine // 2]] + [np.arange(m) * (fine // (m - 1)) for m in points[1:]])
    rule_w = [np.concatenate([_weights_from_moments(mom[:m]) for m in points])
              for mom in (_chebyshev_moments(w, points[-1], (a, b)) for w in per_dim_weight)]

    # each tensor row's index within its term; rows run last axis fastest
    entries = np.array([mi.entries for mi, _ in terms])
    starts = np.cumsum([0] + points[:-1])[entries - 1]
    sizes = np.array(points)[entries - 1]
    tails = np.cumprod(sizes[:, ::-1], axis=1)[:, ::-1]  # prod(sizes[:, i:])
    strides, counts = tails // sizes, tails[:, 0]
    local = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)

    # Ascending keys are ascending nodes; a word holds as many digits as fit.
    radix = fine + 1
    per_word = next(k for k in itertools.count(1) if radix ** (k + 1) > 2**63)
    keys = np.zeros((-(-dim // per_word), len(local)), dtype=np.int64)
    # the coefficient leads, so every product rounds from it in axis order
    weight = np.repeat([float(c) for _, c in terms], counts)
    for i in range(dim):
        at, local = np.divmod(local, np.repeat(strides[:, i], counts))
        at += np.repeat(starts[:, i], counts)
        weight *= rule_w[i][at]
        keys[i // per_word] *= radix
        keys[i // per_word] += digits[at]

    # lexsort is stable, so bincount adds each node's weights in combination order
    order = np.lexsort(keys[::-1])
    keys = keys[:, order]
    new = np.concatenate([[True], (np.diff(keys) != 0).any(axis=0)])
    wvec = np.bincount(np.cumsum(new) - 1, weights=weight[order])
    table = np.array([_affine_to((a, b), _cos_pi_frac(fine - k, fine)) for k in range(fine + 1)])
    keys, nodes = keys[:, new], np.empty((len(wvec), dim))
    for i in reversed(range(dim)):
        keys[i // per_word], digit = np.divmod(keys[i // per_word], radix)
        nodes[:, i] = table[digit]
    return SparseGrid(dim=dim, level=level, nodes=nodes, weights=wvec,
                      combination_terms=tuple(terms))


def node_count_asymptotic(dim, level):
    """Large-d node count estimate (2**l / l!) * d**l for fixed sparsity level."""
    if level < 0:
        raise InvalidArgumentError(f"level must be >= 0, got {level}")
    return (2.0**level / math.factorial(level)) * float(dim) ** level


def kahan_sum(values):
    """Exactly rounded sum (`math.fsum`), so it does not depend on the order
    of `values`."""
    return math.fsum(values)


def apply(grid, f, vectorized=False):
    """Evaluate sum_j w_j f(xi_j), exactly rounded.

    With vectorized=True, f maps an (M, d) array to an (M,) array.
    Non-finite integrand values raise EvaluationError with the node index.
    """
    if vectorized:
        vals = np.asarray(f(grid.nodes), dtype=float).ravel()
        if len(vals) != grid.node_count:
            raise InvalidArgumentError("vectorized integrand returned wrong length")
    else:
        vals = np.array([float(f(x)) for x in grid.nodes])
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        j = int(bad[0])
        raise EvaluationError(
            f"integrand returned {vals[j]} at node index {j}", node_index=j
        )
    return kahan_sum(grid.weights * vals)


def write_grid(grid, path):
    """Columnar text export: header 'dim level count', one x..x w row per node."""
    with open(path, "w") as fh:
        fh.write(f"{grid.dim} {grid.level} {grid.node_count}\n")
        for x, w in zip(grid.nodes, grid.weights):
            cols = " ".join(f"{v:.17g}" for v in x)
            fh.write(f"{cols} {w:.17g}\n")


def read_grid(path):
    """Read a grid file written by write_grid.

    Combination terms are not stored in the file; the returned grid carries
    an empty combination_terms tuple.  A malformed file raises
    InvalidArgumentError naming the file.
    """
    try:
        with open(path) as fh:
            header = fh.readline().split()
            if len(header) != 3:
                raise ValueError("the header is not 'dim level count'")
            dim, level, count = (int(v) for v in header)
            if dim < 1:
                raise ValueError(f"dim {dim} is below 1")
            rows = [[float(v) for v in line.split()] for line in fh if line.strip()]
        if len(rows) != count:
            raise ValueError(f"it promises {count} nodes, has {len(rows)}")
        if any(len(row) != dim + 1 for row in rows):
            raise ValueError(f"a row does not have dim + 1 = {dim + 1} columns")
        data = np.array(rows).reshape(count, dim + 1)
        if not np.all(np.isfinite(data)):
            raise ValueError("non-finite node or weight")
    except ValueError as exc:  # also a bad number or encoding
        raise InvalidArgumentError(f"malformed grid file {path}: {exc}") from None
    return SparseGrid(
        dim=dim,
        level=level,
        nodes=data[:, :dim].copy(),
        weights=data[:, dim].copy(),
        combination_terms=(),
    )
