"""Integration through the learned flow and the error decomposition.

The estimate of E_target[qoi] is the sparse grid sum of qoi composed with
the flow.  On synthetic targets the report also measures the split of
the total error: the quadrature part against a dense oracle grid and
the learning part as total-variation / KL divergences between the
target and the pushforward density (grid mode, dim <= 2).
"""

import json
import math
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .densities import product_values
from .errors import IntegrationFailureError, InvalidArgumentError, UnsupportedDimensionError
from .flow import flow_forward, log_pushforward_density
from .quadrature import REFERENCE_POINTS, kahan_sum, tensor_gauss

CHECK_SLACK = 5e-3  # absolute slack of the Pinsker and decomposition checks
DENSE_MAX_DIM = 3  # largest dim of the dense pullback oracle grid


@dataclass(frozen=True)
class QoI:
    """Product quantity of interest prod_i factors[i](x_i) with its sup norm."""

    factors: tuple
    sup_norm: float
    name: str = "qoi"

    def evaluate(self, x):
        return product_values(self.factors, x)


# (1-D factor on [0, 1], its sup norm) that each family uses on every axis;
# `coordinate` puts the `product` factor on its axis, the `constant` one elsewhere
QOI_FACTORS_1D = {
    "product": (lambda t: t, 1.0),
    "cos_product": (np.cos, 1.0),
    "abs_product": (lambda t: np.abs(t - 0.5), 0.5),
    "constant": (np.ones_like, 1.0),
}


def make_qoi(family, dim, params=None):
    params = dict(params or {})
    axis = params.pop("axis", 0) if family == "coordinate" else 0
    if params:
        raise InvalidArgumentError(f"qoi family '{family}' does not take {sorted(params)}")
    if family == "coordinate":
        if not (float(axis).is_integer() and 0 <= axis < dim):
            raise InvalidArgumentError(f"coordinate axis must be an integer in 0..{dim - 1}, "
                                       f"got {axis}")
        axis = int(axis)
        factors, name = [QOI_FACTORS_1D["constant"]] * dim, f"coordinate[{axis}]"
        factors[axis] = QOI_FACTORS_1D["product"]
    elif family in QOI_FACTORS_1D:
        factors, name = [QOI_FACTORS_1D[family]] * dim, family
    else:
        raise InvalidArgumentError(f"unknown qoi family '{family}'")
    return QoI(tuple(f for f, _ in factors), math.prod(sup for _, sup in factors), name)


# ---------------------------------------------------------------------------
# reference values
# ---------------------------------------------------------------------------


def reference_expectation(target, qoi):
    """E_target[qoi] as the product over axes of the 1-D Gauss sums
    sum_j g_j f_i(x_j) p_i(x_j) of the QoI and target factors, at any dim."""
    pts, wt = tensor_gauss(1, REFERENCE_POINTS)
    x = pts[:, 0]
    value = 1.0
    for f, p in zip(qoi.factors, target.factors, strict=True):
        value *= math.fsum(wt * (f(x) * p.pdf(x)))
    return value


def pullback_integral_oracle(fm, qoi, source):
    """Dense-grid value of the integral of qoi(flow(x)) against the source."""
    if fm.dim > DENSE_MAX_DIM:
        raise UnsupportedDimensionError(
            f"dense oracle grid is limited to dim <= {DENSE_MAX_DIM}")
    pts, wt = tensor_gauss(fm.dim, REFERENCE_POINTS)
    return math.fsum(wt * (qoi.evaluate(flow_forward(fm, pts)) * source.evaluate(pts)))


# ---------------------------------------------------------------------------
# the estimate and its error pieces
# ---------------------------------------------------------------------------


def integrate_via_flow(grid, fm, qoi, threads=1):
    """Sparse-grid estimate sum_j w_j qoi(flow(xi_j)).

    Node images come from `fm.images`: only nodes this flow map has not
    pushed under its current parameters are integrated, in one batch, so
    the nested levels of a sweep and further QoIs on the same grid reuse
    earlier images.  The weighted reduction is exactly rounded, so it does
    not depend on node order.  `threads` accepts only 1, so callers that
    pass it keep working.
    """
    if threads != 1:
        raise InvalidArgumentError(f"threads must be 1, got {threads!r}")
    # flow_forward is looked up per call, so a wrapped module attribute is used
    mapped = fm.images(grid.nodes, lambda rows: flow_forward(fm, rows))
    vals = qoi.evaluate(mapped)
    return kahan_sum(grid.weights * vals)


def total_error(reference, estimate):
    return abs(reference - estimate)


def _grid_densities(target, fm, source, points_per_axis):
    """Gauss weights, target density and model log-density on a dense grid."""
    if target.dim > 2:
        raise UnsupportedDimensionError("grid TV/KL estimates are limited to dim <= 2")
    pts, wt = tensor_gauss(target.dim, points_per_axis)
    return wt, target.evaluate(pts), log_pushforward_density(fm, source, pts)


def _tv(wt, f_t, log_m):
    with np.errstate(over="ignore"):
        p_m = np.exp(log_m)
    if not np.isfinite(p_m).all():
        raise IntegrationFailureError(
            f"model density overflows: log-density up to {np.max(log_m):.6g}")
    return 0.5 * math.fsum(wt * np.abs(f_t - p_m))


def _kl(wt, f_t, log_m):
    return math.fsum(wt * (f_t * (np.log(f_t) - log_m)))


def kl_estimate(target, fm, source, mode="grid", points_per_axis=65, samples=None):
    """KL(target || pushforward).  Grid mode (dim <= 2) integrates densely;
    MC mode averages over provided fresh target samples and returns a
    standard error."""
    if mode == "grid":
        return _kl(*_grid_densities(target, fm, source, points_per_axis)), None
    if mode == "mc":
        if samples is None:
            raise InvalidArgumentError("MC mode needs fresh target samples")
        samples = np.atleast_2d(samples)
        vals = np.log(target.evaluate(samples)) - log_pushforward_density(fm, source, samples)
        return float(np.mean(vals)), float(np.std(vals) / math.sqrt(len(vals)))
    raise InvalidArgumentError(f"unknown KL mode {mode!r}")


def tv_estimate(target, fm, source, points_per_axis=65):
    """Total variation distance (half the L1 gap) on a dense grid, dim <= 2."""
    return _tv(*_grid_densities(target, fm, source, points_per_axis))


def tv_kl_estimate(target, fm, source, points_per_axis=65):
    """(tv_estimate, grid-mode KL) from one pushforward log-density pass."""
    grid = _grid_densities(target, fm, source, points_per_axis)
    return _tv(*grid), _kl(*grid)


def pinsker_check(tv, kl):
    return tv <= math.sqrt(max(kl, 0.0) / 2.0) + CHECK_SLACK


def decomposition_check(total, qoi_sup, tv, quad):
    return total <= qoi_sup * tv + quad + CHECK_SLACK


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

CSV_HEADER = "n,level,m_nodes,total,quad,tv,kl,seed"


@dataclass
class ErrorReport:
    """Measured error split of one experiment at one grid level."""

    total_error: float
    quadrature_error: float
    learning_error_tv_bound: float
    kl_estimate: float
    reference_value: float
    estimate: float
    dim: int
    level: int
    node_count: int
    sample_size: int
    seed: int
    metadata: dict = field(default_factory=dict)

    def to_json(self):
        """One strict JSON line; a value that is not finite (NaN for a term
        not measured, such as TV/KL at dim 3) is written as null."""
        return json.dumps(_nan_to_null(asdict(self)), sort_keys=True, allow_nan=False)

    @classmethod
    def from_json(cls, line):
        """Parse and type-check one results line; a null float reads as NaN.
        Wrong value types raise ValueError, missing or unknown keys TypeError."""
        d = json.loads(line)
        if not isinstance(d, dict):
            raise ValueError(f"a results line must be a JSON object, got {d!r}")
        kinds = {f.name: f.type for f in fields(cls)}
        return cls(**{k: _checked(k, kinds[k], v) if k in kinds else v for k, v in d.items()})

    def csv_row(self):
        errors = (self.total_error, self.quadrature_error, self.learning_error_tv_bound,
                  self.kl_estimate)
        cells = [self.sample_size, self.level, self.node_count,
                 *("" if math.isnan(v) else f"{v:.17g}" for v in errors), self.seed]
        return ",".join(map(str, cells))


def _nan_to_null(value):
    if isinstance(value, dict):
        return {k: _nan_to_null(v) for k, v in value.items()}
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _checked(name, kind, value):
    """A value of field type `kind` (int, float or dict); bools are not
    numbers, and a float field reads null as NaN."""
    if kind is float and value is None:
        return math.nan
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise ValueError(f"results field '{name}' must be {kind.__name__}, got {value!r}")
    if kind is not float:
        return value
    try:
        return float(value)
    except OverflowError:  # an int beyond the float range
        raise ValueError(f"results field '{name}' is out of float range") from None


def append_reports(path, reports):
    with open(path, "a") as fh:
        for rep in reports:
            fh.write(rep.to_json() + "\n")


def read_reports(path):
    with open(path) as fh:
        return [ErrorReport.from_json(line) for line in fh if line.strip()]


def write_convergence_csv(path, reports):
    with open(path, "w") as fh:
        fh.write(CSV_HEADER + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")
