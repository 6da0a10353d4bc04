"""Analytic density families on [0,1]^d.

Built-in univariate families (uniform, linear tilt, cosine bump) carry
closed-form CDFs and bounds so transport oracles and tests have exact
references.  Multivariate densities are products of univariate factors,
or arbitrary callables for the generic (non-factorized) code paths.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .quadrature import REFERENCE_POINTS, lattice, tensor_gauss

BOUND_PROBE_POINTS = 65  # lattice points per axis of check_bounds_on_lattice
BOUND_SLACK = 1e-9  # absolute slack of check_bounds_on_lattice


@dataclass(frozen=True)
class Density1D:
    """Univariate probability density on [0,1] with analytic CDF."""

    name: str
    params: dict
    pdf: callable
    cdf: callable
    lower: float
    upper: float
    lipschitz: float
    cdf_inverse: callable = None  # analytic inverse where the family has one
    grad_log: callable = None

    def quantile(self, u):
        """Invert the CDF; analytic when available, else guarded Newton."""
        scalar = np.isscalar(u) or np.ndim(u) == 0
        u = np.atleast_1d(np.asarray(u, dtype=float))
        if np.any(u < -1e-12) or np.any(u > 1 + 1e-12):
            raise InvalidArgumentError("quantile argument outside [0, 1]")
        u = np.clip(u, 0.0, 1.0)
        if self.cdf_inverse is not None:
            x = np.clip(self.cdf_inverse(u), 0.0, 1.0)
        else:
            x = _newton_bisect_quantile(self.cdf, self.pdf, u)
        return float(x[0]) if scalar else x


def _newton_bisect_quantile(cdf, pdf, u, tol=1e-12, max_iter=100):
    u = np.atleast_1d(np.asarray(u, dtype=float))
    lo = np.zeros_like(u)
    hi = np.ones_like(u)
    x = u.copy()
    for _ in range(max_iter):
        fx = cdf(x) - u
        lo = np.where(fx <= 0, x, lo)
        hi = np.where(fx > 0, x, hi)
        if np.all(np.abs(fx) <= tol):
            break
        step = fx / np.maximum(pdf(x), 1e-14)
        x_new = x - step
        outside = (x_new <= lo) | (x_new >= hi)
        x = np.where(outside, 0.5 * (lo + hi), x_new)
    return x


def uniform1d():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return Density1D(
        name="uniform",
        params={},
        pdf=one,
        cdf=lambda x: np.asarray(x, dtype=float),
        lower=1.0,
        upper=1.0,
        lipschitz=0.0,
        cdf_inverse=lambda u: np.asarray(u, dtype=float),
        grad_log=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
    )


def linear_tilt(a, b):
    """Normalized density proportional to a + b*x on [0,1].

    Requires a >= 0 and a + b >= 0 (nonnegativity at both endpoints).
    The quantile has a closed form via the stable quadratic root.
    """
    if a < 0 or a + b < 0:
        raise InvalidArgumentError(f"linear tilt needs a >= 0 and a + b >= 0, got ({a}, {b})")
    z = a + 0.5 * b
    if not (z > 0 and math.isfinite(a + b)):
        raise InvalidArgumentError(f"linear tilt needs a finite positive mass, got ({a}, {b})")
    params = {"a": a, "b": b}
    # the density is a + b*x with unit mass; scaling once keeps large
    # parameters from overflowing below
    a, b = a / z, b / z

    def pdf(x):
        return a + b * np.asarray(x, dtype=float)

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return a * x + 0.5 * b * x * x

    def inverse(u):
        u = np.asarray(u, dtype=float)
        if abs(b) < 1e-14:
            return u / a
        disc = np.maximum(a * a + 2.0 * b * u, 0.0)
        denom = a + np.sqrt(disc)
        with np.errstate(invalid="ignore", divide="ignore"):
            x = np.where(denom > 0, 2.0 * u / np.where(denom > 0, denom, 1.0), 0.0)
        return x

    def grad_log(x):
        x = np.asarray(x, dtype=float)
        return b / np.maximum(a + b * x, 1e-300)

    return Density1D(
        name="linear_tilt",
        params=params,
        pdf=pdf,
        cdf=cdf,
        lower=min(a, a + b),
        upper=max(a, a + b),
        lipschitz=abs(b),
        cdf_inverse=inverse,
        grad_log=grad_log,
    )


def cosine_bump(amp, freq=1, phase=0.0):
    """Normalized density proportional to 1 + amp*cos(pi*(freq*x + phase)).

    |amp| < 1 keeps the density bounded away from zero.
    """
    if not abs(amp) < 1:
        raise InvalidArgumentError(f"cosine bump needs |amp| < 1, got {amp}")
    if freq <= 0:
        raise InvalidArgumentError(f"cosine bump needs freq > 0, got {freq}")
    w = math.pi * freq
    # w > 0, so a finite sum bounds w, the phase shift and their sum
    if not math.isfinite(w + abs(math.pi * phase)):
        raise InvalidArgumentError(
            f"cosine bump needs finite pi*freq and pi*phase, got ({freq}, {phase})"
        )
    z = 1.0 + amp * (math.sin(w + math.pi * phase) - math.sin(math.pi * phase)) / w
    if not 0 < z < math.inf:
        raise InvalidArgumentError(f"cosine bump needs a finite positive mass, got {z}")
    # z cancels for tiny freq; the product form does not, and z stays the
    # normalizer so the cdf keeps its bits
    z_exact = 1.0 + amp * 2.0 * math.cos(math.pi * phase + 0.5 * w) * math.sin(0.5 * w) / w
    if abs(z - z_exact) > 1e-10 * z_exact:
        raise InvalidArgumentError(
            f"cosine bump mass {z} cancels (accurate value {z_exact}), got "
            f"({amp}, {freq}, {phase})"
        )

    def pdf(x):
        x = np.asarray(x, dtype=float)
        return (1.0 + amp * np.cos(w * x + math.pi * phase)) / z

    def cdf(x):
        x = np.asarray(x, dtype=float)
        return (x + amp * (np.sin(w * x + math.pi * phase) - math.sin(math.pi * phase)) / w) / z

    def grad_log(x):
        x = np.asarray(x, dtype=float)
        return -amp * w * np.sin(w * x + math.pi * phase) / (1.0 + amp * np.cos(w * x + math.pi * phase))

    return Density1D(
        name="cosine_bump",
        params={"amp": amp, "freq": freq, "phase": phase},
        pdf=pdf,
        cdf=cdf,
        lower=(1.0 - abs(amp)) / z,
        upper=(1.0 + abs(amp)) / z,
        lipschitz=abs(amp) * w / z,
        grad_log=grad_log,
    )


FAMILIES_1D = {"uniform": uniform1d, "linear_tilt": linear_tilt, "cosine_bump": cosine_bump}


def make_density_1d(family, params=None):
    """The `family` density built from its constructor's keyword `params`."""
    if family not in FAMILIES_1D:
        raise InvalidArgumentError(
            f"unknown density family '{family}', known: {sorted(FAMILIES_1D)}"
        )
    try:
        return FAMILIES_1D[family](**(params or {}))
    except TypeError as exc:  # a missing or unknown parameter
        raise InvalidArgumentError(f"density family '{family}': {exc}") from None


@dataclass(frozen=True)
class Density:
    """Probability density on [0,1]^dim.

    evaluate maps an (n, dim) array to (n,).  factors is the list of
    univariate marginals when the density is a product, else None.
    """

    dim: int
    evaluate: callable
    lower: float
    upper: float
    factors: tuple = None
    name: str = "custom"
    lipschitz: float = math.inf

    def grad_log_pdf(self, x):
        """Gradient of log density; defined for factorized densities."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        if self.factors is None:
            raise InvalidArgumentError("grad_log_pdf needs a factorized density")
        out = np.empty_like(x)
        for i, f in enumerate(self.factors):
            if f.grad_log is None:
                raise InvalidArgumentError(f"factor {i} has no grad_log")
            out[:, i] = f.grad_log(x[:, i])
        return out


def product_density(factors, name=None):
    factors = tuple(factors)
    dim = len(factors)

    def evaluate(x):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        vals = np.ones(len(x))
        for i, f in enumerate(factors):
            vals *= f.pdf(x[:, i])
        return vals

    lower = math.prod(f.lower for f in factors)
    upper = math.prod(f.upper for f in factors)
    # grad bound of a product: per-axis tilt times the other factors' sup;
    # hypot overflows only where the bound itself does
    lipschitz = math.hypot(*(
        f.lipschitz * math.prod(g.upper for j, g in enumerate(factors) if j != i)
        for i, f in enumerate(factors)
    ))
    return Density(
        dim=dim,
        evaluate=evaluate,
        lower=lower,
        upper=upper,
        factors=factors,
        name=name or "x".join(f.name for f in factors),
        lipschitz=lipschitz,
    )


def uniform_density(dim):
    return product_density([uniform1d() for _ in range(dim)], name="uniform")


def custom_density(dim, evaluate, lower, upper, name="custom", lipschitz=math.inf):
    """Non-factorized density from a raw callable (test use; KrTransport
    rejects it)."""
    return Density(
        dim=dim, evaluate=evaluate, lower=lower, upper=upper,
        factors=None, name=name, lipschitz=lipschitz,
    )


def check_bounds_on_lattice(density):
    """Probe kappa <= f <= K on a tensor lattice (falls back to Monte Carlo
    for dim > 2).  Returns (min, max) of the probed values."""
    if density.dim <= 2:
        pts = lattice(np.linspace(0, 1, BOUND_PROBE_POINTS), density.dim)
    else:
        rng = np.random.default_rng(0)
        pts = rng.uniform(size=(100_000, density.dim))
    vals = density.evaluate(pts)
    vmin, vmax = float(vals.min()), float(vals.max())
    if vmin < density.lower - BOUND_SLACK or vmax > density.upper + BOUND_SLACK:
        raise InvalidArgumentError(
            f"density values [{vmin}, {vmax}] escape the declared bounds "
            f"[{density.lower}, {density.upper}]"
        )
    return vmin, vmax


def total_mass(density):
    """Reference unit-mass check by tensor Gauss-Legendre (dim <= 3)."""
    if density.dim > 3:
        raise InvalidArgumentError("dense mass check is limited to dim <= 3")
    pts, wt = tensor_gauss(density.dim, REFERENCE_POINTS)
    return float(np.dot(wt, density.evaluate(pts)))
