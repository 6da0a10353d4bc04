"""Analytic density families on [0,1]^d.

Built-in univariate families (uniform, linear tilt, cosine bump) carry
closed-form CDFs so transport oracles and tests have exact references.
Every multivariate density is a product of such factors.
monotone_inverse is the one guarded Newton solver for increasing maps on
[0,1]: factor quantiles without a closed form use it, and so does the
interpolation inverse in transport.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError


@dataclass(frozen=True)
class Density1D:
    """Univariate probability density on [0,1] with analytic CDF."""

    name: str
    params: dict
    pdf: callable
    cdf: callable
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
            x = monotone_inverse(self.cdf, self.pdf, u)
        return float(x[0]) if scalar else x


def monotone_inverse(f, fprime, y, tol=1e-12, max_iter=100):
    """x in [0,1] with f(x) = y for an increasing f mapping [0,1] onto
    itself, elementwise over the array y: Newton steps, with bisection of
    the bracket wherever a step leaves it.  An entry stops stepping once
    |f(x) - y| <= tol, so its result does not depend on its batch."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    lo = np.zeros_like(y)
    hi = np.ones_like(y)
    x = y.copy()
    live = np.ones(y.shape, dtype=bool)  # the entries still above tol
    for _ in range(max_iter):
        fx = f(x[live]) - y[live]
        open_ = np.abs(fx) > tol
        live[live] = open_
        if not open_.any():
            break
        xl, fx = x[live], fx[open_]
        lo[live] = low = np.where(fx <= 0, xl, lo[live])
        hi[live] = high = np.where(fx > 0, xl, hi[live])
        x_new = xl - fx / np.maximum(fprime(xl), 1e-14)
        x[live] = np.where((x_new <= low) | (x_new >= high), 0.5 * (low + high), x_new)
    return x


def uniform1d():
    one = lambda x: np.ones_like(np.asarray(x, dtype=float))
    return Density1D(
        name="uniform",
        params={},
        pdf=one,
        cdf=lambda x: np.asarray(x, dtype=float),
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
    """Product probability density on [0,1]^dim.

    evaluate maps an (n, dim) array to (n,); factors holds the dim
    univariate factors.  Build one with product_density.
    """

    dim: int
    evaluate: callable
    factors: tuple
    name: str

    def grad_log_pdf(self, x):
        """Gradient of the log density, factor by factor."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        out = np.empty_like(x)
        for i, f in enumerate(self.factors):
            if f.grad_log is None:
                raise InvalidArgumentError(f"factor {i} has no grad_log")
            out[:, i] = f.grad_log(x[:, i])
        return out


def product_values(fns, x):
    """prod_i fns[i](x[:, i]) over the rows of x, multiplied in axis order."""
    x = np.atleast_2d(np.asarray(x, dtype=float))
    vals = np.ones(len(x))
    for i, f in enumerate(fns):
        vals *= f(x[:, i])
    return vals


def product_density(factors, name=None):
    factors = tuple(factors)
    pdfs = tuple(f.pdf for f in factors)
    return Density(
        dim=len(factors),
        evaluate=lambda x: product_values(pdfs, x),
        factors=factors,
        name=name or "x".join(f.name for f in factors),
    )


def uniform_density(dim):
    return product_density([uniform1d() for _ in range(dim)], name="uniform")

