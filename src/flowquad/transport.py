"""Exact triangular transport between densities on the unit cube.

The map matches conditional CDFs coordinate by coordinate: component k
sends x_k through the source conditional CDF given x_1..x_{k-1} and back
through the inverse target conditional CDF given the already-mapped
leading coordinates.  Factorized densities use their analytic univariate
CDFs; general densities (dim <= 3) are marginalized numerically onto
cumulative Simpson tables and interpolated monotonically.

Also provides the straight-line interpolation between the identity and
the transport, its inverse, and the induced time-dependent vector field
driving points along that interpolation.
"""


import numpy as np

from .errors import (
    InvalidArgumentError,
    InversionError,
    UnsupportedDimensionError,
)
from .quadrature import lattice

CDF_INVERSION_TOL = 1e-10
FIELD_FD_STEP = 1e-6  # central-difference step of TransportField.divergence
RATIO_FD_STEP = 1e-5  # central-difference step of mask_ratio_norms


class _MarginalTables:
    """Cumulative conditional CDF tables of a non-factorized density.

    C[k] of shape (R,)*k holds the cumulative integral of the k-th marginal
    along its last axis; normalizing a column by its final entry yields the
    conditional CDF given the leading coordinates.
    """

    def __init__(self, density):
        from scipy.integrate import cumulative_simpson, simpson

        self.dim = density.dim
        resolution = 257 if self.dim <= 2 else 129
        self.grid = np.linspace(0.0, 1.0, resolution)
        pts = lattice(self.grid, self.dim)
        f = density.evaluate(pts).reshape((resolution,) * self.dim)

        self.cumulative = {}
        hat = f
        for k in range(self.dim, 0, -1):
            self.cumulative[k] = cumulative_simpson(hat, x=self.grid, axis=k - 1, initial=0.0)
            if k > 1:
                hat = simpson(hat, x=self.grid, axis=k - 1)

    def column(self, k, prefix):
        """Normalized conditional CDF values on the grid, given the prefix."""
        arr = self.cumulative[k]
        n = len(self.grid)
        for p in prefix:
            pos = min(max(p, 0.0), 1.0) * (n - 1)
            idx = min(int(pos), n - 2)
            frac = pos - idx
            arr = (1.0 - frac) * arr[idx] + frac * arr[idx + 1]
        total = arr[-1]
        return arr / total

    def cdf(self, k, x, prefix):
        from scipy.interpolate import PchipInterpolator

        col = self.column(k, prefix)
        val = PchipInterpolator(self.grid, col)(np.clip(x, 0.0, 1.0))
        return float(np.clip(val, 0.0, 1.0))

    def quantile(self, k, u, prefix):
        from scipy.interpolate import PchipInterpolator
        from scipy.optimize import brentq

        col = self.column(k, prefix)
        if u <= col[0]:
            return 0.0
        if u >= col[-1]:
            return 1.0
        interp = PchipInterpolator(self.grid, col)
        i = int(np.searchsorted(col, u))
        lo, hi = self.grid[i - 1], self.grid[i]
        return brentq(lambda z: float(interp(z)) - u, lo, hi, xtol=1e-14, rtol=8.9e-16)


class KrTransport:
    """Triangular transport T with T_* source = target.

    Queries are pure after construction; the precomputed tables are never
    mutated.
    """

    def __init__(self, source, target):
        if source.dim != target.dim:
            raise InvalidArgumentError(
                f"source dim {source.dim} != target dim {target.dim}"
            )
        self.dim = source.dim
        self.source = source
        self.target = target

        self._tables = {}
        for which, dens in (("source", source), ("target", target)):
            if dens.factors is None:
                if self.dim > 3:
                    raise UnsupportedDimensionError(
                        f"non-factorized {which} density needs dim <= 3, got {self.dim}"
                    )
                self._tables[which] = _MarginalTables(dens)

    def _density(self, which):
        if which == "source":
            return self.source
        if which == "target":
            return self.target
        raise InvalidArgumentError(f"which must be 'source' or 'target', got {which!r}")

    def conditional_cdf(self, which, k, x, prefix=()):
        """F_k(x | prefix) of the chosen density, k in 1..dim."""
        dens = self._density(which)
        if not 1 <= k <= self.dim:
            raise InvalidArgumentError(f"axis {k} outside 1..{self.dim}")
        if len(prefix) != k - 1:
            raise InvalidArgumentError(
                f"axis {k} needs a prefix of length {k - 1}, got {len(prefix)}"
            )
        if dens.factors is not None:
            return float(np.clip(dens.factors[k - 1].cdf(x), 0.0, 1.0))
        return self._tables[which].cdf(k, x, prefix)

    def cdf_inverse(self, which, k, u, prefix=()):
        """x with |F_k(x | prefix) - u| <= CDF_INVERSION_TOL."""
        dens = self._density(which)
        if not 0.0 <= u <= 1.0:
            raise InvalidArgumentError(f"quantile argument {u} outside [0, 1]")
        if len(prefix) != k - 1:
            raise InvalidArgumentError(
                f"axis {k} needs a prefix of length {k - 1}, got {len(prefix)}"
            )
        if dens.factors is not None:
            return float(dens.factors[k - 1].quantile(u))
        return self._tables[which].quantile(k, u, prefix)

    def _component(self, k, prefix_x, prefix_y, z):
        u = self.conditional_cdf("source", k, z, prefix_x)
        return self.cdf_inverse("target", k, u, prefix_y)

    def kr_map(self, x):
        """Apply the transport to a single point."""
        x = np.asarray(x, dtype=float)
        y = np.empty(self.dim)
        for k in range(1, self.dim + 1):
            try:
                y[k - 1] = self._component(k, tuple(x[: k - 1]), tuple(y[: k - 1]), x[k - 1])
            except InvalidArgumentError:
                raise
            except Exception as exc:  # numeric root failures carry the axis
                raise InversionError(f"transport failed on axis {k}: {exc}", axis=k)
        return y

    def kr_map_batch(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        if self.source.factors is not None and self.target.factors is not None:
            out = np.empty_like(xs)
            for k in range(self.dim):
                u = self.source.factors[k].cdf(xs[:, k])
                out[:, k] = self.target.factors[k].quantile(np.clip(u, 0.0, 1.0))
            return out
        return np.array([self.kr_map(row) for row in xs])

    def displacement(self, x, s):
        """Straight-line interpolation s*T(x) + (1-s)*x."""
        if not 0.0 <= s <= 1.0:
            raise InvalidArgumentError(f"interpolation time {s} outside [0, 1]")
        x = np.asarray(x, dtype=float)
        if s == 0.0:
            return x.copy()
        return s * self.kr_map(x) + (1.0 - s) * x

    def _displacement_inverse_with_map(self, y, s):
        from scipy.optimize import brentq

        y = np.clip(np.asarray(y, dtype=float), 0.0, 1.0)
        if s == 0.0:
            return y.copy(), self.kr_map(y)
        x0 = np.empty(self.dim)
        tx = np.empty(self.dim)
        for k in range(1, self.dim + 1):
            prefix_x = tuple(x0[: k - 1])
            prefix_y = tuple(tx[: k - 1])

            def g(z):
                return s * self._component(k, prefix_x, prefix_y, z) + (1.0 - s) * z - y[k - 1]

            g0, g1 = g(0.0), g(1.0)
            if g0 > 0 or g1 < 0:
                raise InversionError(
                    f"interpolation inverse not bracketed on axis {k}", axis=k
                )
            z_star = brentq(g, 0.0, 1.0, xtol=1e-12, rtol=8.9e-16)
            x0[k - 1] = z_star
            tx[k - 1] = self._component(k, prefix_x, prefix_y, z_star)
        return x0, tx

    def displacement_inverse(self, y, s):
        """Initial point whose interpolation at time s reaches y."""
        if not 0.0 <= s <= 1.0:
            raise InvalidArgumentError(f"interpolation time {s} outside [0, 1]")
        return self._displacement_inverse_with_map(y, s)[0]

    def target_field(self, y, s):
        """Velocity T(G(y,s)) - G(y,s) of the interpolation flow at (y, s)."""
        if not 0.0 <= s <= 1.0:
            raise InvalidArgumentError(f"interpolation time {s} outside [0, 1]")
        x0, tx = self._displacement_inverse_with_map(y, s)
        return tx - x0


class TransportField:
    """Vector-field adapter so flows can integrate the exact transport.

    Divergence uses interior central differences (verification grade).
    """

    def __init__(self, transport):
        self.transport = transport
        self.dim = transport.dim

    def __call__(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(np.clip(t, 0.0, 1.0))
        out = np.empty_like(x)
        for i, row in enumerate(np.clip(x, 0.0, 1.0)):
            out[i] = self.transport.target_field(row, t)
        return out

    def divergence(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        t = float(np.clip(t, 0.0, 1.0))
        h = FIELD_FD_STEP
        div = np.zeros(len(x))
        for i, row in enumerate(np.clip(x, 0.0, 1.0)):
            for k in range(self.dim):
                hi = min(row[k] + h, 1.0)
                lo = max(row[k] - h, 0.0)
                xp = row.copy()
                xp[k] = hi
                xm = row.copy()
                xm[k] = lo
                up = self.transport.target_field(xp, t)[k]
                um = self.transport.target_field(xm, t)[k]
                div[i] += (up - um) / (hi - lo)
        return div


def mask_ratio_norms(transport, space_points=9, time_points=5):
    """Empirical C0/C1 size of the target field divided by the boundary mask.

    The theoretical bound on this quantity is not explicit, so it is probed
    on an interior lattice by finite differences.
    """
    d = transport.dim
    xs = np.linspace(0.1, 0.9, space_points)
    ts = np.linspace(0.0, 1.0, time_points)
    pts = lattice(xs, d)

    def ratio(p, t):
        eta = p * (1.0 - p)
        return transport.target_field(p, t) / eta

    c0 = 0.0
    c1 = 0.0
    for t in ts:
        for p in pts:
            base = ratio(p, t)
            c0 = max(c0, float(np.max(np.abs(base))))
            for k in range(d):
                pp = p.copy()
                pp[k] += RATIO_FD_STEP
                pm = p.copy()
                pm[k] -= RATIO_FD_STEP
                deriv = (ratio(pp, t) - ratio(pm, t)) / (2 * RATIO_FD_STEP)
                c1 = max(c1, float(np.max(np.abs(deriv))))
    return {"c0": c0, "c1": max(c0, c1)}
