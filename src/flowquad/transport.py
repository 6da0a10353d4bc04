"""Exact transport between product densities on the unit cube.

For product densities the Knothe-Rosenblatt map is diagonal: axis k sends
x_k through the source factor's CDF and back through the target factor's
quantile.  Those are the factors' own closed forms (or their guarded
Newton inverse), so no table is built.

Also provides the straight-line interpolation between the identity and
the transport, its inverse, and the induced time-dependent vector field
driving points along that interpolation.
"""


import numpy as np

from .errors import InvalidArgumentError, InversionError
from .quadrature import lattice

FIELD_FD_STEP = 1e-6  # central-difference step of TransportField.divergence
RATIO_FD_STEP = 1e-5  # central-difference step of mask_ratio_norms


class KrTransport:
    """Diagonal Knothe-Rosenblatt map T with T_* source = target, for
    product source and target densities.  Queries are pure."""

    def __init__(self, source, target):
        if source.dim != target.dim:
            raise InvalidArgumentError(
                f"source dim {source.dim} != target dim {target.dim}"
            )
        for which, dens in (("source", source), ("target", target)):
            if dens.factors is None:
                raise InvalidArgumentError(
                    f"exact transport needs a product {which} density, got '{dens.name}'"
                )
        self.dim = source.dim
        self.source = source
        self.target = target

    def _axis(self, k, z):
        """Component k (0-based) of the map on the array z of x_k values."""
        u = self.source.factors[k].cdf(z)
        return self.target.factors[k].quantile(np.clip(u, 0.0, 1.0))

    def kr_map(self, x):
        """Apply the transport to a single point."""
        return self.kr_map_batch(x)[0]

    def kr_map_batch(self, xs):
        xs = np.atleast_2d(np.asarray(xs, dtype=float))
        out = np.empty_like(xs)
        for k in range(self.dim):
            out[:, k] = self._axis(k, xs[:, k])
        return out

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
        for k in range(self.dim):

            def g(z):
                return s * self._axis(k, np.array([z]))[0] + (1.0 - s) * z - y[k]

            if g(0.0) > 0 or g(1.0) < 0:
                raise InversionError(
                    f"interpolation inverse not bracketed on axis {k + 1}", axis=k + 1
                )
            x0[k] = brentq(g, 0.0, 1.0, xtol=1e-12, rtol=8.9e-16)
        return x0, self.kr_map(x0)

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
