"""Exact transport between product densities on the unit cube.

For product densities the Knothe-Rosenblatt map is diagonal: axis k sends
x_k through the source factor's CDF and back through the target factor's
quantile.  Those are the factors' own closed forms (or their guarded
Newton inverse), so no table is built.

Also provides the straight-line interpolation between the identity and
the transport, its inverse, and the induced time-dependent vector field
driving points along that interpolation.  These are diagonal too: the
inverse solves each axis for a whole (n, d) batch with monotone_inverse,
and axis k of the field reads y_k alone.
"""


import numpy as np

from .densities import monotone_inverse
from .errors import InvalidArgumentError
from .quadrature import lattice

FIELD_FD_STEP = 1e-6  # central-difference step of TransportField.divergence
RATIO_FD_STEP = 1e-5  # central-difference step of mask_ratio_norms


class KrTransport:
    """Diagonal Knothe-Rosenblatt map T with T_* source = target, for
    product source and target densities.  Queries are pure."""

    def __init__(self, source, target):
        if source.dim != target.dim:
            raise InvalidArgumentError(f"source dim {source.dim} != target dim {target.dim}")
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
        return s * self.kr_map_batch(x).reshape(x.shape) + (1.0 - s) * x

    def _displacement_inverse_with_map(self, y, s):
        """Rows x0 with s*T(x0) + (1-s)*x0 = y, and T(x0), for a batch y."""
        if not 0.0 <= s <= 1.0:
            raise InvalidArgumentError(f"interpolation time {s} outside [0, 1]")
        y = np.clip(np.atleast_2d(np.asarray(y, dtype=float)), 0.0, 1.0)
        if s == 0.0:
            return y.copy(), self.kr_map_batch(y)
        x0 = np.empty_like(y)
        for k in range(self.dim):
            src, tgt = self.source.factors[k], self.target.factors[k]

            def interp(z):
                return s * self._axis(k, z) + (1.0 - s) * z

            def slope(z):  # T_k' = p_src / p_tgt(T_k), floored off zero
                return s * src.pdf(z) / np.maximum(tgt.pdf(self._axis(k, z)), 1e-300) + (1.0 - s)

            x0[:, k] = monotone_inverse(interp, slope, y[:, k])
        return x0, self.kr_map_batch(x0)

    def displacement_inverse(self, y, s):
        """Initial point (or rows) whose interpolation at time s reaches y."""
        return self._displacement_inverse_with_map(y, s)[0].reshape(np.shape(y))

    def target_field(self, y, s):
        """Velocity T(G(y,s)) - G(y,s) of the interpolation flow at (y, s)."""
        x0, tx = self._displacement_inverse_with_map(y, s)
        return (tx - x0).reshape(np.shape(y))


class TransportField:
    """Vector-field adapter so flows can integrate the exact transport.

    Divergence uses interior central differences (verification grade).
    """

    def __init__(self, transport):
        self.transport = transport
        self.dim = transport.dim

    def __call__(self, x, t):
        x = np.atleast_2d(np.asarray(x, dtype=float))
        return self.transport.target_field(x, float(np.clip(t, 0.0, 1.0)))

    def divergence(self, x, t):
        # axis k of the field reads y_k alone, so one batch shifted along
        # every axis at once gives each diagonal difference quotient
        x = np.clip(np.atleast_2d(np.asarray(x, dtype=float)), 0.0, 1.0)
        t = float(np.clip(t, 0.0, 1.0))
        hi = np.minimum(x + FIELD_FD_STEP, 1.0)
        lo = np.maximum(x - FIELD_FD_STEP, 0.0)
        up = self.transport.target_field(hi, t)
        um = self.transport.target_field(lo, t)
        return np.sum((up - um) / (hi - lo), axis=1)


def mask_ratio_norms(transport, space_points=9, time_points=5):
    """Empirical C0/C1 size of the target field divided by the boundary mask.

    The theoretical bound on this quantity is not explicit, so it is probed
    on an interior lattice by finite differences.
    """
    pts = lattice(np.linspace(0.1, 0.9, space_points), transport.dim)
    m, h = len(pts), RATIO_FD_STEP
    # axis j of the field reads p_j alone, so every cross derivative is 0
    # and shifting all axes at once gives the diagonal ones
    probe = np.concatenate([pts, pts + h, pts - h])
    eta = probe * (1.0 - probe)
    c0 = 0.0
    c1 = 0.0
    for t in np.linspace(0.0, 1.0, time_points):
        ratio = transport.target_field(probe, t) / eta
        c0 = max(c0, float(np.max(np.abs(ratio[:m]))))
        deriv = (ratio[m : 2 * m] - ratio[2 * m :]) / (2 * h)
        c1 = max(c1, float(np.max(np.abs(deriv))))
    return {"c0": c0, "c1": max(c0, c1)}
