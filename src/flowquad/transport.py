"""Exact transport between product densities on the unit cube.

For product densities the Knothe-Rosenblatt map is diagonal: axis k sends
x_k through the source factor's CDF and back through the target factor's
quantile.  Those are the factors' own closed forms (or their guarded
Newton inverse), so no table is built.

Also provides the inverse of the straight-line interpolation
s*T(x) + (1-s)*x between the identity and the transport, and the induced
time-dependent vector field driving points along that interpolation.
These are diagonal too: the inverse solves each axis for a whole (n, d)
batch with monotone_inverse, and axis k of the field reads y_k alone.
"""


import numpy as np

from .densities import monotone_inverse
from .errors import InvalidArgumentError

FIELD_FD_STEP = 1e-6  # central-difference step of TransportField.divergence


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

