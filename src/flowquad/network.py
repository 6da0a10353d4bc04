"""Fully connected ReLU^s vector fields and their exact derivatives.

The field takes (x, t) with t appended as an extra input coordinate and
returns a d-vector, multiplied componentwise by the boundary mask
eta(x) = x*(1-x) so that flows cannot leave the unit cube.

Differentiation is hand-rolled over the fixed layer graph:
  * reverse mode for gradients with respect to parameters and inputs,
  * forward mode (one tangent per spatial axis) for the exact Jacobian
    trace needed by the divergence,
  * a joint reverse pass through both chains for gradients of the
    divergence itself (second-order terms via sigma'').

B points and their d tangents travel as one ((d+1)*P, W) block per layer
(row k*P + b is tangent k of sample b; k = 0 is its value), P being B
rounded up to whole tiles of TILE_ROWS rows, so the elementwise work of a
layer runs once, and the reverse pass gets value and tangent cotangents
from one call with w.  A forward product is one matmul of the block's
tiles by a contiguous copy of w.T.  All tiles have one shape, which fixes
how the BLAS rounds a row, so a row's value, tangents and divergence are
the same bits in any batch.  Padding rows repeat the last row, so the one
finite check of the pre-activations (one flat buffer) gives the real
rows' verdict.  Only value_jacobian_divergence assembles the d x d
Jacobian.  The adjoint recomputes forward caches instead of keeping them,
the four stages of an RK4 step in one cache of stacked row groups:
vjp runs the reverse pass of one group down to the input, and forms the
parameter gradient of all groups with one product per layer once the
last group is done.

Every layer-sized intermediate is written with out= into buffers the field
owns (see MlpVectorField); fresh buffers above glibc's mmap threshold were
mapped, page-faulted and unmapped on every RK4 stage.

Also houses the exact B-spline / product-network constructions and the
closed-form capacity and Lipschitz constant calculators.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalOverflowError
from .flow import FlowMap

TILE_ROWS = 64  # rows of every forward product (see the module docstring)


# ---------------------------------------------------------------------------
# architecture
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Architecture:
    """Layer widths (d_0, ..., d_{L+1}) and the activation power s."""

    widths: tuple
    activation_power: int = 2

    def __post_init__(self):
        if len(self.widths) < 2:
            raise InvalidArgumentError("an architecture needs at least input and output widths")
        if any(w < 1 for w in self.widths):
            raise InvalidArgumentError(f"widths must be positive, got {self.widths}")
        if self.activation_power < 1:
            raise InvalidArgumentError("activation power must be >= 1")

    @property
    def hidden_depth(self):
        return len(self.widths) - 2

    @property
    def width(self):
        return max(self.widths)

    @property
    def param_count(self):
        return sum(i * o + o for i, o in zip(self.widths[:-1], self.widths[1:]))


def hypothesis_architecture(dim, hidden_depth, width, activation_power=2):
    """Architecture (d+1, W, ..., W, d) of the admissible vector-field class."""
    if width < dim + 1:
        raise InvalidArgumentError(f"width {width} must be >= dim + 1 = {dim + 1}")
    if hidden_depth < 1:
        raise InvalidArgumentError("need at least one hidden layer")
    widths = (dim + 1,) + (width,) * hidden_depth + (dim,)
    arch = Architecture(widths, activation_power)
    # the 2*L*W^2 parameter envelope only holds once there are >= 2 hidden
    # layers (there are L+1 affine maps, so L = 1 can exceed it)
    if hidden_depth >= 2:
        assert arch.param_count <= 2 * hidden_depth * width * width
    return arch


# ---------------------------------------------------------------------------
# activations
# ---------------------------------------------------------------------------


def relu_power(x, s):
    """max(x, 0)**s; s = 0 is the (closed-left) unit step used by B-splines."""
    x = np.asarray(x, dtype=float)
    if s == 0:
        return (x >= 0).astype(float)
    return np.maximum(x, 0.0) ** s


def _power(r, e, c, out):
    """c * r**e into out (which may be r) for r = max(a, 0), or for a itself
    at e = 0, where r**0 is the step (r > 0): ReLU^s and its derivatives."""
    if e == 1:
        return np.multiply(r, c, out=out)
    if e == 0:
        np.greater(r, 0.0, out=out)
    else:
        np.square(r, out=out) if e == 2 else np.power(r, e, out=out)
    if c > 1:
        out *= c
    return out


# ---------------------------------------------------------------------------
# the vector field
# ---------------------------------------------------------------------------


class MlpVectorField:
    """ReLU^s network v(x, t) = eta(x) * raw(x, t) with parameters
    constrained to [-1, 1]^q, where raw is the network's output layer.

    Parameters live in one flat vector; per-layer weight matrices are
    views into it, so in-place updates of `theta` stay consistent.
    Evaluation is pure given a parameter snapshot; `clone` returns an
    independent copy whose parameters and buffers are apart from this one's.

    Evaluations write into buffers the field keeps, one set per tangent
    flag, which grows to the largest row count so far.  Returned arrays are
    fresh, but a `forward_with_cache` cache aliases the buffers until this
    field's next evaluation (its `vjp` is not one), so no two threads may
    evaluate one field at once.
    """

    def __init__(self, arch, theta=None, rng=None):
        self.arch = arch
        self.dim = arch.widths[-1]
        if arch.widths[0] != self.dim + 1:
            raise InvalidArgumentError(
                f"masked field needs input width dim+1, got {arch.widths[0]} for dim {self.dim}"
            )
        q = arch.param_count
        if theta is None:
            rng = rng or np.random.default_rng()
            r = min(1.0, 1.0 / math.sqrt(arch.width))
            theta = rng.uniform(-r, r, size=q)
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (q,):
            raise InvalidArgumentError(f"theta must have shape ({q},), got {theta.shape}")
        self._theta = theta.copy()
        self._scratch = {False: None, True: None}
        self.layers = self._views(self._theta)

    def _views(self, flat):
        """Per-layer (w, b) views into a parameter-shaped flat vector."""
        views, o = [], 0
        for din, dout in zip(self.arch.widths[:-1], self.arch.widths[1:]):
            o_b = o + din * dout
            views.append((flat[o:o_b].reshape(dout, din), flat[o_b : o_b + dout]))
            o = o_b + dout
        return views

    @property
    def theta(self):
        return self._theta

    def set_theta(self, theta):
        self._theta[:] = theta

    def project_theta(self):
        np.clip(self._theta, -1.0, 1.0, out=self._theta)

    def clone(self):
        return MlpVectorField(self.arch, self._theta.copy())

    # -- scratch buffers ---------------------------------------------------

    def _buffers(self, rows, tangents):
        """The kept buffer set of this tangent flag, laid out for P rows, its
        "rows": `rows` rounded up to whole tiles.

        A set only grows: it is built when P exceeds every count before it,
        and otherwise hands out views of the first entries of its storage.
        Each layer's input z and pre-activation a is one block: the value
        rows, then with tangents tangent 1, ..., tangent d (row k*P + b is
        tangent k of sample b).  The pre-activations of all layers are one
        flat buffer, `flat`, which covers this layout only.  With tangents
        the set also holds sigma' of each hidden layer and the reverse
        pass's buffers: the cotangent r of each layer's output, which the
        parameter gradient reads, and temporaries; a vjp writes only
        buffers its cache does not read."""
        rows = -(-rows // TILE_ROWS) * TILE_ROWS
        ws = self._scratch[tangents]
        if ws is not None and ws["rows"] == rows:
            return ws
        d, widths, hidden = self.dim, self.arch.widths, self.arch.widths[1:-1]
        k = d + 1 if tangents else 1
        layout = {"a": (k, widths[1:]), "z": (k, widths[:-1])}
        if tangents:
            layout.update(sp=(1, hidden), r=(k, widths[1:]), prod=(d, hidden),
                          red=(1, hidden), spp=(1, hidden))
        if ws is None or ws["capacity"] < rows:
            ws = {"capacity": rows, "storage": {
                key: np.empty(n * rows * sum(cols)) for key, (n, cols) in layout.items()}}
            self._scratch[tangents] = ws
        for key, (n, cols) in layout.items():
            ends = np.cumsum([n * rows * w for w in cols])
            parts = np.split(ws["storage"][key][: n * rows * sum(cols)], ends[:-1])
            ws[key] = [v.reshape(n * rows, w) for v, w in zip(parts, cols)]
        ws["rows"], ws["flat"] = rows, ws["storage"]["a"][: k * rows * sum(widths[1:])]
        if tangents:
            ws["z"][0][rows:] = np.repeat(np.eye(d + 1)[:d], rows, axis=0)  # unit input tangents
        return ws

    # -- forward -----------------------------------------------------------

    def forward(self, x, t):
        """Field value, a fresh array; shape follows the input (single point
        or batch)."""
        single = np.ndim(x) == 1
        v = self._forward_cached(x, t, need_tangents=False)[0]
        return v[0] if single else v

    __call__ = forward

    def _forward_cached(self, x, t, need_tangents):
        x2 = np.atleast_2d(np.asarray(x, dtype=float))
        d, batch, s = self.dim, len(x2), self.arch.activation_power
        ws = self._buffers(batch, need_tangents)
        zs, avals, rows = ws["z"], ws["a"], ws["rows"]
        zs[0][:batch, :d] = x2
        zs[0][:batch, d] = t
        zs[0][batch:rows] = zs[0][batch - 1 : batch]  # padding repeats the last row, if any
        last = len(self.layers) - 1
        # a value or tangent that overflows shows as a non-finite
        # pre-activation, of its own layer or the next, which raises; a
        # masked output that overflows is non-finite, which its caller sees
        with np.errstate(invalid="ignore", over="ignore"):
            for li, (w, b) in enumerate(self.layers):
                a = avals[li]  # one product on fixed tiles (see the module docstring)
                np.matmul(zs[li].reshape(-1, TILE_ROWS, len(w[0])), w.T.copy(),
                          out=a.reshape(-1, TILE_ROWS, len(b)))
                a[:rows] += b
                if li == last:
                    break
                z = np.maximum(a[:rows], 0.0, out=zs[li + 1][:rows])
                if need_tangents:
                    stacked = (d, rows, len(b))
                    sp = _power(z, s - 1, s, out=ws["sp"][li])
                    np.multiply(a[rows:].reshape(stacked), sp,
                                out=zs[li + 1][rows:].reshape(stacked))
                _power(z, s, 1, out=z)
            raw = avals[-1][:batch]
            eta = x2 * (1.0 - x2)
            cache = {"raw": raw, "eta": eta}
            if need_tangents:
                etap = 1.0 - 2.0 * x2
                # jdiag[b, i] = d raw_i / d x_i, read from row (i+1)*P + b
                jdiag = avals[-1].reshape(d + 1, rows, d)[1:, :batch].diagonal(axis1=0, axis2=2)
                cache.update(z=zs, a=avals, sp=ws["sp"], etap=etap, jdiag=jdiag,
                             div=(eta * jdiag + etap * raw).sum(axis=1))
            v = raw * eta
        if not np.isfinite(ws["flat"]).all():
            li = next(i for i, a in enumerate(avals) if not np.isfinite(a).all())
            raise NumericalOverflowError(f"non-finite activation in layer {li}", layer=li)
        return v, cache

    def value_jacobian_divergence(self, x, t):
        """Field value, spatial Jacobian jac[b, i, k] = dv_i/dx_k and its
        exact trace, batched."""
        v, cache = self._forward_cached(x, t, need_tangents=True)
        d, raw = self.dim, cache["raw"]
        jac = cache["a"][-1].reshape(d + 1, -1, d)[1:, : len(raw)].transpose(1, 2, 0)
        jac = cache["eta"][:, :, None] * jac
        idx = np.arange(d)
        jac[:, idx, idx] += cache["etap"] * raw
        return v, jac, cache["div"]

    def divergence(self, x, t):
        """Exact spatial divergence via stacked forward-mode tangents."""
        single = np.ndim(x) == 1
        div = self._forward_cached(x, t, need_tangents=True)[1]["div"]
        return float(div[0]) if single else div

    def forward_with_cache(self, x, t, need_tangents=False):
        """(v, cache); v and cache["div"] are fresh, the rest aliases the buffers."""
        return self._forward_cached(x, t, need_tangents)

    # -- reverse mode ------------------------------------------------------

    def vjp(self, cache, lam_v, lam_div, group=0):
        """Gradient of sum_b [lam_v . v + lam_div * div] w.r.t. (theta, x),
        through the value and tangent chains in one reverse pass.

        The cache must come from forward_with_cache(..., need_tangents=True).
        Its rows may stack G groups of B = len(lam_div) rows each.  Then the
        groups take one vjp each, from group G-1 down to group 0: each forms
        its input gradient and keeps its layer cotangents in the buffers, and
        the vjp of group 0 forms the parameter gradient of all G groups, with
        one product per layer; the others return None for it.
        Returns fresh arrays (grad_theta flat, grad_x (B, d)).
        """
        if "div" not in cache:
            raise InvalidArgumentError("vjp needs a tangent-bearing cache")
        gx = self._input_gradient(cache, lam_v, lam_div, group)
        return (self._parameter_gradient(cache) if group == 0 else None), gx

    def _input_gradient(self, cache, lam_v, lam_div, group):
        """The reverse pass of one row group down to the input: gradient
        w.r.t. x, leaving each layer's output cotangent in the group's rows
        of the buffers' r."""
        d, s = self.dim, self.arch.activation_power
        rows = len(cache["raw"])
        lam_div = np.asarray(lam_div, dtype=float).reshape(-1, 1)
        batch = len(lam_div)
        if batch == 0 or rows % batch or not 0 <= group < rows // batch:
            raise InvalidArgumentError(
                f"no group {group} of {batch} rows in a cache of {rows} rows")
        g = slice(group * batch, (group + 1) * batch)
        raw, eta, etap = cache["raw"][g], cache["eta"][g], cache["etap"][g]
        ws = self._buffers(rows, True)

        def block(x):  # the group's value and tangent rows of a stacked block
            return x.reshape(d + 1, -1, x.shape[1])[:, g]

        # cotangent of the output block: the value rows, then the tangent
        # rows, of which only the diagonal entries (tangent i + 1, column i)
        # enter the trace
        r = block(ws["r"][-1])
        r[0] = lam_v * eta + lam_div * etap
        r[1:] = 0.0
        idx = np.arange(d)
        r[1 + idx, :, idx] = (lam_div * eta).T

        for li in range(len(self.layers) - 1, 0, -1):
            # the value and tangent cotangents of layer li's input, in one call
            w, k = self.layers[li][0], li - 1
            a = block(cache["a"][k])
            r_z = np.matmul(r, w, out=block(ws["r"][k]))
            if s > 1:  # sigma'' vanishes at s = 1
                # sigma'' times the sum over tangents of cotangent * pre-activation
                prod = np.multiply(r_z[1:], a[1:],
                                   out=ws["prod"][k][: d * batch].reshape(d, batch, -1))
                red = prod[0] if d == 1 else np.sum(prod, 0, out=ws["red"][k][:batch])
                spp = ws["spp"][k][:batch]  # from a itself at s = 2
                red *= _power(a[0] if s == 2 else np.maximum(a[0], 0.0, out=spp),
                              s - 2, s * (s - 1), out=spp)
            np.multiply(r_z, cache["sp"][k][g], out=r_z)
            if s > 1:
                r_z[0] += red
            r = r_z
        gx = (r[0] @ self.layers[0][0])[:, :d].copy()
        gx += lam_v * raw * etap
        gx += lam_div * (etap * cache["jdiag"][g] - 2.0 * raw)
        return gx

    def _parameter_gradient(self, cache):
        """Gradient w.r.t. theta from the layer cotangents that the vjps of a
        cache's groups left in the buffers: one product per layer, over the
        value and tangent rows of every group, padding rows included."""
        rows = len(cache["raw"])
        ws = self._buffers(rows, True)
        gtheta = np.empty_like(self._theta)
        for (gw, gb), r, z in zip(self._views(gtheta), ws["r"], cache["z"]):
            r.reshape(self.dim + 1, ws["rows"], -1)[:, rows:] = 0.0  # not an earlier call's
            np.matmul(r.T, z, out=gw)
            np.einsum("ij->j", r[:rows], out=gb)
        return gtheta


# ---------------------------------------------------------------------------
# B-splines and product networks
# ---------------------------------------------------------------------------


def bspline_eval(s, j, x):
    """Degree-s B-spline on integer knots via the signed ReLU^s sum."""
    if s < 0:
        raise InvalidArgumentError("spline degree must be >= 0")
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for k in range(s + 2):
        acc += (-1) ** k * math.comb(s + 1, k) * relu_power(x - (j + k), s)
    return acc / math.factorial(s)


def bspline_recursive(s, j, x):
    """Cox-de Boor recursion on integer knots; reference for bspline_eval."""
    if s < 0:
        raise InvalidArgumentError("spline degree must be >= 0")
    x = np.asarray(x, dtype=float)
    if s == 0:
        return ((x >= j) & (x < j + 1)).astype(float)
    left = (x - j) / s * bspline_recursive(s - 1, j, x)
    right = (j + s + 1 - x) / s * bspline_recursive(s - 1, j + 1, x)
    return left + right


class ProductGadgetNetwork:
    """One-hidden-layer ReLU^s network computing the product of s inputs.

    Hidden width 2^(s+1): one unit per sign pattern a in {0,1}^s and per
    orientation of the polarization identity; output weights +-1/s!.
    """

    def __init__(self, s):
        if s < 1:
            raise InvalidArgumentError("product power must be >= 1")
        self.s = s
        patterns = []
        signs = []
        for bits in range(2**s):
            a = np.array([(bits >> i) & 1 for i in range(s)], dtype=float)
            patterns.append(a)
            signs.append((-1) ** (s - int(a.sum())))
        pat = np.array(patterns)
        sgn = np.array(signs, dtype=float)
        self.w_hidden = np.vstack([pat, -pat])
        self.b_hidden = np.zeros(2 ** (s + 1))
        self.w_out = np.concatenate([sgn, (-1) ** s * sgn]) / math.factorial(s)
        self.arch = Architecture((s, 2 ** (s + 1), 1), activation_power=s)

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        hidden = relu_power(self.w_hidden @ xs + self.b_hidden, self.s)
        return float(self.w_out @ hidden)


def product_gadget(s, xs):
    """Product of the inputs through the explicit ReLU^s network.

    Fewer than s inputs are padded with ones (the identity-padding trick
    used to reach a full power-of-s input count).
    """
    xs = list(np.atleast_1d(np.asarray(xs, dtype=float)))
    if len(xs) > s:
        raise InvalidArgumentError(f"gadget of power {s} takes at most {s} inputs")
    xs = xs + [1.0] * (s - len(xs))
    return ProductGadgetNetwork(s)(np.array(xs))


# ---------------------------------------------------------------------------
# capacity / Lipschitz constant calculators
# ---------------------------------------------------------------------------

CAPACITY_DPS = 50  # mpmath decimal digits of capacity_constants


@dataclass(frozen=True)
class CapacityConstants:
    """Closed-form parameter-Lipschitz constants, in logs (mpmath values).

    The L = 1 case of the inner constant has an ill-defined exponent; it is
    evaluated at its degenerate value (C = 1) and flagged.
    """

    log_lip0: object
    log_lip1: object
    log_c: object
    log_lbar_bound: object
    log_d_bound: object
    degenerate: bool


def capacity_constants(hidden_depth, width, dim, c_d=1.0, c_dkl=1.0):
    """Evaluate Lip0, Lip1, C and the subgaussian/bounded-difference envelopes.

    All returns are natural logarithms as mpmath floats; the doubly
    exponential envelopes overflow any fixed-size float in linear scale.
    c_d and c_dkl are the non-explicit constants of the envelope bounds.
    """
    import mpmath as mp

    L, W, d = hidden_depth, width, dim
    if L < 1 or W < 1 or d < 1:
        raise InvalidArgumentError("hidden_depth, width and dim must all be >= 1")
    if c_d <= 0 or c_dkl <= 0:
        raise InvalidArgumentError(f"c_d and c_dkl must be positive, got ({c_d}, {c_dkl})")
    with mp.workdps(CAPACITY_DPS):
        two_w = mp.mpf(2 * W)
        dp1 = mp.mpf(d + 1)
        lip0 = mp.mpf(L) * two_w ** (2 ** (L + 2) + 2 * L - 3) * dp1 ** (2**L)
        degenerate = L == 1
        if degenerate:
            c_const = mp.mpf(1)
        else:
            c_const = two_w ** (2**L - 2) * dp1 ** (2 ** (L - 2))
        w2 = mp.mpf(W) ** 2
        inner = 8 * w2 * c_const + 2 * w2 * lip0 + 2 * W * (c_const + 1)
        lip1 = mp.mpf(L) / 4 * ((two_w**2) * c_const) ** (L - 1) * inner + lip0
        envelope = (mp.mpf(c_d) * W) ** (2 ** (2 * L + 3))
        log_env = mp.log(mp.mpf(c_dkl)) + envelope
        return CapacityConstants(
            log_lip0=mp.log(lip0),
            log_lip1=mp.log(lip1),
            log_c=mp.log(c_const),
            log_lbar_bound=log_env,
            log_d_bound=log_env,
            degenerate=degenerate,
        )


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_CKPT_MAGIC = "flowquad-net"
_CKPT_VERSION = 2
_CKPT_KEYS = ["s", "mask", "steps", "widths"]  # of the header line, before their values


def save_checkpoint(fm, path):
    """Versioned text checkpoint of a network FlowMap: header line, then one value per line."""
    with open(path, "w") as fh:
        fh.write(f"{_CKPT_MAGIC} {_CKPT_VERSION}\n")
        widths = " ".join(str(w) for w in fm.field.arch.widths)
        fh.write(f"s {fm.field.arch.activation_power} mask 1 steps {fm.steps} widths {widths}\n")
        for v in fm.field.theta:
            fh.write(f"{v:.17g}\n")


def load_checkpoint(path):
    """The FlowMap a save_checkpoint file records; a malformed or version-1
    file raises InvalidArgumentError naming the file."""
    try:
        with open(path) as fh:
            magic, head = fh.readline().split(), fh.readline().split()
            if magic == [_CKPT_MAGIC, "1"]:
                raise ValueError("version 1 has no RK4 step count")
            if magic != [_CKPT_MAGIC, str(_CKPT_VERSION)] or head[:7:2] != _CKPT_KEYS:
                raise ValueError(f"not a version-{_CKPT_VERSION} checkpoint")
            if head[3] != "1":  # every field is masked
                raise ValueError(f"mask token must be 1, got {head[3]!r}")
            theta = np.array([float(line) for line in fh if line.strip()])
        if not np.all(np.isfinite(theta)):
            raise ValueError("non-finite parameter value")
        arch = Architecture(tuple(int(w) for w in head[7:]), activation_power=int(head[1]))
        return FlowMap(MlpVectorField(arch, theta=theta), dim=arch.widths[-1], steps=int(head[5]))
    except ValueError as exc:  # also a bad architecture, steps, theta or encoding
        raise InvalidArgumentError(f"malformed checkpoint {path}: {exc}") from None
