"""Fixed-step RK4 flow maps and pushforward log-densities.

The flow integrates any vector field exposing `field(x, t) -> velocity`
and, for density work, `field.divergence(x, t)`.  One RK4 stepper serves
the forward map, its inverse and the density.  The pushforward
log-density augments the backward integration with the divergence
integral; its parameter gradient differentiates the discrete RK4 map
exactly (discretize-then-differentiate), so finite differences of the
implemented map agree to rounding.

The forward map, inverse and density run in row blocks of at most
SWEEP_BLOCK_ROWS rows (_sweep).  The adjoint runs whole, since summing its
gradient over blocks would reorder the sums.  A network field evaluates
each row on its own (see network), so no block or batch changes a bit.
"""

import dataclasses

import numpy as np

from .errors import DomainError, IntegrationFailureError, InvalidArgumentError

# most rows per dense sweep.  Against 1,024, 512 was 4-16% slower on the
# benchmark's train1d, run2d and integrate6d; 2,048 was 2-5% faster on run2d
# and integrate6d, 1-2% slower on train1d and took 5-8% more memory on run2d
SWEEP_BLOCK_ROWS = 1024


@dataclasses.dataclass
class FlowMap:
    """RK4 flow of `field` with `steps` uniform steps, which have no default:
    a trained map is the one with the step count it was trained with.

    `images` remembers the time-1 images of the rows it has pushed, for
    one parameter snapshot at a time.
    """

    field: object
    dim: int
    steps: int
    # (snapshot, sorted keys of pushed rows, their images); replaced, never
    # mutated, so a push that raises leaves the previous memo intact
    _memo: tuple = dataclasses.field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.steps < 1:
            raise InvalidArgumentError(f"steps must be >= 1, got {self.steps}")

    def _snapshot(self):
        theta = getattr(self.field, "theta", None)
        if theta is None:
            return None
        return (self.field, self.steps, self.dim, theta.tobytes())

    def images(self, x, push):
        """Time-1 images of the rows of x, an (n, dim) batch.

        Rows this map has not pushed under the current parameter snapshot
        go through `push(rows) -> images` once, in order of first
        appearance; the rest are read back.  Rows are keyed by their exact
        bytes, so -0.0 and 0.0 are different rows.  When push maps each row
        on its own, as flow_forward of a network field does, the result is
        bitwise push(x).
        The snapshot is the field object, steps, dim and the bytes of
        field.theta; any change drops every remembered image.  Fields
        without `theta` are pushed whole on every call.
        """
        x, _ = _as_batch(x, self.dim)
        snapshot = self._snapshot()
        if snapshot is None:
            return push(x)
        row_key = np.dtype((np.void, x.itemsize * self.dim))
        memo = self._memo
        if memo is None or memo[0] != snapshot:
            memo = (snapshot, np.empty(0, row_key), np.empty((0, self.dim)))
        _, known, images = memo
        x = np.ascontiguousarray(x)
        uniq, first, inv = np.unique(
            x.view(row_key).ravel(), return_index=True, return_inverse=True
        )
        # the memo keeps its keys sorted, and images in the same order
        at = np.searchsorted(known, uniq)
        seen = at < len(known)
        seen[seen] = known[at[seen]] == uniq[seen]
        new = np.flatnonzero(~seen)
        if len(new):
            order = np.argsort(first[new])  # push in order of first appearance
            pushed = push(x[first[new][order]])[np.argsort(order)]
            known = np.insert(known, at[new], uniq[new])
            images = np.insert(images, at[new], pushed, axis=0)
            self._memo = (snapshot, known, images)
            at = np.searchsorted(known, uniq)
        return images[at[inv.ravel()]]


def _as_batch(x, dim):
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    x = np.atleast_2d(x)
    if x.shape[1] != dim:
        raise InvalidArgumentError(f"points have dimension {x.shape[1]}, field has {dim}")
    return x, single


def _excursion(x):
    return float(max(np.max(x - 1.0, initial=0.0), np.max(-x, initial=0.0)))


def _rk4(rhs, y, steps, stages=None, excursion=False):
    """Integrate dy/ds = rhs(y, s) over [0, 1] with `steps` uniform RK4 steps.

    `rhs` returns (velocity, divergence); the divergence is integrated
    alongside the state (pass 0.0 where it is not needed).  Returns the
    final state clamped to the cube, the divergence integral and, with
    `excursion`, the largest exit distance from the cube (else 0.0); when
    `stages` is an array of 4*steps states, the four stage inputs of every
    step are written into it in order.
    """
    slots = None if stages is None else iter(stages)

    def stage(u, s):
        if slots is not None:
            next(slots)[...] = u
        return rhs(u, s)

    acc = np.zeros(len(y))
    worst = _excursion(y) if excursion else 0.0
    h = 1.0 / steps
    for n in range(steps):
        # stage inputs are not held past their rhs call: large batches
        # would otherwise keep three more state-sized arrays alive
        s = n * h
        k1, d1 = stage(y, s)
        k2, d2 = stage(y + 0.5 * h * k1, s + 0.5 * h)
        k3, d3 = stage(y + 0.5 * h * k2, s + 0.5 * h)
        k4, d4 = stage(y + h * k3, s + h)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        acc = acc + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        if not np.all(np.isfinite(y)):
            raise IntegrationFailureError(f"non-finite flow state at step {n}", step=n)
        if excursion:
            worst = max(worst, _excursion(y))
    return np.clip(y, 0.0, 1.0), acc, worst


def _sweep(fm, x, rhs, excursion=False):
    """_rk4 of rhs from the rows of x, in near-equal row blocks of at most
    SWEEP_BLOCK_ROWS rows.

    Returns the concatenated states and divergence integrals and the
    largest excursion (0.0 unless asked for); a failure reports its step in
    the first failing block.
    """
    blocks = np.array_split(x, max(1, -(-len(x) // SWEEP_BLOCK_ROWS)))
    y, acc, worst = zip(*(_rk4(rhs, b, fm.steps, excursion=excursion) for b in blocks))
    return np.concatenate(y), np.concatenate(acc), max(worst)


def flow_forward(fm, x, return_excursion=False):
    """Time-1 image of dy/dt = v(y, t), clamped to the cube.

    The largest recorded exit distance from the cube is available via
    return_excursion (the boundary mask keeps it at integrator-error size).
    """
    y, single = _as_batch(x, fm.dim)
    y, _, worst = _sweep(fm, y, lambda u, t: (fm.field(u, t), 0.0), return_excursion)
    out = y[0] if single else y
    return (out, worst) if return_excursion else out


def flow_inverse(fm, y):
    """Preimage under the time-1 flow: dz/ds = -v(z, 1 - s) from the image point.

    This is the same discrete map whose divergence integral the
    log-density reads, so it returns the point where the source is read.
    """
    z, single = _as_batch(y, fm.dim)
    z = _sweep(fm, z, lambda u, s: (-fm.field(u, 1.0 - s), 0.0))[0]
    return z[0] if single else z


def _aug_rhs(fm, w, s):
    """Stage derivative of the backward state (position, divergence integral)."""
    t = 1.0 - s
    if hasattr(fm.field, "forward_with_cache"):
        v, cache = fm.field.forward_with_cache(w, t, need_tangents=True)
        return -v, cache["div"]
    return -fm.field(w, t), fm.field.divergence(w, t)


def _log_source(source, z0):
    """Source log-density at the preimages z0; it must not vanish there."""
    vals = source.evaluate(z0)
    if np.any(vals <= 0.0):
        bad = int(np.argmax(vals <= 0.0))
        raise DomainError(
            f"source density vanishes at preimage {z0[bad]} (sample {bad})",
            location=z0[bad],
        )
    return np.log(vals)


def log_pushforward_density(fm, source, y):
    """log density of the flow-pushforward of `source` at y.

    Integrates the preimage and the divergence term jointly backward with
    the same RK4 steps; the source log-density is read at the preimage.
    """
    w, single = _as_batch(y, fm.dim)
    z0, acc, _ = _sweep(fm, w, lambda u, s: _aug_rhs(fm, u, s))
    logp = _log_source(source, z0) - acc
    return float(logp[0]) if single else logp


def log_density_with_gradient(fm, source, y, sample_weights=None):
    """Pushforward log-densities and the parameter gradient of their
    weighted sum.

    The gradient is the exact reverse-mode derivative of the discrete RK4
    computation, accumulated step by step with recomputed caches.  The
    four stages of a step are recomputed in one call of 4B rows when they
    fit in a sweep block (4B <= SWEEP_BLOCK_ROWS), and one at a time
    otherwise.
    Requires the field to expose forward_with_cache/vjp (a network field)
    and the source to expose grad_log_pdf.
    """
    if not hasattr(fm.field, "vjp"):
        raise InvalidArgumentError("gradient path needs a differentiable network field")
    net = fm.field
    w, single = _as_batch(y, fm.dim)
    batch = len(w)
    if sample_weights is None:
        sample_weights = np.ones(batch)
    c = np.asarray(sample_weights, dtype=float).reshape(batch, 1)

    h = 1.0 / fm.steps
    # the stage inputs of the value-only forward sweep: rows j*B .. (j+1)*B
    # of step n hold stage j, and `times` their times in the backward flow
    stages = np.empty((fm.steps, 4 * batch, fm.dim))
    z0 = _rk4(lambda u, s: (-net(u, 1.0 - s), 0.0), w, fm.steps,
              stages.reshape(4 * fm.steps, batch, fm.dim))[0]
    times = 1.0 - (np.arange(fm.steps)[:, None] * h + np.array([0.0, 0.5 * h, 0.5 * h, h]))
    times = np.repeat(times, batch, axis=1)
    log_source = _log_source(source, z0)
    # stages per recomputed cache
    per_call = 4 if 4 * batch <= SWEEP_BLOCK_ROWS else 1

    # reverse sweep: lam tracks the cotangent on the running position,
    # the divergence integral contributes a constant -c per sample.  Stage j
    # of a step weighs h * (1, 2, 2, 1)[j] / 6 into the update and feeds
    # stage j + 1 through (h/2, h/2, h)[j] times its slope
    lam = c * source.grad_log_pdf(z0)
    lam_d = -c.ravel()
    weight = (h / 6.0, h / 3.0, h / 3.0, h / 6.0)
    feed = (0.5 * h, 0.5 * h, h)
    lam_div = [wt * lam_d for wt in weight]
    grad = np.zeros_like(net.theta)
    divs = np.empty((fm.steps, 4 * batch))  # from the reverse sweep's tangent caches

    for n in range(fm.steps - 1, -1, -1):
        gu = [None] * 4
        for j in (3, 2, 1, 0):
            if j % per_call == per_call - 1:  # the last stage of a cache: recompute it
                rows = slice((j + 1 - per_call) * batch, (j + 1) * batch)
                _, cache = net.forward_with_cache(stages[n, rows], times[n, rows],
                                                  need_tangents=True)
                divs[n, rows] = cache["div"]
            alpha = weight[j] * lam if j == 3 else weight[j] * lam + feed[j] * gu[j + 1]
            g, gu[j] = net.vjp(cache, lam_v=-alpha, lam_div=lam_div[j], group=j % per_call)
            if g is not None:
                grad += g
        lam = lam + gu[0] + gu[1] + gu[2] + gu[3]

    # the divergence integral in forward step order, summed as _rk4 sums it
    acc = np.zeros(batch)
    for d1, d2, d3, d4 in divs.reshape(fm.steps, 4, batch):
        acc = acc + (h / 6.0) * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
    logp = log_source - acc

    return (float(logp[0]) if single else logp), grad
