import dataclasses
import math

import numpy as np
import pytest

from flowquad import densities as dn
from flowquad import flow
from flowquad import quadrature as quad
from flowquad.errors import IntegrationFailureError
from flowquad.flow import (
    FlowMap,
    flow_forward,
    flow_inverse,
    log_density_with_gradient,
    log_pushforward_density,
)
from flowquad.network import TILE_ROWS, MlpVectorField, hypothesis_architecture
from flowquad.transport import KrTransport, TransportField


class ZeroField:
    def __init__(self, dim):
        self.dim = dim

    def __call__(self, x, t):
        return np.zeros_like(np.atleast_2d(x))

    def divergence(self, x, t):
        return np.zeros(len(np.atleast_2d(x)))


def random_net(dim=2, depth=2, width=8, seed=0, scale=1.0):
    arch = hypothesis_architecture(dim, depth, width)
    net = MlpVectorField(arch, rng=np.random.default_rng(seed))
    if scale != 1.0:
        net.set_theta(net.theta * scale)
    return net


def tilt_flowmap(steps=64):
    source = dn.uniform_density(1)
    target = dn.product_density([dn.linear_tilt(0.0, 2.0)])
    transport = KrTransport(source, target)
    return FlowMap(TransportField(transport), dim=1, steps=steps), source


# ---------------------------------------------------------------------------
# forward / inverse
# ---------------------------------------------------------------------------


def test_zero_field_is_identity():
    fm = FlowMap(ZeroField(2), dim=2, steps=8)
    x = np.array([[0.2, 0.9], [0.5, 0.5]])
    np.testing.assert_array_equal(flow_forward(fm, x), x)
    np.testing.assert_array_equal(flow_inverse(fm, x), x)


def test_oracle_field_reaches_sqrt_map():
    fm, _ = tilt_flowmap()
    xs = np.linspace(0.05, 0.95, 10)
    for x in xs:
        y = flow_forward(fm, np.array([x]))
        assert abs(y[0] - math.sqrt(x)) < 1e-5


def test_oracle_field_inverse():
    fm, _ = tilt_flowmap()
    for y in (0.3, 0.6, 0.9):
        back = flow_inverse(fm, np.array([y]))
        assert abs(back[0] - y * y) < 1e-4


def test_round_trip_random_nets():
    for seed in range(3):
        net = random_net(seed=seed)
        fm = FlowMap(net, dim=2, steps=64)
        x = np.random.default_rng(seed + 50).uniform(0.05, 0.95, size=(20, 2))
        back = flow_inverse(fm, flow_forward(fm, x))
        assert np.max(np.abs(back - x)) < 2e-5


def test_rk4_order_of_accuracy():
    net = random_net(dim=1, depth=2, width=8, seed=3)
    x = np.random.default_rng(9).uniform(0.1, 0.9, size=(10, 1))
    ref = flow_forward(FlowMap(net, dim=1, steps=256), x)
    errs = []
    for steps in (4, 8, 16):
        y = flow_forward(FlowMap(net, dim=1, steps=steps), x)
        errs.append(np.max(np.abs(y - ref)))
    for coarse, fine in zip(errs[:-1], errs[1:]):
        ratio = coarse / max(fine, 1e-16)
        assert ratio > 16 / math.sqrt(2) / 2, errs  # fourth order, generous band


def test_excursions_stay_tiny():
    net = random_net(seed=4)
    fm = FlowMap(net, dim=2, steps=64)
    x = np.random.default_rng(11).uniform(size=(50, 2))
    _, worst = flow_forward(fm, x, return_excursion=True)
    assert worst < 1e-9


@pytest.mark.parametrize(
    "entry",
    [
        pytest.param(flow_forward, id="flow_forward"),
        pytest.param(flow_inverse, id="flow_inverse"),
        pytest.param(
            lambda fm, y: log_pushforward_density(fm, dn.uniform_density(1), y),
            id="log_pushforward_density",
        ),
    ],
)
def test_integration_failure_carries_step(entry):
    class BadField:
        def __call__(self, x, t):
            return np.full_like(np.atleast_2d(x), np.inf)

        def divergence(self, x, t):
            return np.zeros(len(np.atleast_2d(x)))

    fm = FlowMap(BadField(), dim=1, steps=4)
    with pytest.raises(IntegrationFailureError) as err:
        entry(fm, np.array([0.5]))
    assert err.value.step == 0


@pytest.mark.parametrize(
    "entry, shape",
    [
        pytest.param(flow_forward, (0, 2), id="flow_forward"),
        pytest.param(flow_inverse, (0, 2), id="flow_inverse"),
        pytest.param(
            lambda fm, y: log_pushforward_density(fm, dn.uniform_density(2), y), (0,),
            id="log_pushforward_density",
        ),
    ],
)
@pytest.mark.parametrize("field", ["network", "transport"])
def test_empty_batch_gives_empty_results(entry, shape, field):
    if field == "network":
        fm = FlowMap(random_net(seed=7), dim=2, steps=4)
    else:
        target = dn.product_density([dn.linear_tilt(0.0, 2.0), dn.cosine_bump(0.5)])
        fm = FlowMap(TransportField(KrTransport(dn.uniform_density(2), target)), dim=2, steps=4)
    assert entry(fm, np.empty((0, 2))).shape == shape


def test_blocked_sweeps_equal_one_block(monkeypatch):
    widths = (8, 17, 20)
    fms = [FlowMap(random_net(width=width, seed=8), dim=2, steps=4) for width in widths]
    source = dn.product_density([dn.linear_tilt(0.5, 1.0), dn.cosine_bump(0.3)])
    x = np.random.default_rng(13).uniform(0.05, 0.95, size=(2 * flow.SWEEP_BLOCK_ROWS + 1, 2))

    def sweeps(fm):
        return flow_forward(fm, x), flow_inverse(fm, x), log_pushforward_density(fm, source, x)

    blocked = [sweeps(fm) for fm in fms]
    monkeypatch.setattr(flow, "SWEEP_BLOCK_ROWS", len(x))
    for width, fm, got in zip(widths, fms, blocked):
        for g, want in zip(got, sweeps(fm)):
            np.testing.assert_array_equal(g, want, err_msg=f"width {width}")


def tiled(rows):
    """The row count a network lays its buffers out for: whole tiles."""
    return -(-rows // TILE_ROWS) * TILE_ROWS


def counting_buffers(monkeypatch):
    """The network buffer sets built from now on, in order."""
    built, fetch = [], MlpVectorField._buffers

    def counting(net, rows, tangents):
        bufs = fetch(net, rows, tangents)
        if not any(bufs is b for b in built):
            built.append(bufs)
        return bufs

    monkeypatch.setattr(MlpVectorField, "_buffers", counting)
    return built


@pytest.mark.parametrize("width", [16, 17, 20, 32])
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_rows_are_pushed_alike_in_any_batch(dim, width):
    # batches of 1 to 2,049 rows (two more than two sweep blocks) take
    # products of every shape a sweep makes; a row's image, preimage and
    # log-density are those of its 1-row call, and the remembered images
    # of a level sweep are those of pushing each grid whole
    fm = FlowMap(random_net(dim=dim, depth=2, width=width, seed=dim + width), dim=dim, steps=2)
    src = dn.product_density([dn.linear_tilt(0.5, 1.0)] * dim)
    rng = np.random.default_rng(dim * width)
    x = rng.uniform(0.05, 0.95, size=(2 * flow.SWEEP_BLOCK_ROWS + 1, dim))
    entries = [lambda u: flow_forward(fm, u), lambda u: flow_inverse(fm, u),
               lambda u: log_pushforward_density(fm, src, u)]
    alone = {}
    for batch in (1, 2, 3, 7, 65, 683, len(x)):
        rows = rng.choice(batch, size=min(batch, 24), replace=False)
        for i in rows:
            if i not in alone:
                alone[i] = [entry(x[i : i + 1]) for entry in entries]
        for k, entry in enumerate(entries):
            got = entry(x[:batch])[rows]
            np.testing.assert_array_equal(got, np.concatenate([alone[i][k] for i in rows]))
    push = lambda rows: flow_forward(fm, rows)
    for level in range(1, 5):
        nodes = quad.smolyak(dim, level).nodes
        np.testing.assert_array_equal(fm.images(nodes, push), push(nodes))


@pytest.mark.parametrize("full_blocks, extra", [(0, 1), (0, 5), (2, 1)])
def test_sweeps_build_one_workspace_per_block(monkeypatch, full_blocks, extra):
    # the network keeps one buffer set per tangent flag, which only grows:
    # a sweep builds it for its first block, the largest (2,049 rows are
    # blocks of 683 rows), and the adjoint for its batch, or for a step's
    # four stages at once where they fit in one sweep block; each for its
    # row count rounded up to whole tiles
    rows = full_blocks * flow.SWEEP_BLOCK_ROWS + extra
    blocks = -(-rows // flow.SWEEP_BLOCK_ROWS)
    built = counting_buffers(monkeypatch)
    fm = FlowMap(random_net(seed=9), dim=2, steps=4)
    flow_forward(fm, np.full((rows, 2), 0.5))
    flow_forward(fm, np.full((rows, 2), 0.25))
    assert [b["capacity"] for b in built] == [tiled(-(-rows // blocks))]
    built.clear()
    fm = FlowMap(random_net(seed=9), dim=2, steps=4)
    log_density_with_gradient(fm, dn.uniform_density(2), np.full((rows, 2), 0.5))
    grouped = 4 * rows <= flow.SWEEP_BLOCK_ROWS
    assert [b["capacity"] for b in built] == [tiled(rows), tiled(4 * rows if grouped else rows)]


def test_adjoint_builds_buffers_once_per_batch_size(monkeypatch):
    # a smaller batch reuses the sets of a larger one; a larger one builds
    # them anew, with room for its grouped stages (batches of several tiles,
    # since sets are laid out for whole tiles)
    built = counting_buffers(monkeypatch)
    fm = FlowMap(random_net(seed=10), dim=2, steps=4)
    x = np.random.default_rng(11).uniform(0.1, 0.9, size=(130, 2))
    first = log_density_with_gradient(fm, dn.uniform_density(2), x[:70])
    second = log_density_with_gradient(fm, dn.uniform_density(2), x[:70])
    assert len(built) == 2  # one value and one tangent set
    for got, want in zip(second, first):
        np.testing.assert_array_equal(got, want)
    smaller = log_density_with_gradient(fm, dn.uniform_density(2), x[:50])
    assert [b["capacity"] for b in built] == [tiled(70), tiled(280)]
    fresh = FlowMap(random_net(seed=10), dim=2, steps=4)
    for got, want in zip(smaller, log_density_with_gradient(fresh, dn.uniform_density(2), x[:50])):
        np.testing.assert_array_equal(got, want)
    del built[2:]  # the fresh field's
    log_density_with_gradient(fm, dn.uniform_density(2), x)
    assert [b["capacity"] for b in built] == [tiled(70), tiled(280), tiled(130), tiled(520)]


# ---------------------------------------------------------------------------
# remembered node images
# ---------------------------------------------------------------------------


def fake_push(rows):
    """A stand-in flow that tells rows apart, -0.0 from 0.0 included."""
    return 2.0 * rows + np.signbit(rows) + 0.25


def recording_push(batches):
    def push(rows):
        batches.append(rows.copy())
        return fake_push(rows)

    return push


def expected_push_batches(batches):
    """Rows a memo keyed by exact row bytes pushes: the unseen rows of each
    batch, in order of first appearance."""
    seen, out = set(), []
    for x in batches:
        fresh = []
        for row in x:
            if row.tobytes() not in seen:
                seen.add(row.tobytes())
                fresh.append(row)
        if fresh:
            out.append(np.array(fresh))
    return out


def test_images_push_unseen_rows_in_first_appearance_order():
    rng = np.random.default_rng(3)
    grids = [quad.smolyak(3, level).nodes for level in range(1, 5)]
    shuffled = grids[3][rng.permutation(len(grids[3]))]
    batches = grids + [
        np.concatenate([shuffled[:50], rng.uniform(size=(30, 3)), shuffled[:50]]),
        grids[2][::-1],
    ]
    fm, pushed = FlowMap(random_net(dim=3), dim=3, steps=4), []
    for x in batches:
        np.testing.assert_array_equal(fm.images(x, recording_push(pushed)), fake_push(x))
    expected = expected_push_batches(batches)
    assert len(pushed) == len(expected)
    for got, want in zip(pushed, expected):
        np.testing.assert_array_equal(got, want)


def test_images_duplicate_rows_in_one_batch_are_pushed_once():
    x = np.array([[0.1, 0.2], [0.3, 0.4], [0.1, 0.2], [0.5, 0.6], [0.3, 0.4]])
    fm, pushed = FlowMap(random_net(dim=2), dim=2, steps=4), []
    np.testing.assert_array_equal(fm.images(x, recording_push(pushed)), fake_push(x))
    assert len(pushed) == 1
    np.testing.assert_array_equal(pushed[0], x[[0, 1, 3]])


def test_images_keep_negative_zero_apart():
    x = np.array([[0.0, 0.5], [-0.0, 0.5], [0.0, 0.5]])
    fm, pushed = FlowMap(random_net(dim=2), dim=2, steps=4), []
    out = fm.images(x, recording_push(pushed))
    assert [row.tobytes() for row in out] == [row.tobytes() for row in fake_push(x)]
    assert len(pushed) == 1 and len(pushed[0]) == 2
    assert np.signbit(pushed[0][1, 0]) and not np.signbit(pushed[0][0, 0])
    out = fm.images(x[::-1], recording_push(pushed))
    assert len(pushed) == 1  # both zeros are remembered
    assert [row.tobytes() for row in out] == [row.tobytes() for row in fake_push(x[::-1])]


def test_images_reuse_memo_for_grid_read_back(tmp_path):
    grid = quad.smolyak(2, 4)
    fm, pushed = FlowMap(random_net(dim=2), dim=2, steps=4), []
    first = fm.images(grid.nodes, recording_push(pushed))
    path = tmp_path / "grid.txt"
    quad.write_grid(grid, path)
    again = fm.images(quad.read_grid(path).nodes, recording_push(pushed))
    assert len(pushed) == 1
    np.testing.assert_array_equal(again, first)


# ---------------------------------------------------------------------------
# pushforward density
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("steps", [3, 8, 64])
def test_density_reads_source_at_flow_inverse(steps):
    # the log-density and flow_inverse integrate one discrete backward map
    read = []

    def evaluate(z):
        read.append(z.copy())
        return np.ones(len(z))

    source = dataclasses.replace(dn.uniform_density(2), evaluate=evaluate)
    fm = FlowMap(random_net(seed=5), dim=2, steps=steps)
    y = np.random.default_rng(12).uniform(0.05, 0.95, size=(12, 2))
    log_pushforward_density(fm, source, y)
    np.testing.assert_array_equal(read[-1], flow_inverse(fm, y))


def test_zero_field_uniform_density_log_is_zero():
    fm = FlowMap(ZeroField(2), dim=2, steps=8)
    src = dn.uniform_density(2)
    y = np.random.default_rng(1).uniform(size=(10, 2))
    np.testing.assert_allclose(log_pushforward_density(fm, src, y), 0.0, atol=1e-12)


def test_oracle_field_density_value():
    fm, source = tilt_flowmap()
    got = log_pushforward_density(fm, source, np.array([0.64]))
    assert abs(got - math.log(1.28)) < 1e-3


def test_density_mass_conservation_random_net():
    net = random_net(dim=1, depth=2, width=8, seed=5)
    fm = FlowMap(net, dim=1, steps=64)
    src = dn.uniform_density(1)
    gx, gw = np.polynomial.legendre.leggauss(129)
    pts = (0.5 * (gx + 1)).reshape(-1, 1)
    logp = log_pushforward_density(fm, src, pts)
    mass = float(np.dot(0.5 * gw, np.exp(logp)))
    assert abs(mass - 1.0) < 1e-3


def test_liouville_against_fd_jacobian_2d():
    # change of variables with a finite-difference Jacobian of the inverse map
    net = random_net(dim=2, depth=2, width=8, seed=6)
    fm = FlowMap(net, dim=2, steps=64)
    src = dn.product_density([dn.linear_tilt(0.5, 1.0), dn.cosine_bump(0.3)])
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.05, 0.95, size=(100, 2))
    logp = log_pushforward_density(fm, src, pts)
    h = 1e-5
    for i, y in enumerate(pts):
        jac = np.empty((2, 2))
        for k in range(2):
            yp = y.copy()
            yp[k] += h
            ym = y.copy()
            ym[k] -= h
            jac[:, k] = (flow_inverse(fm, yp) - flow_inverse(fm, ym)) / (2 * h)
        z0 = flow_inverse(fm, y)
        fd_density = float(src.evaluate(z0[None, :])[0] * abs(np.linalg.det(jac)))
        assert abs(math.exp(logp[i]) - fd_density) < 1e-4


# ---------------------------------------------------------------------------
# gradients through the integrator
# ---------------------------------------------------------------------------


def test_log_density_gradient_matches_fd():
    # a step's four stages of 2 rows are recomputed in one call of 8 rows.
    # (Many rows would put one near a kink of sigma'', which central
    # differences of the divergence straddle.)
    assert_log_density_gradient_matches_fd()


def test_log_density_gradient_matches_fd_one_stage_per_call(monkeypatch):
    # 8 rows do not fit in a sweep block of 4, so each stage is recomputed
    # on its own
    monkeypatch.setattr(flow, "SWEEP_BLOCK_ROWS", 4)
    assert_log_density_gradient_matches_fd()


def assert_log_density_gradient_matches_fd():
    net = random_net(dim=1, depth=2, width=6, seed=7)
    fm = FlowMap(net, dim=1, steps=8)
    src = dn.uniform_density(1)
    y = np.array([[0.37], [0.81]])
    logp, grad = log_density_with_gradient(fm, src, y)

    h = 1e-5
    theta = net.theta.copy()
    fd = np.zeros_like(theta)
    for i in range(len(theta)):
        for sign in (1, -1):
            probe = MlpVectorField(net.arch, theta=theta)
            probe.theta[i] += sign * h
            fm_p = FlowMap(probe, dim=1, steps=8)
            fd[i] += sign * np.sum(log_pushforward_density(fm_p, src, y)) / (2 * h)
    denom = max(np.max(np.abs(fd)), 1e-10)
    assert np.max(np.abs(grad - fd)) / denom < 1e-5


@pytest.mark.parametrize("batch", [1, 2, 7, 64, 256, 257])
@pytest.mark.parametrize("dim", [1, 2, 3, 6])
def test_gradient_path_log_densities_are_bitwise_the_dense_ones(dim, batch):
    # the gradient path reads its preimages from value-only evaluations and
    # its divergences from the tangent caches of its reverse sweep, which
    # holds a step's four stages in one call of 4B rows at B <= 256; the
    # dense log-density reads both from one stacked evaluation per stage
    src = dn.product_density([dn.linear_tilt(0.5, 1.0)] * dim)
    y = np.random.default_rng(batch).uniform(0.05, 0.95, size=(batch, dim))
    for width in (16, 17, 20, 32):
        net = random_net(dim=dim, depth=2, width=width, seed=dim * batch)
        fm = FlowMap(net, dim=dim, steps=4)
        np.testing.assert_array_equal(log_density_with_gradient(fm, src, y)[0],
                                      log_pushforward_density(fm, src, y),
                                      err_msg=f"width {width}")


def test_gradient_batch_linearity():
    net = random_net(dim=1, depth=2, width=6, seed=8)
    fm = FlowMap(net, dim=1, steps=8)
    src = dn.uniform_density(1)
    ys = np.array([[0.3], [0.6], [0.85]])
    _, g_batch = log_density_with_gradient(fm, src, ys)
    g_sum = np.zeros_like(g_batch)
    for y in ys:
        g_sum += log_density_with_gradient(fm, src, np.atleast_2d(y))[1]
    np.testing.assert_allclose(g_batch, g_sum, rtol=1e-12, atol=1e-12)


def test_zero_theta_gradient_lives_on_divergence_path():
    # dead quadratic units: only the output bias feels the divergence term
    arch = hypothesis_architecture(1, 2, 6)
    net = MlpVectorField(arch, theta=np.zeros(arch.param_count))
    fm = FlowMap(net, dim=1, steps=4)
    src = dn.uniform_density(1)
    _, grad = log_density_with_gradient(fm, src, np.array([[0.4]]))
    out_bias = slice(len(grad) - 1, len(grad))
    assert np.any(grad[out_bias] != 0.0)
    rest = np.delete(grad, np.arange(len(grad))[out_bias])
    assert np.all(rest == 0.0)


def test_gradient_with_nonuniform_source():
    net = random_net(dim=2, depth=2, width=6, seed=9)
    fm = FlowMap(net, dim=2, steps=4)
    src = dn.product_density([dn.linear_tilt(0.5, 1.0), dn.cosine_bump(0.3)])
    y = np.array([[0.4, 0.6]])
    _, grad = log_density_with_gradient(fm, src, y)

    h = 1e-5
    theta = net.theta.copy()
    fd = np.zeros_like(theta)
    for i in range(0, len(theta), 7):  # probe a subset, full FD is slow
        for sign in (1, -1):
            probe = MlpVectorField(net.arch, theta=theta)
            probe.theta[i] += sign * h
            fd[i] += sign * float(
                log_pushforward_density(FlowMap(probe, dim=2, steps=4), src, y)[0]
            ) / (2 * h)
        assert abs(grad[i] - fd[i]) < 1e-6 * max(1.0, abs(fd[i]))
