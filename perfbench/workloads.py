"""The benchmark's three workloads and the checks on every request.

Each workload is a closed loop with one client: the next request starts
when the previous one has finished.  The inputs of request i come from
the workload seed and i alone; flowquad receives only the generated spec
(train1d, run2d) or field (integrate6d).

  train1d      cmd_run on the acceptance-sweep configuration.  Training is
               about 96% of a request: the adjoint and vjp path, with
               almost no integration work.
  run2d        cmd_run at d=2.  Every stage works: training with tangent
               kernels at d=2, TV and KL on a 65^2 grid, the 129^2 dense
               oracle, Newton-bisect sampling of the cosine-bump axis.
  integrate6d  no training: a fresh masked field at d=6 per request,
               source-weighted Smolyak grids at levels 2-5 and three QoIs
               integrated through the flow.  Grid building and the
               value-only network and flow forward do all the work.

The tolerances below were fixed from runs of the seed commit; see the
comment on each.
"""

import hashlib
import math
import os
import shutil

import numpy as np

WORKLOAD_NAMES = ("train1d", "run2d", "integrate6d")

# Largest top-level total error a trained request may report.  Measured at
# the seed commit over 12 training seeds: at most 0.0075 (train1d) and
# 0.0073 (run2d).  Smoke mode trains too little for it and skips it.
TOTAL_ERROR_TOL = {"train1d": 0.03, "run2d": 0.03}

# |estimate at level 5 - estimate at level 4| on integrate6d.  Measured at
# the seed commit over 40 fields: at most 1.2e-6 (cos_product), 2.8e-7
# (product) and 4.5e-5 (abs_product).
AGREE_TOL_6D = {"cos_product": 1e-5, "product": 2e-6, "abs_product": 2e-4}

# |sum of weights - 1| of a source-weighted grid; at most 2.6e-13 at the seed commit
WEIGHT_SUM_TOL = 1e-10

_TRAIN1D = {
    "name": "train1d",
    "dim": 1,
    "source": {"family": "uniform"},
    "target": {"family": "linear_tilt", "params": {"a": 0, "b": 2}},
    "qoi": {"family": "coordinate"},
    "grid": {"levels": [2, 4, 6]},
    "training": {
        "sample_size": 2000, "hidden_depth": 2, "width": 16, "integrator_steps": 8,
        "max_epochs": 20, "optimizer": "adam", "batch_size": 256,
    },
}

_RUN2D = {
    "name": "run2d",
    "dim": 2,
    "source": {"family": "uniform"},
    "target": {"per_axis": [
        {"family": "linear_tilt", "params": {"a": 0, "b": 2}},
        {"family": "cosine_bump", "params": {"amp": 0.5}},
    ]},
    "qoi": {"family": "cos_product"},
    "grid": {"levels": [2, 4, 6]},
    "training": {
        "sample_size": 2000, "hidden_depth": 2, "width": 16, "integrator_steps": 16,
        "max_epochs": 10, "optimizer": "adam",
    },
}

# smoke mode: one small request per workload, enough to exercise every
# wrapper and print every metric
_SMOKE_TRAINING = {"sample_size": 400, "max_epochs": 2, "integrator_steps": 4}
_SMOKE_LEVELS = [2, 4]

LEVELS_6D = (2, 3, 4, 5)
QOIS_6D = ("cos_product", "product", "abs_product")
FLOW_STEPS_6D = 64  # the flow steps cmd_run integrates with
SMOKE_FLOW_STEPS_6D = 8


def request_seed(seed, index):
    """The seed of request `index` of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def _quiet(*args, **kwargs):
    pass


def _digest(*chunks):
    h = hashlib.sha256()
    for chunk in chunks:
        h.update(len(chunk).to_bytes(8, "little"))
        h.update(chunk)
    return h.hexdigest()


def _density(part, dim):
    from flowquad.densities import make_density_1d, product_density

    axes = part["per_axis"] if "per_axis" in part else [part] * dim
    return product_density([make_density_1d(a["family"], a.get("params")) for a in axes])


class CmdRunWorkload:
    """`cli.cmd_run` on one spec; the training seed changes per request."""

    def __init__(self, payload, seed, out_dir, smoke):
        from flowquad import analysis, cli
        from flowquad.transport import KrTransport

        payload = dict(payload, seed=seed)
        if smoke:
            payload["training"] = dict(payload["training"], **_SMOKE_TRAINING)
            payload["grid"] = {"levels": _SMOKE_LEVELS}
        self.cli, self.an = cli, analysis
        self.error_tol = None if smoke else TOTAL_ERROR_TOL[payload["name"]]
        self.seed = seed
        self.out_dir = out_dir
        self.spec = cli.parse_spec(payload)
        # what cmd_run builds before training; the checks need the QoI
        source = _density(self.spec.source, self.spec.dim)
        target = _density(self.spec.target, self.spec.dim)
        KrTransport(source, target)
        self.qoi = analysis.make_qoi(
            self.spec.qoi["family"], self.spec.dim, self.spec.qoi.get("params"))

    def request(self, index):
        # a fresh directory per request: cmd_run appends to an existing
        # results.jsonl
        out = os.path.join(self.out_dir, f"request-{index}")
        reports = self.cli.cmd_run(
            self.spec, out, seed=request_seed(self.seed, index), threads=1,
            print_fn=_quiet)
        return reports, out

    def check(self, result):
        """Failed checks of one request's outputs, as messages."""
        reports, out = result
        failures = []
        with open(os.path.join(out, "results.jsonl")) as fh:
            lines = [line for line in fh if line.strip()]
        levels = self.spec.grid["levels"]
        if len(lines) != len(levels) or len(reports) != len(levels):
            failures.append(f"{len(lines)} result lines for {len(levels)} levels")
        for rep in reports:
            values = [rep.total_error, rep.quadrature_error, rep.learning_error_tv_bound,
                      rep.kl_estimate, rep.reference_value, rep.estimate,
                      rep.metadata["train_nll"], rep.metadata["holdout_gap"]]
            if not all(math.isfinite(v) for v in values):
                failures.append(f"level {rep.level}: non-finite report value")
                continue
            if not self.an.decomposition_check(rep.total_error, self.qoi.sup_norm,
                                               rep.learning_error_tv_bound,
                                               rep.quadrature_error):
                failures.append(f"level {rep.level}: decomposition check fails")
            if not self.an.pinsker_check(rep.learning_error_tv_bound, rep.kl_estimate):
                failures.append(f"level {rep.level}: Pinsker check fails")
        top = max(reports, key=lambda r: r.level, default=None)
        if self.error_tol is not None and top is not None \
                and not top.total_error <= self.error_tol:
            failures.append(f"top-level total error {top.total_error:.3g} above "
                            f"{self.error_tol}")
        return failures

    def digest(self, result):
        _, out = result
        chunks = []
        for name in ("results.jsonl", "convergence.csv"):
            with open(os.path.join(out, name), "rb") as fh:
                chunks.append(fh.read())
        return _digest(*chunks)

    def discard(self, result):
        shutil.rmtree(result[1], ignore_errors=True)


class Integrate6dWorkload:
    """Sparse-grid integration through a fresh d=6 field per request."""

    def __init__(self, seed, smoke):
        from flowquad import analysis, quadrature
        from flowquad.densities import uniform_density
        from flowquad.flow import FlowMap
        from flowquad.network import MlpVectorField, hypothesis_architecture

        self.an, self.quad = analysis, quadrature
        self.FlowMap, self.MlpVectorField = FlowMap, MlpVectorField
        self.seed = seed
        self.steps = SMOKE_FLOW_STEPS_6D if smoke else FLOW_STEPS_6D
        self.dim = 6
        source = uniform_density(self.dim)
        self.weights = [f.pdf for f in source.factors]
        self.arch = hypothesis_architecture(self.dim, 2, 16)
        self.qois = [analysis.make_qoi(name, self.dim) for name in QOIS_6D]

    def request(self, index):
        rng = np.random.default_rng(request_seed(self.seed, index))
        # the spread of the network's own initialisation, 1/sqrt(width)
        radius = 1.0 / math.sqrt(self.arch.width)
        net = self.MlpVectorField(
            self.arch, theta=rng.uniform(-radius, radius, self.arch.param_count))
        net.project_theta()
        fm = self.FlowMap(net, dim=self.dim, steps=self.steps)
        grids = [self.quad.smolyak(self.dim, level, weights=self.weights)
                 for level in LEVELS_6D]
        estimates = [[self.an.integrate_via_flow(grid, fm, qoi, threads=1)
                      for qoi in self.qois] for grid in grids]
        return grids, estimates

    def check(self, result):
        grids, estimates = result
        failures = []
        for grid, row in zip(grids, estimates):
            weight_sum = float(np.sum(grid.weights))
            if not abs(weight_sum - 1.0) <= WEIGHT_SUM_TOL:
                failures.append(f"level {grid.level}: weight sum {weight_sum!r}")
            bound_scale = float(np.sum(np.abs(grid.weights)))
            for qoi, est in zip(self.qois, row):
                if not abs(est) <= qoi.sup_norm * bound_scale * (1 + 1e-12):
                    failures.append(f"level {grid.level} {qoi.name}: estimate {est!r} "
                                    "non-finite or above sup_norm * sum|w|")
        for qoi, hi, lo in zip(self.qois, estimates[-1], estimates[-2]):
            if not abs(hi - lo) <= AGREE_TOL_6D[qoi.name]:
                failures.append(f"{qoi.name}: levels {LEVELS_6D[-1]} and {LEVELS_6D[-2]} "
                                f"differ by {abs(hi - lo):.3g}")
        return failures

    def digest(self, result):
        return _digest(np.asarray(result[1], dtype=np.float64).tobytes())

    def discard(self, result):
        pass


def make_workload(name, seed, out_dir, smoke):
    """Build a workload: the set-up part of a run."""
    if name == "train1d":
        return CmdRunWorkload(_TRAIN1D, seed, out_dir, smoke)
    if name == "run2d":
        return CmdRunWorkload(_RUN2D, seed, out_dir, smoke)
    if name == "integrate6d":
        return Integrate6dWorkload(seed, smoke)
    raise ValueError(f"unknown workload {name!r}")
