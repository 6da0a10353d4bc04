"""Config-driven command line front end.

Subcommands:
  grid    build sparse grids for each level and export them as text files
  run     sample the synthetic target, train the flow, integrate at each
          level, and emit error reports (JSON lines) plus a CSV table
  calc    evaluate the closed-form calculators (constants | threshold | schedule)
  report  pretty-print a results file, optionally re-exporting the CSV

Experiment specs are JSON files with a fixed key tree; unknown keys are
hard errors so typos cannot silently change an experiment.  Every output
byte is determined by (spec, seed).
"""

import argparse
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import mpmath as mp
import numpy as np

from . import analysis as an
from . import quadrature as quad
from .densities import make_density_1d, product_density
from .errors import (
    ConfigurationError,
    FlowQuadError,
    IntegrationFailureError,
    TrainingFailureError,
)
from .flow import FlowMap
from .network import MlpVectorField, capacity_constants, save_checkpoint
from .training import TrainConfig, adaptive_architecture, sample_threshold, train_erm
from .transport import KrTransport

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIGURATION = 2
EXIT_TRAINING = 3
EXIT_INTEGRATION = 4

EVAL_FLOW_STEPS = 64

_DENSITY_KEYS = {"family", "params", "per_axis"}
_TRAINING_KEYS = {
    "sample_size", "batch_size", "max_epochs", "learning_rate", "lr_decay",
    "momentum", "optimizer", "hidden_depth", "width", "adaptive", "beta",
    "c_d", "integrator_steps", "holdout_fraction",
}
_TOP_KEYS = {"name", "dim", "seed", "source", "target", "qoi", "grid", "training", "outputs"}


@dataclass(frozen=True)
class ExperimentSpec:
    name: str
    dim: int
    seed: int
    source: dict
    target: dict
    qoi: dict
    grid: dict
    training: dict = field(default_factory=dict)
    outputs: dict = field(default_factory=dict)


def _reject_unknown(mapping, allowed, path):
    for key in mapping:
        if key not in allowed:
            raise ConfigurationError(
                f"unknown key '{path}.{key}'" if path else f"unknown key '{key}'",
                field=f"{path}.{key}" if path else key,
            )


def _require(mapping, key, path):
    if key not in mapping:
        where = f"{path}.{key}" if path else key
        raise ConfigurationError(f"missing required key '{where}'", field=where)
    return mapping[key]


def _check_density_spec(spec, dim, path):
    if not isinstance(spec, dict):
        raise ConfigurationError(f"'{path}' must be an object", field=path)
    _reject_unknown(spec, _DENSITY_KEYS, path)
    if "per_axis" in spec:
        axes = spec["per_axis"]
        if len(axes) != dim:
            raise ConfigurationError(
                f"'{path}.per_axis' needs {dim} entries, got {len(axes)}",
                field=f"{path}.per_axis",
            )
        for i, ax in enumerate(axes):
            _check_density_spec(ax, 1, f"{path}.per_axis[{i}]")
    else:
        _require(spec, "family", path)


def parse_spec(payload):
    """Validate a spec mapping (or JSON text) into an ExperimentSpec."""
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"spec is not valid JSON: {exc}", field="<root>")
    _reject_unknown(payload, _TOP_KEYS, "")
    name = _require(payload, "name", "")
    dim = _require(payload, "dim", "")
    if not isinstance(dim, int) or dim < 1:
        raise ConfigurationError("'dim' must be a positive integer", field="dim")
    seed = payload.get("seed", 0)
    source = _require(payload, "source", "")
    target = _require(payload, "target", "")
    qoi = _require(payload, "qoi", "")
    grid = _require(payload, "grid", "")
    _check_density_spec(source, dim, "source")
    _check_density_spec(target, dim, "target")
    if not isinstance(qoi, dict) or "family" not in qoi:
        raise ConfigurationError("'qoi' needs a 'family'", field="qoi.family")
    _reject_unknown(qoi, {"family", "params"}, "qoi")
    _reject_unknown(grid, {"levels"}, "grid")
    levels = _require(grid, "levels", "grid")
    if not levels or any((not isinstance(l, int)) or l < 0 for l in levels):
        raise ConfigurationError(
            "'grid.levels' must be a non-empty list of levels >= 0", field="grid.levels"
        )
    training = payload.get("training", {})
    _reject_unknown(training, _TRAINING_KEYS, "training")
    outputs = payload.get("outputs", {})
    _reject_unknown(outputs, {"dir"}, "outputs")
    return ExperimentSpec(
        name=name, dim=dim, seed=seed, source=dict(source), target=dict(target),
        qoi=dict(qoi), grid=dict(grid), training=dict(training), outputs=dict(outputs),
    )


def serialize_spec(spec):
    payload = {
        "name": spec.name,
        "dim": spec.dim,
        "seed": spec.seed,
        "source": spec.source,
        "target": spec.target,
        "qoi": spec.qoi,
        "grid": spec.grid,
        "training": spec.training,
        "outputs": spec.outputs,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def load_spec(path):
    try:
        with open(path) as fh:
            return parse_spec(fh.read())
    except OSError as exc:
        raise ConfigurationError(f"cannot read spec file: {exc}", field="<file>")


def _density_from_spec(spec, dim):
    if "per_axis" in spec:
        factors = [
            make_density_1d(ax["family"], ax.get("params")) for ax in spec["per_axis"]
        ]
    else:
        factors = [make_density_1d(spec["family"], spec.get("params")) for _ in range(dim)]
    return product_density(factors)


def _ensure_outdir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output directory not writable: {exc}", field="outputs.dir")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_grid(spec, out_dir, print_fn=print):
    out_dir = _ensure_outdir(out_dir)
    source = _density_from_spec(spec.source, spec.dim)
    weights = [f.pdf for f in source.factors]
    print_fn(f"{'level':>5} {'nodes':>8} {'asymptotic':>12} {'file'}")
    files = []
    for level in spec.grid["levels"]:
        grid = quad.smolyak(spec.dim, level, weights=weights)
        path = os.path.join(out_dir, f"grid_d{spec.dim}_l{level}.txt")
        quad.write_grid(grid, path)
        files.append(path)
        approx = quad.node_count_asymptotic(spec.dim, level)
        print_fn(f"{level:>5} {grid.node_count:>8} {approx:>12.4g} {path}")
    return files


def _train_config_from_spec(spec, seed):
    training = dict(spec.training)
    training.setdefault("sample_size", 1000)
    if "hidden_depth" not in training and not training.get("adaptive"):
        training.setdefault("adaptive", True)
    return TrainConfig(seed=seed, **training)


def cmd_run(spec, out_dir, seed=None, threads=1, print_fn=print):
    out_dir = _ensure_outdir(out_dir)
    seed = spec.seed if seed is None else seed
    rng = np.random.default_rng(seed)

    source = _density_from_spec(spec.source, spec.dim)
    target = _density_from_spec(spec.target, spec.dim)
    qoi = an.make_qoi(spec.qoi["family"], spec.dim, spec.qoi.get("params"))
    transport = KrTransport(source, target)

    config = _train_config_from_spec(spec, seed)
    samples = transport.kr_map_batch(rng.uniform(size=(config.sample_size, spec.dim)))

    result = train_erm(config, samples, source)
    net = MlpVectorField(result.architecture, theta=result.theta_hat)
    save_checkpoint(net, os.path.join(out_dir, f"{spec.name}_seed{seed}.ckpt"))
    fm = FlowMap(net, dim=spec.dim, steps=EVAL_FLOW_STEPS)

    reference = an.reference_expectation(target, qoi)
    learning_available = spec.dim <= 2
    if learning_available:
        tv, kl = an.tv_kl_estimate(target, fm, source)
    else:
        tv, kl = math.nan, math.nan

    weights = [f.pdf for f in source.factors]
    oracle = an.pullback_integral_oracle(fm, qoi, source)
    reports = []
    for level in spec.grid["levels"]:
        grid = quad.smolyak(spec.dim, level, weights=weights)
        estimate = an.integrate_via_flow(grid, fm, qoi, threads=threads)
        reports.append(
            an.ErrorReport(
                total_error=an.total_error(reference, estimate),
                quadrature_error=abs(oracle - estimate),
                learning_error_tv_bound=tv,
                kl_estimate=kl,
                reference_value=reference,
                estimate=estimate,
                dim=spec.dim,
                level=level,
                node_count=grid.node_count,
                sample_size=config.sample_size,
                seed=seed,
                metadata={
                    "experiment": spec.name,
                    "architecture": list(result.architecture.widths),
                    "train_nll": result.final_nll,
                    "holdout_gap": result.holdout_gap,
                    "learning_error_available": learning_available,
                },
            )
        )

    results_path = os.path.join(out_dir, "results.jsonl")
    # a rerun into the same directory replaces the results, like the CSV
    open(results_path, "w").close()
    an.append_reports(results_path, reports)
    an.write_convergence_csv(os.path.join(out_dir, "convergence.csv"), reports)
    print_fn(an.CSV_HEADER)
    for rep in reports:
        print_fn(rep.csv_row())
    return reports


def cmd_calc(kind, params, print_fn=print):
    if kind == "constants":
        got = capacity_constants(
            int(params["L"]), int(params["W"]), int(params["d"]),
            c_d=float(params.get("c_d", 1.0)), c_dkl=float(params.get("c_dkl", 1.0)),
        )
        print_fn(f"log Lip0        = {mp.nstr(got.log_lip0, 12)}")
        print_fn(f"log Lip1        = {mp.nstr(got.log_lip1, 12)}")
        print_fn(f"log C           = {mp.nstr(got.log_c, 12)}")
        print_fn(f"log Lbar bound  = {mp.nstr(got.log_lbar_bound, 12)}")
        print_fn(f"log D bound     = {mp.nstr(got.log_d_bound, 12)}")
        if got.degenerate:
            print_fn("note: depth 1 evaluates the inner constant at its degenerate value")
        return got
    if kind == "threshold":
        got = sample_threshold(
            float(params["epsilon"]), float(params["delta"]), float(params["beta"]),
            float(params.get("qoi_sup", 1.0)), c_const=float(params.get("c", 1.0)),
        )
        value = got.value if got.value is not None else "beyond integer range"
        print_fn(f"log10 n >= {got.log10:.6g}   (n >= {value})")
        return got
    if kind == "schedule":
        got = adaptive_architecture(
            int(float(params["n"])), float(params["beta"]),
            c_d=float(params.get("c_d", 1.0)), dim=int(params.get("d", 1)),
        )
        print_fn(f"width W      = {got.width}   (raw {got.raw_width:.6g})")
        print_fn(f"depth L      = {got.depth}   (raw {got.raw_depth:.6g})")
        print_fn(f"resolution K = {got.resolution}   (raw {got.raw_resolution:.6g})")
        if got.clamped:
            print_fn("note: clamped to the floor value 1 at this sample size")
        return got
    raise ConfigurationError(f"unknown calculator '{kind}'", field="calc.kind")


def cmd_report(results_path, csv_path=None, print_fn=print):
    reports = an.read_reports(results_path)
    print_fn(f"{'n':>8} {'level':>5} {'nodes':>7} {'total':>12} {'quad':>12} "
             f"{'tv':>10} {'kl':>10} {'seed':>6}")
    for rep in reports:
        print_fn(
            f"{rep.sample_size:>8} {rep.level:>5} {rep.node_count:>7} "
            f"{rep.total_error:>12.4e} {rep.quadrature_error:>12.4e} "
            f"{rep.learning_error_tv_bound:>10.4f} {rep.kl_estimate:>10.5f} "
            f"{rep.seed:>6}"
        )
    if csv_path:
        an.write_convergence_csv(csv_path, reports)
    return reports


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _parse_levels(text):
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def _parse_kv(pairs):
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ConfigurationError(f"expected key=value, got '{pair}'", field=pair)
        k, v = pair.split("=", 1)
        out[k] = v
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="flowquad",
        description="sparse grid integration of learned transport flows",
    )
    default_threads = int(os.environ.get("FLOWQUAD_THREADS", "1"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_grid = sub.add_parser("grid", help="build and export sparse grids")
    p_grid.add_argument("--spec", required=True)
    p_grid.add_argument("--out", default="out")
    p_grid.add_argument("--levels", help="override spec levels, e.g. 0..4 or 1,3,5")

    p_run = sub.add_parser("run", help="train and integrate an experiment")
    p_run.add_argument("--spec", required=True)
    p_run.add_argument("--out", default="out")
    p_run.add_argument("--seed", type=int)
    p_run.add_argument("--levels")
    p_run.add_argument("--threads", type=int, default=default_threads)

    p_calc = sub.add_parser("calc", help="closed-form calculators")
    p_calc.add_argument("kind", choices=["constants", "threshold", "schedule"])
    p_calc.add_argument("params", nargs="*", help="key=value pairs")

    p_rep = sub.add_parser("report", help="render a results file")
    p_rep.add_argument("--results", required=True)
    p_rep.add_argument("--csv")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "grid":
            spec = load_spec(args.spec)
            if args.levels:
                spec = dataclasses.replace(
                    spec, grid={"levels": _parse_levels(args.levels)}
                )
            cmd_grid(spec, args.out)
        elif args.command == "run":
            spec = load_spec(args.spec)
            if args.levels:
                spec = dataclasses.replace(
                    spec, grid={"levels": _parse_levels(args.levels)}
                )
            cmd_run(spec, args.out, seed=args.seed, threads=args.threads)
        elif args.command == "calc":
            cmd_calc(args.kind, _parse_kv(args.params))
        elif args.command == "report":
            cmd_report(args.results, csv_path=args.csv)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIGURATION
    except TrainingFailureError as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return EXIT_TRAINING
    except IntegrationFailureError as exc:
        print(f"integration failure: {exc}", file=sys.stderr)
        return EXIT_INTEGRATION
    except FlowQuadError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
