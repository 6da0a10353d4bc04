"""Config-driven command line front end.

Subcommands:
  grid    build sparse grids for each level and export them as text files
  run     sample the synthetic target, train the flow, integrate at each
          level, and emit error reports (JSON lines) plus a CSV table
  calc    evaluate the closed-form calculators (constants | threshold | schedule)
  report  pretty-print a results file, optionally re-exporting the CSV

Experiment specs are JSON files checked against one key table, _SCHEMA;
unknown keys, and family parameters that a family's constructor does not
take, are hard errors so typos cannot silently change an experiment.
Every output byte is determined by (spec, seed).
"""

import argparse
import contextlib
import dataclasses
import json
import math
import os
import sys
from dataclasses import dataclass, field

import numpy as np

from . import analysis as an
from . import quadrature as quad
from .densities import make_density_1d, product_density
from .errors import (
    ConfigurationError,
    DomainError,
    FlowQuadError,
    IntegrationFailureError,
    InvalidArgumentError,
    InvalidWeightError,
    NumericalOverflowError,
    TrainingFailureError,
)
from .flow import FlowMap
from .network import MlpVectorField, capacity_constants, save_checkpoint
from .training import (CONFIG_BOUNDS, TrainConfig, adaptive_architecture, sample_threshold,
                       train_erm)
from .transport import KrTransport

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIGURATION = 2
EXIT_TRAINING = 3
EXIT_INTEGRATION = 4

# every spec key path -> (JSON type, (low, high) bounds or None, required).
# A '*' segment matches any key and '[]' any list entry; float means a
# finite number, and bounds mean low <= value < high (high None: no cap).
_SCHEMA = {
    "": (dict, None, False),
    "name": (str, None, True),
    "dim": (int, (1, None), True),
    "seed": (int, (0, None), False),
    "qoi": (dict, None, True),
    "qoi.family": (str, None, True),
    "qoi.params": (dict, None, False),
    "qoi.params.*": (float, None, False),
    "grid": (dict, None, True),
    "grid.levels": (list, None, True),
    "grid.levels[]": (int, (0, None), False),
    "training": (dict, None, False),
}
for _part in ("source", "target"):
    _SCHEMA[f"{_part}.per_axis"] = (list, None, False)
    for _axis, _required in ((_part, True), (f"{_part}.per_axis[]", False)):
        _SCHEMA[_axis] = (dict, None, _required)
        # the family is required unless per_axis is given; parse_spec checks it
        _SCHEMA[f"{_axis}.family"] = (str, None, False)
        _SCHEMA[f"{_axis}.params"] = (dict, None, False)
        _SCHEMA[f"{_axis}.params.*"] = (float, None, False)
# the training keys are TrainConfig's fields, typed by their annotations and
# bounded by its table; width is checked against the dimension and the rest
# by TrainConfig
_SCHEMA.update(
    (f"training.{f.name}", (f.type, CONFIG_BOUNDS.get(f.name), False))
    for f in dataclasses.fields(TrainConfig) if f.name != "seed"
)
_TYPE_NAMES = {int: "an integer", float: "a finite number", bool: "true or false",
               str: "a string", dict: "an object", list: "a list"}


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


def _has_type(value, kind):
    # JSON true/false are Python bools, which are also ints
    if kind is int:
        return isinstance(value, int) and not isinstance(value, bool)
    if kind is float:
        return (isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value))
    return isinstance(value, kind)


def _walk(value, where, row):
    """Check `value`, found at key path `where`, against the schema row
    `row`, then everything below it: types, bounds, unknown and missing keys."""
    kind, bounds, _ = _SCHEMA[row]
    if not _has_type(value, kind):
        raise ConfigurationError(
            f"'{where}' must be {_TYPE_NAMES[kind]}, got {value!r}", field=where
        )
    if bounds is not None:
        low, high = bounds
        if value < low or (high is not None and value >= high):
            span = f"be >= {low}" if high is None else f"lie in [{low}, {high})"
            raise ConfigurationError(f"'{where}' must {span}, got {value}", field=where)
    if kind is list:
        for i, item in enumerate(value):
            _walk(item, f"{where}[{i}]", f"{row}[]")
    if kind is not dict:
        return
    prefix = f"{row}." if row else ""
    for key, item in value.items():
        path = f"{where}.{key}" if row else key
        child = f"{prefix}{key}"
        if not (isinstance(key, str) and key.isidentifier() and child in _SCHEMA):
            child = f"{prefix}*"
        if child not in _SCHEMA:
            raise ConfigurationError(f"unknown key '{path}'", field=path)
        _walk(item, path, child)
    for child, (_, _, required) in _SCHEMA.items():
        parent, _, key = child.rpartition(".")
        if required and parent == row and key not in value:
            path = f"{where}.{key}" if row else key
            raise ConfigurationError(f"missing required key '{path}'", field=path)


def _built(where, make, *args):
    """make(*args), its InvalidArgumentError reported against `where`."""
    try:
        return make(*args)
    except InvalidArgumentError as exc:
        raise ConfigurationError(f"'{where}': {exc}", field=where) from None


def parse_spec(payload):
    """Validate a spec mapping (or JSON text) into an ExperimentSpec.

    Every value is type- and range-checked here, before any work starts.
    """
    if isinstance(payload, str):
        try:
            payload = json.loads(payload)
        except (json.JSONDecodeError, RecursionError) as exc:  # not JSON, or nested too deep
            raise ConfigurationError(f"spec is not valid JSON: {exc}", field="<root>")
    _walk(payload, "<root>", "")
    name, dim, seed = payload["name"], payload["dim"], payload.get("seed", 0)
    # the name becomes part of the checkpoint file name inside the output
    # directory, so it must be one plain path component
    if name in ("", ".", "..") or any(c in name for c in "/\\\0"):
        raise ConfigurationError(f"'name' must be a plain file name without path "
                                 f"separators, got {name!r}", field="name")
    if not payload["grid"]["levels"]:
        raise ConfigurationError("'grid.levels' must be a non-empty list", field="grid.levels")
    for part in ("source", "target"):
        spec = payload[part]
        if "per_axis" in spec and (len(spec["per_axis"]) != dim or len(spec) > 1):
            raise ConfigurationError(f"'{part}.per_axis' needs {dim} entries and nothing "
                                     f"beside it", field=f"{part}.per_axis")
        for i, ax in enumerate(spec.get("per_axis", [spec])):
            where = f"{part}.per_axis[{i}]" if "per_axis" in spec else part
            if "family" not in ax:
                raise ConfigurationError(f"missing required key '{where}.family'",
                                         field=f"{where}.family")
            _built(where, make_density_1d, ax["family"], ax.get("params"))
    _built("qoi", an.make_qoi, payload["qoi"]["family"], dim, payload["qoi"].get("params"))
    training = payload.get("training", {})
    if training.get("width", dim + 1) < dim + 1:
        raise ConfigurationError(
            f"'training.width' must be >= {dim + 1}, got {training['width']}",
            field="training.width",
        )
    _built("training", _train_config, training, seed)
    return ExperimentSpec(
        name=name, dim=dim, seed=seed, source=dict(payload["source"]),
        target=dict(payload["target"]), qoi=dict(payload["qoi"]),
        grid=dict(payload["grid"]), training=dict(training),
    )


def load_spec(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot read spec file: {exc}", field="<file>")
    return parse_spec(text)


def _density_from_spec(spec, dim):
    axes = spec["per_axis"] if "per_axis" in spec else [spec] * dim
    return product_density([make_density_1d(a["family"], a.get("params")) for a in axes])


@contextlib.contextmanager
def _replaced_on_success(path):
    """Yield a fresh temporary path beside `path`; when the block succeeds
    the temporary file replaces `path` in one rename, otherwise it is
    removed and `path` keeps its previous bytes."""
    tmp = os.path.join(
        os.path.dirname(path), f".{os.path.basename(path)}.{os.urandom(8).hex()}.tmp"
    )
    # exclusive creation: the file is new and empty, with the mode open() gives
    os.close(os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666))
    try:
        yield tmp
        os.replace(tmp, path)
    finally:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)


def _ensure_outdir(path):
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigurationError(f"output directory not writable: {exc}", field="--out")
    return path


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _grids(spec, source):
    """The spec's grids, weighted by the source density.  Every level's
    size is checked before any grid is built, and a grid too large to
    build is a configuration error."""
    for level in spec.grid["levels"]:
        _built("grid.levels", quad.tensor_rows, spec.dim, level)
    weights = [f.pdf for f in source.factors]
    return [quad.smolyak(spec.dim, level, weights=weights) for level in spec.grid["levels"]]


def cmd_grid(spec, out_dir, print_fn=print):
    # before any output, so a source density no rule can take leaves none
    grids = _grids(spec, _density_from_spec(spec.source, spec.dim))
    out_dir = _ensure_outdir(out_dir)
    print_fn(f"{'level':>5} {'nodes':>8} {'asymptotic':>12} {'file'}")
    files = []
    for level, grid in zip(spec.grid["levels"], grids):
        path = os.path.join(out_dir, f"grid_d{spec.dim}_l{level}.txt")
        with _replaced_on_success(path) as tmp:
            quad.write_grid(grid, tmp)
        files.append(path)
        approx = quad.node_count_asymptotic(spec.dim, level)
        print_fn(f"{level:>5} {grid.node_count:>8} {approx:>12.4g} {path}")
    return files


def _train_config(training, seed):
    training = dict(training)
    training.setdefault("sample_size", 1000)
    if "hidden_depth" not in training and "width" not in training:
        training.setdefault("adaptive", True)
    return TrainConfig(seed=seed, **training)


def cmd_run(spec, out_dir, seed=None, threads=1, print_fn=print):
    """Train and integrate one experiment.  `threads` accepts only 1, so
    callers that pass it keep working."""
    if threads != 1:
        raise InvalidArgumentError(f"threads must be 1, got {threads!r}")
    if spec.dim > an.DENSE_MAX_DIM:  # for the dense pullback oracle; before any work
        raise ConfigurationError(f"'dim': dense oracle grid is limited to dim <= "
                                 f"{an.DENSE_MAX_DIM}", field="dim")
    source = _density_from_spec(spec.source, spec.dim)
    target = _density_from_spec(spec.target, spec.dim)
    qoi = an.make_qoi(spec.qoi["family"], spec.dim, spec.qoi.get("params"))
    reference = an.reference_expectation(target, qoi)
    # before any output or training, so a source density no rule can take fails first
    grids = _grids(spec, source)
    out_dir = _ensure_outdir(out_dir)
    seed = spec.seed if seed is None else seed
    rng = np.random.default_rng(seed)
    transport = KrTransport(source, target)

    config = _train_config(spec.training, seed)
    samples = transport.kr_map_batch(rng.uniform(size=(config.sample_size, spec.dim)))

    result = train_erm(config, samples, source)
    net = MlpVectorField(result.architecture, theta=result.theta_hat)
    fm = FlowMap(net, dim=spec.dim, steps=config.integrator_steps)
    with _replaced_on_success(os.path.join(out_dir, f"{spec.name}_seed{seed}.ckpt")) as tmp:
        save_checkpoint(fm, tmp)

    learning_available = spec.dim <= 2
    try:
        tv, kl = an.tv_kl_estimate(target, fm, source) if learning_available else (math.nan,) * 2
        oracle = an.pullback_integral_oracle(fm, qoi, source)
        estimates = [an.integrate_via_flow(grid, fm, qoi) for grid in grids]
    except (NumericalOverflowError, DomainError) as exc:  # the trained flow fails numerically
        raise IntegrationFailureError(f"trained flow: {exc}") from None
    reports = []
    for level, grid, estimate in zip(spec.grid["levels"], grids, estimates):
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

    # a rerun into the same directory replaces the results, like the CSV
    with _replaced_on_success(os.path.join(out_dir, "results.jsonl")) as tmp:
        an.append_reports(tmp, reports)
    with _replaced_on_success(os.path.join(out_dir, "convergence.csv")) as tmp:
        an.write_convergence_csv(tmp, reports)
    print_fn(an.CSV_HEADER)
    for rep in reports:
        print_fn(rep.csv_row())
    return reports


# calculator parameters: name -> default (None: required)
_CALC_PARAMS = {
    "constants": {"L": None, "W": None, "d": None, "c_d": 1.0, "c_dkl": 1.0},
    "threshold": {"epsilon": None, "delta": None, "beta": None, "qoi_sup": 1.0, "c": 1.0},
    "schedule": {"n": None, "beta": None, "c_d": 1.0, "d": 1},
}


def _calc_values(kind, params):
    """Calculator parameters as finite floats, defaults filled in."""
    if kind not in _CALC_PARAMS:
        raise ConfigurationError(f"unknown calculator '{kind}'", field="calc.kind")
    for key in params:
        if key not in _CALC_PARAMS[kind]:
            raise ConfigurationError(f"unknown key 'calc.{kind}.{key}'", field=f"calc.{kind}.{key}")
    values = {}
    for key, default in _CALC_PARAMS[kind].items():
        if key not in params:
            if default is None:
                raise ConfigurationError(f"calc {kind} needs {key}=<value>", field=key)
            values[key] = default
            continue
        try:
            values[key] = float(params[key])
        except ValueError:
            values[key] = math.nan
        if not math.isfinite(values[key]):
            raise ConfigurationError(
                f"'{key}' must be a finite number, got {params[key]!r}", field=key
            )
    return values


def _whole(values, key):
    if values[key] != int(values[key]):
        raise ConfigurationError(f"'{key}' must be an integer, got {values[key]}", field=key)
    return int(values[key])


def cmd_calc(kind, params, print_fn=print):
    v = _calc_values(kind, params)
    try:
        if kind == "constants":
            import mpmath as mp

            got = capacity_constants(
                _whole(v, "L"), _whole(v, "W"), _whole(v, "d"), c_d=v["c_d"], c_dkl=v["c_dkl"]
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
                v["epsilon"], v["delta"], v["beta"], v["qoi_sup"], c_const=v["c"]
            )
            value = got.value if got.value is not None else "beyond integer range"
            print_fn(f"log10 n >= {got.log10:.6g}   (n >= {value})")
            return got
        got = adaptive_architecture(_whole(v, "n"), v["beta"], c_d=v["c_d"], dim=_whole(v, "d"))
    except InvalidArgumentError as exc:
        raise ConfigurationError(f"calc {kind}: {exc}", field=f"calc.{kind}") from None
    print_fn(f"width W      = {got.width}   (raw {got.raw_width:.6g})")
    print_fn(f"depth L      = {got.depth}   (raw {got.raw_depth:.6g})")
    print_fn(f"resolution K = {got.resolution}   (raw {got.raw_resolution:.6g})")
    if got.clamped:
        print_fn("note: clamped to the floor value 1 at this sample size")
    return got


def _cell(value, width, spec):
    """A right-aligned table cell; a value that was not measured (NaN) shows as n/a."""
    return "n/a".rjust(width) if math.isnan(value) else format(value, f">{width}{spec}")


def cmd_report(results_path, csv_path=None, print_fn=print):
    try:
        reports = an.read_reports(results_path)
        rows = [
            f"{rep.sample_size:>8} {rep.level:>5} {rep.node_count:>7} "
            f"{_cell(rep.total_error, 12, '.4e')} {_cell(rep.quadrature_error, 12, '.4e')} "
            f"{_cell(rep.learning_error_tv_bound, 10, '.4f')} "
            f"{_cell(rep.kl_estimate, 10, '.5f')} {rep.seed:>6}"
            for rep in reports
        ]
    # unreadable, not JSON or nested too deep, wrong keys or types
    except (OSError, ValueError, RecursionError, TypeError) as exc:
        raise ConfigurationError(f"cannot read results file: {exc}", field="--results")
    print_fn(f"{'n':>8} {'level':>5} {'nodes':>7} {'total':>12} {'quad':>12} "
             f"{'tv':>10} {'kl':>10} {'seed':>6}")
    for row in rows:
        print_fn(row)
    if csv_path:
        with _replaced_on_success(csv_path) as tmp:
            an.write_convergence_csv(tmp, reports)
    return reports


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _parse_levels(text):
    try:
        if ".." in text:
            lo, hi = (int(v) for v in text.split(".."))
            # a level's grid is smallest at dim 1, so a range reaching past
            # every grid that can be built is refused before it is listed
            _built("--levels", quad.tensor_rows, 1, hi)
            levels = list(range(lo, hi + 1))
        else:
            levels = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigurationError(f"cannot parse --levels {text!r}", field="--levels") from None
    if not levels or min(levels) < 0:
        raise ConfigurationError(
            f"--levels {text!r} must name at least one level >= 0", field="--levels"
        )
    return levels


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
        if args.command in ("grid", "run"):
            spec = load_spec(args.spec)
            if args.levels:
                spec = dataclasses.replace(spec, grid={"levels": _parse_levels(args.levels)})
        if args.command == "grid":
            cmd_grid(spec, args.out)
        elif args.command == "run":
            if args.seed is not None:
                _walk(args.seed, "--seed", "seed")
            cmd_run(spec, args.out, seed=args.seed)
        elif args.command == "calc":
            cmd_calc(args.kind, _parse_kv(args.params))
        elif args.command == "report":
            cmd_report(args.results, csv_path=args.csv)
    # grid and run weight their rules with the spec's source density only
    except (ConfigurationError, InvalidWeightError) as exc:
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
