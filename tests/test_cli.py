import contextlib
import dataclasses
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import flowquad
from flowquad import cli
from flowquad.errors import (ConfigurationError, DomainError, InvalidArgumentError,
                             NumericalOverflowError)
from flowquad.network import load_checkpoint
from flowquad.quadrature import cc_nodes, cc_weights, growth, read_grid, smolyak


def spec_payload(**overrides):
    payload = {
        "name": "tilt1d",
        "dim": 1,
        "seed": 7,
        "source": {"family": "uniform"},
        "target": {"family": "linear_tilt", "params": {"a": 0.0, "b": 2.0}},
        "qoi": {"family": "coordinate"},
        "grid": {"levels": [2, 4]},
        "training": {
            "sample_size": 96,
            "batch_size": 48,
            "max_epochs": 2,
            "hidden_depth": 2,
            "width": 8,
            "integrator_steps": 8,
        },
    }
    payload.update(overrides)
    return payload


def write_spec(tmp_path, payload):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# spec parsing
# ---------------------------------------------------------------------------


def test_spec_round_trip():
    spec = cli.parse_spec(spec_payload())
    again = cli.parse_spec(json.dumps(dataclasses.asdict(spec)))
    assert again == spec


def test_unknown_key_rejected():
    with pytest.raises(ConfigurationError) as err:
        cli.parse_spec(spec_payload(typo_key=1))
    assert "typo_key" in str(err.value)


def test_nested_unknown_key_rejected():
    bad = spec_payload()
    bad["training"]["nonsense"] = True
    with pytest.raises(ConfigurationError) as err:
        cli.parse_spec(bad)
    assert err.value.field == "training.nonsense"


def test_missing_dim_reported():
    payload = spec_payload()
    del payload["dim"]
    with pytest.raises(ConfigurationError) as err:
        cli.parse_spec(payload)
    assert err.value.field == "dim"


def test_empty_levels_rejected():
    with pytest.raises(ConfigurationError):
        cli.parse_spec(spec_payload(grid={"levels": []}))


def test_per_axis_density_length_checked():
    bad = spec_payload(
        dim=2,
        source={"per_axis": [{"family": "uniform"}]},
        target={"family": "uniform"},
    )
    with pytest.raises(ConfigurationError):
        cli.parse_spec(bad)


# ---------------------------------------------------------------------------
# grid command
# ---------------------------------------------------------------------------


def test_cmd_grid_writes_files(tmp_path):
    spec = cli.parse_spec(spec_payload())
    lines = []
    files = cli.cmd_grid(spec, str(tmp_path / "out"), print_fn=lines.append)
    assert len(files) == 2
    back = read_grid(files[0])
    m = growth(2 + 1)
    np.testing.assert_array_equal(back.nodes.ravel(), cc_nodes(m, (0.0, 1.0)))
    np.testing.assert_allclose(back.weights, cc_weights(m, (0.0, 1.0)), atol=1e-15)
    assert any("asymptotic" in line for line in lines)


def test_cli_grid_exit_codes(tmp_path):
    spec_file = write_spec(tmp_path, spec_payload())
    assert cli.main(["grid", "--spec", spec_file, "--out", str(tmp_path / "g")]) == 0
    bad_file = write_spec(tmp_path, spec_payload(grid={"levels": []}))
    assert cli.main(["grid", "--spec", bad_file, "--out", str(tmp_path / "g")]) == 2


def test_grid_with_an_unresolved_source_writes_nothing(tmp_path, capsys):
    # no Chebyshev interpolant of degree <= 4,096 resolves this source as a
    # rule weight: every grid is built before the directory or the table
    source = {"family": "cosine_bump", "params": {"amp": 0.5, "freq": 5000}}
    spec_file = write_spec(tmp_path, spec_payload(source=source))
    assert cli.main(["grid", "--spec", spec_file, "--out", str(tmp_path / "g")]) == 2
    assert not (tmp_path / "g").exists()
    out = capsys.readouterr().out
    assert "asymptotic" not in out and out == ""


@pytest.mark.parametrize("dim", [1500, 6000])
def test_grid_at_large_dim_level_0_is_the_center(tmp_path, capsys, dim):
    # one composition of `dim` parts: deeper than Python's recursion limit,
    # and more axes than a numpy array may have; building the densities
    # must stay linear in dim
    spec_file = write_spec(tmp_path, spec_payload(dim=dim, grid={"levels": [0]}, training={}))
    assert cli.main(["grid", "--spec", spec_file, "--out", str(tmp_path / "g")]) == 0
    assert "Traceback" not in capsys.readouterr().err
    grid = read_grid(str(tmp_path / "g" / f"grid_d{dim}_l0.txt"))
    np.testing.assert_array_equal(grid.nodes, np.full((1, dim), 0.5))
    np.testing.assert_allclose(grid.weights, [1.0], rtol=1e-9)


# ---------------------------------------------------------------------------
# run command
# ---------------------------------------------------------------------------


def test_cmd_run_deterministic(tmp_path):
    spec = cli.parse_spec(spec_payload())
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    sink = lambda *_: None
    cli.cmd_run(spec, str(out1), print_fn=sink)
    cli.cmd_run(spec, str(out2), print_fn=sink)
    for name in ("convergence.csv", "results.jsonl"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_cmd_run_rerun_into_same_directory_overwrites(tmp_path):
    spec = cli.parse_spec(spec_payload())
    once, twice = tmp_path / "once", tmp_path / "twice"
    sink = lambda *_: None
    cli.cmd_run(spec, str(once), print_fn=sink)
    cli.cmd_run(spec, str(twice), print_fn=sink)
    cli.cmd_run(spec, str(twice), print_fn=sink)
    assert sorted(os.listdir(once)) == sorted(os.listdir(twice))
    for name in os.listdir(once):
        assert (once / name).read_bytes() == (twice / name).read_bytes(), name


def test_cmd_run_reports_have_expected_shape(tmp_path):
    spec = cli.parse_spec(spec_payload())
    reports = cli.cmd_run(spec, str(tmp_path / "out"), print_fn=lambda *_: None)
    assert [r.level for r in reports] == [2, 4]
    for rep in reports:
        assert rep.reference_value == pytest.approx(2.0 / 3.0, abs=1e-9)
        assert rep.metadata["learning_error_available"] is True
        assert 0.0 <= rep.learning_error_tv_bound <= 1.0
    ckpts = [f for f in os.listdir(tmp_path / "out") if f.endswith(".ckpt")]
    assert ckpts


def test_checkpoint_reproduces_the_reported_estimates(tmp_path):
    # the flow map the checkpoint records, step count included, gives the
    # TV, KL, estimates and quadrature errors of results.jsonl bit for bit
    spec = cli.parse_spec(spec_payload())
    out = tmp_path / "out"
    cli.cmd_run(spec, str(out), print_fn=lambda *_: None)
    fm = load_checkpoint(out / "tilt1d_seed7.ckpt")
    assert (fm.dim, fm.steps) == (spec.dim, spec.training["integrator_steps"])
    source = cli._density_from_spec(spec.source, spec.dim)
    target = cli._density_from_spec(spec.target, spec.dim)
    qoi = cli.an.make_qoi(spec.qoi["family"], spec.dim)
    tv, kl = cli.an.tv_kl_estimate(target, fm, source)
    oracle = cli.an.pullback_integral_oracle(fm, qoi, source)
    reports = cli.an.read_reports(out / "results.jsonl")
    assert [rep.level for rep in reports] == spec.grid["levels"]
    for rep in reports:
        assert (rep.learning_error_tv_bound, rep.kl_estimate) == (tv, kl)
        grid = smolyak(spec.dim, rep.level, weights=[f.pdf for f in source.factors])
        estimate = cli.an.integrate_via_flow(grid, fm, qoi)
        assert estimate == rep.estimate
        assert abs(oracle - estimate) == rep.quadrature_error


# ---------------------------------------------------------------------------
# calc and report commands
# ---------------------------------------------------------------------------


def test_calc_schedule_and_threshold_and_constants():
    lines = []
    cli.cmd_calc("schedule", {"n": "1e6", "beta": "0.25"}, print_fn=lines.append)
    assert any("width W      = 2" in line for line in lines)
    lines.clear()
    cli.cmd_calc(
        "threshold",
        {"epsilon": "0.1", "delta": "0.05", "beta": "0.25"},
        print_fn=lines.append,
    )
    assert any("16.17" in line for line in lines)
    lines.clear()
    cli.cmd_calc("constants", {"L": "2", "W": "4", "d": "2"}, print_fn=lines.append)
    assert any("log Lip0" in line for line in lines)


def test_cli_calc_exit_ok():
    assert cli.main(["calc", "schedule", "n=1e6", "beta=0.25"]) == 0


def _python(args, tmp_path, timeout=300, **env_vars):
    """Run `python args` in a fresh process that imports this flowquad,
    with `env_vars` added to the environment."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(flowquad.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, **env_vars, "PYTHONPATH": path}
    return subprocess.run([sys.executable, *args], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=timeout)


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # the run2d benchmark targets, small enough for a test
    spec = write_spec(tmp_path, spec_payload(
        dim=2,
        target={"per_axis": [{"family": "linear_tilt", "params": {"a": 0, "b": 2}},
                             {"family": "cosine_bump", "params": {"amp": 0.5}}]},
        qoi={"family": "cos_product"},
        grid={"levels": [2, 4, 6]},
        training={"sample_size": 300, "max_epochs": 2, "integrator_steps": 4},
    ))
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        for args in (["grid", "--spec", spec, "--out", str(out / "grid"), "--levels", "4..6"],
                     ["run", "--spec", spec, "--out", str(out / "run")]):
            done = _python(["-m", "flowquad.cli", *args], tmp_path,
                           OPENBLAS_NUM_THREADS=threads)
            assert done.returncode == 0, done.stderr
        outputs.append({str(p.relative_to(out)): p.read_bytes()
                        for p in out.rglob("*") if p.is_file()})
    assert sorted(outputs[0]) == sorted(outputs[1])
    assert len(outputs[0]) == 3 + 3  # three grid files; results, table and checkpoint
    for name, data in outputs[0].items():
        assert outputs[1][name] == data, name


_FOOTPRINT = """
import sys
from flowquad import cli
spec = sys.argv[1]
codes = [cli.main(["grid", "--spec", spec, "--out", "g"]),
         cli.main(["run", "--spec", spec, "--out", "r"]),
         cli.main(["report", "--results", "r/results.jsonl"])]
print(codes, sorted(m for m in ("scipy", "mpmath") if m in sys.modules))
"""


def test_grid_run_report_import_neither_scipy_nor_mpmath(tmp_path):
    payload = spec_payload(grid={"levels": [1, 2]})
    payload["training"].update(sample_size=32, batch_size=32, max_epochs=1,
                               width=4, integrator_steps=4)
    done = _python(["-c", _FOOTPRINT, write_spec(tmp_path, payload)], tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "[0, 0, 0] []"
    assert "RuntimeWarning" not in done.stderr


def test_run_rejects_a_huge_dim_before_building_densities(tmp_path):
    # dim is checked before any density is built
    spec_file = write_spec(tmp_path, spec_payload(dim=10**6, training={}))
    done = _python(["-m", "flowquad.cli", "run", "--spec", spec_file, "--out", "o"],
                   tmp_path, timeout=20)
    assert done.returncode == 2
    assert "limited to dim <= 3" in done.stderr
    assert not (tmp_path / "o").exists()


def test_module_entry_point_prints_constants_without_warning(tmp_path):
    done = _python(["-m", "flowquad.cli", "calc", "constants", "L=2", "W=4", "d=2"], tmp_path)
    assert done.returncode == 0
    assert done.stdout.splitlines() == [
        "log Lip0        = 40.4381025438",
        "log Lip1        = 52.6270748077",
        "log C           = 5.25749537203",
        "log Lbar bound  = 1.15792089237e+77",
        "log D bound     = 1.15792089237e+77",
    ]
    assert "RuntimeWarning" not in done.stderr
    # a clamped schedule says so on stdout, and prints no Python warning
    done = _python(["-m", "flowquad.cli", "calc", "schedule", "n=1e6", "beta=0.25"], tmp_path)
    assert done.returncode == 0
    assert done.stdout.splitlines()[-1] == "note: clamped to the floor value 1 at this sample size"
    assert done.stderr == ""


def test_report_command(tmp_path):
    spec = cli.parse_spec(spec_payload())
    out = str(tmp_path / "out")
    cli.cmd_run(spec, out, print_fn=lambda *_: None)
    lines = []
    csv_out = str(tmp_path / "table.csv")
    cli.cmd_report(os.path.join(out, "results.jsonl"), csv_path=csv_out, print_fn=lines.append)
    assert len(lines) == 3  # header + two levels
    assert os.path.exists(csv_out)


@pytest.mark.parametrize("command, dim, levels, flag", [
    ("grid", 1, [2], "40"),
    ("grid", 1, [2], "70"),
    ("run", 1, [70], None),
    ("grid", 1, [2], "0..1000000000000"),
    ("grid", 1000, [3], None),
    ("grid", 20000, [1], None),  # 60,001 rows of 20,000 coordinates each
])
def test_an_oversized_grid_exits_2_before_any_output(tmp_path, monkeypatch, capsys,
                                                     command, dim, levels, flag):
    # each grid's tensor rows are counted before any grid is built, and a
    # --levels range before it is listed
    def no_training(*args, **kwargs):
        raise AssertionError("training started on an oversized grid")

    monkeypatch.setattr(cli, "train_erm", no_training)
    payload = spec_payload(dim=dim, grid={"levels": levels},
                           training={} if dim > 1 else spec_payload()["training"])
    argv = [command, "--spec", write_spec(tmp_path, payload), "--out", str(tmp_path / "o")]
    assert cli.main(argv + (["--levels", flag] if flag else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ") and err.count("\n") == 1, err
    assert "tensor rows" in err
    assert not (tmp_path / "o").exists()


# asks Python to raise MemoryError, not the machine to run out of memory,
# should a spec get past its bounds
_LIMITED_MAIN = """import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 * 2**30, 3 * 2**30))
from flowquad import cli
sys.exit(cli.main(sys.argv[1:]))"""


@pytest.mark.parametrize("training, where", [
    pytest.param({"sample_size": 2_000_000_000}, "training.sample_size", id="sample_size"),
    pytest.param({"width": 100_000_000, "hidden_depth": 1}, "training.width", id="width"),
    pytest.param({"width": 4, "hidden_depth": 100_000_000}, "training.width", id="hidden_depth"),
    pytest.param({"integrator_steps": 100_000_000}, "training.integrator_steps",
                 id="integrator_steps"),
])
def test_a_spec_too_large_to_train_exits_2_before_any_output(tmp_path, training, where):
    # each spec asked for more memory than a machine has, and raised
    # MemoryError with --out already made; the bounds on sample_size,
    # integrator_steps and the network's parameter count refuse it first
    payload = spec_payload(training={**spec_payload()["training"], **training})
    done = _python(["-c", _LIMITED_MAIN, "run", "--spec", write_spec(tmp_path, payload),
                    "--out", "o"], tmp_path, timeout=60)
    assert done.returncode == 2, done.stderr
    assert done.stderr.startswith(f"configuration error: '{where}'"), done.stderr
    assert done.stderr.count("\n") == 1, done.stderr
    assert not (tmp_path / "o").exists()


def test_levels_flag_parsing():
    assert cli._parse_levels("0..3") == [0, 1, 2, 3]
    assert cli._parse_levels("1,4,6") == [1, 4, 6]


def test_identity_experiment_total_is_quadrature_dominated(tmp_path):
    # target == source: the learning term is small, so the total error column
    # is explained by the quadrature column up to the (small) TV bound
    payload = spec_payload(
        name="identity",
        target={"family": "uniform"},
        training={
            "sample_size": 128,
            "batch_size": 64,
            "max_epochs": 4,
            "hidden_depth": 2,
            "width": 8,
            "integrator_steps": 8,
        },
    )
    spec = cli.parse_spec(payload)
    reports = cli.cmd_run(spec, str(tmp_path / "out"), print_fn=lambda *_: None)
    for rep in reports:
        tv = rep.learning_error_tv_bound
        assert tv < 0.1
        assert rep.total_error <= tv + rep.quadrature_error + 5e-3


def test_cookbook_run_converges_toward_truth(tmp_path):
    spec = cli.parse_spec(spec_payload(grid={"levels": [1, 3, 5]}))
    reports = cli.cmd_run(spec, str(tmp_path / "out"), print_fn=lambda *_: None)
    assert all(abs(rep.estimate - 2.0 / 3.0) < 0.15 for rep in reports)
    # once the rule resolves the integrand, the error is learning-dominated
    assert reports[-1].total_error <= reports[-1].learning_error_tv_bound + 5e-3


def test_exit_code_training_failure(tmp_path, monkeypatch):
    from flowquad.errors import TrainingFailureError

    def boom(*args, **kwargs):
        raise TrainingFailureError("synthetic divergence", epoch=0)

    monkeypatch.setattr(cli, "train_erm", boom)
    spec_file = write_spec(tmp_path, spec_payload())
    assert cli.main(["run", "--spec", spec_file, "--out", str(tmp_path / "o")]) == 3


# a valid spec whose learning rate blows the field up in its first epoch
_DIVERGING = spec_payload(
    name="diverge2d",
    dim=2,
    source={"family": "linear_tilt", "params": {"a": 0.0, "b": 2.0}},
    target={"family": "cosine_bump", "params": {"amp": 0.99, "freq": 7}},
    grid={"levels": [1, 2]},
    training={"sample_size": 64, "max_epochs": 2, "hidden_depth": 1, "width": 4,
              "integrator_steps": 2, "learning_rate": 1e6},
)


# seeds 1 and 6 overflow the network; seed 4 reaches a preimage where the source vanishes
@pytest.mark.parametrize("seed", [1, 4, 6])
def test_diverging_training_exits_3_without_a_warning(tmp_path, seed):
    spec = write_spec(tmp_path, _DIVERGING)
    proc = _python(["-m", "flowquad.cli", "run", "--spec", spec, "--out", "o",
                    "--seed", str(seed)], tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.startswith("training failure: epoch 0: "), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_exit_code_integration_failure(tmp_path, monkeypatch):
    from flowquad.errors import IntegrationFailureError

    def boom(*args, **kwargs):
        raise IntegrationFailureError("synthetic blowup", step=1)

    monkeypatch.setattr(cli.an, "integrate_via_flow", boom)
    spec_file = write_spec(tmp_path, spec_payload())
    assert cli.main(["run", "--spec", spec_file, "--out", str(tmp_path / "o")]) == 4


@pytest.mark.parametrize("stage", ["tv_kl_estimate", "pullback_integral_oracle",
                                   "integrate_via_flow"])
@pytest.mark.parametrize("error", [NumericalOverflowError("non-finite activation in layer 1"),
                                   DomainError("source density vanishes")])
def test_a_numerical_failure_of_the_trained_flow_exits_4(tmp_path, monkeypatch, capsys,
                                                         stage, error):
    def boom(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli.an, stage, boom)
    spec_file = write_spec(tmp_path, spec_payload())
    assert cli.main(["run", "--spec", spec_file, "--out", str(tmp_path / "o")]) == 4
    assert capsys.readouterr().err == f"integration failure: trained flow: {error}\n"


# 1e6 steps train a field whose pushforward density overflows on the TV grid
_OVERFLOWING = spec_payload(
    seed=1, target={"family": "uniform"}, grid={"levels": [0]},
    training={"sample_size": 8, "batch_size": 4, "max_epochs": 1, "hidden_depth": 1,
              "width": 3, "integrator_steps": 1, "learning_rate": 1e6},
)


def test_an_overflowing_model_density_exits_4_without_a_warning(tmp_path):
    spec = write_spec(tmp_path, _OVERFLOWING)
    proc = _python(["-m", "flowquad.cli", "run", "--spec", spec, "--out", "o"], tmp_path)
    assert proc.returncode == 4, proc.stderr
    assert proc.stderr.startswith("integration failure: model density overflows"), proc.stderr
    assert "Warning" not in proc.stderr and "Traceback" not in proc.stderr


def test_cmd_run_accepts_only_one_thread(tmp_path, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(cli, "train_erm", no_training)
    spec = cli.parse_spec(spec_payload())
    with pytest.raises(InvalidArgumentError):
        cli.cmd_run(spec, str(tmp_path / "o"), threads=2)
    assert not (tmp_path / "o").exists()


# ---------------------------------------------------------------------------
# malformed input and interrupted writes
# ---------------------------------------------------------------------------


def _run_with(*path, value):
    """argv of `run` on the default spec with one entry replaced."""

    def argv(tmp_path, monkeypatch):
        payload = spec_payload()
        node = payload
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        (tmp_path / "escape").mkdir()
        out = tmp_path / "out" / "nested"
        return ["run", "--spec", write_spec(tmp_path, payload), "--out", str(out)]

    return argv


def _spec_bytes(data):
    """argv of `run` on a spec file holding these bytes."""

    def argv(tmp_path, monkeypatch):
        (tmp_path / "spec.json").write_bytes(data)
        return ["run", "--spec", str(tmp_path / "spec.json"), "--out", str(tmp_path / "o")]

    return argv


def _threads_option(tmp_path, monkeypatch):
    return ["run", "--spec", write_spec(tmp_path, spec_payload()), "--out", str(tmp_path / "o"),
            "--threads", "2"]


# one well-formed results line, as `run` writes it
_REPORT = {
    "total_error": 0.1, "quadrature_error": 0.01, "learning_error_tv_bound": 0.2,
    "kl_estimate": 0.05, "reference_value": 0.6, "estimate": 0.5, "dim": 1, "level": 2,
    "node_count": 5, "sample_size": 96, "seed": 7, "metadata": {},
}


def _report_of(text):
    """argv of `report` on a results file with this text (None: no file)."""

    def argv(tmp_path, monkeypatch):
        path = tmp_path / "results.jsonl"
        if text is not None:
            path.write_text(text)
        return ["report", "--results", str(path)]

    return argv


@pytest.mark.parametrize(
    "make_argv",
    [
        pytest.param(_run_with("training", "sample_size", value="50"), id="sample_size-string"),
        pytest.param(_run_with("grid", "levels", value=7), id="levels-not-a-list"),
        pytest.param(_run_with("grid", "levels", value=[True]), id="levels-bool"),
        pytest.param(_run_with("dim", value=True), id="dim-bool"),
        pytest.param(
            _run_with("target", value={"family": "linear_tilt"}), id="density-params-missing"
        ),
        pytest.param(_run_with("name", value="../../escape/x"), id="name-with-path"),
        pytest.param(_run_with("outputs", value={"dir": "elsewhere"}), id="outputs"),
        pytest.param(_run_with("dim", value=4), id="dim-4"),
        pytest.param(_run_with("target", value={"family": "cosine_bump",
                                                "params": {"amp": 0.5, "frequency": 3}}),
                     id="density-param-unknown"),
        pytest.param(_run_with("target", value={"family": "cosine_bump",
                                                "params": {"amp": 0.5, "freq": 1e308}}),
                     id="density-freq-overflows"),
        pytest.param(_run_with("target", value={"family": "linear_tilt",
                                                "params": {"a": 1.7e308, "b": 1.7e308}}),
                     id="density-mass-overflows"),
        # no Chebyshev interpolant of degree <= 4,096 resolves it as a rule weight
        pytest.param(_run_with("source", value={"family": "cosine_bump",
                                                "params": {"amp": 0.5, "freq": 5000}}),
                     id="source-not-resolved"),
        pytest.param(_run_with("target", value={"family": "cosine_bump", "params": {
            "amp": -0.1078, "freq": 3.37e-267, "phase": -0.1078}}), id="density-mass-cancels"),
        pytest.param(_run_with("training", value={"adaptive": True, "width": 64,
                                                  "hidden_depth": 5}),
                     id="training-adaptive-with-architecture"),
        pytest.param(_run_with("training", value={"width": 64}), id="training-width-alone"),
        pytest.param(_run_with("training", value={"sample_size": 2, "holdout_fraction": 0.75}),
                     id="training-holdout-takes-all-2"),
        pytest.param(_run_with("training", value={"sample_size": 1, "holdout_fraction": 0.6}),
                     id="training-holdout-takes-all-1"),
        pytest.param(_run_with("training", "max_epochs", value=0), id="training-no-epochs"),
        pytest.param(_run_with("training", "momentum", value=0.9), id="training-momentum"),
        pytest.param(_run_with("training", "learning_rate", value=0), id="training-lr-zero"),
        pytest.param(_run_with("training", "learning_rate", value=-1), id="training-lr-negative"),
        pytest.param(_run_with("training", "c_d", value=0), id="training-c_d-zero"),
        pytest.param(_run_with("training", "c_d", value=-1.5), id="training-c_d-negative"),
        pytest.param(_run_with("qoi", value={"family": "coordinate", "params": {"axis": 0.7}}),
                     id="qoi-axis-not-integral"),
        pytest.param(_run_with("qoi", value={"family": "product", "params": {"axis": 0}}),
                     id="qoi-param-unknown"),
        pytest.param(_spec_bytes(b"\xff\xfe{}"), id="spec-not-utf8"),
        pytest.param(_spec_bytes(b"[" * 100_000 + b"]" * 100_000), id="spec-nested-too-deep"),
        pytest.param(_threads_option, id="threads-option"),
        pytest.param(lambda *_: ["calc", "schedule", "n=abc"], id="calc-not-a-number"),
        pytest.param(lambda *_: ["calc", "schedule", "beta=0.25"], id="calc-missing-key"),
        pytest.param(lambda *_: ["calc", "schedule", "n=3.9", "beta=0.25"],
                     id="calc-schedule-n-not-integral"),
        pytest.param(lambda *_: ["calc", "threshold", "epsilon=0.1", "delta=0.05", "beta=0.25",
                                 "c=0"], id="calc-threshold-c-zero"),
        pytest.param(lambda *_: ["calc", "threshold", "epsilon=0.1", "delta=0.05", "beta=0.25",
                                 "c=-1"], id="calc-threshold-c-negative"),
        pytest.param(lambda *_: ["calc", "schedule", "n=1e6", "beta=0.25", "d=-1"],
                     id="calc-schedule-d-negative"),
        pytest.param(lambda *_: ["calc", "schedule", "n=1e6", "beta=0.25", "d=0"],
                     id="calc-schedule-d-zero"),
        pytest.param(lambda *_: ["calc", "schedule", "n=1e6", "beta=0.25", "c_d=0"],
                     id="calc-schedule-c_d-zero"),
        pytest.param(lambda *_: ["calc", "schedule", "n=1e6", "beta=0.25", "c_d=-2"],
                     id="calc-schedule-c_d-negative"),
        pytest.param(lambda *_: ["calc", "constants", "L=2", "W=4", "d=2", "c_dkl=-1"],
                     id="calc-constants-c_dkl-negative"),
        pytest.param(lambda *_: ["calc", "constants", "L=2", "W=4", "d=2", "c_dkl=0"],
                     id="calc-constants-c_dkl-zero"),
        pytest.param(lambda *_: ["calc", "constants", "L=2", "W=4", "d=2", "c_d=0"],
                     id="calc-constants-c_d-zero"),
        pytest.param(_report_of(None), id="report-missing-file"),
        pytest.param(_report_of('{"total_error": 1}\n'), id="report-missing-keys"),
        pytest.param(_report_of(json.dumps({**_REPORT, "total_error": "x"}) + "\n"),
                     id="report-wrong-type"),
        pytest.param(_report_of(json.dumps({**_REPORT, "sample_size": "x"}) + "\n"),
                     id="report-int-is-string"),
        pytest.param(_report_of(json.dumps({**_REPORT, "level": True}) + "\n"),
                     id="report-int-is-bool"),
        pytest.param(_report_of(json.dumps({**_REPORT, "seed": 7.0}) + "\n"),
                     id="report-int-is-float"),
        pytest.param(_report_of(json.dumps({**_REPORT, "kl_estimate": False}) + "\n"),
                     id="report-float-is-bool"),
        pytest.param(_report_of(json.dumps({**_REPORT, "metadata": []}) + "\n"),
                     id="report-metadata-not-dict"),
        pytest.param(_report_of(json.dumps({**_REPORT, "total_error": 10**400}) + "\n"),
                     id="report-float-out-of-range"),
        pytest.param(_report_of("[1, 2]\n"), id="report-line-not-an-object"),
        pytest.param(_report_of("[" * 100_000 + "]" * 100_000 + "\n"),
                     id="report-nested-too-deep"),
    ],
)
def test_malformed_input_exits_2_before_training(make_argv, tmp_path, monkeypatch, capsys):
    def no_training(*args, **kwargs):
        raise AssertionError("training started on malformed input")

    monkeypatch.setattr(cli, "train_erm", no_training)
    argv = make_argv(tmp_path, monkeypatch)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err
    if (tmp_path / "escape").exists():
        assert not os.listdir(tmp_path / "escape")


def test_report_with_wrong_typed_field_writes_no_csv(tmp_path, capsys):
    results = tmp_path / "results.jsonl"
    results.write_text(json.dumps({**_REPORT, "sample_size": "x"}) + "\n")
    csv_out = tmp_path / "table.csv"
    assert cli.main(["report", "--results", str(results), "--csv", str(csv_out)]) == 2
    assert not csv_out.exists()
    assert "Traceback" not in capsys.readouterr().err


def test_unmeasured_terms_are_null_in_results_and_blank_in_csv(tmp_path):
    # at dim 3 the TV/KL terms are not measured: NaN in memory
    nan = float("nan")
    rep = cli.an.ErrorReport(**{**_REPORT, "learning_error_tv_bound": nan, "kl_estimate": nan})
    line = rep.to_json()

    def no_constants(name):
        raise AssertionError(f"non-standard JSON constant {name}")

    payload = json.loads(line, parse_constant=no_constants)
    assert payload["learning_error_tv_bound"] is None and payload["kl_estimate"] is None
    assert rep.csv_row().split(",")[5:7] == ["", ""]
    infinite = cli.an.ErrorReport(**{**_REPORT, "kl_estimate": float("inf")})
    assert json.loads(infinite.to_json(), parse_constant=no_constants)["kl_estimate"] is None

    results = tmp_path / "results.jsonl"
    results.write_text(line + "\n" + json.dumps(_REPORT) + "\n")
    csv_out = tmp_path / "table.csv"
    lines = []
    back = cli.cmd_report(str(results), csv_path=str(csv_out), print_fn=lines.append)
    assert np.isnan(back[0].kl_estimate) and back[0].to_json() == line
    assert lines[1].split()[5:7] == ["n/a", "n/a"]
    assert "n/a" not in lines[2]
    rows = csv_out.read_text().splitlines()
    assert rows[1].split(",")[5:7] == ["", ""]
    assert rows[2] == cli.an.ErrorReport(**_REPORT).csv_row()


@pytest.mark.parametrize(
    "owner,writer,path_arg,target",
    [
        (cli, "save_checkpoint", 1, "tilt1d_seed7.ckpt"),
        (cli.an, "append_reports", 0, "results.jsonl"),
        (cli.an, "write_convergence_csv", 0, "convergence.csv"),
    ],
)
def test_interrupted_write_keeps_previous_file(
    owner, writer, path_arg, target, tmp_path, monkeypatch
):
    out = tmp_path / "out"
    sink = lambda *_: None
    cli.cmd_run(cli.parse_spec(spec_payload()), str(out), print_fn=sink)
    before = {path.name: path.read_bytes() for path in out.iterdir()}

    def torn(*args):
        with open(args[path_arg], "a") as fh:
            fh.write("partial")
        raise OSError("disk full")

    monkeypatch.setattr(owner, writer, torn)
    changed = spec_payload()
    changed["training"]["max_epochs"] = 1  # different bytes in every output
    with pytest.raises(OSError, match="disk full"):
        cli.cmd_run(cli.parse_spec(changed), str(out), print_fn=sink)
    assert sorted(os.listdir(out)) == sorted(before)  # no temporary file is left
    assert (out / target).read_bytes() == before[target]


# ---------------------------------------------------------------------------
# fuzzed specs and results lines
# ---------------------------------------------------------------------------

_FUZZ = settings(derandomize=True, max_examples=300, deadline=None, database=None)

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=4,
)
# a family parameter: near the families' domains, anywhere, or near either end
# of the float range, where the normalizers overflow
_PARAM_VALUES = (st.floats(-2, 2) | st.floats() | st.floats(1e300, sys.float_info.max)
                 | st.floats(-sys.float_info.max, -1e300))
# the parameters of each density family, as the README lists them
_FAMILY_PARAMS = {"uniform": (), "linear_tilt": ("a", "b"), "cosine_bump": ("amp", "freq", "phase")}
# every parameter a density family or QoI takes, and one that none takes
_PARAM_NAMES = sorted({*sum(_FAMILY_PARAMS.values(), ()), "axis", "frequency"})


def _fuzz_base():
    """A valid spec holding every density family and both density forms."""
    return spec_payload(
        dim=3,
        source={"per_axis": [
            {"family": "uniform"},
            {"family": "linear_tilt", "params": {"a": 1.0, "b": -0.5}},
            {"family": "cosine_bump", "params": {"amp": 0.5, "freq": 2, "phase": 0.25}},
        ]},
        target={"family": "cosine_bump", "params": {"amp": 0.3}},
        qoi={"family": "coordinate", "params": {"axis": 2}},
    )


@st.composite
def _mutated_specs(draw):
    """The base spec with a JSON value at a concrete path of a schema row."""
    row = draw(st.sampled_from(sorted(cli._SCHEMA)))
    if not row:
        return draw(_JSON)
    payload = node = _fuzz_base()
    *parents, last = row.split(".")
    for segment in parents:
        node = node.setdefault(segment.removesuffix("[]"), [] if "[]" in segment else {})
        if "[]" in segment:
            node = node or [{}]
            node = node[draw(st.integers(0, len(node) - 1))]
    if last == "*":
        key = draw(st.sampled_from(_PARAM_NAMES) | st.text(max_size=4))
        node[key] = draw(_PARAM_VALUES | _JSON)
    elif last.endswith("[]"):
        items = node.setdefault(last[:-2], [])
        i = draw(st.integers(0, len(items)))
        items[i:i + 1] = [draw(_JSON)]
    else:
        node[last] = draw(_JSON)
    return payload


def _parses_or_exits_2(payload):
    """parse_spec accepts the payload or raises ConfigurationError, and
    `grid` on a rejected spec exits 2 and writes nothing."""
    try:
        cli.parse_spec(payload)
        return
    except ConfigurationError:
        pass
    with tempfile.TemporaryDirectory() as tmp:
        spec, out = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out")
        with open(spec, "w") as fh:
            json.dump(payload, fh)
        assert cli.main(["grid", "--spec", spec, "--out", out]) == 2
        assert not os.path.exists(out)


@_FUZZ
@given(payload=_mutated_specs())
def test_fuzzed_spec_parses_or_exits_2(payload):
    _parses_or_exits_2(payload)


@_FUZZ
@given(data=st.data(), where=st.sampled_from(["source", "target"]),
       family=st.sampled_from(sorted(_FAMILY_PARAMS)))
def test_fuzzed_family_parameters_parse_or_exit_2(data, where, family):
    optional = dict.fromkeys(_FAMILY_PARAMS[family], _PARAM_VALUES)
    params = data.draw(st.fixed_dictionaries({}, optional=optional))
    _parses_or_exits_2(spec_payload(**{where: {"family": family, "params": params}}))


@_FUZZ
@given(line=_JSON | st.builds(lambda key, value: {**_REPORT, key: value},
                              st.sampled_from(sorted(_REPORT)) | st.text(max_size=4), _JSON))
def test_fuzzed_results_line_exits_0_or_2(line):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "results.jsonl")
        with open(path, "w") as fh:
            fh.write(json.dumps(line) + "\n")
        assert cli.main(["report", "--results", path]) in (0, 2)


_DENSITIES = (
    st.just({"family": "uniform"})
    | st.builds(lambda a, b: {"family": "linear_tilt", "params": {"a": a, "b": b}},
                st.floats(0, 2), st.floats(-2, 2))
    | st.builds(lambda amp, freq: {"family": "cosine_bump", "params": {"amp": amp, "freq": freq}},
                st.floats(0, 0.99), st.integers(1, 8))
)


@st.composite
def _run_specs(draw):
    """A small valid-typed `run` spec: 1-2 axes, a tiny network, a few
    epochs, levels 0-3, and learning rates up to ones that diverge."""
    dim = draw(st.integers(1, 2))
    training = {"sample_size": draw(st.integers(8, 48)), "batch_size": draw(st.integers(4, 48)),
                "max_epochs": draw(st.integers(1, 2)), "hidden_depth": draw(st.integers(1, 2)),
                "width": draw(st.integers(dim + 1, 6)),
                "integrator_steps": draw(st.integers(1, 4)),
                "learning_rate": draw(st.sampled_from([0.02, 1.0, 1e6]))}
    qoi = draw(st.sampled_from(["coordinate", "product", "cos_product", "abs_product",
                                "constant"]))
    return {"name": "fuzz", "dim": dim, "seed": draw(st.integers(0, 9)),
            "source": draw(_DENSITIES), "target": draw(_DENSITIES), "qoi": {"family": qoi},
            "grid": {"levels": draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))},
            "training": training}


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(payload=_run_specs())
def test_fuzzed_run_exits_cleanly(payload):
    # success, a configuration error, a training failure or an integration
    # failure, each without a traceback or a warning; results are strict JSON
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        spec, out, err = os.path.join(tmp, "spec.json"), os.path.join(tmp, "out"), io.StringIO()
        with open(spec, "w") as fh:
            json.dump(payload, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["run", "--spec", spec, "--out", out])
        assert code in (0, 2, 3, 4), err.getvalue()
        assert "Warning" not in err.getvalue() and "Traceback" not in err.getvalue()
        assert not caught, [str(w.message) for w in caught]
        if code == 0:
            with open(os.path.join(out, "results.jsonl")) as fh:
                lines = [json.loads(line, parse_constant=_no_constant) for line in fh]
            assert len(lines) == len(payload["grid"]["levels"])
