"""Benchmark of flowquad: `flowquad run` and sparse-grid integration.

Run from the root of a checkout:

    python3 perfbench/run.py --workload train1d --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py                 # every workload, untraced
    python3 perfbench/run.py --smoke         # one small request per workload

Workloads (see workloads.py for why each was chosen): train1d, run2d,
integrate6d.  Each runs in fresh Python processes started from this one,
with flowquad's own threads at 1 (the CLI default) and the BLAS pool
pinned to one thread, so that runs on any core count measure the same
single-threaded program.

--trace 0 prints the end-to-end metrics:
  setup_s      median over five fresh processes of the wall time from spawn
               to the first request being ready (imports, spec parsing,
               densities, transport, QoIs)
  first_run_s  time of the cold first request of a fresh process: the
               median over the measured process and as many of the other
               four as fit 10 s (run2d: one, train1d: three, integrate6d: five)
  run_s        median time of the warm requests
  peak_rss_mb  peak resident memory of the workload process
Requests are timed by the CPU time of the single-threaded workload process:
on a shared virtual machine their wall time also counts the time the
hypervisor gave the CPU to another guest (steal), which here made some
stretches of work 1.6 times longer in wall time than in CPU time.  The wall
times are printed beside them.
--trace 1 runs a traced process and prints the per-layer metrics of
tracing.py, medians over its traced requests, plus the tracing overhead.

Every request's outputs are checked (workloads.py); a failed check counts
as a failed request.  The last stdout line is one JSON object with the
keys correct, attempted, failed and metrics.  Per-run records, with the
machine, go to perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

sys.path.insert(0, str(HERE))
from tracing import MODULES, PER_LAYER  # noqa: E402
from workloads import WORKLOAD_NAMES  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("first_run_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
]
SETUP_PROBES = 4  # fresh processes besides the measured one
COLD_BUDGET_S = 10.0  # time the probes may spend on cold requests
TIME_LIMIT_S = 170.0  # the processes of one workload end within this
_SINGLE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                  "MKL_NUM_THREADS": "1"}


class BenchError(Exception):
    pass


def _cgroup_cpu_quota():
    """CPU quota in cores from the cgroup (v2, then v1); None if unlimited."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        pass
    try:
        quota = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
        period = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
        return None if quota < 0 else quota / period
    except (OSError, ValueError):
        return None


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_commit():
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                          text=True, timeout=30)
    return done.stdout.strip() or None


def machine():
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cgroup_cpu_quota(),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
    }


class Deadline:
    def __init__(self, seconds):
        self.end = time.monotonic() + seconds

    def left(self):
        left = self.end - time.monotonic()
        if left <= 0:
            raise BenchError(f"time limit of {TIME_LIMIT_S:.0f} s reached")
        return left


def _worker(args, workload, out_dir, deadline, mode="run"):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir), "--mode", mode]
    if args.smoke:
        cmd.append("--smoke")
    env = dict(os.environ, **_SINGLE_THREAD)
    timeout = deadline.left()
    cmd += ["--spawned-at", repr(time.monotonic())]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: worker still running after {timeout:.0f} s")
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with code {done.returncode}")
    return json.loads(lines[-1])


def _tail(samples):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10
    return 100.0 * k / n, sorted(samples)[k - 1]


def run_workload(args, workload, deadline):
    """Run one workload; (metrics, units, record)."""
    out_dir = OUT / f"{workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    report = _worker(args, workload, out_dir, deadline)
    warm = report["warm"]
    if report["first_run"] is None or not warm:
        raise BenchError(f"{workload}: no successful request to time; "
                         f"{report['failures'][:1]}")
    setups, colds = [report["setup_s"]], [report["first_run"][1]]
    attempted, failures = report["attempted"], report["failures"]
    if not args.trace:
        # fresh processes for set-up; while they fit the budget they also
        # run the cold request, the same one the measured process ran first
        cold_probes = min(SETUP_PROBES, int(COLD_BUDGET_S // colds[0]))
        for i in range(SETUP_PROBES):
            probe = _worker(args, workload, out_dir, deadline,
                            mode="cold" if i < cold_probes else "setup")
            setups.append(probe["setup_s"])
            if i < cold_probes:
                attempted += probe["attempted"]
                failures += [dict(f, request=f"probe {i}") for f in probe["failures"]]
                if probe["first_run"] is not None:
                    colds.append(probe["first_run"][1])
                if probe["hashes"] != report["hashes"][:1]:
                    failures.append({"request": f"probe {i}",
                                     "error": "request 0 output differs between processes"})
    failed = len({f["request"] for f in failures})
    record = {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "machine": dict(machine(), **report["machine"]),
        "attempted": attempted, "failed": failed, "failures": failures,
        "output_hash": hashlib.sha256("".join(report["hashes"][:2]).encode()).hexdigest(),
        "request_hashes": report["hashes"],
        "setup_samples_s": setups,
        "first_run_samples_s": colds,
        "first_run_wall_s": report["first_run"][0],
        "warm_wall_s": [wall for wall, _ in warm],
        "warm_cpu_s": [cpu for _, cpu in warm],
    }
    if args.trace:
        metrics = report["layers"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        record["traced_requests"] = report["traced_requests"]
        record["missing_wrappers"] = report["missing_wrappers"]
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "first_run_s": statistics.median(colds),
            "run_s": statistics.median(record["warm_cpu_s"]),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        units = dict(END_TO_END)
    missing = [name for name in units if name not in metrics]
    if missing:
        raise BenchError(f"{workload}: no value for {', '.join(missing)}")
    record["metrics"] = metrics
    (out_dir / "result.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return metrics, units, record


def _print_workload(workload, metrics, units, record):
    print(f"== {workload}  seed {record['seed']}  trace {record['trace']}  "
          f"machine {json.dumps(record['machine'], sort_keys=True)}")
    for name, value in metrics.items():
        print(f"{workload} {name} = {value:.6g} {units[name]}")
    attempted, failed = record["attempted"], record["failed"]
    print(f"{workload} failed_frac = {failed / attempted:.6g} ratio "
          f"({failed} of {attempted} requests)")
    if not record["trace"]:
        warm = record["warm_cpu_s"]
        print(f"{workload} run_s samples = {len(warm)} warm requests")
        tail = _tail(warm)
        if tail is not None:
            print(f"{workload} run_s p{tail[0]:.0f} = {tail[1]:.6g} s")
        print(f"{workload} wall time: first_run {record['first_run_wall_s']:.6g} s, "
              f"run median {statistics.median(record['warm_wall_s']):.6g} s")
    else:
        print(f"{workload} traced requests = {record['traced_requests']}")
        # under cmd_run every span but the benchmark's own root is cmd_run's
        root = "cli.cmd_run_s" if metrics["cli.cmd_run_s"] else "trace.request_s"
        self_sum = sum(metrics[f"{m}.self_s"] for m in MODULES
                       if m != "bench" or root == "trace.request_s")
        print(f"{workload} sum of self times = {self_sum:.6g} s "
              f"({root} {metrics[root]:.6g} s)")
        if record["missing_wrappers"]:
            print(f"{workload} not traced (absent): {', '.join(record['missing_wrappers'])}")
    print(f"{workload} output_hash = {record['output_hash']}")
    for failure in record["failures"]:
        print(f"{workload} request {failure['request']} failed: "
              f"{failure['error'].strip().splitlines()[-1]}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one small request per workload, traced and untraced; "
                             "checks that every metric is printed with its unit")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "flowquad" / "__init__.py").is_file():
        print(f"error: no flowquad sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(args)

    workloads = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(args, workload, Deadline(TIME_LIMIT_S))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for workload, (metrics, units, record) in results.items():
        _print_workload(workload, metrics, units, record)
    print(json.dumps(_summary(results, prefix=args.workload is None)))
    return 0


def _summary(results, prefix):
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload, (metrics, units, record) in results.items():
        out["attempted"] += record["attempted"]
        out["failed"] += record["failed"]
        for name, value in metrics.items():
            key = f"{workload}.{name}" if prefix else name
            out["metrics"][key] = {"value": value, "unit": units[name]}
    out["correct"] = out["failed"] == 0
    return out


def smoke(args):
    """Run every workload small, untraced and traced; check the printed metrics."""
    args.seconds = 0.0
    problems = []
    for trace in (0, 1):
        args.trace = trace
        for workload in WORKLOAD_NAMES:
            try:
                metrics, units, record = run_workload(args, workload, Deadline(TIME_LIMIT_S))
            except BenchError as exc:
                problems.append(str(exc))
                continue
            _print_workload(workload, metrics, units, record)
            problems += [f"{workload} trace {trace}: request {f['request']} failed"
                         for f in record["failures"]]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", END_TO_END),
                         ("per_layer", [(n, u) for n, u, _ in PER_LAYER])):
        if [(m["name"], m["unit"]) for m in declared[key]] != printed:
            problems.append(f"BENCHMARK.json {key} differs from the metrics printed")
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "ok" if not problems else "failed", "problems": len(problems)}))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
