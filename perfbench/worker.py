"""One workload in one fresh process; started by run.py, not by hand.

The worker imports flowquad from the checkout's `src/`, sets the workload
up, and reports its set-up time against the moment run.py spawned it
(both read CLOCK_MONOTONIC, which Linux shares between processes).  With
--mode setup it stops there, with --mode cold after the cold first request.
Otherwise it goes on with warm requests until --seconds would be exceeded,
always at least one.
With --trace 1 the warm requests alternate untraced and traced, so the
tracing overhead is measured within one process.  Every request's outputs
are checked and hashed outside the timed region.  The last stdout line is
a JSON report.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _import_flowquad():
    sys.path.insert(0, str(ROOT / "src"))
    import flowquad

    where = Path(flowquad.__file__).resolve()
    if (ROOT / "src") not in where.parents:
        raise SystemExit(f"flowquad imported from {where}, not from {ROOT / 'src'}")
    return flowquad


def _blas():
    """BLAS library, version and live thread-pool size (None if unknown)."""
    import ctypes

    import numpy as np

    info = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {line.split()[-1] for line in fh if "blas" in line.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = int(fn())
                break
    return {"name": info.get("name"), "version": info.get("version"), "threads": threads}


def _versions():
    import mpmath
    import numpy
    import scipy

    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "mpmath": mpmath.__version__}


class Runner:
    def __init__(self, work, recorder):
        self.work = work
        self.rec = recorder
        self.attempted = 0
        self.failures = []
        self.hashes = []

    def run(self, index, traced=False):
        """Run, check and hash request `index`.

        Returns its (wall, process CPU) seconds, or None if it raised.
        """
        self.attempted += 1
        try:
            if traced:
                from tracing import installed

                self.rec.request = index
                with installed(self.rec):
                    wall, cpu = time.perf_counter(), time.process_time()
                    result = self.rec.call("bench.request", self.work.request, (index,), {})
                    wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            else:
                wall, cpu = time.perf_counter(), time.process_time()
                result = self.work.request(index)
                wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
        except Exception:  # a failed request is counted, not fatal
            self.failures.append({"request": index, "error": traceback.format_exc()})
            return None
        problems = self.work.check(result)
        self.hashes.append(self.work.digest(result))
        self.work.discard(result)
        if problems:
            self.failures.append({"request": index, "error": "; ".join(problems)})
        return wall, cpu


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--mode", choices=("setup", "cold", "run"), default="run")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    _import_flowquad()
    from workloads import make_workload

    work = make_workload(args.workload, args.seed, args.out, args.smoke)
    setup_s = time.monotonic() - args.spawned_at
    report = {"setup_s": setup_s}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    recorder = None
    if args.trace:
        from tracing import Recorder, missing_targets

        recorder = Recorder()
        report["missing_wrappers"] = missing_targets()
    runner = Runner(work, recorder)
    first = runner.run(0)
    warm, traced = [], []
    index = 1
    start = time.perf_counter()
    while args.mode == "run":
        times = runner.run(index)
        if times is not None:
            warm.append(times)
        index += 1
        if args.trace:
            times = runner.run(index, traced=True)
            if times is not None:
                traced.append((index, times))
            index += 1
        # stop before a round that would end after --seconds; one round at least
        elapsed = time.perf_counter() - start
        per_round = elapsed / (index - 1) * (2 if args.trace else 1)
        if elapsed + per_round > args.seconds:
            break

    report.update({
        "first_run": first,
        "warm": warm,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": runner.attempted,
        "failures": runner.failures,
        "hashes": runner.hashes,
        "machine": dict(_versions(), blas=_blas()),
    })
    if args.trace:
        from tracing import layer_metrics

        per_request = [layer_metrics(recorder, i) for i, _ in traced]
        layers = {name: statistics.median(m[name] for m in per_request)
                  for name in per_request[0]} if per_request else {}
        if traced and warm:
            layers["trace.overhead_s"] = (statistics.median(t[0] for _, t in traced)
                                          - statistics.median(t[0] for t in warm))
        report["layers"] = layers
        report["traced_requests"] = len(traced)
        recorder.dump(os.path.join(args.out, "spans.jsonl"))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
