"""Outside-in spans around the public calls into each flowquad module.

Tracing replaces, for the duration of one request, the attributes that
callers look up at call time (module functions, class methods and the
`evaluate` of densities built by `cli`) with wrappers that record a span:
name, start, end, parent span, request id, the rows the call processed
and a little call-specific detail.  Nothing in `src/` changes.  Spans stay
in memory; `Recorder.dump` writes them when the run ends.

`layer_metrics` turns the spans of one request into the per-layer
metrics.  A span's self time is its duration minus the time its child
spans cover; since every request runs on one thread inside a root span,
the self times of a request add up to the root's duration.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import os
import time

import numpy as np

# name, unit, better: the per-layer metrics, in print order
PER_LAYER = [
    ("quadrature.smolyak_s", "s", "lower"),
    ("quadrature.nodes", "count", "lower"),
    ("quadrature.dedup_ratio", "ratio", "lower"),
    ("quadrature.kahan_sum_s", "s", "lower"),
    ("quadrature.self_s", "s", "lower"),
    ("densities.evaluate_s", "s", "lower"),
    ("densities.evaluate_rows", "count", "lower"),
    ("densities.self_s", "s", "lower"),
    ("transport.sample_s", "s", "lower"),
    ("transport.self_s", "s", "lower"),
    ("network.value_calls", "count", "lower"),
    ("network.value_rows", "count", "lower"),
    ("network.value_s", "s", "lower"),
    ("network.value_ns_per_row", "ns", "lower"),
    ("network.tangent_calls", "count", "lower"),
    ("network.tangent_rows", "count", "lower"),
    ("network.tangent_s", "s", "lower"),
    ("network.tangent_ns_per_row", "ns", "lower"),
    ("network.vjp_calls", "count", "lower"),
    ("network.vjp_rows", "count", "lower"),
    ("network.vjp_s", "s", "lower"),
    ("network.tangent_recompute_frac", "ratio", "lower"),
    ("network.flops_computed", "flop", "lower"),
    ("network.self_s", "s", "lower"),
    ("flow.forward_calls", "count", "lower"),
    ("flow.forward_s", "s", "lower"),
    ("flow.forward_repeat_frac", "ratio", "lower"),
    ("flow.log_density_calls", "count", "lower"),
    ("flow.log_density_s", "s", "lower"),
    ("flow.adjoint_calls", "count", "lower"),
    ("flow.adjoint_s", "s", "lower"),
    ("flow.field_evals", "count", "lower"),
    ("flow.self_s", "s", "lower"),
    ("training.train_s", "s", "lower"),
    ("training.sample_epochs_per_s", "1/s", "higher"),
    ("training.epochs", "count", "lower"),
    ("training.minibatches", "count", "lower"),
    ("training.useful_epoch_frac", "ratio", "higher"),
    ("training.self_s", "s", "lower"),
    ("analysis.tv_s", "s", "lower"),
    ("analysis.kl_s", "s", "lower"),
    ("analysis.oracle_s", "s", "lower"),
    ("analysis.reference_s", "s", "lower"),
    ("analysis.integrate_s", "s", "lower"),
    ("analysis.integrate_nodes_per_s", "1/s", "higher"),
    ("analysis.write_s", "s", "lower"),
    ("analysis.bytes_written", "B", "lower"),
    ("analysis.self_s", "s", "lower"),
    ("cli.cmd_run_s", "s", "lower"),
    ("cli.checkpoint_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("bench.self_s", "s", "lower"),
    ("trace.request_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# a span's self time counts towards the module its name starts with
MODULES = ("quadrature", "densities", "transport", "network", "flow", "training",
           "analysis", "cli", "bench")


class Recorder:
    """In-memory span store of one process.

    A span is the list [name, start, end, parent, request, rows, info];
    parent is the index of the enclosing span or -1.
    """

    def __init__(self):
        self.spans = []
        self.request = None
        self._stack = []

    def call(self, name, fn, args, kwargs, measure=None):
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1,
                self.request, 0, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if measure is not None:
            span[5], span[6] = measure(args, kwargs, out)
        return out

    def request_spans(self, request):
        first = next(i for i, s in enumerate(self.spans) if s[4] == request)
        return first, [s for s in self.spans[first:] if s[4] == request]

    def dump(self, path):
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:6]) + "\n")


# ---------------------------------------------------------------------------
# what each wrapper measures: (rows, info) from the call's arguments/result
# ---------------------------------------------------------------------------


def _rows(x):
    shape = getattr(x, "shape", None)
    if shape is None:
        return len(x)
    return 1 if len(shape) == 1 else shape[0]


def _layer_sum(net):
    widths = net.arch.widths
    return sum(i * o for i, o in zip(widths[:-1], widths[1:]))


def _net_value(args, kwargs, out):
    rows = _rows(args[1])
    return rows, 2 * rows * _layer_sum(args[0])


def _net_tangent(args, kwargs, out):
    rows = _rows(args[1])
    return rows, 2 * rows * _layer_sum(args[0]) * (1 + args[0].dim)


def _net_forward_with_cache(args, kwargs, out):
    tangents = kwargs.get("need_tangents", args[3] if len(args) > 3 else False)
    rows, flops = (_net_tangent if tangents else _net_value)(args, kwargs, out)
    return rows, {"tangents": bool(tangents), "flops": flops}


def _net_vjp(args, kwargs, out):
    # two GEMMs per layer (parameter and input cotangents); the divergence
    # term carries d more columns through both
    net, cache = args[0], args[1]
    rows = len(cache["raw"])
    with_div = kwargs.get("lam_div", args[3] if len(args) > 3 else None) is not None
    return rows, 4 * rows * _layer_sum(net) * ((1 + net.dim) if with_div else 1)


def _flow_call(x_pos):
    def measure(args, kwargs, out):
        return _rows(args[x_pos]), args[0].steps
    return measure


def _flow_forward(args, kwargs, out):
    # the key identifies the (points, field) pair, to count repeated pushes
    fm, x = args[0], np.asarray(args[1])
    key = hashlib.blake2b(repr((id(fm.field), fm.steps, x.shape)).encode(), digest_size=16)
    key.update(x.tobytes())
    theta = getattr(fm.field, "theta", None)
    if theta is not None:
        key.update(theta.tobytes())
    return _rows(x), {"steps": fm.steps, "key": key.hexdigest()}


def _smolyak(args, kwargs, out):
    from flowquad.quadrature import growth
    summed = sum(math.prod(growth(k) for k in mi.entries)
                 for mi, _ in out.combination_terms)
    return out.node_count, summed


def _integrate(args, kwargs, out):
    return len(args[0].nodes), None


def _train(args, kwargs, out):
    return 0, {"best_epoch": out.best_epoch, "epochs": len(out.nll_trace)}


def _written(args, kwargs, out):
    # every request writes into a fresh directory, so the size after the
    # call is what this call wrote
    return os.path.getsize(args[0]), None


def _density_rows(args, kwargs, out):
    return _rows(args[0]), None


# ---------------------------------------------------------------------------
# installing the wrappers
# ---------------------------------------------------------------------------


def _targets():
    from flowquad import analysis, cli, quadrature, training
    from flowquad.network import MlpVectorField
    from flowquad.transport import KrTransport

    targets = [
        (cli, "cmd_run", "cli.cmd_run", None),
        (cli, "train_erm", "training.train_erm", _train),
        (cli, "save_checkpoint", "cli.save_checkpoint", None),
        (quadrature, "smolyak", "quadrature.smolyak", _smolyak),
        (analysis, "flow_forward", "flow.forward", _flow_forward),
        (analysis, "log_pushforward_density", "flow.log_density", _flow_call(2)),
        (analysis, "kahan_sum", "quadrature.kahan_sum", None),
        (training, "log_density_with_gradient", "flow.adjoint", _flow_call(2)),
        (training, "log_pushforward_density", "flow.log_density", _flow_call(2)),
        (KrTransport, "kr_map_batch", "transport.kr_map_batch", None),
        (MlpVectorField, "forward", "network.forward", _net_value),
        (MlpVectorField, "__call__", "network.forward", _net_value),
        (MlpVectorField, "value_jacobian_divergence", "network.value_jacobian_divergence",
         _net_tangent),
        (MlpVectorField, "forward_with_cache", "network.forward_with_cache",
         _net_forward_with_cache),
        (MlpVectorField, "vjp", "network.vjp", _net_vjp),
    ]
    for fn in ("make_qoi", "reference_expectation", "tv_estimate", "kl_estimate",
               "pullback_integral_oracle", "integrate_via_flow", "total_error",
               "append_reports", "write_convergence_csv"):
        measure = {"integrate_via_flow": _integrate, "append_reports": _written,
                   "write_convergence_csv": _written}.get(fn)
        targets.append((analysis, fn, f"analysis.{fn}", measure))
    return targets


def _wrap(rec, name, fn, measure):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return rec.call(name, fn, args, kwargs, measure)
    return wrapper


def _traced_density(rec, density):
    return dataclasses.replace(
        density, evaluate=_wrap(rec, "densities.evaluate", density.evaluate, _density_rows)
    )


def missing_targets():
    """Wrapper targets this version of flowquad does not have."""
    return [f"{getattr(o, '__name__', o)}.{a}" for o, a, _, _ in _targets()
            if a not in vars(o)]


@contextlib.contextmanager
def installed(rec):
    """Trace every call made inside the block; restore the originals after."""
    from flowquad import cli

    saved = []
    try:
        for owner, attr, name, measure in _targets():
            if attr not in vars(owner):
                continue
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(rec, name, original, measure))
        # densities built by cmd_run trace their evaluate
        if "product_density" in vars(cli):
            make = vars(cli)["product_density"]
            saved.append((cli, "product_density", make))
            cli.product_density = lambda *a, **k: _traced_density(rec, make(*a, **k))
        yield rec
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one request
# ---------------------------------------------------------------------------


def layer_metrics(rec, request):
    """Per-layer metrics of one traced request (spans with that request id).

    The request's root span is named "bench.request".
    """
    first, spans = rec.request_spans(request)
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    parent = [s[3] - first if s[3] >= first else -1 for s in spans]
    child = [0.0] * n
    under_adjoint = [False] * n
    under_train = [False] * n
    for i, s in enumerate(spans):
        p = parent[i]
        if p >= 0:
            child[p] += dur[i]
            under_adjoint[i] = spans[p][0] == "flow.adjoint" or under_adjoint[p]
            under_train[i] = spans[p][0] == "training.train_erm" or under_train[p]

    total = {}
    calls = {}
    module_self = dict.fromkeys(MODULES, 0.0)
    for i, s in enumerate(spans):
        total[s[0]] = total.get(s[0], 0.0) + dur[i]
        calls[s[0]] = calls.get(s[0], 0) + 1
        module_self[s[0].split(".")[0]] += dur[i] - child[i]

    def of(name):
        return [(i, s) for i, s in enumerate(spans) if s[0] == name]

    value_rows = value_s = value_calls = 0
    tangent_rows = tangent_s = tangent_calls = 0
    adjoint_tangent_rows = recomputed_rows = 0
    flops = 0
    for i, s in of("network.forward") + of("network.value_jacobian_divergence") \
            + of("network.forward_with_cache"):
        info = s[6]
        tangents = s[0] == "network.value_jacobian_divergence" or (
            isinstance(info, dict) and info["tangents"])
        flops += info["flops"] if isinstance(info, dict) else info
        if tangents:
            tangent_rows += s[5]
            tangent_s += dur[i]
            tangent_calls += 1
            if under_adjoint[i]:
                adjoint_tangent_rows += s[5]
                if s[0] == "network.forward_with_cache":
                    recomputed_rows += s[5]
        else:
            value_rows += s[5]
            value_s += dur[i]
            value_calls += 1
    vjp = of("network.vjp")
    flops += sum(s[6] for _, s in vjp)

    forward = of("flow.forward")
    seen = set()
    repeat_rows = forward_rows = 0
    for _, s in forward:
        forward_rows += s[5]
        if s[6]["key"] in seen:
            repeat_rows += s[5]
        seen.add(s[6]["key"])
    field_evals = sum(4 * s[6]["steps"] for _, s in forward) + sum(
        4 * s[6] for _, s in of("flow.log_density") + of("flow.adjoint"))

    smolyak = of("quadrature.smolyak")
    nodes = sum(s[5] for _, s in smolyak)
    summed = sum(s[6] for _, s in smolyak)

    train = of("training.train_erm")
    epochs = sum(s[6]["epochs"] for _, s in train)
    best = sum(s[6]["best_epoch"] + 1 for _, s in train)
    train_s = total.get("training.train_erm", 0.0)
    trained_rows = sum(s[5] for i, s in of("flow.adjoint") if under_train[i])
    integrate_s = total.get("analysis.integrate_via_flow", 0.0)
    integrated = sum(s[5] for _, s in of("analysis.integrate_via_flow"))

    def ratio(a, b, scale=1.0):
        return scale * a / b if b else 0.0

    m = {
        "quadrature.smolyak_s": total.get("quadrature.smolyak", 0.0),
        "quadrature.nodes": nodes,
        "quadrature.dedup_ratio": ratio(nodes, summed),
        "quadrature.kahan_sum_s": total.get("quadrature.kahan_sum", 0.0),
        "densities.evaluate_s": total.get("densities.evaluate", 0.0),
        "densities.evaluate_rows": sum(s[5] for _, s in of("densities.evaluate")),
        "transport.sample_s": total.get("transport.kr_map_batch", 0.0),
        "network.value_calls": value_calls,
        "network.value_rows": value_rows,
        "network.value_s": value_s,
        "network.value_ns_per_row": ratio(value_s, value_rows, 1e9),
        "network.tangent_calls": tangent_calls,
        "network.tangent_rows": tangent_rows,
        "network.tangent_s": tangent_s,
        "network.tangent_ns_per_row": ratio(tangent_s, tangent_rows, 1e9),
        "network.vjp_calls": len(vjp),
        "network.vjp_rows": sum(s[5] for _, s in vjp),
        "network.vjp_s": total.get("network.vjp", 0.0),
        "network.tangent_recompute_frac": ratio(recomputed_rows, adjoint_tangent_rows),
        "network.flops_computed": flops,
        "flow.forward_calls": len(forward),
        "flow.forward_s": total.get("flow.forward", 0.0),
        "flow.forward_repeat_frac": ratio(repeat_rows, forward_rows),
        "flow.log_density_calls": calls.get("flow.log_density", 0),
        "flow.log_density_s": total.get("flow.log_density", 0.0),
        "flow.adjoint_calls": calls.get("flow.adjoint", 0),
        "flow.adjoint_s": total.get("flow.adjoint", 0.0),
        "flow.field_evals": field_evals,
        "training.train_s": train_s,
        "training.sample_epochs_per_s": ratio(trained_rows, train_s),
        "training.epochs": epochs,
        "training.minibatches": sum(1 for i, _ in of("flow.adjoint") if under_train[i]),
        "training.useful_epoch_frac": ratio(best, epochs),
        "analysis.tv_s": total.get("analysis.tv_estimate", 0.0),
        "analysis.kl_s": total.get("analysis.kl_estimate", 0.0),
        "analysis.oracle_s": total.get("analysis.pullback_integral_oracle", 0.0),
        "analysis.reference_s": total.get("analysis.reference_expectation", 0.0),
        "analysis.integrate_s": integrate_s,
        "analysis.integrate_nodes_per_s": ratio(integrated, integrate_s),
        "analysis.write_s": total.get("analysis.append_reports", 0.0)
        + total.get("analysis.write_convergence_csv", 0.0),
        "analysis.bytes_written": sum(
            s[5] for _, s in of("analysis.append_reports") + of("analysis.write_convergence_csv")),
        "cli.cmd_run_s": total.get("cli.cmd_run", 0.0),
        "cli.checkpoint_s": total.get("cli.save_checkpoint", 0.0),
        "trace.request_s": total.get("bench.request", 0.0),
    }
    for module in MODULES:
        m[f"{module}.self_s"] = module_self[module]
    return m
