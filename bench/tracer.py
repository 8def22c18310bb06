"""Run one distgreedy CLI command in-process with per-layer spans.

    python3 bench/tracer.py SUMMARY_JSON SPANS_JSONL -- <distgreedy arguments>

Wraps the public functions of each module in src/distgreedy/ from the
outside, calls ``distgreedy.cli.main(argv)`` and exits with its exit
code. Every wrapped call records a span (id, parent id, name, start,
end); spans stay in memory and are written to SPANS_JSONL when the
command ends. SUMMARY_JSON gets the self time and call count of each
span name, the counters below, and the list of metrics whose hook could
not be installed because a later version of the program removed or
renamed the function: those layers are reported as absent, not as an
error.

``SetFunction.value_mask`` runs millions of times, so it is counted, not
timed. Memo misses are counted by wrapping the ``raw`` evaluator each
``SetFunction`` is constructed with.

This module imports only the standard library at import time, so the
benchmark parent can use ``layer_metrics`` without importing the program.
"""

import importlib
import inspect
import json
import math
import sys
import time

# Public functions timed as spans, by module. A span is named
# "module.function"; every module attribute bound to the same function
# object (e.g. cli.run_protocol and analysis.run for protocol.run) is
# patched, so no call path escapes the wrapper.
TIMED = {
    "config": ["build_run_config"],
    "graph": ["generate", "diameter"],
    "mixing": ["mixing_from_config"],
    "setfn": ["family_from_config"],
    "protocol": ["run", "init_round", "consensus_step", "threshold_candidates",
                 "intersection_step", "select_and_append"],
    "baseline": ["brute_force_optimum", "max_marginal"],
    "analysis": ["audit_trace", "bounds_report", "tradeoff_sweep"],
    "traceio": ["write_trace_csv", "read_trace_csv", "write_summary_json",
                "write_bounds_json", "canonical_json"],
    "cli": ["main"],
}

# Per-layer time metrics: the summed self time of these spans.
SELF_TIME = {
    "config.build_run_config_s": ["config.build_run_config"],
    "graph.generate_s": ["graph.generate"],
    "graph.diameter_s": ["graph.diameter"],
    "mixing.build_s": ["mixing.mixing_from_config"],
    "setfn.family_build_s": ["setfn.family_from_config"],
    "protocol.run_s": ["protocol.run"],
    "protocol.init_round_s": ["protocol.init_round"],
    "protocol.consensus_step_s": ["protocol.consensus_step"],
    "protocol.threshold_s": ["protocol.threshold_candidates"],
    "protocol.intersection_s": ["protocol.intersection_step"],
    "protocol.select_s": ["protocol.select_and_append"],
    "baseline.brute_force_s": ["baseline.brute_force_optimum"],
    "baseline.max_marginal_s": ["baseline.max_marginal"],
    "analysis.audit_trace_s": ["analysis.audit_trace"],
    "analysis.bounds_report_s": ["analysis.bounds_report"],
    "analysis.tradeoff_sweep_s": ["analysis.tradeoff_sweep"],
    "traceio.write_trace_s": ["traceio.write_trace_csv"],
    "traceio.read_trace_s": ["traceio.read_trace_csv"],
    "traceio.write_json_s": ["traceio.write_summary_json",
                             "traceio.write_bounds_json",
                             "traceio.canonical_json"],
    "cli.self_s": ["cli.main"],
}

# Per-layer count metrics: the number of calls of a span.
CALLS = {"graph.diameter_calls": "graph.diameter"}

# Counters filled by hooks on arguments and results. All are summed over
# the commands of an iteration except the maxima.
COUNTERS = ["setfn.value_mask_calls", "setfn.evals", "protocol.rounds",
            "protocol.x_steps_mb", "protocol.floats_sent",
            "protocol.set_elems_sent", "baseline.subsets",
            "traceio.trace_rows", "analysis.audit_fails"]
MAXIMA = {"protocol.x_steps_mb"}


def layer_metrics(summaries):
    """Per-layer metrics of one iteration from its commands' summaries.

    Returns (metrics, absent): absent names the metrics no command could
    hook; they read 0.
    """
    self_s, calls, counters = {}, {}, {}
    present = set()
    for s in summaries:
        for name, v in s["self_s"].items():
            self_s[name] = self_s.get(name, 0.0) + v
        for name, v in s["calls"].items():
            calls[name] = calls.get(name, 0) + v
        for name, v in s["counters"].items():
            if name in MAXIMA:
                counters[name] = max(counters.get(name, 0), v)
            else:
                counters[name] = counters.get(name, 0) + v
        present.update(s["hooked"])
    metrics, absent = {}, []
    for metric, spans in SELF_TIME.items():
        metrics[metric] = sum(self_s.get(n, 0.0) for n in spans)
        if not present.intersection(spans):
            absent.append(metric)
    for metric, span in CALLS.items():
        metrics[metric] = calls.get(span, 0)
        if span not in present:
            absent.append(metric)
    for metric in COUNTERS:
        metrics[metric] = counters.get(metric, 0)
        if metric not in present:
            absent.append(metric)
    vm_calls = metrics["setfn.value_mask_calls"]
    metrics["setfn.memo_hit_ratio"] = (
        1.0 - metrics["setfn.evals"] / vm_calls if vm_calls else 0.0)
    if "setfn.evals" in absent or "setfn.value_mask_calls" in absent:
        absent.append("setfn.memo_hit_ratio")
    return metrics, absent


class Tracer:
    """In-memory span recorder with self-time accounting."""

    def __init__(self):
        self.spans = []       # (id, parent id, name, start, end)
        self.stack = []       # [id, start, time covered by children]
        self.self_s = {}
        self.calls = {}
        self.counters = {name: 0 for name in COUNTERS}
        self.hooked = set()   # span names and counters actually installed

    def wrap(self, name, fn, after=None):
        """Time fn as span `name`; `after(args, kwargs, result)` updates
        counters outside every span's self time."""
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            sid = len(self.spans) + len(stack)
            parent = stack[-1] if stack else None
            frame = [sid, clock(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[1]
                self.self_s[name] = self.self_s.get(name, 0.0) + dur - frame[2]
                self.calls[name] = self.calls.get(name, 0) + 1
                if parent is not None:
                    parent[2] += dur
                self.spans.append((sid, None if parent is None else parent[0],
                                   name, frame[1], end))
            if after is not None:
                start = clock()
                after(args, kwargs, result)
                if parent is not None:
                    parent[2] += clock() - start
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def summary(self, absent_reasons):
        return {"self_s": self.self_s, "calls": self.calls,
                "counters": self.counters, "hooked": sorted(self.hooked),
                "absent_reasons": absent_reasons}


def _rebind(modules, old, new):
    """Point every module-level name bound to `old` at `new`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, attr, new)


def _trace_rows(trace):
    """Rows of the trace CSV: one per (round, t, agent, element) gain,
    one per (round, step, agent) candidate set, one per chosen element."""
    return sum((trace.T + 1) * trace.n * len(rec.remaining)
               + len(rec.candidate_steps) * trace.n + 1 for rec in trace.rounds)


def _set_size(s):
    return len(s) if isinstance(s, (set, frozenset)) else int(sum(bool(x) for x in s))


def install(tracer):
    """Patch the program; returns {metric or span: reason} for what is absent."""
    absent = {}
    modules = {}
    for layer in TIMED:
        try:
            modules[layer] = importlib.import_module(f"distgreedy.{layer}")
        except ImportError as exc:
            absent[layer] = f"module missing: {exc}"
    loaded = [m for name, m in sys.modules.items()
              if name == "distgreedy" or name.startswith("distgreedy.")]
    counters = tracer.counters

    def after_run(args, kwargs, trace):
        config = args[0] if args else kwargs["config"]
        net = config.network
        degree = [net.degree(i) for i in range(1, net.n + 1)]
        two_e = sum(degree)
        counters["protocol.rounds"] += len(trace.rounds)
        counters["protocol.floats_sent"] += sum(
            two_e * len(rec.remaining) * trace.T for rec in trace.rounds)
        counters["protocol.set_elems_sent"] += sum(
            degree[i] * _set_size(sets)
            for rec in trace.rounds for step in rec.candidate_steps[:-1]
            for i, sets in enumerate(step))
        x_mb = sum(rec.x_steps.nbytes for rec in trace.rounds) / 1e6
        counters["protocol.x_steps_mb"] = max(counters["protocol.x_steps_mb"], x_mb)

    def after_brute_force(args, kwargs, result):
        f = args[0] if args else kwargs["f"]
        K = args[1] if len(args) > 1 else kwargs["K"]
        m = f.ground.size
        counters["baseline.subsets"] += math.comb(m, min(K, m))

    def after_write_trace(args, kwargs, result):
        counters["traceio.trace_rows"] += _trace_rows(args[0] if args else kwargs["trace"])

    def after_read_trace(args, kwargs, trace):
        counters["traceio.trace_rows"] += _trace_rows(trace)

    def after_bounds_report(args, kwargs, report):
        counters["analysis.audit_fails"] += sum(
            1 for c in report.checks if not c.passed and not c.skipped)

    hooks = {
        "protocol.run": ("protocol.rounds", "protocol.floats_sent",
                         "protocol.set_elems_sent", "protocol.x_steps_mb",
                         after_run),
        "baseline.brute_force_optimum": ("baseline.subsets", after_brute_force),
        "traceio.write_trace_csv": ("traceio.trace_rows", after_write_trace),
        "traceio.read_trace_csv": ("traceio.trace_rows", after_read_trace),
        "analysis.bounds_report": ("analysis.audit_fails", after_bounds_report),
    }

    for layer, names in TIMED.items():
        mod = modules.get(layer)
        for fname in names:
            span = f"{layer}.{fname}"
            fn = getattr(mod, fname, None) if mod is not None else None
            if not callable(fn):
                absent[span] = "function missing"
                continue
            after = None
            if span in hooks:
                *hooked, update = hooks[span]
                tracer.hooked.update(hooked)
                after = _guard(tracer, absent, hooked, update)
            _rebind(loaded, fn, tracer.wrap(span, fn, after))
            tracer.hooked.add(span)

    setfn = modules.get("setfn")
    cls = getattr(setfn, "SetFunction", None)
    value_mask = getattr(cls, "value_mask", None)
    if callable(value_mask):
        def counted_value_mask(self, mask):
            counters["setfn.value_mask_calls"] += 1
            return value_mask(self, mask)
        cls.value_mask = counted_value_mask
        tracer.hooked.add("setfn.value_mask_calls")
    else:
        absent["setfn.value_mask_calls"] = "SetFunction.value_mask missing"
    init = getattr(cls, "__init__", None)
    if cls is not None and "raw" in inspect.signature(init).parameters:
        def counted_init(self, ground, raw, *args, **kwargs):
            def counted_raw(mask):
                counters["setfn.evals"] += 1
                return raw(mask)
            init(self, ground, counted_raw, *args, **kwargs)
        cls.__init__ = counted_init
        tracer.hooked.add("setfn.evals")
    else:
        absent["setfn.evals"] = "SetFunction(ground, raw) constructor missing"
    return absent


def _guard(tracer, absent, counters, update):
    """Run a counter update after a call; a result shape the hook does not
    know marks its counters absent instead of failing the command."""
    def after(args, kwargs, result):
        try:
            update(args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError) as exc:
            for counter in counters:
                tracer.hooked.discard(counter)
                absent[counter] = f"hook failed: {exc!r}"
    return after


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    summary_path, spans_path, cli_argv = argv[0], argv[1], argv[3:]
    tracer = Tracer()
    absent = install(tracer)
    cli = sys.modules.get("distgreedy.cli")
    if cli is None or not callable(getattr(cli, "main", None)):
        print("tracer: distgreedy.cli.main is missing", file=sys.stderr)
        return 2
    code = cli.main(cli_argv)
    with open(summary_path, "w") as fh:
        json.dump(tracer.summary(absent), fh)
    with open(spans_path, "w") as fh:
        for sid, parent, name, start, end in tracer.spans:
            fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                 "start": start, "end": end}) + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
