"""Benchmark of the distgreedy CLI: three workloads, end to end and per layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root. It needs nothing beyond the program's
own dependencies: the children import the package from ``src/``.

Load shape: a closed loop with one client. This single parent process
starts one ``python -m distgreedy.cli ...`` child at a time, waits for it
with ``os.wait4`` and times it, the way a user runs the tool as batch
commands. An iteration is the workload's command sequence, run on each
of its instance configs. The configs are generated from ``--seed`` and
written to JSON files; the program receives only those files.

Each run:
  1. runs the four bundled ``configs/*.json`` once, untimed, and compares
     their trace, summary and bounds files with digests pinned in
     ``bench/pins.json`` (the repository's definition of unchanged
     behaviour);
  2. runs one warm-up iteration on the default seed's configs, untimed and
     discarded, which also absorbs bytecode compilation; its selection,
     summary, bounds and sweep files are compared with pinned digests;
  3. measures iterations on the ``--seed`` configs for ``--seconds``:
     - ``--trace 0``: before each iteration, ``distgreedy validate-config``
       in a fresh child gives one ``setup_s`` sample; the end-to-end
       metrics are medians over the iterations;
     - ``--trace 1``: untraced iterations alternate with traced ones, in
       which each command runs in-process under ``bench/tracer.py``; the
       per-layer metrics are medians over the traced iterations and
       ``tracing_overhead`` is the ratio of the median traced to the
       median untraced iteration wall time.

End-to-end metrics, each the median over the iterations:
  wall_s       wall time of an iteration's children, start to exit (s)
  setup_s      wall time of ``validate-config`` in a fresh child (s)
  peak_rss_mb  largest peak RSS among an iteration's children (10^6 bytes)
  artifact_mb  size of the files an iteration writes (10^6 bytes)
``audit_fails``, the failed audit checks of an iteration's bounds reports,
is printed with them and traced as ``analysis.audit_fails``. It reads 0
on two workloads, so it has no regression bound of its own.

A failed operation is a child that crashed (an exit code other than 0
or 1, a Python traceback on its standard error, or 1 without a failed
audit check in its report) or whose output
failed a check: a pinned digest, run's bounds against analyze's, or an
iteration whose files differ from the first iteration's. Exit code 1
with a failed audit check is a result, counted in ``audit_fails``.

The last line of standard output is the JSON result; the lines before it
state the environment, sample counts and every metric with its unit. A
run that measured nothing, because the first iteration crashed or the
deadline (``--seconds`` plus a fixed margin) came first, prints no result
and exits with status 1.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import layer_metrics  # noqa: E402

DEFAULT_SEED = 0
PINS = BENCH / "pins.json"
BUNDLED = ["exact_consensus", "nonsubmodular", "ring_metropolis", "tradeoff"]
MIN_ITERATIONS = 5
MIN_TRACED = 3
COMMAND_TIMEOUT_S = 60.0
# Time a run may take beyond --seconds: the bundled configs, the warm-up
# and the iteration that is under way when the measuring window ends.
DEADLINE_MARGIN_S = 80.0
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


def _er(n, p):
    return {"kind": "erdos_renyi", "n": n, "p": p}


RUN = ["run", "--config", "{cfg}", "--trace-out", "{out}/trace.csv",
       "--summary-out", "{out}/summary.json", "--bounds-out", "{out}/bounds.json"]
ANALYZE = ["analyze", "--trace", "{out}/trace.csv", "--config", "{cfg}",
           "--out", "{out}/analyze.json"]

# Each workload makes one layer do most of the work and leaves at least
# one other layer light. Sizes are the ROADMAP ladder scaled so that an
# iteration takes about 2 s on a 2-core machine; see CHANGES.md. An
# iteration runs the commands once per instance; instance j of seed s is
# generated from config seed s * instances + j.
WORKLOADS = {
    # Trace write (run) and read (analyze) are most of the wall time.
    # value_cap ~3600 with n=50 and T=20 makes mean_conservation fail on
    # every seed tried (the known false failure), in run and in analyze.
    # C(35, 6) is above the enumeration cap, so no brute force runs.
    "record_replay": {
        "instances": 1,
        "config": {"graph": _er(50, 0.2), "mixing": "metropolis",
                   "functions": {"kind": "facility_location", "size": 35,
                                 "universe": 400},
                   "K": 6, "T": 20, "psi": "auto"},
        "commands": [RUN, ANALYZE],
        "artifacts": ["trace.csv", "summary.json", "bounds.json", "analyze.json"],
        "reports": {0: "bounds.json", 1: "analyze.json"},
        "pinned": ["summary.json", "bounds.json"],
    },
    # The communication-quality curve from vacuous psi (small T) to tight
    # psi (large T). No trace I/O; C(36, 6) is above the enumeration cap,
    # so no brute force. Later T points revisit the masks of earlier ones,
    # so the memo mostly hits. How many distinct selection paths the T
    # range visits, and so how many masks are evaluated, varies by about
    # a third between instances, so an iteration sweeps three of them.
    # T stops at 40, where psi stays above 1e-9 on these graphs; at
    # psi ~1e-15 (T=95 on one instance) the candidate sets intersected to
    # nothing and the sweep failed.
    "tradeoff_sweep": {
        "instances": 3,
        "config": {"graph": _er(12, 0.5), "mixing": "metropolis",
                   "functions": {"kind": "facility_location", "size": 36,
                                 "universe": 60},
                   "K": 6, "T": 5, "psi": "auto"},
        "commands": [["sweep", "--config", "{cfg}", "--T", "5:40",
                      "--out", "{out}/sweep.csv"]],
        "artifacts": ["sweep.csv"],
        "reports": {},
        "pinned": ["sweep.csv"],
    },
    # brute_force_optimum scans all C(22, 4) = 7315 subsets of the average
    # function and dominates; its masks are mostly new, so the memo
    # mostly misses. T=80 makes psi tight: every check passes, including
    # a non-vacuous approx_bound.
    "exact_optimum": {
        "instances": 1,
        "config": {"graph": _er(10, 0.4), "mixing": "metropolis",
                   "functions": {"kind": "weighted_coverage", "size": 22,
                                 "universe": 60},
                   "K": 4, "T": 80, "psi": "auto"},
        "commands": [RUN],
        "artifacts": ["trace.csv", "summary.json", "bounds.json"],
        "reports": {0: "bounds.json"},
        "pinned": ["summary.json", "bounds.json"],
    },
}
BUNDLED_ARTIFACTS = ["trace.csv", "summary.json", "bounds.json"]


class Timeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise Timeout()


class Runner:
    """Starts one child at a time and keeps the operation tally."""

    def __init__(self, work, deadline):
        signal.signal(signal.SIGALRM, _on_alarm)
        self.deadline = deadline
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_ENV)
        self.env.pop("DG_LOG", None)
        self.log = work / "children.log"
        self.stderr = work / "stderr.txt"

    def fail(self, what):
        self.failed += 1
        self.problems.append(what)

    def command(self, argv):
        """Run one child; returns (exit code, wall s, peak RSS bytes). An
        uncaught exception, whose exit code 1 would read as a failed audit,
        is returned as exit code -1. Raises Timeout, after killing the
        child, past the run deadline."""
        self.attempted += 1
        budget = min(COMMAND_TIMEOUT_S, self.deadline - time.perf_counter())
        if budget <= 0:
            raise Timeout()
        with open(self.log, "a") as log, open(self.stderr, "w+") as err:
            log.write("$ " + " ".join(argv) + "\n")
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                                    env=self.env, stdout=log, stderr=err)
            signal.setitimer(signal.ITIMER_REAL, budget)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except Timeout:
                proc.kill()
                proc.wait()
                raise
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            wall = time.perf_counter() - start
            err.seek(0)
            stderr = err.read()
            log.write(stderr)
        proc.returncode = os.waitstatus_to_exitcode(status)
        if "Traceback (most recent call last)" in stderr:
            return -1, wall, usage.ru_maxrss * 1024
        return proc.returncode, wall, usage.ru_maxrss * 1024


def _fill(args, cfg, out):
    return [a.format(cfg=cfg, out=out) for a in args]


def _sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _failed_checks(path):
    """Failed, not skipped, checks in a bounds report; None if the file is
    missing or not a bounds report."""
    try:
        checks = json.loads(path.read_text())["checks"]
        return sum(1 for c in checks.values() if not c["passed"] and not c["skipped"])
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None


def write_configs(workload, seed, directory):
    """The workload's instance configs for `seed`; returns their paths."""
    spec = WORKLOADS[workload]
    paths = []
    for j in range(spec["instances"]):
        cfg = dict(spec["config"], scenario=workload,
                   seed=seed * spec["instances"] + j)
        path = directory / f"seed{seed}-i{j}.json"
        path.write_text(json.dumps(cfg, indent=2) + "\n")
        paths.append(path)
    return paths


def run_iteration(runner, workload, cfgs, out, trace_dir=None):
    """One iteration; returns its measurements, or None if a command
    crashed. With trace_dir, each command runs under the tracer."""
    spec = WORKLOADS[workload]
    walls, rss, summaries = [], [], []
    dirs = []
    for j, cfg in enumerate(cfgs):
        inst = out / f"i{j}"
        inst.mkdir(parents=True, exist_ok=True)
        for name in spec["artifacts"]:
            (inst / name).unlink(missing_ok=True)
        dirs.append(inst)
        for k, args in enumerate(spec["commands"]):
            argv = ["-m", "distgreedy.cli"] + _fill(args, cfg, inst)
            if trace_dir is not None:
                summary = trace_dir / f"layers-i{j}-{k}.json"
                spans = trace_dir / f"spans-i{j}-{k}.jsonl"
                summary.unlink(missing_ok=True)
                spans.unlink(missing_ok=True)
                argv = [str(BENCH / "tracer.py"), str(summary), str(spans),
                        "--"] + argv[2:]
            code, wall, peak = runner.command(argv)
            walls.append(wall)
            rss.append(peak)
            label = f"{workload} i{j} {args[0]} (exit {code})"
            if code not in (0, 1):
                runner.fail(f"{label}: crashed")
                return None
            report = spec["reports"].get(k)
            if report is not None:
                fails = _failed_checks(inst / report)
                if fails is None or (code == 1) != (fails > 0):
                    runner.fail(f"{label}: exit code disagrees with its report")
                    return None
            elif code != 0:
                runner.fail(f"{label}: failed without a report")
                return None
            if trace_dir is not None:
                if not summary.exists():
                    runner.fail(f"{label}: the tracer wrote no summary")
                    return None
                summaries.append(json.loads(summary.read_text()))
    paths = {f"{d.name}/{n}": d / n for d in dirs for n in spec["artifacts"]}
    missing = [key for key, path in paths.items() if not path.exists()]
    if missing:
        runner.fail(f"{workload}: missing outputs {missing}")
        return None
    files = {key: _sha(path) for key, path in paths.items()}
    for d in dirs:
        if "analyze.json" in spec["artifacts"] and (
                files[f"{d.name}/analyze.json"] != files[f"{d.name}/bounds.json"]):
            runner.fail(f"{workload} {d.name}: analyze's bounds differ from run's")
    result = {
        "wall_s": sum(walls),
        "peak_rss_mb": max(rss) / 1e6,
        "artifact_mb": sum(p.stat().st_size for p in paths.values()) / 1e6,
        "audit_fails": sum(_failed_checks(d / r) for d in dirs
                           for r in spec["reports"].values()),
        "files": files,
        "digest": hashlib.sha256(json.dumps(files, sort_keys=True).encode()).hexdigest(),
    }
    if "summary.json" in spec["artifacts"]:
        try:
            result["selection"] = [
                json.loads((d / "summary.json").read_text())["selected"] for d in dirs]
        except (ValueError, KeyError, TypeError):
            runner.fail(f"{workload}: a summary.json has no selection")
            return None
    if trace_dir is not None:
        result["layers"], result["absent"] = layer_metrics(summaries)
    return result


def pinned_outputs(workload, result):
    """What the pins record for a default-seed iteration."""
    pinned = WORKLOADS[workload]["pinned"]
    pins = {key: sha for key, sha in result["files"].items()
            if key.split("/", 1)[1] in pinned}
    if "selection" in result:
        pins["selection"] = result["selection"]
    return pins


def check_pins(runner, expected, actual, label):
    if expected is None:
        runner.fail(f"{label}: no pinned digests in {PINS.name}")
        return
    differ = [key for key, value in expected.items() if actual.get(key) != value]
    if differ:
        runner.fail(f"{label}: {', '.join(differ)} differ from the pinned values")


def run_bundled(runner, work):
    """Each bundled config once, untimed; returns {name: file digests}."""
    digests = {}
    for name in BUNDLED:
        out = work / "bundled" / name
        out.mkdir(parents=True, exist_ok=True)
        for a in BUNDLED_ARTIFACTS:
            (out / a).unlink(missing_ok=True)
        cfg = ROOT / "configs" / f"{name}.json"
        code, _, _ = runner.command(["-m", "distgreedy.cli"] + _fill(RUN, cfg, out))
        if code not in (0, 1) or not all((out / a).exists() for a in BUNDLED_ARTIFACTS):
            runner.fail(f"bundled {name}: crashed (exit {code})")
            continue
        digests[name] = {a: _sha(out / a) for a in BUNDLED_ARTIFACTS}
    return digests


def environment(runner):
    """Versions and source identity, from the interpreter the children use.
    Exits with status 1 when the checkout has no importable program."""
    probe = ("import sys, numpy, distgreedy; "
             "print(distgreedy.__file__); print(numpy.__version__)")
    try:
        proc = subprocess.run([sys.executable, "-c", probe], cwd=ROOT,
                              env=runner.env, capture_output=True, text=True,
                              timeout=COMMAND_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("bench: importing distgreedy timed out")
    lines = proc.stdout.split()
    src = (ROOT / "src").resolve()
    if proc.returncode != 0 or not lines or src not in Path(lines[0]).resolve().parents:
        sys.exit(f"bench: no distgreedy package under {src}: "
                 f"{proc.stderr.strip()[-300:]}")
    if not all((ROOT / "configs" / f"{n}.json").exists() for n in BUNDLED):
        sys.exit("bench: bundled configs/*.json are missing")
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True)
        commit = git.stdout.strip() or None
    return {"commit": commit, "src_sha256": h.hexdigest()[:16],
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": lines[1], "machine": platform.machine()}


def measure(args, runner, work, setup, untraced, traced):
    """Steps 1-3 of the module docstring. Appends the setup_s samples and
    the untraced and traced iterations to the given lists as they are
    measured, so a Timeout keeps what was measured before it."""
    workload = args.workload
    pins = json.loads(PINS.read_text()) if PINS.exists() else {}

    bundled = run_bundled(runner, work)
    for name, digests in bundled.items():
        check_pins(runner, pins.get("bundled", {}).get(name), digests, f"bundled {name}")

    warm = run_iteration(runner, workload,
                         write_configs(workload, DEFAULT_SEED, work), work / "warmup")
    if warm is not None:
        check_pins(runner, pins.get(workload), pinned_outputs(workload, warm),
                   f"{workload} seed {DEFAULT_SEED}")

    cfgs = write_configs(workload, args.seed, work)
    first_digest = None
    start = time.perf_counter()
    while True:
        if not args.trace:
            code, wall, _ = runner.command(["-m", "distgreedy.cli", "validate-config",
                                            "--config", str(cfgs[0])])
            if code == 0:
                setup.append(wall)
            else:
                runner.fail(f"validate-config exited {code}")
        for trace_dir in [None] + ([work / "trace"] if args.trace else []):
            if trace_dir is not None:
                trace_dir.mkdir(exist_ok=True)
            it = run_iteration(runner, workload, cfgs, work / "iter", trace_dir)
            if it is None:
                return
            first_digest = first_digest or it["digest"]
            if it["digest"] != first_digest:
                runner.fail(f"{workload}: iteration outputs differ from the first")
            (traced if trace_dir is not None else untraced).append(it)
        enough = len(untraced) >= (MIN_TRACED if args.trace else MIN_ITERATIONS)
        if enough and time.perf_counter() - start >= args.seconds:
            return


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    work = BENCH / ".work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, time.perf_counter() + args.seconds + DEADLINE_MARGIN_S)
    env = environment(runner)
    print(f"bench: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))

    setup, untraced, traced = [], [], []
    try:
        measure(args, runner, work, setup, untraced, traced)
    except Timeout:
        runner.fail("run deadline reached")
    if not untraced or not (traced if args.trace else setup):
        # No sample to report: a result of zeros would read as a gain.
        print(f"operations: {runner.failed} failed of {runner.attempted} attempted")
        for problem in runner.problems:
            print(f"  FAILED: {problem}")
        print("bench: nothing was measured; no result", file=sys.stderr)
        return 1

    median = statistics.median
    walls = [u["wall_s"] for u in untraced]
    if args.trace:
        metrics, _ = layer_metrics([])
        for name in metrics:
            metrics[name] = median([t["layers"][name] for t in traced])
        absent = sorted({a for t in traced for a in t["absent"]})
        metrics["tracing_overhead"] = (
            median([t["wall_s"] for t in traced]) / median(walls))
    else:
        absent = []
        metrics = {
            "wall_s": median(walls),
            "setup_s": median(setup),
            "peak_rss_mb": median([u["peak_rss_mb"] for u in untraced]),
            "artifact_mb": median([u["artifact_mb"] for u in untraced]),
        }
    audit = [u["audit_fails"] for u in untraced]
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": env,
        "samples": {"warmup_discarded": 1, "iterations": len(untraced),
                    "traced_iterations": len(traced), "setup_probes": len(setup)},
        "wall_s_samples": walls, "setup_s_samples": setup,
        "traced_wall_s_samples": [t["wall_s"] for t in traced],
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
        "audit_fails": max(audit),
        "absent": absent,
        "attempted": runner.attempted, "failed": runner.failed,
        "problems": runner.problems,
    }
    (work / "result.json").write_text(json.dumps(record, indent=2) + "\n")

    s = record["samples"]
    print(f"samples: {s['iterations']} untraced iterations, "
          f"{s['traced_iterations']} traced, {s['setup_probes']} setup probes, "
          "1 warm-up discarded; each metric is the median over iterations")
    for name, samples in (("wall_s", walls), ("setup_s", setup)):
        if len(samples) >= 2:
            q1, q2, q3 = statistics.quantiles(samples, n=4)
            print(f"  {name} quartiles {q1:.4f} {q2:.4f} {q3:.4f} s, "
                  f"range {min(samples):.4f} .. {max(samples):.4f} s, n={len(samples)}")
    for name, m in record["metrics"].items():
        print(f"  {name:28s} {m['value']:.6g} {m['unit']}")
    print(f"  {'audit_fails':28s} {record['audit_fails']} count "
          "(failed audit checks per iteration, deterministic)")
    for name in absent:
        print(f"  absent: {name} (not hooked in this version of the program)")
    print(f"operations: {runner.failed} failed of {runner.attempted} attempted")
    for problem in runner.problems:
        print(f"  FAILED: {problem}")
    print(json.dumps({"correct": runner.failed == 0,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": record["metrics"]}))
    return 0


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name in ("setfn.memo_hit_ratio", "tracing_overhead"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
