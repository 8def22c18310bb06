"""Record one point of the benchmark's results trajectory.

    python3 bench/record.py TAG

Runs bench/run.py for the run_seconds of BENCHMARK.json: untraced once
per workload and seed, and traced once per workload on the first seed.
The untraced runs go seed by seed, each seed through every workload in
turn, so that a drift in the host's speed during the round falls on every
workload alike. Writes bench/results/BENCH_<TAG>.json with every run's
record and, per workload and end-to-end metric, the median over the seeds
and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run as bench

SEEDS = range(1, 11)


def one_run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(bench.BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"record: {workload} seed {seed} exited {proc.returncode}: "
                 f"{proc.stderr[-500:]}")
    record = json.loads((bench.BENCH / ".work" / workload / "result.json").read_text())
    print(f"{workload} seed={seed} trace={trace}: " + proc.stdout.splitlines()[-1],
          flush=True)
    return record


def spread(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("tag")
    args = parser.parse_args()
    seconds = json.loads((bench.ROOT / "BENCHMARK.json").read_text())["run_seconds"]

    runs = {workload: [] for workload in bench.WORKLOADS}
    for seed in SEEDS:
        for workload in bench.WORKLOADS:
            runs[workload].append(one_run(workload, seed, seconds, 0))
    point = {"tag": args.tag, "seeds": list(SEEDS), "seconds": seconds,
             "env": next(iter(runs.values()))[0]["env"], "workloads": {}}
    for workload, untraced in runs.items():
        traced = one_run(workload, SEEDS[0], seconds, 1)
        summary = {}
        for name, metric in untraced[0]["metrics"].items():
            values = [r["metrics"][name]["value"] for r in untraced]
            summary[name] = dict(spread(values), unit=metric["unit"])
        point["workloads"][workload] = {
            "end_to_end": summary,
            "audit_fails": [r["audit_fails"] for r in untraced],
            "operations": {"attempted": sum(r["attempted"] for r in untraced + [traced]),
                           "failed": sum(r["failed"] for r in untraced + [traced])},
            "per_layer": traced["metrics"],
            "runs": untraced,
            "traced_run": traced,
        }
    out = bench.BENCH / "results" / f"BENCH_{args.tag}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(point, indent=1) + "\n")
    for workload, w in point["workloads"].items():
        for name, s in w["end_to_end"].items():
            print(f"{workload:15s} {name:12s} median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.4f}")
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
