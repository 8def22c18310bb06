"""Rewrite bench/pins.json from the program in this checkout.

    python3 bench/pin.py

Pins the default-seed outputs of every workload (selection, summary,
bounds, sweep CSV) and the trace, summary and bounds files of the
bundled configs. Run it only when a change is meant to alter the
program's outputs, and say so in the change.
"""

import json
import shutil
import sys
import time

import run as bench


def main():
    work = bench.BENCH / ".work" / "pin"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = bench.Runner(work, time.perf_counter() + 600)
    bench.environment(runner)
    pins = {"default_seed": bench.DEFAULT_SEED}
    for workload in bench.WORKLOADS:
        cfgs = bench.write_configs(workload, bench.DEFAULT_SEED, work)
        result = bench.run_iteration(runner, workload, cfgs, work / workload)
        if result is None:
            sys.exit(f"pin: {workload} failed: {runner.problems}")
        pins[workload] = bench.pinned_outputs(workload, result)
    pins["bundled"] = bench.run_bundled(runner, work)
    if runner.failed:
        sys.exit(f"pin: {runner.problems}")
    bench.PINS.write_text(json.dumps(pins, indent=2) + "\n")
    print(f"wrote {bench.PINS}")


if __name__ == "__main__":
    main()
