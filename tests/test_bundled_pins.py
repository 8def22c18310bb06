"""The bundled configs and the benchmark workloads still produce
byte-identical artifacts.

The benchmark pins the sha256 of each bundled config's trace, summary
and bounds files, of the sweep CSVs of its tradeoff_sweep workload, and
of the summary and bounds files of its record_replay and exact_optimum
workloads at the default seed, in bench/pins.json; any change to those
bytes is a change of behaviour, so the digests are checked here as well
(read only).
"""

import hashlib
import json
from pathlib import Path

import pytest

from distgreedy.cli import main

ROOT = Path(__file__).resolve().parents[1]
ALL_PINS = json.loads((ROOT / "bench" / "pins.json").read_text())
PINS = ALL_PINS["bundled"]
# The tradeoff_sweep instance configs of the benchmark: instance j of the
# default seed 0 uses config seed j.
SWEEP_CONFIG = {"graph": {"kind": "erdos_renyi", "n": 12, "p": 0.5},
                "mixing": "metropolis",
                "functions": {"kind": "facility_location", "size": 36,
                              "universe": 60},
                "K": 6, "T": 5, "psi": "auto", "scenario": "tradeoff_sweep"}
# The single-instance workloads' configs at the default seed 0.
RUN_CONFIGS = {
    "record_replay": {"graph": {"kind": "erdos_renyi", "n": 50, "p": 0.2},
                      "mixing": "metropolis",
                      "functions": {"kind": "facility_location", "size": 35,
                                    "universe": 400},
                      "K": 6, "T": 20, "psi": "auto",
                      "scenario": "record_replay", "seed": 0},
    "exact_optimum": {"graph": {"kind": "erdos_renyi", "n": 10, "p": 0.4},
                      "mixing": "metropolis",
                      "functions": {"kind": "weighted_coverage", "size": 22,
                                    "universe": 60},
                      "K": 4, "T": 80, "psi": "auto",
                      "scenario": "exact_optimum", "seed": 0},
}


@pytest.mark.parametrize("name", sorted(PINS))
def test_bundled_config_artifacts_match_pins(name, tmp_path):
    code = main(["run", "--config", str(ROOT / "configs" / f"{name}.json"),
                 "--trace-out", str(tmp_path / "trace.csv"),
                 "--summary-out", str(tmp_path / "summary.json"),
                 "--bounds-out", str(tmp_path / "bounds.json")])
    assert code in (0, 1)
    for artifact, digest in PINS[name].items():
        got = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        assert got == digest, f"{name}/{artifact} differs from its pin"


@pytest.mark.parametrize("instance", range(3))
def test_benchmark_sweeps_match_pins(instance, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(dict(SWEEP_CONFIG, seed=instance)))
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--config", str(cfg), "--T", "5:40",
                 "--out", str(out)]) == 0
    got = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == ALL_PINS["tradeoff_sweep"][f"i{instance}/sweep.csv"]


@pytest.mark.parametrize("workload", sorted(RUN_CONFIGS))
def test_benchmark_runs_match_pins(workload, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(RUN_CONFIGS[workload]))
    # record_replay exits 1: its mean_conservation check fails on round-off
    code = main(["run", "--config", str(cfg),
                 "--trace-out", str(tmp_path / "trace.csv"),
                 "--summary-out", str(tmp_path / "summary.json"),
                 "--bounds-out", str(tmp_path / "bounds.json")])
    assert code in (0, 1)
    pins = ALL_PINS[workload]
    for artifact in ("summary.json", "bounds.json"):
        got = hashlib.sha256((tmp_path / artifact).read_bytes()).hexdigest()
        assert got == pins[f"i0/{artifact}"], f"{workload}/{artifact}"
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["selected"] == pins["selection"][0]
    if workload == "record_replay":
        assert main(["analyze", "--trace", str(tmp_path / "trace.csv"),
                     "--config", str(cfg),
                     "--out", str(tmp_path / "analyze.json")]) == code
        assert ((tmp_path / "analyze.json").read_bytes()
                == (tmp_path / "bounds.json").read_bytes())
