"""The bundled configs and the benchmark sweeps still produce
byte-identical artifacts.

The benchmark pins the sha256 of each bundled config's trace, summary
and bounds files, and of the sweep CSVs of its tradeoff_sweep workload
at the default seed, in bench/pins.json; any change to those bytes is a
change of behaviour, so the digests are checked here as well (read only).
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
