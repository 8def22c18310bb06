"""The bundled configs still produce byte-identical artifacts.

The benchmark pins the sha256 of each bundled config's trace, summary
and bounds files in bench/pins.json; any change to those bytes is a
change of behaviour, so the digests are checked here as well (read only).
"""

import hashlib
import json
from pathlib import Path

import pytest

from distgreedy.cli import main

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads((ROOT / "bench" / "pins.json").read_text())["bundled"]


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
