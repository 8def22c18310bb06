"""The benchmark's per-layer tracer runs a CLI command without changing it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_traced_run_writes_the_bytes_of_an_untraced_run(tmp_path):
    # The tracer wraps program functions by name and signature, so a
    # signature change can break `bench/run.py --trace 1` and nothing else.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    summary, spans = tmp_path / "S.json", tmp_path / "P.jsonl"
    launchers = {
        "plain": [sys.executable, "-m", "distgreedy.cli"],
        "traced": [sys.executable, str(ROOT / "bench" / "tracer.py"), str(summary),
                   str(spans), "--"],
    }
    outputs = {}
    for mode, launcher in launchers.items():
        out = tmp_path / mode
        out.mkdir()
        proc = subprocess.run(
            launcher + ["run", "--config", str(ROOT / "configs" / "tradeoff.json"),
                        "--trace-out", str(out / "t.csv"),
                        "--summary-out", str(out / "s.json"),
                        "--bounds-out", str(out / "b.json")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr[-2000:]
        outputs[mode] = [(out / name).read_bytes() for name in ("t.csv", "s.json", "b.json")]
    assert outputs["traced"] == outputs["plain"]
    traced = json.loads(summary.read_text())
    assert "protocol.run" in traced["hooked"]
    # the audit_fails hook iterates the bounds report's checks
    assert "analysis.audit_fails" in traced["hooked"]
    assert "analysis.audit_fails" not in traced["absent_reasons"]
    assert spans.stat().st_size > 0


def test_every_timed_function_is_found():
    # A removed or renamed function that the benchmark times reads as
    # "function missing" there; install() patches the program, so it runs
    # in a child.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # import tracer writes nothing to bench/
    code = ("import json, tracer; "
            "print(json.dumps([tracer.TIMED, tracer.install(tracer.Tracer())]))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    timed, absent = json.loads(proc.stdout)
    spans = {f"{layer}.{name}" for layer, names in timed.items() for name in names}
    assert {k: v for k, v in absent.items() if k in spans or k in timed} == {}
