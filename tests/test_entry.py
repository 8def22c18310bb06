"""The program entry in a child process: exit codes, outputs and imports.

`python -m distgreedy.cli` leaves through os._exit once main has returned,
so these tests check what only a separate process shows: that nothing
written is lost, and that each exit code and message is main's own.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import distgreedy
from distgreedy.cli import main

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
ENV.pop("PYTHONUNBUFFERED", None)
ENV.pop("DG_LOG", None)


def program(*argv, stdout=subprocess.PIPE, env=ENV, python_options=(), **kwargs):
    """`python -m distgreedy.cli argv` in a child; its CompletedProcess."""
    return subprocess.run([sys.executable, *python_options, "-m", "distgreedy.cli",
                           *map(str, argv)], stdout=stdout, stderr=subprocess.PIPE,
                          env=env, text=True, timeout=120, **kwargs)


def run_argv(out):
    return ["run", "--config", CONFIGS / "tradeoff.json", "--trace-out", out / "t.csv",
            "--summary-out", out / "s.json", "--bounds-out", out / "b.json"]


def test_a_run_child_writes_what_main_writes(tmp_path, capsys):
    child, here = tmp_path / "child", tmp_path / "here"
    child.mkdir()
    here.mkdir()
    # stdout is a file, so the child's stdout is block-buffered
    with open(tmp_path / "stdout.txt", "w") as fh:
        proc = program(*run_argv(child), stdout=fh)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert main([str(a) for a in run_argv(here)]) == 0
    printed = capsys.readouterr().out
    for name in ("t.csv", "s.json", "b.json"):
        assert (child / name).read_bytes() == (here / name).read_bytes(), name
    assert (tmp_path / "stdout.txt").read_text() == printed
    assert printed.startswith("selected: ") and "[pass]" in printed


def test_stdout_redirected_to_a_file_holds_every_line(tmp_path, capsys):
    argv = ["baseline", "--config", CONFIGS / "ring_metropolis.json", "--which", "greedy"]
    with open(tmp_path / "stdout.txt", "w") as fh:
        proc = program(*argv, stdout=fh)
    assert proc.returncode == 0, proc.stderr
    assert main([str(a) for a in argv]) == 0
    printed = capsys.readouterr().out
    assert (tmp_path / "stdout.txt").read_text() == printed
    assert json.loads(printed)["selected"]


def test_a_failing_audit_exits_1(tmp_path):
    cfg = CONFIGS / "tradeoff.json"
    assert main([str(a) for a in run_argv(tmp_path)]) == 0
    lines = (tmp_path / "t.csv").read_text().splitlines()
    # one gain of a step after the first, raised far above the others
    i = next(i for i, line in enumerate(lines)
             if line.startswith("x,") and line.split(",")[2] != "0")
    parts = lines[i].split(",")
    parts[5] = "999.0"
    lines[i] = ",".join(parts)
    (tmp_path / "bad.csv").write_text("\n".join(lines) + "\n")
    proc = program("analyze", "--trace", tmp_path / "bad.csv", "--config", cfg,
                   "--out", tmp_path / "a.json")
    assert proc.returncode == 1, proc.stderr
    assert "[FAIL]" in proc.stdout
    assert json.loads((tmp_path / "a.json").read_text())["checks"]


def test_a_bad_config_exits_2_with_its_message(tmp_path):
    raw = json.loads((CONFIGS / "tradeoff.json").read_text())
    raw["graph"] = {"kind": "star", "n": 3}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    proc = program("validate-config", "--config", path)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == ("config error at 'graph.kind': unknown graph kind 'star'; "
                           "expected one of path, cycle, complete, grid, erdos_renyi\n")


def test_a_usage_error_exits_2_through_argparse():
    proc = program("replay")
    assert proc.returncode == 2
    assert "invalid choice: 'replay'" in proc.stderr


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_full_stdout_exits_2_and_names_it(unbuffered):
    # buffered, the write used to fail at interpreter exit ("Exception
    # ignored ... OSError", exit 120); unbuffered, it named no file
    # ("cannot write None: ...")
    env = dict(ENV, PYTHONUNBUFFERED="1") if unbuffered else ENV
    with open("/dev/full", "w") as full:
        proc = program("validate-config", "--config", CONFIGS / "tradeoff.json",
                       stdout=full, env=env)
    assert proc.returncode == 2
    assert proc.stderr == "cannot write <stdout>: No space left on device\n"


def test_closed_stdout_and_stderr_exit_0(tmp_path):
    # with fd 1 or 2 closed at start, sys.stdout or sys.stderr is None
    def close_both():
        os.close(1)
        os.close(2)

    proc = subprocess.run([sys.executable, "-m", "distgreedy.cli",
                           *map(str, run_argv(tmp_path))],
                          env=ENV, preexec_fn=close_both, timeout=120)
    assert proc.returncode == 0
    assert (tmp_path / "b.json").stat().st_size > 0


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
def test_no_process_outlives_the_command(tmp_path):
    # the child leads a new process group; once it has exited and been
    # reaped, any process left in the group would still answer signal 0
    proc = subprocess.Popen([sys.executable, "-m", "distgreedy.cli",
                             *map(str, run_argv(tmp_path))], env=ENV,
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                            start_new_session=True)
    assert proc.wait(timeout=120) == 0
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)


def test_the_console_script_is_the_program_entry():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["scripts"] == {"distgreedy": "distgreedy.cli:entry"}


def test_validate_config_imports_no_analysis_baseline_or_traceio():
    proc = program("validate-config", "--config", CONFIGS / "tradeoff.json",
                   python_options=["-X", "importtime"])
    assert proc.returncode == 0, proc.stderr
    imported = set(re.findall(r"^import time:.*\|\s*(\S+)$", proc.stderr, flags=re.M))
    assert {"distgreedy", "distgreedy.config", "distgreedy.protocol"} <= imported
    assert not imported & {"distgreedy.analysis", "distgreedy.baseline",
                           "distgreedy.traceio"}


def test_every_export_resolves_and_is_listed():
    listed = dir(distgreedy)
    for name in distgreedy.__all__:
        assert getattr(distgreedy, name) is not None, name
        assert name in listed, name
    with pytest.raises(AttributeError):
        distgreedy.no_such_name  # noqa: B018
