"""End-to-end CLI behavior: artifacts, exit codes, replay."""

import csv
import json
import re
from pathlib import Path

import pytest

from distgreedy import centralized_greedy
from distgreedy.cli import main
from distgreedy.config import build_run_config, load_experiment
from distgreedy.traceio import format_float, read_trace_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_config(tmp_path, name="cfg.json", **overrides):
    base = json.loads((CONFIGS / "exact_consensus.json").read_text())
    base.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(base))
    return path


def test_exact_consensus_scenario_matches_greedy(tmp_path):
    trace_out = tmp_path / "trace.csv"
    summary_out = tmp_path / "summary.json"
    code = run_cli("run", "--config", CONFIGS / "exact_consensus.json",
                   "--trace-out", trace_out, "--summary-out", summary_out)
    assert code == 0
    summary = json.loads(summary_out.read_text())
    cfg = build_run_config(load_experiment(CONFIGS / "exact_consensus.json"))
    greedy = centralized_greedy(cfg.family.average(), 2)
    assert tuple(summary["selected"]) == greedy.selected
    bounds = json.loads((tmp_path / "summary.bounds.json").read_text())
    assert bounds["checks"]["approx_bound"]["passed"]


def test_every_bundled_scenario_runs_clean(tmp_path):
    for name in ("exact_consensus", "tradeoff", "ring_metropolis",
                 "nonsubmodular"):
        code = run_cli("run", "--config", CONFIGS / f"{name}.json",
                       "--trace-out", tmp_path / f"{name}.csv",
                       "--summary-out", tmp_path / f"{name}.json")
        assert code == 0, name


def test_nonsubmodular_scenario_reports_ratio_bound(tmp_path):
    code = run_cli("run", "--config", CONFIGS / "nonsubmodular.json",
                   "--trace-out", tmp_path / "t.csv",
                   "--summary-out", tmp_path / "s.json",
                   "--bounds-out", tmp_path / "b.json")
    assert code == 0
    bounds = json.loads((tmp_path / "b.json").read_text())
    assert bounds["gamma_min"] == pytest.approx(2 / 3)
    assert bounds["checks"]["ratio_bound"]["passed"]


def test_summary_is_byte_identical_across_runs(tmp_path):
    outs = []
    for tag in ("a", "b"):
        run_cli("run", "--config", CONFIGS / "ring_metropolis.json",
                "--trace-out", tmp_path / f"{tag}.csv",
                "--summary-out", tmp_path / f"{tag}.json")
        outs.append((tmp_path / f"{tag}.json").read_bytes())
    assert outs[0] == outs[1]
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()


def test_sweep_writes_contracting_gap_column(tmp_path):
    out = tmp_path / "sweep.csv"
    code = run_cli("sweep", "--config", CONFIGS / "tradeoff.json",
                   "--T", "1:6", "--out", out)
    assert code == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0]) == ["T", "psi", "epsilon", "E_r", "achieved",
                             "rhs", "vacuous"]
    gaps = [float(r["E_r"]) for r in rows]
    assert all(b < a for a, b in zip(gaps, gaps[1:]))


@pytest.mark.parametrize("T", ["5,3", "3,3", "1,4,2"])
def test_sweep_rejects_a_t_list_out_of_order(tmp_path, capsys, T):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", CONFIGS / "tradeoff.json",
                   "--T", T, "--out", out) == 2
    err = capsys.readouterr().err
    assert f"config error at 'T': T list '{T}' must be strictly ascending" in err
    assert not out.exists()


def test_t_prime_override_must_match(tmp_path):
    good = write_config(tmp_path, "good.json", T_prime=3)  # T=1, diameter 1
    assert run_cli("validate-config", "--config", good) == 0
    bad = write_config(tmp_path, "bad.json", T_prime=9)
    assert run_cli("validate-config", "--config", bad) == 2


def test_unknown_key_is_a_config_error(tmp_path, capsys):
    bad = write_config(tmp_path, "bad.json", psi_width=1.0)
    assert run_cli("validate-config", "--config", bad) == 2
    assert "psi_width" in capsys.readouterr().err


def test_strict_psi_floor_is_enforced(tmp_path):
    base = json.loads((CONFIGS / "tradeoff.json").read_text())
    base.update(psi=0.001, strict_psi=True)
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(base))
    assert run_cli("validate-config", "--config", path) == 2
    base.update(psi=1000.0)
    path.write_text(json.dumps(base))
    assert run_cli("validate-config", "--config", path) == 0


def test_missing_config_file(tmp_path):
    assert run_cli("validate-config", "--config", tmp_path / "nope.json") == 2


def test_auto_psi_needs_a_contracting_matrix(tmp_path):
    import numpy as np

    from distgreedy.mixing import write_matrix_csv
    wpath = tmp_path / "w.csv"
    write_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), wpath)
    base = {"graph": {"kind": "path", "n": 2},
            "mixing": {"custom_csv": str(wpath)},
            "functions": {"kind": "modular", "weights": [1, 2]},
            "K": 1, "T": 1, "psi": "auto"}
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(base))
    assert run_cli("validate-config", "--config", path) == 2
    base["psi"] = 3.0  # adversarial chains may run with an explicit width
    path.write_text(json.dumps(base))
    assert run_cli("validate-config", "--config", path) == 0


def test_non_contracting_run_skips_the_epsilon_checks(tmp_path):
    import numpy as np

    from distgreedy.mixing import write_matrix_csv
    wpath = tmp_path / "w.csv"
    write_matrix_csv(np.array([[0.0, 1.0], [1.0, 0.0]]), wpath)
    cfg = {"graph": {"kind": "path", "n": 2},
           "mixing": {"custom_csv": str(wpath)},
           "functions": {"kind": "modular", "weights": [1, 2]},
           "K": 1, "T": 1, "psi": 3.0}
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(cfg))
    summary, bounds = tmp_path / "s.json", tmp_path / "b.json"
    assert run_cli("run", "--config", path, "--trace-out", tmp_path / "t.csv",
                   "--summary-out", summary, "--bounds-out", bounds) == 0
    assert (tmp_path / "t.csv").exists()
    for key in ("psi_floor", "epsilon_T", "additive_gap"):
        assert json.loads(summary.read_text())["bounds"][key] is None
    report = json.loads(bounds.read_text())
    assert report["epsilon_T"] is None and report["approx_rhs"] is None
    skipped = {"consensus_error", "argmax_gap", "round_gain", "approx_bound"}
    for name, check in report["checks"].items():
        assert check["skipped"] == (name in skipped), name
        if check["skipped"]:
            assert "mu=1.0" in check["detail"]

    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", path, "--T", "1:3", "--out", out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3
    assert all(r["epsilon"] == r["E_r"] == r["rhs"] == r["vacuous"] == ""
               for r in rows)

    cfg["strict_psi"] = True
    path.write_text(json.dumps(cfg))
    assert run_cli("validate-config", "--config", path) == 2


def test_baseline_subcommands(tmp_path, capsys):
    cfg = CONFIGS / "exact_consensus.json"
    assert run_cli("baseline", "--config", cfg, "--which", "greedy") == 0
    greedy = json.loads(capsys.readouterr().out)
    assert greedy["selected"] == [1, 4]
    assert run_cli("baseline", "--config", cfg, "--which", "optimum") == 0
    optimum = json.loads(capsys.readouterr().out)
    assert optimum == {"optimum_set": [1, 4], "optimum_value": 6.0}
    out = tmp_path / "perturbed.json"
    assert run_cli("baseline", "--config", cfg, "--which", "perturbed",
                   "--out", out) == 0
    perturbed = json.loads(out.read_text())
    assert perturbed["taus"] == [0.0, 0.0]
    assert perturbed["gains"] == perturbed["best_gains"]


def test_analyze_reproduces_run_bounds(tmp_path):
    cfg = CONFIGS / "ring_metropolis.json"
    run_cli("run", "--config", cfg, "--trace-out", tmp_path / "t.csv",
            "--summary-out", tmp_path / "s.json",
            "--bounds-out", tmp_path / "b1.json")
    code = run_cli("analyze", "--trace", tmp_path / "t.csv", "--config", cfg,
                   "--out", tmp_path / "b2.json")
    assert code == 0
    assert (tmp_path / "b1.json").read_bytes() == (tmp_path / "b2.json").read_bytes()


def test_replay_passes_and_notes_flag_mismatch(tmp_path, capsys):
    cfg = CONFIGS / "tradeoff.json"
    run_cli("run", "--config", cfg, "--trace-out", tmp_path / "t.csv",
            "--summary-out", tmp_path / "s.json")
    capsys.readouterr()
    assert run_cli("replay", "--trace", tmp_path / "t.csv", "--config", cfg) == 0
    assert "mismatch" not in capsys.readouterr().out
    flipped = write_config(tmp_path, "flipped.json",
                           **json.loads(cfg.read_text()),
                           neighbors_only_intersection=True)
    assert run_cli("replay", "--trace", tmp_path / "t.csv",
                   "--config", flipped) == 0
    assert "intersection rule mismatch" in capsys.readouterr().out


def test_replay_rejects_truncated_trace(tmp_path):
    cfg = CONFIGS / "tradeoff.json"
    run_cli("run", "--config", cfg, "--trace-out", tmp_path / "t.csv",
            "--summary-out", tmp_path / "s.json")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "cut.csv").write_text("\n".join(lines[:len(lines) // 2]) + "\n")
    assert run_cli("replay", "--trace", tmp_path / "cut.csv",
                   "--config", cfg) == 2


def test_replay_rejects_dimension_mismatch(tmp_path):
    run_cli("run", "--config", CONFIGS / "tradeoff.json",
            "--trace-out", tmp_path / "t.csv", "--summary-out", tmp_path / "s.json")
    other = write_config(tmp_path, "other.json",
                         **{**json.loads((CONFIGS / "tradeoff.json").read_text()),
                            "T": 4})
    assert run_cli("replay", "--trace", tmp_path / "t.csv",
                   "--config", other) == 2


def test_doctored_trace_fails_the_audit(tmp_path):
    cfg = CONFIGS / "tradeoff.json"
    run_cli("run", "--config", cfg, "--trace-out", tmp_path / "t.csv",
            "--summary-out", tmp_path / "s.json")
    text = (tmp_path / "t.csv").read_text().splitlines()
    for i, line in enumerate(text):
        parts = line.split(",")
        if parts[0] == "x" and parts[2] != "0":
            parts[5] = "999.0"
            text[i] = ",".join(parts)
            break
    (tmp_path / "bad.csv").write_text("\n".join(text) + "\n")
    assert run_cli("replay", "--trace", tmp_path / "bad.csv",
                   "--config", cfg) == 1


def test_audit_fails_a_chosen_element_off_the_agreed_set(tmp_path, capsys):
    # Round 2 agrees on 3..8 and the record claims 8; the header carries
    # the value of the claimed selection, so only the audit can object.
    cfg = CONFIGS / "ring_metropolis.json"
    run_cli("run", "--config", cfg, "--trace-out", tmp_path / "t.csv",
            "--summary-out", tmp_path / "s.json")
    value = build_run_config(load_experiment(cfg)).family.average().value((1, 2, 8))
    text = (tmp_path / "t.csv").read_text()
    assert "chosen,2,10,,3,," in text and ",selected=1|2|3," in text
    text = re.sub(r",selected=1\|2\|3,value=[^\n]*",
                  f",selected=1|2|8,value={format_float(value)}",
                  text.replace("chosen,2,10,,3,,", "chosen,2,10,,8,,"))
    (tmp_path / "bad.csv").write_text(text)
    capsys.readouterr()
    assert run_cli("analyze", "--trace", tmp_path / "bad.csv", "--config", cfg,
                   "--out", tmp_path / "b.json") == 1
    assert ("[FAIL] candidate_agreement (round 2: chose element 8, but the "
            "lowest element of the agreed set is 3)") in capsys.readouterr().out


def _drop_agent_1_at_t0(lines):
    return [line for line in lines if not line.startswith("x,0,0,1,")]


def _truncate_to_x_0(lines):
    x_at = [j for j, line in enumerate(lines) if line.startswith("x,")]
    return lines[:x_at[len(x_at) // 2]] + ["x,0"]


def _x_value(value):
    def tamper(lines):
        j = next(j for j, line in enumerate(lines) if line.startswith("x,1,"))
        parts = lines[j].split(",")
        parts[5] = value
        return lines[:j] + [",".join(parts)] + lines[j + 1:]
    return tamper


def _drop_first_set_row(lines):
    j = next(j for j, line in enumerate(lines) if line.startswith("set,"))
    return lines[:j] + lines[j + 1:]


def _add_agent_4_row(lines):
    return lines + ["x,0,0,4,1,1.0,"]


def _append(row):
    def tamper(lines):
        return lines + [row]
    return tamper


def _drop_meta_field(lines):
    return [lines[0], lines[1].replace("n=3,", "")] + lines[2:]


def _meta_value_50(lines):
    return [lines[0], re.sub(r",value=.*", ",value=50.0", lines[1])] + lines[2:]


def _round_0_sets_add_99(lines):
    return [line + "|99" if line.startswith("set,0,") else line
            for line in lines]


@pytest.fixture(scope="module")
def tradeoff_trace_lines(tmp_path_factory):
    out = tmp_path_factory.mktemp("tradeoff")
    assert run_cli("run", "--config", CONFIGS / "tradeoff.json",
                   "--trace-out", out / "t.csv",
                   "--summary-out", out / "s.json") == 0
    return (out / "t.csv").read_text().splitlines()


@pytest.mark.parametrize("tamper, message", [
    (_x_value("abc"), "cannot read x row 'x,1,0,1,"),
    (_drop_agent_1_at_t0, "round 0, t=0: missing agent 1 gain rows"),
    (_truncate_to_x_0, "cannot read x row 'x,0'"),
    (_x_value("nan"), "non-finite gain nan"),
    (_x_value("inf"), "non-finite gain inf"),
    (_x_value("-1e999"), "non-finite gain -inf"),
    (_drop_first_set_row, "round 0, t=2: missing agent 1 candidate set"),
    (_add_agent_4_row, "round 0, t=0: gain rows for agent 4, outside 1..3"),
    (_drop_meta_field, "malformed trace metadata line: KeyError('n')"),
    (_append("x,7,0,1,1,1.0,"), "round 7: gain rows outside rounds 0..1"),
    (_append("set,0,2,9,,,1"), "trace line 66: set row for agent 9, outside 1..3"),
    (_append("chosen,9,3,,4,,"),
     "trace line 66: chosen row for round 9, outside 0..1"),
    (_meta_value_50, "trace header value=50.0, but the config's average "
                     "function gives 4.0 for selection (1, 2)"),
    (_round_0_sets_add_99, "trace line 28: set row names element 99, not one "
                           "of round 0's remaining elements"),
], ids=["abc", "no_agent_1", "truncated", "nan", "inf", "overflow",
        "no_set_row", "extra_agent", "no_n", "x_round_7", "set_agent_9",
        "chosen_round_9", "header_value", "set_element_99"])
def test_analyze_rejects_a_malformed_trace(tmp_path, capsys,
                                           tradeoff_trace_lines, tamper, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(tamper(tradeoff_trace_lines)) + "\n")
    capsys.readouterr()
    assert main(["analyze", "--trace", str(bad),
                 "--config", str(CONFIGS / "tradeoff.json"),
                 "--out", str(tmp_path / "b.json")]) == 2
    assert message in capsys.readouterr().err


def test_trace_round_trips_exactly(tmp_path):
    import numpy as np
    run_cli("run", "--config", CONFIGS / "ring_metropolis.json",
            "--trace-out", tmp_path / "t.csv", "--summary-out", tmp_path / "s.json")
    cfg = build_run_config(load_experiment(CONFIGS / "ring_metropolis.json"))
    from distgreedy.protocol import run as run_protocol
    fresh = run_protocol(cfg)
    loaded = read_trace_csv(tmp_path / "t.csv")
    assert loaded.selected == fresh.selected
    assert loaded.psi == fresh.psi
    assert loaded.mu == fresh.mu
    for a, b in zip(loaded.rounds, fresh.rounds):
        assert np.array_equal(a.x_steps, b.x_steps)
        assert a.candidate_steps == b.candidate_steps
        assert np.array_equal(a.deviations, b.deviations)


def write_reference_trace_csv(trace, path):
    """The v1 layout written row by row with csv.writer and format_float."""
    import numpy as np

    from distgreedy.traceio import TRACE_MAGIC, _meta_line, format_float
    with open(path, "w", newline="") as fh:
        fh.write(f"{TRACE_MAGIC}\n{_meta_line(trace)}\n")
        rows = csv.writer(fh)
        rows.writerow(["record", "round", "t", "agent", "element", "x_value",
                       "candidate_set"])
        for rec in trace.rounds:
            for (t, i, j), v in np.ndenumerate(rec.x_steps):
                rows.writerow(["x", rec.index, t, i + 1, rec.remaining[j],
                               format_float(float(v)), ""])
            for t, per_agent in enumerate(rec.candidate_steps, trace.T + 1):
                for i, cands in enumerate(per_agent, 1):
                    rows.writerow(["set", rec.index, t, i, "", "",
                                   "|".join(str(v) for v in sorted(cands))])
            rows.writerow(["chosen", rec.index, trace.t_prime, "", rec.chosen,
                           "", ""])


def test_trace_round_trip_on_random_configs(tmp_path):
    import numpy as np

    from distgreedy import RunConfig, generate, local_family, metropolis_weights
    from distgreedy.protocol import run as run_protocol
    from distgreedy.traceio import write_trace_csv

    rng = np.random.default_rng(55)
    for i in range(8):
        n = int(rng.integers(2, 9))
        G = generate(("path", "cycle", "complete", "grid", "erdos_renyi")[i % 5],
                     n, seed=int(rng.integers(2 ** 31)), p=0.5)
        fam = local_family(n, ("coverage", "facility_location")[i % 2],
                           params={"size": int(rng.integers(3, 7)),
                                   "universe": 5},
                           seed=int(rng.integers(2 ** 31)))
        trace = run_protocol(RunConfig(G, metropolis_weights(G), fam,
                                       K=int(rng.integers(1, 4)),
                                       T=int(rng.integers(1, 6)),
                                       threshold_slack=1e-12))
        path = tmp_path / f"rt{i}.csv"
        write_trace_csv(trace, path)
        write_reference_trace_csv(trace, tmp_path / "ref.csv")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        loaded = read_trace_csv(path)
        assert loaded.selected == trace.selected
        assert loaded.value == trace.value
        for a, b in zip(loaded.rounds, trace.rounds):
            assert np.array_equal(a.x_steps, b.x_steps)
            assert a.candidate_steps == b.candidate_steps
