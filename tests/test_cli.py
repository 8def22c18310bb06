"""End-to-end CLI behavior: artifacts, exit codes, trace audits."""

import csv
import json
import logging
import math
import re
from pathlib import Path

import pytest

from distgreedy import centralized_greedy
from distgreedy.cli import build_parser, main
from distgreedy.config import (SPECS, TOP_LEVEL_KEYS, ExperimentConfig,
                               build_run_config, load_experiment)
from distgreedy.errors import ConfigError
from distgreedy.setfn import KIND_KEYS
from distgreedy.traceio import TRACE_COLUMNS, format_float, read_trace_csv

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


@pytest.mark.parametrize("functions, approx, state, detail", [
    ({"kind": "pair_supermodular", "size": 9}, "[pass] approx_bound margin=",
     "pass", "gamma_min=0.666667"),
    ({"kind": "pair_supermodular", "size": 12}, "[pass] approx_bound margin=",
     "pass", "gamma_min=0.666667"),
    # ratio 0: the (1 - 1/e) bound assumes diminishing returns and fails,
    # which is no fault of the run
    ({"kind": "pair_supermodular", "size": 6, "g": [0, 0, 3]},
     "[skip] approx_bound margin=-0.463116 (gamma_min=0 < 1: no (1 - 1/e) "
     "guarantee, rhs=", "skip", "minimum ratio 0.0 is not positive"),
], ids=["size_9", "size_12", "zero_ratio"])
def test_ratio_bound_runs_wherever_brute_force_runs(tmp_path, caplog, capsys,
                                                    functions, approx, state, detail):
    raw = json.loads((CONFIGS / "nonsubmodular.json").read_text())
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(dict(raw, functions=functions)))
    caplog.set_level(logging.INFO, logger="distgreedy")
    assert run_cli("run", "--config", path, "--trace-out", tmp_path / "t.csv",
                   "--summary-out", tmp_path / "s.json",
                   "--bounds-out", tmp_path / "b.json") == 0
    out = capsys.readouterr().out
    assert f"  {approx}" in out
    assert f"  [{state}] ratio_bound" in out
    bounds = json.loads((tmp_path / "b.json").read_text())
    ratio = bounds["checks"]["ratio_bound"]
    assert ratio["passed"] and ratio["skipped"] == (state == "skip")
    assert detail in ratio["detail"]
    assert bounds["gamma_min"] == (2.0 / 3.0 if state == "pass" else None)
    assert caplog.text == ""  # the ratio needs no oracle, so no cap and no line


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
    # protocol.sweep's rule, checked before any run
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", CONFIGS / "tradeoff.json",
                   "--T", T, "--out", out) == 2
    err = capsys.readouterr().err
    values = [int(v) for v in T.split(",")]
    assert f"config error at 'T': T values {values} must be strictly ascending" in err
    assert not out.exists()


@pytest.mark.parametrize("T, message", [
    ("5:3", "T range '5:3' is empty"),
    ("0:3", "consensus steps T must be >= 1"),  # RunConfig's rule
])
def test_sweep_rejects_an_empty_or_nonpositive_t_range(tmp_path, capsys, T,
                                                       message):
    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", CONFIGS / "tradeoff.json",
                   "--T", T, "--out", out) == 2
    assert f"config error at 'T': {message}" in capsys.readouterr().err
    assert not out.exists()


def test_validate_config_echoes_the_clamped_budget(tmp_path, capsys):
    path = write_config(tmp_path, K=9)  # exact_consensus has |V|=4
    assert run_cli("validate-config", "--config", path) == 0
    assert " |V|=4 K=4 " in capsys.readouterr().out


def test_unknown_key_is_a_config_error(tmp_path, capsys):
    # tight_value_cap is gone: the gain cap is max f_i(V) alone
    for key in ("psi_width", "neighbors_only_intersection", "tight_value_cap"):
        bad = write_config(tmp_path, "bad.json", **{key: True})
        assert run_cli("validate-config", "--config", bad) == 2
        assert (capsys.readouterr().err
                == f"config error at {key!r}: unknown config key {key!r}\n")


@pytest.mark.parametrize("overrides, field, message", [
    ({"functions": {"kind": "coverage", "bogus": 1}}, "functions.bogus",
     "unknown key 'bogus' in functions spec"),
    ({"functions": {"universe": 3}}, "functions.kind", "functions spec needs 'kind'"),
    ({"functions": ["coverage"]}, "functions", "functions spec must be an object"),
    ({"graph": {"kind": "path", "n": 3, "bogus": 1}}, "graph.bogus",
     "unknown key 'bogus' in graph spec"),
    ({"graph": {"kind": "path"}}, "graph", "graph spec needs 'kind' and 'n'"),
    ({"graph": {"n": 3}}, "graph", "graph spec needs 'kind' and 'n'"),
    ({"graph": "path"}, "graph", "graph spec must be an object"),
    # the key checks come before the number checks
    ({"graph": {"kind": "path", "n": 3.5, "bogus": 1}}, "graph.bogus",
     "unknown key 'bogus' in graph spec"),
    # a key of another kind used to pass and be ignored
    ({"graph": {"kind": "path", "n": 4, "p": 0.3, "seed": 9}}, "graph.p",
     "path does not read 'p'; it reads n"),
    ({"graph": {"kind": "complete", "n": 4, "seed": 9}}, "graph.seed",
     "complete does not read 'seed'; it reads n"),
    ({"graph": {"kind": "grid", "n": 3.5, "p": True}}, "graph.p",
     "grid does not read 'p'; it reads n"),
    ({"functions": {"kind": "modular", "size": 4, "sets": [[1.5]]}}, "functions.sets",
     "modular does not read 'sets'; it reads weights, size"),
], ids=["functions_unknown", "functions_no_kind", "functions_list", "graph_unknown",
        "graph_no_n", "graph_no_kind", "graph_string", "graph_unknown_and_float",
        "path_p", "complete_seed", "grid_p_and_float", "modular_sets_and_float"])
def test_spec_keys_are_checked_at_parse(overrides, field, message):
    raw = json.loads((CONFIGS / "exact_consensus.json").read_text())
    raw.update(overrides)
    with pytest.raises(ConfigError) as info:
        ExperimentConfig(raw)
    assert (info.value.field, str(info.value)) == (field, message)


@pytest.mark.parametrize("overrides, message", [
    ({"graph": {"kind": "star", "n": 3}},
     "config error at 'graph.kind': unknown graph kind 'star'; expected one of "
     "path, cycle, complete, grid, erdos_renyi"),
    ({"graph": {"kind": "path", "n": 0}},
     "config error at 'graph.n': graph needs at least one node"),
    ({"graph": {"kind": "erdos_renyi", "n": 4, "p": 2}},
     "config error at 'graph.p': edge probability 2.0 outside (0, 1]"),
    ({"functions": {"kind": "star"}},
     "config error at 'functions.kind': unknown function kind 'star'; expected one "
     "of coverage, weighted_coverage, facility_location, pair_supermodular, modular"),
    ({"functions": {"kind": "pair_supermodular", "size": 1}},
     "config error at 'functions.size': pair_supermodular needs at least two elements"),
    ({"functions": {"kind": "modular", "weights": [1, -1]}},
     "config error at 'functions.weights': modular weights must be finite and "
     "nonnegative: weights[1] = -1.0"),
    ({"functions": {"kind": "pair_supermodular", "size": 3, "pair": [1, 1]}},
     "config error at 'functions.pair': invalid designated pair (1, 1)"),
    ({"functions": {"kind": "pair_supermodular", "size": 3, "g": [0, 2, 1]}},
     "config error at 'functions.g': 'g' must be three nondecreasing values "
     "starting at 0"),
    ({"functions": {"kind": "coverage", "universe": 2, "sets": [[1], [3]]}},
     "config error at 'functions.sets[1]': covered item 3 outside universe 1..2"),
    # a key of another kind used to pass, and to share one function or none
    ({"functions": {"kind": "facility_location", "size": 8, "universe": 10,
                    "pair": [1, 2]}},
     "config error at 'functions.pair': facility_location does not read 'pair'; "
     "it reads weights, size, universe"),
    ({"functions": {"kind": "coverage", "size": 8, "universe": 10, "weights": [1] * 10}},
     "config error at 'functions.weights': coverage does not read 'weights'; "
     "it reads sets, size, universe"),
    ({"functions": {"kind": "coverage", "size": 8, "universe": 10, "g": [0, 1, 3]}},
     "config error at 'functions.g': coverage does not read 'g'; "
     "it reads sets, size, universe"),
    # a builder error about the spec as a whole names the spec once
    ({"functions": {"kind": "coverage", "universe": 2}},
     "config error at 'functions': random coverage needs 'size' and 'universe'"),
    # the mixing builder names its spec, not the graph key it read
    ({"graph": {"kind": "path", "n": 1}, "mixing": "uniform"},
     "config error at 'mixing': uniform weights need at least two nodes"),
    ({"graph": {"kind": "path", "n": 4, "p": 0.3, "seed": 9}},
     "config error at 'graph.p': path does not read 'p'; it reads n"),
    ({"graph": {"kind": "star", "n": 3, "p": 0.3}},
     "config error at 'graph.kind': unknown graph kind 'star'; expected one of "
     "path, cycle, complete, grid, erdos_renyi"),
], ids=["graph_kind", "graph_n", "graph_p", "functions_kind", "functions_size",
        "functions_weights", "functions_pair", "functions_g", "functions_sets",
        "facility_pair", "coverage_weights", "coverage_g",
        "functions_whole", "mixing_uniform_one_node", "path_p", "unknown_kind_p"])
def test_a_builder_error_names_its_spec_path(tmp_path, capsys, overrides, message):
    # each used to name the key alone: at 'kind', at 'n', at 'weights'
    path = write_config(tmp_path, **overrides)
    assert run_cli("validate-config", "--config", path) == 2
    assert capsys.readouterr().err == message + "\n"


def test_strict_psi_floor_is_enforced(tmp_path, capsys):
    # the strict_psi key is gone: a config naming it is refused as an
    # unknown key whether or not psi clears the feasible floor
    base = json.loads((CONFIGS / "tradeoff.json").read_text())
    path = tmp_path / "strict.json"
    for psi in (0.001, 1000.0):
        base.update(psi=psi, strict_psi=True)
        path.write_text(json.dumps(base))
        assert run_cli("validate-config", "--config", path) == 2
        assert (capsys.readouterr().err
                == "config error at 'strict_psi': unknown config key 'strict_psi'\n")


def test_readme_documents_every_optional_key():
    readme = (CONFIGS.parent / "README.md").read_text()
    table = readme.split("| key | default | meaning |\n")[1].split("\n\n")[0]
    documented = re.findall(r"^\| `(\w+)` \|", table, flags=re.M)
    required = {"graph", "mixing", "functions", "K", "T"}
    assert sorted(documented) == sorted(TOP_LEVEL_KEYS - required)


def test_the_functions_schema_is_the_keys_that_some_kind_reads():
    # SPECS is derived from KIND_KEYS: only the explicit data is checked
    for keys, data in KIND_KEYS.values():
        assert set(data) <= set(keys)


def test_readme_documents_every_spec_key():
    readme = (CONFIGS.parent / "README.md").read_text()
    schema = readme.split("## Config schema\n\n```json\n")[1].split("```")[0]
    for name, (_, known) in SPECS.items():
        spec = re.search(rf'^  "{name}": *\{{(.*?)\}},$', schema,
                         flags=re.M | re.S).group(1)
        assert re.findall(r'"(\w+)":', spec) == list(known), name


def test_readme_documents_every_subcommand():
    readme = (CONFIGS.parent / "README.md").read_text()
    usage = readme.split("## CLI\n\n```\n")[1].split("```")[0]
    documented = re.findall(r"^distgreedy ([\w-]+)", usage, flags=re.M)
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    assert documented == list(subparsers.choices)


def test_unknown_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        run_cli("replay", "--trace", "t.csv", "--config", "c.json")
    assert info.value.code == 2
    assert "invalid choice: 'replay'" in capsys.readouterr().err


@pytest.mark.parametrize("psi", ["auto", 1.0])
def test_overflowing_function_values_are_a_config_error(tmp_path, capsys, psi):
    # f_i(V) = 1e308 + 1e308 overflows; the run used to fail its
    # thresholding and blame psi
    path = write_config(tmp_path, graph={"kind": "path", "n": 3},
                        mixing="metropolis", K=2, T=4, psi=psi,
                        functions={"kind": "modular", "weights": [1e308, 1e308]})
    assert run_cli("validate-config", "--config", path) == 2
    assert ("config error at 'functions': function values overflow: "
            "max f_i(V) = inf" in capsys.readouterr().err)


@pytest.mark.parametrize("overrides, field, message", [
    ({"psi": math.nan}, "psi", "threshold width psi must be finite and >= 0, not nan"),
    ({"psi": math.inf}, "psi", "threshold width psi must be finite and >= 0, not inf"),
    ({"threshold_slack": math.nan}, "threshold_slack",
     "threshold_slack must be finite and >= 0, not nan"),
    ({"threshold_slack": math.inf}, "threshold_slack",
     "threshold_slack must be finite and >= 0, not inf"),
    ({"taus": [math.nan, 0]}, "taus",
     "taus must be a list of finite nonnegative numbers"),
    ({"seed": -1}, "seed", "seed must be >= 0"),
    # each agent's f(V) is finite, but the average sums them to inf
    ({"functions": {"kind": "modular", "weights": [1e308, 1]}}, "functions",
     "function values overflow: max f_i(V) = 1e+308, n * max f_i(V) = inf"),
    ({"functions": {"kind": "modular", "weights": [2e307, 2e307]}, "T": 1},
     "psi", "bounds overflow at T=1, psi=inf: psi floor 4*epsilon(T) = inf, "
     "additive gap K*(psi + 2*epsilon(T)) = inf"),
    ({"psi": 1e308}, "psi",
     "bounds overflow at T=4, psi=1e+308: psi floor 4*epsilon(T) = "
     "4.105601914237341, additive gap K*(psi + 2*epsilon(T)) = inf"),
    # the gap is finite, but the psi floor 4*epsilon(T) is not
    ({"functions": {"kind": "modular", "weights": [5e307, 1]}, "K": 1, "T": 1,
      "psi": 1e300}, "psi",
     "bounds overflow at T=1, psi=1e+300: psi floor 4*epsilon(T) = inf, "
     "additive gap K*(psi + 2*epsilon(T)) = 1.1547005483792517e+308"),
    # non-finite weights used to pass as an overflow of the function values
    ({"functions": {"kind": "modular", "weights": [1, math.nan, 2]}}, "functions.weights",
     "modular weights must be finite and nonnegative: weights[1] = nan"),
    ({"functions": {"kind": "weighted_coverage", "universe": 2,
                    "sets": [[1], [1, 2]], "weights": [math.nan, 1]}},
     "functions.weights", "item weights must be finite and nonnegative: weights[0] = nan"),
    ({"functions": {"kind": "facility_location",
                    "weights": [[math.nan, 1], [2, math.inf]]}},
     "functions.weights",
     "facility weights must be finite and nonnegative: weights[0][0] = nan"),
], ids=["psi_nan", "psi_inf", "slack_nan", "slack_inf", "taus_nan", "seed",
        "average_sum", "auto_psi", "additive_gap", "psi_floor", "modular_nan",
        "weighted_coverage_nan", "facility_nan"])
def test_non_finite_or_negative_value_is_a_config_error(tmp_path, capsys,
                                                        overrides, field, message):
    # each used to pass validate-config, then fail the run, the
    # perturbed baseline or the trace writer with exit 1
    path = write_config(tmp_path, **{
        "graph": {"kind": "path", "n": 3}, "mixing": "metropolis", "K": 2,
        "T": 4, "psi": "auto", "functions": {"kind": "modular", "weights": [1, 2]},
        **overrides})
    for argv in (["validate-config"], ["baseline", "--which", "perturbed"],
                 ["run", "--trace-out", tmp_path / "t.csv",
                  "--summary-out", tmp_path / "s.json"]):
        assert run_cli(*argv, "--config", path) == 2
        assert f"config error at {field!r}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "t.csv").exists()


NUMPY_MEMORY_ERROR = ("Unable to allocate 931. GiB for an array with shape "
                      "(1000000, 1000000) and data type bool")


@pytest.mark.parametrize("error, message", [
    (MemoryError(NUMPY_MEMORY_ERROR), NUMPY_MEMORY_ERROR),
    (MemoryError(), "out of memory"),
], ids=["numpy", "bare"])
@pytest.mark.parametrize("builder", ["generate", "family_from_config"])
def test_an_instance_too_large_for_memory_exits_2(tmp_path, capsys, monkeypatch,
                                                  builder, error, message):
    # a path of 10^6 nodes or a coverage universe of 10^11 items used to
    # end in a MemoryError traceback and exit 1, the code of a failed check
    def build(*args):
        raise error
    monkeypatch.setattr(f"distgreedy.config.{builder}", build)
    path = write_config(tmp_path)
    for argv in (["validate-config"], ["baseline", "--which", "greedy"],
                 ["run", "--trace-out", tmp_path / "t.csv",
                  "--summary-out", tmp_path / "s.json"]):
        assert run_cli(*argv, "--config", path) == 2
        assert capsys.readouterr().err == f"instance too large: {message}\n"
    assert not (tmp_path / "t.csv").exists()


def test_a_negative_zero_psi_or_slack_is_written_as_zero(tmp_path, capsys):
    # -0.0 used to reach the trace header, the summary, the bounds file
    # and every sweep row, and the output of validate-config (psi) and
    # of the perturbed baseline (taus)
    outputs = {}
    for tag, zero in (("positive", 0.0), ("negative", -0.0)):
        path = write_config(tmp_path, name=f"{tag}-config.json", psi=zero,
                            threshold_slack=zero, taus=[zero, 0.0])
        files = [tmp_path / f"{tag}.{name}" for name in
                 ("csv", "json", "bounds.json", "analyzed.json", "sweep.csv")]
        assert run_cli("run", "--config", path, "--trace-out", files[0],
                       "--summary-out", files[1]) == 0
        assert run_cli("analyze", "--config", path, "--trace", files[0],
                       "--out", files[3]) == 0
        assert run_cli("sweep", "--config", path, "--T", "1:3", "--out", files[4]) == 0
        capsys.readouterr()
        assert run_cli("validate-config", "--config", path) == 0
        assert run_cli("baseline", "--config", path, "--which", "perturbed") == 0
        printed = capsys.readouterr().out.encode()
        outputs[tag] = [f.read_bytes() for f in files] + [printed]
    assert outputs["negative"] == outputs["positive"]
    assert b"-0.0" not in b"".join(outputs["negative"])
    assert b" psi=0.0 " in outputs["negative"][-1]


def _non_utf8(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"scenario": "caf\xe9"}')
    return path


@pytest.mark.parametrize("make, message", [
    (lambda tmp_path: tmp_path / "nope.json",
     "cannot read config file {path}: No such file or directory"),
    (lambda tmp_path: tmp_path, "cannot read config file {path}: Is a directory"),
    (_non_utf8, "config file {path} is not UTF-8: 'utf-8' codec can't decode "
                "byte 0xe9 in position 17: invalid continuation byte"),
], ids=["missing", "directory", "non_utf8"])
def test_missing_config_file(tmp_path, capsys, make, message):
    path = make(tmp_path)
    assert run_cli("validate-config", "--config", path) == 2
    assert capsys.readouterr().err == f"config error: {message.format(path=path)}\n"


def test_auto_psi_needs_a_contracting_matrix(tmp_path):
    import numpy as np

    wpath = tmp_path / "w.csv"
    np.savetxt(wpath, [[0.0, 1.0], [1.0, 0.0]], fmt="%.17g", delimiter=",")
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


@pytest.mark.parametrize("matrix", [
    "0,1\n1,0\n",
    # valid within STRUCT_TOL, with mu a hair above 1
    "-5e-13,1.0000000000005\n1.0000000000005,-5e-13\n",
], ids=["swap", "swap_within_tolerance"])
def test_non_contracting_run_passes_the_epsilon_checks(tmp_path, matrix):
    # the bounds used to be null and these four checks skipped
    wpath = tmp_path / "w.csv"
    wpath.write_text(matrix)
    cfg = {"graph": {"kind": "path", "n": 2},
           "mixing": {"custom_csv": str(wpath)},
           "functions": {"kind": "coverage", "size": 4, "universe": 6},
           "K": 2, "T": 1, "psi": 3.0}
    path = tmp_path / "periodic.json"
    path.write_text(json.dumps(cfg))
    mu = build_run_config(load_experiment(path)).mu
    assert mu >= 1.0
    summary, bounds, trace = tmp_path / "s.json", tmp_path / "b.json", tmp_path / "t.csv"
    assert run_cli("run", "--config", path, "--trace-out", trace,
                   "--summary-out", summary, "--bounds-out", bounds) == 0
    stated = json.loads(summary.read_text())["bounds"]
    eps = math.sqrt(2) * mu * stated["value_cap"]
    assert (stated["epsilon_T"], stated["psi_floor"], stated["additive_gap"]) == (
        eps, 4 * eps, 2 * (3.0 + 2 * eps))
    report = json.loads(bounds.read_text())
    assert report["epsilon_T"] == eps and report["vacuous"] is True
    for name, check in report["checks"].items():
        assert check["passed"] and not check["skipped"], name
    for name in ("consensus_error", "argmax_gap", "round_gain"):
        assert report["checks"][name]["margin"] >= 0.0, name
    analyzed = tmp_path / "a.json"
    assert run_cli("analyze", "--config", path, "--trace", trace, "--out", analyzed) == 0
    assert analyzed.read_bytes() == bounds.read_bytes()

    out = tmp_path / "sweep.csv"
    assert run_cli("sweep", "--config", path, "--T", "1:3", "--out", out) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["epsilon"] for r in rows] == [
        format_float(math.sqrt(2) * mu ** T * stated["value_cap"]) for T in (1, 2, 3)]
    assert all(float(r["E_r"]) == 2 * (3.0 + 2 * float(r["epsilon"])) for r in rows)
    assert all(r["vacuous"] == "1" for r in rows)


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


def test_replay_passes_on_the_trace_of_a_run(tmp_path, capsys):
    cfg = CONFIGS / "tradeoff.json"
    run_cli("run", "--config", cfg, "--trace-out", tmp_path / "t.csv",
            "--summary-out", tmp_path / "s.json")
    run_lines = capsys.readouterr().out.splitlines(keepends=True)
    assert run_cli("analyze", "--trace", tmp_path / "t.csv", "--config", cfg,
                   "--out", tmp_path / "b.json") == 0
    # the run's check lines, without its selection line
    assert capsys.readouterr().out == "".join(run_lines[1:])


def test_replay_rejects_truncated_trace(tmp_path):
    cfg = CONFIGS / "tradeoff.json"
    run_cli("run", "--config", cfg, "--trace-out", tmp_path / "t.csv",
            "--summary-out", tmp_path / "s.json")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    (tmp_path / "cut.csv").write_text("\n".join(lines[:len(lines) // 2]) + "\n")
    assert run_cli("analyze", "--trace", tmp_path / "cut.csv",
                   "--config", cfg, "--out", tmp_path / "b.json") == 2


def test_replay_rejects_dimension_mismatch(tmp_path):
    run_cli("run", "--config", CONFIGS / "tradeoff.json",
            "--trace-out", tmp_path / "t.csv", "--summary-out", tmp_path / "s.json")
    other = write_config(tmp_path, "other.json",
                         **{**json.loads((CONFIGS / "tradeoff.json").read_text()),
                            "T": 4})
    assert run_cli("analyze", "--trace", tmp_path / "t.csv",
                   "--config", other, "--out", tmp_path / "b.json") == 2


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
    assert run_cli("analyze", "--trace", tmp_path / "bad.csv",
                   "--config", cfg, "--out", tmp_path / "b.json") == 1


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


def test_audit_fails_a_round_that_offers_an_earlier_pick(tmp_path, capsys,
                                                         tradeoff_trace_lines):
    # Round 1 offers element 1 again, with gain 0.0 for every agent and
    # step, keeps it everywhere and picks it; the header carries the
    # value of the selection (1, 1), so only the audit can object.
    lines = list(tradeoff_trace_lines)
    assert ",selected=1|2,value=4.0" in lines[1] and "chosen,1,4,,2,," in lines
    lines[1] = lines[1].replace(",selected=1|2,value=4.0",
                                ",selected=1|1,value=3.0")
    lines = [re.sub(r"^(set,1,\d+,\d+,,,).*", r"\g<1>1|2|3|4", line)
             .replace("chosen,1,4,,2,,", "chosen,1,4,,1,,") for line in lines]
    for j in reversed([j for j, line in enumerate(lines)
                       if re.match(r"x,1,\d+,\d+,2,", line)]):
        lines.insert(j, re.sub(r"^(x,1,\d+,\d+,)2,.*", r"\g<1>1,0.0,", lines[j]))
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("analyze", "--trace", bad, "--config", CONFIGS / "tradeoff.json",
                   "--out", tmp_path / "b.json") == 1
    assert ("[FAIL] candidate_agreement (round 1: remaining elements are not "
            "the ground set minus the earlier picks [1])") in capsys.readouterr().out


def _drop_agent_1_at_t0(lines):
    return [line for line in lines if not line.startswith("x,0,0,1,")]


def _truncate_to_x_0(lines):
    x_at = [j for j, line in enumerate(lines) if line.startswith("x,")]
    return lines[:x_at[len(x_at) // 2]] + ["x,0"]


def _x_value(value, row="x,1,"):
    """The first row that starts with `row` with `value` as its gain."""
    def tamper(lines):
        j = next(j for j, line in enumerate(lines) if line.startswith(row))
        parts = lines[j].split(",")
        parts[5] = value
        return lines[:j] + [",".join(parts)] + lines[j + 1:]
    return tamper


def _x_record(record):
    """Round 1's t=1 row of agent 2 for element 3 with `record` in place
    of its leading "x"."""
    def tamper(lines):
        j = lines.index(next(line for line in lines if line.startswith("x,1,1,2,3,")))
        return lines[:j] + [record + lines[j][1:]] + lines[j + 1:]
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


def _meta_value(text):
    def tamper(lines):
        return [lines[0], re.sub(r",value=.*", f",value={text}", lines[1])] + lines[2:]
    return tamper


def _meta_fields(**texts):
    def tamper(lines):
        line = lines[1]
        for name, text in texts.items():
            line = re.sub(f",{name}=[^,]*,", f",{name}={text},", line)
        return [lines[0], line] + lines[2:]
    return tamper


def _meta_field(name, text):
    return _meta_fields(**{name: text})


def _meta_line(old, new):
    def tamper(lines):
        assert old in lines[1]
        return [lines[0], lines[1].replace(old, new, 1)] + lines[2:]
    return tamper


def _row(old, new):
    """The trace with its first line `old` replaced by `new`."""
    def tamper(lines):
        j = lines.index(old)
        return lines[:j] + [new] + lines[j + 1:]
    return tamper


def _round_0_sets_add_99(lines):
    return [line + "|99" if line.startswith("set,0,") else line
            for line in lines]


# the metadata line that `run` writes for configs/tradeoff.json
TRADEOFF_META = ("# n=3,K=2,T=1,t_prime=4,diameter=2,psi=27.712812921102042,"
                 "mu=0.66666666666666674,value_cap=6.0,include_self=1,"
                 "threshold_slack=0.0,seed=11,selected=1|2,value=4.0")


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
    (_x_value("nan"), "config error: trace line 38: round 1, t=0: agent 1 has a "
                      "non-finite gain nan for element 2\n"),
    (_x_value("abc", "x,1,0,2,"),
     "config error: trace line 41: cannot read x row 'x,1,0,2,2,abc,' ("),
    (_x_value("nan", "x,1,0,2,"),
     "config error: trace line 41: round 1, t=0: agent 2 has a non-finite gain "
     "nan for element 2\n"),
    (_x_value("inf"), "non-finite gain inf"),
    (_x_value("-1e999"), "non-finite gain -inf"),
    (_drop_first_set_row, "round 0, t=2: missing agent 1 candidate set"),
    # records that numpy's string field reads as "xx", and as "x"
    (_x_record("xx"), "round 1, t=1: missing agent 2 gain row for element 3 "
                      "(trace line 51 is 'xx,1,1,2,3,"),
    (_x_record("x\0"), "round 1, t=1: missing agent 2 gain row for element 3 "
                       "(trace line 51 is 'x\\x00,1,1,2,3,"),
    (_add_agent_4_row, "trace line 66: row after the last round: 'x,0,0,4,1,1.0,'"),
    (_drop_meta_field, "config error: trace metadata line '# K=2,T=1,"),
    (_append("x,7,0,1,1,1.0,"), "trace line 66: row after the last round"),
    (_append("set,0,2,9,,,1"), "trace line 66: row after the last round"),
    (_append("chosen,9,3,,4,,"), "trace line 66: row after the last round"),
    (_meta_value("50.0"), "trace header value=50.0, but the config's average "
                     "function gives 4.0 for selection (1, 2)"),
    (_round_0_sets_add_99, "trace line 28: set row names element 99, not one "
                           "of round 0's remaining elements"),
    (_meta_field("value_cap", "1000.0"),
     "trace header value_cap=1000.0, but the config gives 6.0"),
    (_meta_field("mu", "0.5"),
     "trace header mu=0.5, but the config gives 0.66666666666666674"),
    # one ulp above the floor
    (_meta_field("psi", "27.712812921102046"),
     "trace header psi=27.712812921102046, but the config gives "
     "27.712812921102042"),
    (_meta_field("mu", "nan"),
     "trace header mu=nan, but the config gives 0.66666666666666674"),
    (_meta_field("mu", "-0.5"),
     "trace header mu=-0.5, but the config gives 0.66666666666666674"),
    (_meta_field("value_cap", "-6.0"),
     "trace header value_cap=-6.0, but the config gives 6.0"),
    (_meta_value("inf"), "trace header value=inf, but the config's average "
                         "function gives 4.0 for selection (1, 2)"),
    (_meta_field("include_self", "0"),
     "trace header include_self=0, but the config gives 1"),
    (_meta_field("include_self", "2"),
     "trace header include_self=2, but the config gives 1"),
    # header numbers are compared as the text the writer writes
    (_meta_field("K", "02"), "trace header K=02, but the config gives 2"),
    (_meta_field("value_cap", "6"),
     "trace header value_cap=6, but the config gives 6.0"),
    (_meta_field("seed", "1_1"), "trace header seed=1_1, but the config gives 11"),
    (_meta_value("4"), "trace header value=4, but the config's average "
                       "function gives 4.0 for selection (1, 2)"),
    # the first field that is not the config's is named
    (_meta_field("t_prime", "1000000000000"),
     "trace header t_prime=1000000000000, but the config gives 4"),
    (_meta_fields(diameter="999999999997", t_prime="999999999999"),
     "trace header t_prime=999999999999, but the config gives 4"),
    (_meta_fields(T="2", t_prime="5"), "trace header T=2, but the config gives 1"),
    # the line must be the writer's, byte for byte
    (_meta_line(",value=4.0", ",value=4.0,foo=1"),
     f"config error: trace metadata line {TRADEOFF_META + ',foo=1'!r} is not "
     f"the config's {TRADEOFF_META!r}\n"),
    (_meta_line("# n=3,K=2,", "# K=2,n=3,"),
     "config error: trace metadata line '# K=2,n=3,T=1,"),
    (_meta_line("# ", "###   "), "config error: trace metadata line '###   n=3,"),
    (_meta_line("selected=1|2,", "selected=01|2,"),
     "trace header selected=01|2, but selection (1, 2) is written 1|2"),
    (_meta_line("selected=1|2,", "selected=1|2|,"),
     "trace header selected=1|2|, but selection (1, 2) is written 1|2"),
    (_meta_line("selected=1|2,", "selected=+1|2,"),
     "trace header selected=+1|2, but selection (1, 2) is written 1|2"),
    (_meta_line("selected=1|2,", "selected=1||2,"),
     "trace header selected=1||2, but selection (1, 2) is written 1|2"),
    # every row must be the writer's: the column row whole, an x row's
    # empty last cell, a set or chosen row as the writer spells it
    (_row(TRACE_COLUMNS, "record,round,t,whatever"),
     "config error: trace columns 'record,round,t,whatever' are not "
     f"{TRACE_COLUMNS!r}\n"),
    (_row("x,0,0,1,1,3.0,", "x,0,0,1,1,3.0,junk"),
     "round 0, t=0: missing agent 1 gain row for element 1 (trace line 4 is "
     "'x,0,0,1,1,3.0,junk')"),
    (_row("x,0,0,1,1,3.0,", "x,0,0,1,1,3.0,junk,more"),
     "config error: trace line 4: cannot read x row 'x,0,0,1,1,3.0,junk,more' ("),
    (_row("x,0,0,1,1,3.0,", "x,0,0,1,1,3.0"),
     "config error: trace line 4: cannot read x row 'x,0,0,1,1,3.0' ("),
    (_row("x,0,0,1,1,3.0,", "x,0,0,1,1,3.0,\0"),
     "round 0, t=0: missing agent 1 gain row for element 1 (trace line 4 is "
     "'x,0,0,1,1,3.0,\\x00')"),
    (_row("x,0,1,1,1,3.0,", "x,0,1,1,1,3.0,zz"),
     "round 0, t=1: missing agent 1 gain row for element 1 (trace line 16 is "
     "'x,0,1,1,1,3.0,zz')"),
    (_row("set,0,2,1,,,1|2|3|4", "set,0,2,1,junk,,1|2|3|4"),
     "round 0, t=2: missing agent 1 candidate set (trace line 28 is "
     "'set,0,2,1,junk,,1|2|3|4')"),
    (_row("set,0,2,1,,,1|2|3|4", "set,0,2,1,,,1||2|3|4"),
     "config error: trace line 28: set row 'set,0,2,1,,,1||2|3|4' is not its "
     "elements written ascending, 'set,0,2,1,,,1|2|3|4'\n"),
    (_row("chosen,0,4,,1,,", "chosen,0,4,junk,1,,"),
     "round 0: missing chosen row (trace line 37 is 'chosen,0,4,junk,1,,')"),
    (_row("chosen,0,4,,1,,", "chosen,0,4,,1,junk,"),
     "round 0: missing chosen row (trace line 37 is 'chosen,0,4,,1,junk,')"),
    (_row("chosen,0,4,,1,,", "chosen,0,4,, 1,,"),
     "round 0: missing chosen row (trace line 37 is 'chosen,0,4,, 1,,')"),
], ids=["abc", "no_agent_1", "truncated", "nan", "abc_agent_2", "nan_agent_2",
        "inf", "overflow",
        "no_set_row", "record_xx", "record_nul", "extra_agent", "no_n",
        "x_round_7", "set_agent_9", "chosen_round_9", "header_value",
        "set_element_99", "header_value_cap", "header_mu", "header_psi", "header_mu_nan",
        "header_mu_negative", "header_value_cap_negative", "header_value_inf",
        "header_include_self_0", "header_include_self_2", "header_K_text",
        "header_value_cap_text", "header_seed_text", "header_value_text",
        "header_t_prime", "header_diameter", "header_T", "header_extra_field",
        "header_n_K_swapped", "header_prefix", "header_selected_zero",
        "header_selected_trailing", "header_selected_plus",
        "header_selected_empty", "columns_extra", "x_junk", "x_8_cells",
        "x_6_cells", "x_nul_cell", "x_t1_zz", "set_junk", "set_empty_element",
        "chosen_junk_agent", "chosen_junk_last", "chosen_space"])
def test_analyze_rejects_a_malformed_trace(tmp_path, capsys,
                                           tradeoff_trace_lines, tamper, message):
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(tamper(tradeoff_trace_lines)) + "\n")
    capsys.readouterr()
    assert run_cli("analyze", "--out", tmp_path / "b.json", "--trace", bad,
                   "--config", CONFIGS / "tradeoff.json") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, written", [
    (["run", "--trace-out", "out", "--summary-out", "s.json"], []),
    (["run", "--trace-out", "t.csv", "--summary-out", "out"], ["t.csv"]),
    (["run", "--trace-out", "t.csv", "--summary-out", "s.json",
      "--bounds-out", "out"], ["t.csv", "s.json"]),
    (["sweep", "--T", "1:3", "--out", "out"], []),
    (["baseline", "--which", "greedy", "--out", "out"], []),
    (["analyze", "--trace", "trace.csv", "--out", "out"], []),
], ids=["run_trace", "run_summary", "run_bounds", "sweep", "baseline", "analyze"])
def test_an_unwritable_output_exits_2_and_names_it(tmp_path, capsys, monkeypatch,
                                                   tradeoff_trace_lines,
                                                   command, written):
    # each used to end in a traceback and exit 1, after all the work
    monkeypatch.chdir(tmp_path)
    (tmp_path / "out").mkdir()
    (tmp_path / "trace.csv").write_text("\n".join(tradeoff_trace_lines) + "\n")
    capsys.readouterr()
    assert run_cli(*command, "--config", CONFIGS / "tradeoff.json") == 2
    assert capsys.readouterr().err == "cannot write out: Is a directory\n"
    for name in written:  # the files before the failing one stay
        assert (tmp_path / name).stat().st_size > 0


@pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
@pytest.mark.parametrize("command", [
    ["run", "--trace-out", "/dev/full", "--summary-out", "s.json"],
    ["run", "--trace-out", "t.csv", "--summary-out", "/dev/full"],
    ["run", "--trace-out", "t.csv", "--summary-out", "s.json",
     "--bounds-out", "/dev/full"],
    ["sweep", "--T", "1:3", "--out", "/dev/full"],
    ["baseline", "--which", "greedy", "--out", "/dev/full"],
    ["analyze", "--trace", "trace.csv", "--out", "/dev/full"],
], ids=["run_trace", "run_summary", "run_bounds", "sweep", "baseline", "analyze"])
def test_a_full_device_exits_2_and_names_it(tmp_path, capsys, monkeypatch,
                                            tradeoff_trace_lines, command):
    # the write fails when the file is flushed, which used to name no file:
    # "cannot write None: No space left on device"
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trace.csv").write_text("\n".join(tradeoff_trace_lines) + "\n")
    capsys.readouterr()
    assert run_cli(*command, "--config", CONFIGS / "tradeoff.json") == 2
    assert (capsys.readouterr().err
            == "cannot write /dev/full: No space left on device\n")


def _non_utf8_trace(tmp_path, lines):
    """The trace with a Latin-1 byte in the gain of its first x row."""
    path = tmp_path / "latin1.csv"
    text = ("\n".join(lines) + "\n").encode()
    path.write_bytes(text.replace(b"\nx,0,0,1,1,3.0,", b"\nx,0,0,1,1,\xe93.0,"))
    return path


@pytest.mark.parametrize("command", [["analyze", "--out", "b.json"]],
                         ids=["analyze"])
@pytest.mark.parametrize("make, message", [
    (lambda tmp_path, lines: tmp_path / "nope.csv",
     "cannot open trace {path}: No such file or directory"),
    (lambda tmp_path, lines: tmp_path, "cannot open trace {path}: Is a directory"),
    # the byte decodes to U+FFFD, and its row fails to parse
    (_non_utf8_trace,
     "trace line 4: cannot read x row 'x,0,0,1,1,\ufffd3.0,' ("),
    # it opens, but reading its offset 0 fails; that used to print
    # "cannot write None: Input/output error"
    pytest.param(lambda tmp_path, lines: Path("/proc/self/mem"),
                 "cannot read trace {path}: Input/output error\n",
                 marks=pytest.mark.skipif(not Path("/proc/self/mem").exists(),
                                          reason="no /proc/self/mem")),
], ids=["missing", "directory", "non_utf8", "read_error"])
def test_unreadable_trace_is_a_config_error(tmp_path, capsys, monkeypatch,
                                            tradeoff_trace_lines, command,
                                            make, message):
    monkeypatch.chdir(tmp_path)
    path = make(tmp_path, tradeoff_trace_lines)
    capsys.readouterr()
    assert run_cli(*command, "--trace", path,
                   "--config", CONFIGS / "tradeoff.json") == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {message.format(path=path)}")
    assert not (tmp_path / "b.json").exists()


def test_header_cannot_widen_the_bounds_of_a_doctored_trace(tmp_path, capsys):
    # Moving 3.0 of round 0's final gain for element 1 from agent 2 to
    # agent 1 breaks the consensus envelope; a header value_cap large
    # enough to hide that is not the config's.
    cfg = CONFIGS / "ring_metropolis.json"
    run_cli("run", "--config", cfg, "--trace-out", tmp_path / "t.csv",
            "--summary-out", tmp_path / "s.json")
    lines = (tmp_path / "t.csv").read_text().splitlines()
    for j, line in enumerate(lines):
        parts = line.split(",")
        if parts[:3] == ["x", "0", "6"] and parts[3] in "12" and parts[4] == "1":
            shift = 3.0 if parts[3] == "1" else -3.0
            parts[5] = format_float(float(parts[5]) + shift)
            lines[j] = ",".join(parts)
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert run_cli("analyze", "--trace", bad, "--config", cfg,
                   "--out", tmp_path / "b.json") == 1
    assert "[FAIL] consensus_error" in capsys.readouterr().out
    assert ",value_cap=10.0," in lines[1]
    lines[1] = lines[1].replace(",value_cap=10.0,", ",value_cap=1000.0,")
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("analyze", "--trace", bad, "--config", cfg,
                   "--out", tmp_path / "b.json") == 2
    assert ("trace header value_cap=1000.0, but the config gives 10.0"
            in capsys.readouterr().err)


@pytest.mark.parametrize("overrides, matrix, field", [
    ({"graph": {"kind": "complete", "n": "x"}}, None, "graph.n"),
    ({"graph": {"kind": "erdos_renyi", "n": 4, "p": "x"}}, None, "graph.p"),
    # no connected draw: a spec the generator cannot meet
    ({"graph": {"kind": "erdos_renyi", "n": 30, "p": 0.01}}, None, "graph"),
    ({"functions": {"kind": "coverage", "size": "x", "universe": 6}}, None,
     "functions.size"),
    ({"functions": {"kind": "coverage", "universe": 6, "sets": [[1, "a"]]}},
     None, "functions.sets[0][1]"),
    ({"functions": {"kind": "modular", "weights": [1, "a"]}}, None,
     "functions.weights[1]"),
    ({"functions": {"kind": "facility_location", "weights": [[1, 2], [3]]}},
     None, "functions"),
    # every agent draws its own function: "identical" is an unknown key
    ({"functions": {"kind": "coverage", "size": 4, "universe": 6,
                    "identical": "false"}}, None, "functions.identical"),
    ({}, "missing", "mixing.custom_csv"),
    ({}, "0.5,x\n0.5,0.5\n", "mixing.custom_csv"),
    ({}, "0.5,0.5\n0.5\n", "mixing.custom_csv"),
    ({}, "inf,0.5\n0.5,inf\n", "mixing.custom_csv"),
    ({}, "0.5,0.5\n0.5,nan\n", "mixing.custom_csv"),
    ({"mixing": {"custom_csv": None}}, None, "mixing.custom_csv"),
    # each used to pass: a float truncated, a bool read as 0 or 1
    ({"graph": {"kind": "complete", "n": 3.9}}, None, "graph.n"),
    ({"graph": {"kind": "complete", "n": True}, "mixing": "metropolis"}, None,
     "graph.n"),
    ({"graph": {"kind": "erdos_renyi", "n": 4, "p": True}}, None, "graph.p"),
    ({"graph": {"kind": "complete", "n": 4, "seed": True}}, None, "graph.seed"),
    ({"functions": {"kind": "coverage", "size": 5.7, "universe": 6}}, None,
     "functions.size"),
    ({"functions": {"kind": "coverage", "size": 5, "universe": 6.2}}, None,
     "functions.universe"),
    ({"functions": {"kind": "coverage", "sets": [[1.5, 2]]}}, None,
     "functions.sets[0][0]"),
    ({"functions": {"kind": "pair_supermodular", "size": 3, "pair": [1.9, 2.2]}},
     None, "functions.pair[0]"),
    ({"functions": {"kind": "pair_supermodular", "size": 3, "g": [0, True, 3]}},
     None, "functions.g[1]"),
    ({"functions": {"kind": "coverage", "size": 5, "universe": 6, "seed": True}},
     None, "functions.seed"),
    ({"functions": {"kind": "modular", "weights": [True, False, 2]}}, None,
     "functions.weights[0]"),
    # each used to validate, echoed as scenario={'a': 1} and scenario=None
    ({"scenario": {"a": 1}}, None,
     ("scenario", "scenario must be a string, not {'a': 1}")),
    ({"scenario": None}, None, ("scenario", "scenario must be a string, not None")),
], ids=["graph_n", "graph_p", "graph_unconnectable", "size", "sets", "weights", "ragged_weights",
        "identical", "csv_missing", "csv_cell", "csv_ragged", "csv_inf", "csv_nan",
        "csv_null",
        "graph_n_float", "graph_n_bool", "graph_p_bool", "graph_seed_bool",
        "size_float", "universe_float", "sets_float", "pair_float", "g_bool",
        "functions_seed_bool", "weights_bool", "scenario_object", "scenario_null"])
def test_malformed_spec_value_is_a_config_error(tmp_path, capsys, overrides,
                                                matrix, field):
    field, message = field if isinstance(field, tuple) else (field, None)
    if matrix is not None:
        csv_path = tmp_path / "W.csv"
        if matrix != "missing":
            csv_path.write_text(matrix)
        overrides = dict(overrides, mixing={"custom_csv": str(csv_path)})
    path = write_config(tmp_path, **overrides)
    assert run_cli("validate-config", "--config", path) == 2
    err = capsys.readouterr().err
    assert f"config error at {field!r}: " in err
    assert message is None or err == f"config error at {field!r}: {message}\n"


def test_trace_round_trips_exactly(tmp_path):
    import numpy as np
    run_cli("run", "--config", CONFIGS / "ring_metropolis.json",
            "--trace-out", tmp_path / "t.csv", "--summary-out", tmp_path / "s.json")
    cfg = build_run_config(load_experiment(CONFIGS / "ring_metropolis.json"))
    from distgreedy.protocol import run as run_protocol
    fresh = run_protocol(cfg)
    loaded = read_trace_csv(tmp_path / "t.csv", cfg)
    assert loaded.selected == fresh.selected
    assert loaded.psi == fresh.psi
    assert loaded.mu == fresh.mu
    for a, b in zip(loaded.rounds, fresh.rounds):
        for field in ("x_final", "deviations", "drifts"):
            assert np.array_equal(getattr(a, field).view(np.int64),
                                  getattr(b, field).view(np.int64)), field
        assert a.candidate_steps == b.candidate_steps


def write_reference_trace_csv(trace, path):
    """The v1 layout written row by row with csv.writer and format_float."""
    import numpy as np

    from distgreedy.protocol import TRACE_PARAMETERS
    from distgreedy.traceio import TRACE_MAGIC
    meta = []
    for name, kind in TRACE_PARAMETERS:
        v = getattr(trace, name)
        meta.append(f"{name}={format_float(v) if kind is float else int(v)}")
    meta += [f"selected={'|'.join(str(v) for v in trace.selected)}",
             f"value={format_float(trace.value)}"]
    with open(path, "w", newline="") as fh:
        fh.write(f"{TRACE_MAGIC}\n# {','.join(meta)}\n")
        rows = csv.writer(fh)
        rows.writerow(["record", "round", "t", "agent", "element", "x_value",
                       "candidate_set"])
        for rec in trace.rounds:
            for (t, i, j), v in np.ndenumerate(np.stack(list(rec.steps()))):
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
        config = RunConfig(G, metropolis_weights(G), fam, K=int(rng.integers(1, 4)),
                           T=int(rng.integers(1, 6)), threshold_slack=1e-12)
        trace = run_protocol(config)
        path = tmp_path / f"rt{i}.csv"
        write_trace_csv(trace, path)
        write_reference_trace_csv(trace, tmp_path / "ref.csv")
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()
        loaded = read_trace_csv(path, config)
        assert loaded.selected == trace.selected
        assert loaded.value == trace.value
        for a, b in zip(loaded.rounds, trace.rounds):
            for field in ("x_final", "deviations", "drifts"):
                assert np.array_equal(getattr(a, field).view(np.int64),
                                      getattr(b, field).view(np.int64)), field
            assert np.array_equal(a.candidate_masks, b.candidate_masks)
