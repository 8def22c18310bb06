"""Closed-form bounds, trace audits, and the communication tradeoff."""

import json
import math
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgreedy import (
    GroundSet,
    RunConfig,
    SetFunction,
    brute_force_optimum,
    check_structure,
    epsilon,
    generate,
    lazy,
    lazy_max_degree_weights,
    local_family,
    metropolis_weights,
    psi_min,
    run,
    tradeoff_sweep,
    uniform_complete_weights,
)
from distgreedy.analysis import (
    SweepRow,
    audit_trace,
    bounds_report,
    check_approx_bound,
    check_ratio_bound,
)
from distgreedy.config import ExperimentConfig, build_run_config
from distgreedy.errors import CapExceededError, MonotonicityError
from distgreedy.graph import make_network
from distgreedy.mixing import MixingMatrix, spectral_mu
from distgreedy.setfn import FUNCTION_KINDS, LocalFamily

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
C4_PARAMS = {"universe": 6, "sets": [[1, 2, 3], [3, 4], [5], [4, 5, 6]]}


def c4_family(n):
    return local_family(n, "coverage", params=C4_PARAMS)


# --- closed forms ------------------------------------------------------------

def test_epsilon_substitutions():
    assert epsilon(4, 0.5, 3, 2) == 0.5
    assert epsilon(7, 0.0, 5, 100.0) == 0.0
    assert epsilon(3, 2 / 3, 1, 6) == pytest.approx(4 * math.sqrt(3), rel=1e-15)


def test_psi_min_substitutions():
    assert psi_min(4, 0.5, 3, 2) == 2.0
    assert psi_min(9, 0.0, 2, 50.0) == 0.0
    assert psi_min(3, 2 / 3, 10, 6) == pytest.approx(
        24 * math.sqrt(3) * (2 / 3) ** 10, rel=1e-15)


def test_epsilon_contracts_by_mu_per_step():
    for mu in (0.25, 0.5, 2 / 3, 0.9):
        for T in range(1, 9):
            assert epsilon(5, mu, T + 1, 7.0) == pytest.approx(
                mu * epsilon(5, mu, T, 7.0), rel=1e-14)


def test_epsilon_rejects_only_a_negative_or_non_finite_mu():
    # mu >= 1 used to raise; the bound holds there, vacuous at mu = 1
    assert epsilon(3, 1.0, 2, 5.0) == 5 * math.sqrt(3)
    assert psi_min(3, 1.0, 2, 5.0) == 20 * math.sqrt(3)
    assert epsilon(3, 1.0 + 1e-12, 2, 5.0) > 5 * math.sqrt(3)
    assert epsilon(3, 2.0, 2000, 5.0) == math.inf  # 2.0 ** 2000 overflows
    for mu in (-0.1, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite and >= 0"):
            epsilon(3, mu, 2, 5.0)
    with pytest.raises(ValueError):
        epsilon(3, 0.5, 0, 5.0)


# --- guarantee checks ---------------------------------------------------------

def exact_run(fam, K, T=1, **kw):
    n = fam.n
    cfg = RunConfig(generate("complete", n), uniform_complete_weights(n),
                    fam, K, T, **kw)
    return run(cfg)


def test_approx_bound_on_exact_consensus_run():
    fam = c4_family(4)
    trace = exact_run(fam, K=2)
    result = check_approx_bound(trace, optimum_value=6.0)
    assert result.passed and not result.vacuous
    assert result.rhs == pytest.approx((1 - 1 / math.e) * 6.0, rel=1e-12)
    assert result.margin == pytest.approx(6.0 - (1 - 1 / math.e) * 6.0, rel=1e-12)


def test_single_pick_with_exact_consensus_is_optimal_among_singletons():
    fam = c4_family(3)
    trace = exact_run(fam, K=1)
    avg = fam.average()
    best_single = max(avg([v]) for v in range(1, 5))
    assert trace.value == best_single
    _, opt = brute_force_optimum(avg, 1)
    assert check_approx_bound(trace, opt).passed


def test_vacuous_tagging_when_gap_swallows_the_optimum():
    fam = c4_family(3)
    trace = exact_run(fam, K=2, psi=50.0)
    result = check_approx_bound(trace, optimum_value=6.0)
    assert result.vacuous
    assert result.passed  # trivially: rhs <= 0 <= achieved


def test_ratio_bound_reduces_to_plain_bound_for_ratio_one():
    fam = c4_family(3)
    trace = exact_run(fam, K=2)
    plain = check_approx_bound(trace, 6.0)
    ratio = check_ratio_bound(trace, 6.0, gammas=[1.0, 1.0, 1.0])
    assert ratio.rhs == pytest.approx(plain.rhs, abs=1e-12)
    assert ratio.gamma_min == 1.0


def test_ratio_bound_uses_the_minimum_ratio():
    fam = local_family(4, "pair_supermodular", params={"size": 4}, seed=3)
    trace = exact_run(fam, K=2)
    _, opt = brute_force_optimum(fam.average(), 2)
    gammas = [check_structure(f).submodularity_ratio for f in fam.functions]
    assert min(gammas) == 2 / 3
    result = check_ratio_bound(trace, opt, gammas)
    assert result.passed
    assert result.gamma_min == 2 / 3
    mixed = check_ratio_bound(trace, opt, gammas + [1.0])
    assert mixed.gamma_min == 2 / 3


def test_ratio_bound_skipped_for_zero_ratio():
    fam = c4_family(2)
    trace = exact_run(fam, K=1)
    result = check_ratio_bound(trace, 6.0, gammas=[0.0, 1.0])
    assert result.skipped
    assert "not positive" in result.detail


@pytest.mark.parametrize("gammas, state", [
    (None, "FAIL"), ([1.0, 1.0], "FAIL"), ([0.5, 1.0], "skip"),
], ids=["no_ratios", "ratio_1", "ratio_half"])
def test_failing_approx_bound_is_skipped_below_ratio_1(gammas, state):
    # an optimum of 100 puts the (1 - 1/e) right side above the achieved 6
    fam = c4_family(2)
    trace = exact_run(fam, K=2)
    approx = bounds_report(trace, fam, optimum=100.0, gammas=gammas)["approx_bound"]
    assert not approx.passed
    assert approx.skipped == (state == "skip")
    assert approx.margin == pytest.approx(6.0 - (1 - 1 / math.e) * 100.0)
    assert approx.rhs == pytest.approx((1 - 1 / math.e) * 100.0)
    assert ("gamma_min=0.5 < 1" in approx.detail) == (state == "skip")
    holds = bounds_report(trace, fam, optimum=6.0, gammas=gammas)["approx_bound"]
    assert (holds.passed, holds.skipped) == (True, False)
    assert holds.detail == check_approx_bound(trace, 6.0).detail


def test_non_contracting_trace_audits_every_epsilon_check():
    # mu >= 1 used to give None bounds and skip these five checks
    fam = c4_family(2)
    periodic = MixingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), 1.0)
    trace = run(RunConfig(generate("path", 2), periodic, fam, 2, 3, psi=3.0))
    eps = math.sqrt(2) * 6.0
    assert (trace.epsilon_T, trace.psi_floor, trace.additive_gap) == (
        eps, 4 * eps, 2 * (3.0 + 2 * eps))
    report = bounds_report(trace, fam, optimum=6.0, gammas=[1.0, 1.0])
    assert not any(c.skipped for c in report.checks)
    assert report.passed
    payload = report.to_jsonable()
    assert payload["vacuous"] is True
    assert payload["approx_rhs"] == (1 - 1 / math.e) * 6.0 - trace.additive_gap
    assert payload["ratio_rhs"] == pytest.approx(payload["approx_rhs"])  # gamma_min = 1


def periodic_weights(G):
    """Each edge weighted 1/degree on a regular bipartite graph: the
    2-node swap or an even cycle, whose mu is 1."""
    W = G.adjacency / G.adjacency.sum(axis=1)[:, None]
    return MixingMatrix(W, spectral_mu(W))


@pytest.mark.parametrize("n", [2, 4])  # the 2-node swap and the 4-cycle
@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("T", [1, 2, 7])
def test_a_periodic_chain_stays_within_the_total_bound(n, seed, T):
    G = generate("cycle", n)
    mixing = periodic_weights(G)
    assert mixing.mu == 1.0
    fam = local_family(n, "facility_location", seed=seed,
                       params={"size": 6, "universe": 5})
    cap = fam.max_total
    # a width of the whole gain range keeps every element, so every run ends
    trace = run(RunConfig(G, mixing, fam, K=3, T=T, psi=cap))
    assert trace.epsilon_T == math.sqrt(n) * cap
    assert max(float(rec.deviations.max()) for rec in trace.rounds) > 0.0
    for rec in trace.rounds:
        assert (rec.deviations <= math.sqrt(n) * cap).all()
    report = audit_trace(trace, fam)
    for name in ("consensus_error", "argmax_gap", "round_gain"):
        assert report[name].passed and not report[name].skipped, name
        assert report[name].margin >= 0.0, name


# --- trace audits --------------------------------------------------------------

def test_uniform_trace_has_zero_deviation():
    fam = c4_family(4)
    trace = exact_run(fam, K=2, T=3)
    for rec in trace.rounds:
        assert float(rec.deviations[1:].max()) <= 1e-15
    assert audit_trace(trace, fam).passed


def test_identical_locals_mix_trivially():
    fam = c4_family(3)
    G = generate("path", 3)
    trace = run(RunConfig(G, metropolis_weights(G), fam, K=2, T=4))
    for rec in trace.rounds:
        assert float(rec.deviations.max()) <= 1e-12
    assert audit_trace(trace, fam).passed


def test_distinct_locals_pass_every_audit():
    G = generate("path", 3)
    fam = local_family(3, "coverage", params={"size": 5, "universe": 7}, seed=9)
    trace = run(RunConfig(G, metropolis_weights(G), fam, K=3, T=5))
    report = audit_trace(trace, fam)
    assert report.passed
    for name in ("mean_conservation", "consensus_error", "argmax_gap",
                 "candidate_agreement", "round_gain"):
        assert report[name].passed, name
    assert report["consensus_error"].margin >= 0.0
    assert report["argmax_gap"].margin >= 0.0
    assert report["round_gain"].margin >= -1e-9


def test_bounds_report_is_internally_consistent():
    fam = c4_family(3)
    G = generate("cycle", 3)
    trace = run(RunConfig(G, metropolis_weights(G), fam, K=2, T=4))
    _, opt = brute_force_optimum(fam.average(), 2)
    report = bounds_report(trace, fam, optimum=opt)
    payload = report.to_jsonable()
    assert payload["additive_gap"] == trace.K * (trace.psi + 2 * payload["epsilon_T"])
    assert payload["approx_rhs"] == report["approx_bound"].rhs == pytest.approx(
        (1 - 1 / math.e) * opt - payload["additive_gap"], rel=1e-14)
    assert payload["psi_floor"] == pytest.approx(4 * payload["epsilon_T"], rel=1e-15)
    assert report.passed
    assert set(payload["checks"]) == {
        "mean_conservation", "consensus_error", "argmax_gap",
        "candidate_agreement", "round_gain", "approx_bound"}


# The record_replay benchmark workload's config at seed 1.
RECORD_REPLAY_SEED_1 = {
    "graph": {"kind": "erdos_renyi", "n": 50, "p": 0.2}, "mixing": "metropolis",
    "functions": {"kind": "facility_location", "size": 35, "universe": 400},
    "K": 6, "T": 20, "psi": "auto", "seed": 1}


@pytest.mark.parametrize("raw", [
    json.loads((CONFIGS / "ring_metropolis.json").read_text()),
    RECORD_REPLAY_SEED_1,
], ids=["ring_metropolis", "record_replay_seed_1"])
def test_audit_reuses_the_scans_of_the_run(raw):
    # The audit's round_gain check scans each local function on the same
    # base and rows as init_round did, so SetFunction's scan cache answers
    # every one. Without the cache, the audit of the ROADMAP mid row took
    # 0.23-0.31 s, not 0.010 s, and tradeoff_sweep lost 240 of its 1524
    # reused scans (median wall 0.879 -> 0.966 s over 6 pairs). A change
    # that gives this reuse up for memory must change this test.
    config = build_run_config(ExperimentConfig(raw))
    trace = run(config)
    calls = []
    for f in set(config.family.functions):
        f._batch = partial(lambda batch, base, rows: calls.append(len(rows))
                           or batch(base, rows), f._batch)
    bounds_report(trace, config.family)
    assert calls == []


def test_scan_cache_keys_hold_no_rows():
    config = build_run_config(ExperimentConfig(RECORD_REPLAY_SEED_1))
    bounds_report(run(config), config.family)
    keys = [key for f in set(config.family.functions) for key in f._scans]
    assert keys and all(isinstance(base, int) and width in (0, 1)
                        for base, width in keys)


# --- tradeoff sweeps ------------------------------------------------------------

def sweep_config(mixing, fam, n, K=2):
    G = generate("complete", n) if mixing.construction == "custom" \
        else generate("path", n)
    return RunConfig(G, mixing, fam, K, T=1)


def test_auto_psi_gap_contracts_by_mu_each_step():
    G = generate("path", 3)
    M = metropolis_weights(G)          # contraction rate 2/3
    fam = c4_family(3)
    cfg = RunConfig(G, M, fam, K=2, T=1)
    rows = tradeoff_sweep(cfg, range(1, 7), psi="auto")
    for a, b in zip(rows, rows[1:]):
        assert abs(b.additive_gap - M.mu * a.additive_gap) <= 1e-12
        assert b.additive_gap < a.additive_gap
    n, cap = 3, fam.max_total
    for row in rows:
        closed_form = 6 * cfg.K * math.sqrt(n) * cap * M.mu ** row.T
        assert row.additive_gap == pytest.approx(closed_form, abs=1e-12)
        assert row.psi == psi_min(n, M.mu, row.T, cap)


def test_auto_psi_gap_contracts_for_half_rate_instance():
    M = lazy(uniform_complete_weights(2))   # contraction rate exactly 1/2
    assert abs(M.mu - 0.5) <= 1e-12
    G = generate("complete", 2)
    fam = c4_family(2)
    cfg = RunConfig(G, M, fam, K=2, T=1)
    rows = tradeoff_sweep(cfg, range(1, 9), psi="auto")
    for a, b in zip(rows, rows[1:]):
        assert abs(b.additive_gap - M.mu * a.additive_gap) <= 1e-12


def test_fixed_psi_gap_decays_to_k_psi():
    G = generate("path", 3)
    M = metropolis_weights(G)
    fam = c4_family(3)
    cfg = RunConfig(G, M, fam, K=2, T=1)
    psi = 1.5
    rows = tradeoff_sweep(cfg, range(1, 9), psi=psi)
    floor = cfg.K * psi
    for a, b in zip(rows, rows[1:]):
        assert b.additive_gap < a.additive_gap
    for row in rows:
        assert row.additive_gap > floor
        assert row.additive_gap - floor == pytest.approx(
            2 * cfg.K * row.epsilon, rel=1e-12)
    assert rows[-1].additive_gap - floor < 0.1 * (rows[0].additive_gap - floor)


def test_zero_rate_gap_is_exactly_k_psi():
    fam = c4_family(3)
    G = generate("complete", 3)
    M = uniform_complete_weights(3)
    cfg = RunConfig(G, M, fam, K=2, T=1)
    fixed = tradeoff_sweep(cfg, [1, 2, 3], psi=0.75)
    assert all(row.additive_gap == cfg.K * 0.75 for row in fixed)
    auto = tradeoff_sweep(cfg, [1, 2, 3], psi="auto")
    assert all(row.additive_gap == 0.0 for row in auto)


def test_sweep_reports_achieved_and_rhs():
    G = generate("path", 3)
    M = metropolis_weights(G)
    fam = c4_family(3)
    rows = tradeoff_sweep(RunConfig(G, M, fam, K=2, T=1), [1, 6, 12])
    _, opt = brute_force_optimum(fam.average(), 2)
    for row in rows:
        assert row.achieved >= row.rhs - 1e-9
        assert row.rhs == pytest.approx(
            (1 - 1 / math.e) * opt - row.additive_gap, rel=1e-12)
    assert rows[0].vacuous is True    # one averaging step leaves a huge gap
    assert rows[-1].vacuous is False  # twelve steps make the bound informative


def test_sweep_requires_ascending_t():
    fam = c4_family(3)
    G = generate("path", 3)
    cfg = RunConfig(G, metropolis_weights(G), fam, K=2, T=1)
    with pytest.raises(ValueError):
        tradeoff_sweep(cfg, [3, 2])


def reference_sweep(config, T_values, psi="auto"):
    """tradeoff_sweep as a separate RunConfig and run per T."""
    try:
        _, optimum = brute_force_optimum(config.family.average(), config.K)
    except CapExceededError:
        optimum = None
    rows = []
    for T in T_values:
        point = RunConfig(
            config.network, config.mixing, config.family, config.K, T,
            psi=None if psi == "auto" else float(psi),
            threshold_slack=config.threshold_slack, seed=config.seed)
        trace = run(point)
        rows.append(SweepRow(trace, None if optimum is None
                             else check_approx_bound(trace, optimum)))
    return rows


def outcome(sweep, *args):
    """Every field of every row, as repr (which tells -0.0 from 0.0), or
    the type and message of the exception raised."""
    try:
        rows = sweep(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return [tuple(repr(v) for v in (r.T, r.psi, r.epsilon, r.additive_gap,
                                    r.achieved, r.rhs, r.vacuous))
            for r in rows]


@st.composite
def sweep_cases(draw):
    n = draw(st.integers(1, 8))
    edges = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=n))
    G = make_network(n, edges + [(i, j) for i, j in extra if i != j])
    weights = draw(st.sampled_from([metropolis_weights, lazy_max_degree_weights]))
    m = draw(st.integers(2, 9))
    fam = local_family(n, draw(st.sampled_from(FUNCTION_KINDS)),
                       seed=draw(st.integers(0, 2 ** 32 - 1)),
                       params={"size": m, "universe": draw(st.integers(1, 12))})
    config = RunConfig(G, weights(G), fam, K=draw(st.integers(1, m + 1)), T=1)
    T_values = sorted(draw(st.sets(st.integers(1, 40), min_size=1, max_size=10)))
    # fixed widths near the gain gaps: small T may fail or pick differently
    psi = draw(st.sampled_from(["auto", 0.0, 0.25, 1.0, 2.5]))
    return config, T_values, psi


@settings(max_examples=250, deadline=None)
@given(case=sweep_cases())
def test_sweep_equals_a_run_per_t(case):
    config, T_values, psi = case
    assert outcome(tradeoff_sweep, config, T_values, psi) == \
        outcome(reference_sweep, config, T_values, psi)


@pytest.mark.parametrize("penalty_13, message", [
    (0, "agent 1: negative gain -1.0 for element 3;"),
    (3, "agent 1: negative gain -2.0 for element 3;"),
])
def test_sweep_raises_the_error_of_the_smallest_failing_t(penalty_13, message):
    # Gains 1, 5, 1. Small T: psi keeps every element and element 1 is
    # picked first; large T: element 2 is. Element 3 then loses 2 next to
    # element 2, and penalty_13 next to element 1: without that penalty
    # only the large T fail, with it every T does, the small ones first.
    def value(mask):
        e1, e2, e3 = mask & 1, mask >> 1 & 1, mask >> 2 & 1
        return float(e1 + 5 * e2 + e3 - 2 * (e2 & e3) - penalty_13 * (e1 & e3))
    f = SetFunction.from_scalar(GroundSet(3), value, label="pair_penalty")
    G = generate("path", 3)
    config = RunConfig(G, metropolis_weights(G), LocalFamily([f] * 3),
                       K=2, T=1)
    if not penalty_13:
        assert [row.achieved for row in tradeoff_sweep(config, range(1, 6))] == \
            [6.0] * 5
    with pytest.raises(MonotonicityError, match=message):
        reference_sweep(config, range(1, 9))
    assert outcome(tradeoff_sweep, config, range(1, 9)) == \
        outcome(reference_sweep, config, range(1, 9))
