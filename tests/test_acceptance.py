"""Acceptance suite: every stated guarantee, checked at its stated tolerance.

Criteria, one test each, in order:
  1  exact-consensus runs reproduce centralized greedy exactly
  2  additive approximation bound against the brute-force optimum, 500 runs
  3  per-step consensus deviations stay under the geometric envelope
  4  cross-agent argmax undervaluation stays under 4*epsilon(T)
  5  candidate sets agree at the end of every round and keep every argmax
  6  every round's realized gain is within psi + 2*epsilon(T) of the best
  7  contraction envelope of matrix powers; two spectral routes agree
  8  slack-tolerant greedy meets its additive guarantees, per-step recurrence
  9  runs with ratio-2/3 locals meet the ratio-adjusted bound
 10  the additive gap contracts by mu per extra averaging step

Each test prints one pass line with its measured margins. The randomized
run suite behind criteria 2-6 is generated once and shared.
"""

import math
import time

import numpy as np
import pytest

from distgreedy import (
    RunConfig,
    brute_force_optimum,
    build_test_function,
    centralized_greedy,
    check_structure,
    contraction_bound_check,
    epsilon,
    generate,
    lazy,
    lazy_max_degree_weights,
    local_family,
    metropolis_weights,
    perturbed_greedy,
    power_iteration_mu,
    run,
    spectral_mu,
    tradeoff_sweep,
    uniform_complete_weights,
)
from distgreedy.analysis import audit_trace
from distgreedy.baseline import gap_recurrence_margins

ONE_MINUS_1_OVER_E = 1.0 - 1.0 / math.e
SLACK = 1e-9

GRAPH_KINDS = ("path", "cycle", "grid", "complete", "erdos_renyi")
SUBMODULAR_KINDS = ("coverage", "weighted_coverage", "facility_location",
                    "modular")


def random_submodular_family(rng, n):
    kind = SUBMODULAR_KINDS[int(rng.integers(len(SUBMODULAR_KINDS)))]
    params = {"size": int(rng.integers(4, 11)),
              "universe": int(rng.integers(3, 9))}
    return local_family(n, kind, seed=int(rng.integers(2 ** 31)), params=params)


@pytest.fixture(scope="module")
def randomized_suite():
    """500 randomized desk-scale runs with metropolis weights and auto psi.

    The documented 1e-12 threshold slack keeps float-valued ties from
    splitting candidate sets; it is absorbed by the 1e-9 check slack.
    """
    rng = np.random.default_rng(20260808)
    t0 = time.perf_counter()
    suite = []
    for i in range(500):
        kind = GRAPH_KINDS[i % len(GRAPH_KINDS)]
        n = int(rng.integers(2, 13))
        G = generate(kind, n, seed=int(rng.integers(2 ** 31)), p=0.4)
        fam = random_submodular_family(rng, n)
        K = int(rng.integers(1, min(4, fam.ground.size) + 1))
        T = int(rng.integers(1, 9))
        cfg = RunConfig(G, metropolis_weights(G), fam, K, T,
                        threshold_slack=1e-12)
        suite.append((run(cfg), fam))
    elapsed = time.perf_counter() - t0
    return suite, elapsed


def test_criterion_1_exact_consensus_equivalence():
    # powers-of-two agent counts keep the one-step average exactly
    # representable, so distributed and centralized values are bit-equal
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    for i in range(50):
        n = int(rng.choice([2, 4, 8]))
        m = int(rng.integers(4, 13))
        kind = SUBMODULAR_KINDS[int(rng.integers(len(SUBMODULAR_KINDS)))]
        fam = local_family(n, kind, seed=int(rng.integers(2 ** 31)),
                           params={"size": m, "universe": int(rng.integers(3, 9))})
        K = int(rng.integers(1, min(5, m) + 1))
        T = int(rng.integers(1, 4))
        cfg = RunConfig(generate("complete", n), uniform_complete_weights(n),
                        fam, K, T)
        trace = run(cfg)
        assert trace.psi == 0.0
        reference = centralized_greedy(fam.average(), K)
        assert trace.selected == reference.selected, f"instance {i}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    print(f"\ncriterion 1 (exact-consensus equivalence): PASS - "
          f"50/50 runs identical to centralized greedy in {elapsed:.1f}s")


def test_criterion_2_additive_approximation_bound(randomized_suite):
    suite, build_time = randomized_suite
    t0 = time.perf_counter()
    violations = 0
    worst = np.inf
    for trace, fam in suite:
        avg = fam.average()
        achieved = avg.value(trace.selected)
        _, opt = brute_force_optimum(avg, trace.K)
        eps_T = epsilon(trace.n, trace.mu, trace.T, trace.value_cap)
        rhs = ONE_MINUS_1_OVER_E * opt - trace.K * (trace.psi + 2.0 * eps_T)
        margin = achieved - rhs
        worst = min(worst, margin)
        if margin < -SLACK:
            violations += 1
    elapsed = build_time + (time.perf_counter() - t0)
    assert violations == 0
    assert elapsed < 300.0
    print(f"\ncriterion 2 (approximation bound): PASS - 0/{len(suite)} "
          f"violations, worst margin {worst:.3e}, {elapsed:.1f}s total")


def test_criterion_3_consensus_error_envelope(randomized_suite):
    suite, _ = randomized_suite
    worst = np.inf
    for trace, fam in suite:
        sqrt_n = math.sqrt(trace.n)
        for rec in trace.rounds:
            for t in range(1, trace.T + 1):
                bound = sqrt_n * trace.mu ** t * trace.value_cap
                worst = min(worst, bound - float(rec.deviations[t]))
        report = audit_trace(trace, fam)
        assert report["consensus_error"].passed
    assert worst >= -SLACK
    print(f"\ncriterion 3 (consensus error envelope): PASS - worst margin "
          f"{worst:.3e} across {len(suite)} runs")


def test_criterion_4_argmax_gap_bound(randomized_suite):
    suite, _ = randomized_suite
    worst = np.inf
    for trace, fam in suite:
        eps_T = epsilon(trace.n, trace.mu, trace.T, trace.value_cap)
        for rec in trace.rounds:
            X_T = rec.x_final
            peak_cols = [int(np.argmax(row)) for row in X_T]
            for i in range(trace.n):
                gap = float(X_T[i].max()) - float(min(X_T[i, c] for c in peak_cols))
                worst = min(worst, 4.0 * eps_T - gap)
    assert worst >= -SLACK
    print(f"\ncriterion 4 (argmax gap bound): PASS - worst margin "
          f"{worst:.3e} across {len(suite)} runs")


def test_criterion_5_candidate_agreement(randomized_suite):
    suite, _ = randomized_suite
    rounds_checked = 0
    for trace, fam in suite:
        for rec in trace.rounds:
            final = rec.candidate_steps[-1]
            network_wide = frozenset.intersection(*rec.candidate_steps[0])
            X_T = rec.x_final
            peaks = frozenset(rec.remaining[int(np.argmax(row))] for row in X_T)
            assert all(s == final[0] for s in final)
            assert final[0] == network_wide
            assert final[0]
            assert peaks <= final[0]
            rounds_checked += 1
    print(f"\ncriterion 5 (candidate agreement): PASS - {rounds_checked} "
          f"rounds agree, all nonempty, all contain every agent argmax")


def test_criterion_6_per_round_gain(randomized_suite):
    suite, _ = randomized_suite
    worst = np.inf
    for trace, fam in suite:
        avg = fam.average()
        eps_T = epsilon(trace.n, trace.mu, trace.T, trace.value_cap)
        before = ()
        for rec in trace.rounds:
            realized = avg.value(rec.selected_after) - avg.value(before)
            best = max(avg.value(before + (v,)) - avg.value(before)
                       for v in rec.remaining)
            worst = min(worst, realized - (best - trace.psi - 2.0 * eps_T))
            before = rec.selected_after
    assert worst >= -SLACK
    print(f"\ncriterion 6 (per-round gain): PASS - worst margin "
          f"{worst:.3e} across {len(suite)} runs")


def test_criterion_7_contraction_and_spectra():
    spot = metropolis_weights(generate("path", 3))
    assert abs(spot.mu - 2.0 / 3.0) <= 1e-10

    rng = np.random.default_rng(77)
    graphs = 0
    worst_disagreement = 0.0
    while graphs < 100:
        kind = GRAPH_KINDS[graphs % len(GRAPH_KINDS)]
        n = int(rng.integers(2, 17))
        G = generate(kind, n, seed=int(rng.integers(2 ** 31)), p=0.4)
        for M in (metropolis_weights(G), lazy_max_degree_weights(G)):
            report = contraction_bound_check(M, 50)
            assert report.passed, (kind, n, M.construction)
            disagreement = abs(power_iteration_mu(M.W) - spectral_mu(M.W))
            worst_disagreement = max(worst_disagreement, disagreement)
            assert disagreement < 1e-8
        graphs += 1
    print(f"\ncriterion 7 (contraction and spectra): PASS - {graphs} graphs x "
          f"2 weightings x 50 powers; spectral routes agree to "
          f"{worst_disagreement:.2e}; 3-path spot value exact to 1e-10")


def test_criterion_8_perturbed_greedy_guarantees():
    rng = np.random.default_rng(88)

    worst_plain = np.inf
    for _ in range(200):
        kind = SUBMODULAR_KINDS[int(rng.integers(len(SUBMODULAR_KINDS)))]
        f = build_test_function(kind, {"size": int(rng.integers(4, 9)),
                                       "universe": int(rng.integers(3, 8))},
                                seed=int(rng.integers(2 ** 31)))
        K = int(rng.integers(1, min(4, f.ground.size) + 1))
        taus = list(rng.integers(0, 3, size=K).astype(float))
        _, opt = brute_force_optimum(f, K)
        result = perturbed_greedy(f, K, taus, seed=int(rng.integers(2 ** 31)))
        worst_plain = min(worst_plain,
                          result.value - (ONE_MINUS_1_OVER_E * opt - sum(taus)))
        for margin in gap_recurrence_margins(result, opt, gamma=1.0):
            assert margin >= -SLACK
    assert worst_plain >= -SLACK

    worst_ratio = np.inf
    gamma_cache = {}
    for _ in range(200):
        size = int(rng.integers(3, 7))
        pair = tuple(sorted(rng.choice(size, size=2, replace=False) + 1))
        key = (size, pair)
        f = build_test_function("pair_supermodular",
                                {"size": size, "pair": pair})
        if key not in gamma_cache:
            gamma_cache[key] = check_structure(f).submodularity_ratio
        gamma = gamma_cache[key]
        assert gamma == 2.0 / 3.0
        K = int(rng.integers(1, size + 1))
        taus = list(rng.integers(0, 2, size=K).astype(float))
        _, opt = brute_force_optimum(f, K)
        result = perturbed_greedy(f, K, taus, seed=int(rng.integers(2 ** 31)))
        worst_ratio = min(
            worst_ratio,
            result.value - ((1.0 - math.exp(-gamma)) * opt - sum(taus)))
        for margin in gap_recurrence_margins(result, opt, gamma):
            assert margin >= -SLACK
    assert worst_ratio >= -SLACK
    print(f"\ncriterion 8 (perturbed greedy): PASS - 200+200 draws, worst "
          f"margins {worst_plain:.3e} (plain) / {worst_ratio:.3e} (ratio), "
          f"per-step recurrence holds")


def test_criterion_9_ratio_bound_runs():
    rng = np.random.default_rng(99)
    gamma_cache = {}
    worst = np.inf
    for i in range(200):
        n = int(rng.integers(2, 7))
        kind = GRAPH_KINDS[i % len(GRAPH_KINDS)]
        G = generate(kind, n, seed=int(rng.integers(2 ** 31)), p=0.5)
        fam = local_family(n, "pair_supermodular",
                           params={"size": int(rng.integers(4, 7))},
                           seed=int(rng.integers(2 ** 31)))
        for f in fam.functions:
            key = bytes(f.table().tobytes())
            if key not in gamma_cache:
                gamma_cache[key] = check_structure(f).submodularity_ratio
            assert gamma_cache[key] == 2.0 / 3.0
        K = int(rng.integers(1, 4))
        T = int(rng.integers(2, 9))
        cfg = RunConfig(G, metropolis_weights(G), fam, K, T,
                        threshold_slack=1e-12)
        trace = run(cfg)
        avg = fam.average()
        _, opt = brute_force_optimum(avg, trace.K)
        eps_T = epsilon(trace.n, trace.mu, trace.T, trace.value_cap)
        rhs = ((1.0 - math.exp(-2.0 / 3.0)) * opt
               - trace.K * (trace.psi + 2.0 * eps_T))
        worst = min(worst, avg.value(trace.selected) - rhs)
    assert worst >= -SLACK
    print(f"\ncriterion 9 (ratio bound runs): PASS - 200 runs with "
          f"oracle-verified ratio 2/3 locals, worst margin {worst:.3e}")


def test_criterion_10_communication_tradeoff():
    instances = []
    G3 = generate("path", 3)
    instances.append(("3-path metropolis", G3, metropolis_weights(G3), 3,
                      2.0 / 3.0, 1e-10))
    G2 = generate("complete", 2)
    instances.append(("lazy 2-clique", G2, lazy(uniform_complete_weights(2)), 2,
                      0.5, 1e-12))

    for name, G, M, n, mu_expected, mu_tol in instances:
        assert abs(M.mu - mu_expected) <= mu_tol, name
        fam = local_family(
            n, "coverage",
            params={"universe": 6, "sets": [[1, 2, 3], [3, 4], [5], [4, 5, 6]]})
        cfg = RunConfig(G, M, fam, K=2, T=1)

        auto = tradeoff_sweep(cfg, range(1, 9), psi="auto")
        for a, b in zip(auto, auto[1:]):
            assert abs(b.additive_gap - M.mu * a.additive_gap) <= 1e-12, name
            assert b.additive_gap < a.additive_gap

        fixed_psi = 1.0
        fixed = tradeoff_sweep(cfg, range(1, 9), psi=fixed_psi)
        floor = cfg.K * fixed_psi
        for a, b in zip(fixed, fixed[1:]):
            assert b.additive_gap < a.additive_gap
        for row in fixed:
            assert row.additive_gap > floor
            assert row.additive_gap - floor == pytest.approx(
                2 * cfg.K * row.epsilon, rel=1e-12)
        assert fixed[-1].additive_gap - floor == pytest.approx(
            M.mu ** 7 * (fixed[0].additive_gap - floor), rel=1e-9)
    print("\ncriterion 10 (communication tradeoff): PASS - gap contracts by "
          "mu per step under auto psi and decays to K*psi under fixed psi, "
          "for contraction rates 1/2 and 2/3")
