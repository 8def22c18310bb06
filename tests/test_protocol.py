"""The distributed selection protocol, phase by phase and end to end."""

import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgreedy import (
    GroundSet,
    RunConfig,
    SetFunction,
    bounds_report,
    centralized_greedy,
    generate,
    local_family,
    metropolis_weights,
    run,
    uniform_complete_weights,
)
from distgreedy.config import ExperimentConfig, build_run_config
from distgreedy.errors import (
    ConfigError,
    DesyncError,
    InfeasiblePsiError,
    MonotonicityError,
)
from distgreedy.graph import diameter, make_network
from distgreedy.mixing import MixingMatrix, spectral_mu
from distgreedy.protocol import (
    averaging_record,
    bounds,
    consensus_step,
    epsilon,
    init_round,
    intersection_sources,
    intersection_step,
    psi_min,
    select_and_append,
    sweep,
    threshold_candidates,
)

C4_PARAMS = {"universe": 6, "sets": [[1, 2, 3], [3, 4], [5], [4, 5, 6]]}


def c4_family(n):
    return local_family(n, "coverage", params=C4_PARAMS)


def modular_family(weight_rows):
    from distgreedy import build_test_function
    from distgreedy.setfn import LocalFamily
    return LocalFamily(
        [build_test_function("modular", {"weights": w}) for w in weight_rows])


# --- round initialization ---------------------------------------------------

def test_initial_gains_round_zero():
    remaining, X = init_round(c4_family(3), ())
    assert remaining == (1, 2, 3, 4)
    assert X.shape == (3, 4)
    assert np.all(X == [3.0, 2.0, 1.0, 3.0])


def test_initial_gains_after_first_pick():
    remaining, X = init_round(c4_family(2), (1,))
    assert remaining == (2, 3, 4)
    assert np.all(X == [1.0, 1.0, 3.0])


def test_initial_gains_modular_all_ones():
    fam = local_family(2, "modular", params={"weights": [1] * 5})
    for selected in [(), (2,), (2, 5)]:
        remaining, X = init_round(fam, selected)
        assert X.shape == (2, 5 - len(selected))
        assert np.all(X == 1.0)


def test_non_monotone_input_is_rejected():
    from distgreedy.setfn import LocalFamily
    bad = SetFunction.from_scalar(GroundSet(3), lambda mask: -float(mask.bit_count()),
                                  label="bad")
    with pytest.raises(MonotonicityError, match="agent 1: .* element 1;"):
        init_round(LocalFamily([bad]), ())


# --- averaging phase --------------------------------------------------------

def test_uniform_step_reaches_the_mean():
    fam = local_family(4, "coverage", params={"size": 5, "universe": 7}, seed=3)
    _, X0 = init_round(fam, ())
    after = consensus_step(X0, uniform_complete_weights(4))
    assert np.abs(after - X0.mean(axis=0)).max() < 1e-12


def test_single_agent_step_is_identity():
    _, X = init_round(c4_family(1), ())
    # Metropolis weights on a single node are the 1x1 identity, with mu = 0
    identity = metropolis_weights(generate("path", 1))
    assert np.array_equal(consensus_step(X, identity), X)


def test_path3_step_matches_matrix_product():
    M = metropolis_weights(generate("path", 3))
    after = consensus_step(np.array([[1.0], [0.0], [0.0]]), M)
    assert after[:, 0] == pytest.approx([2 / 3, 1 / 3, 0.0], abs=1e-15)


def test_mean_is_conserved_across_steps():
    fam = local_family(5, "facility_location",
                       params={"size": 6, "universe": 4}, seed=8)
    M = metropolis_weights(generate("cycle", 5))
    _, X = init_round(fam, ())
    mean0 = X.mean(axis=0)
    for _ in range(30):
        X = consensus_step(X, M)
        assert np.abs(X.mean(axis=0) - mean0).max() < 1e-12


# --- thresholding -----------------------------------------------------------

def test_zero_width_keeps_only_the_argmax():
    C = threshold_candidates(np.array([[1.0, 5.0, 2.0]]), 0.0)
    assert C.tolist() == [[False, True, False]]


def test_width_covering_the_range_keeps_everything():
    C = threshold_candidates(np.array([[3.0, 2.0, 1.0, 3.0]]), 2.0)
    assert C.all()


def test_exact_tie_keeps_both():
    C = threshold_candidates(np.array([[3.0, 2.0, 1.0, 3.0]]), 0.0)
    assert C.tolist() == [[True, False, False, True]]


def test_each_agent_thresholds_against_its_own_maximum():
    X = np.array([[3.0, 2.0, 1.0],
                  [0.0, 1.0, 9.0]])
    C = threshold_candidates(X, 1.0)
    assert C.tolist() == [[True, True, False], [False, False, True]]


# --- intersection phase -----------------------------------------------------

def masks(sets, remaining=(1, 2, 3)):
    """Candidate mask with one row per agent, columns in `remaining` order."""
    return np.array([[v in s for v in remaining] for s in sets])


def intersect(G, C, steps=1):
    sources = intersection_sources(G)
    for _ in range(steps):
        C = intersection_step(C, sources)
    return C


def test_identical_sets_are_a_fixed_point():
    C = masks([{1, 2}, {1, 2}, {1, 2}])
    assert np.array_equal(intersect(generate("path", 3), C), C)


def test_path3_reaches_global_intersection_in_diameter_steps():
    G = generate("path", 3)
    after = intersect(G, masks([{1, 2}, {2, 3}, {2}]), steps=diameter(G))
    assert np.array_equal(after, masks([{2}, {2}, {2}]))


def test_complete_graph_stabilizes_in_one_step():
    C = masks([{1, 2}, {1, 3}, {1, 2, 3}, {1}])
    after = intersect(generate("complete", 4), C)
    assert np.array_equal(after, masks([{1}] * 4))


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1..n plus random extra edges."""
    n = draw(st.integers(1, 9))
    edges = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=2 * n))
    return make_network(n, edges + [(i, j) for i, j in extra if i != j])


@settings(max_examples=80, deadline=None)
@given(G=connected_graphs(), data=st.data())
def test_intersection_reaches_columnwise_and_in_diameter_steps(G, data):
    r = data.draw(st.integers(1, 6))
    C0 = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=r, max_size=r),
        min_size=G.n, max_size=G.n)))
    after = intersect(G, C0, steps=diameter(G))
    assert np.array_equal(after, np.broadcast_to(C0.all(axis=0), C0.shape))


@settings(max_examples=80, deadline=None)
@given(G=connected_graphs(), data=st.data())
def test_intersection_step_keeps_what_every_source_holds(G, data):
    r = data.draw(st.integers(1, 6))
    C = np.array(data.draw(st.lists(
        st.lists(st.booleans(), min_size=r, max_size=r),
        min_size=G.n, max_size=G.n))).reshape(G.n, r)
    expected = [[all(C[j - 1, col] for j in G.neighbors(i) + (i,))
                 for col in range(r)] for i in range(1, G.n + 1)]
    assert intersect(G, C).tolist() == expected


# --- selection --------------------------------------------------------------

def test_lowest_index_wins():
    chosen, after = select_and_append(masks([{2, 3}] * 3), (1, 2, 3), ())
    assert chosen == 2
    assert after == (2,)


def test_singleton_set_is_chosen():
    chosen, after = select_and_append(masks([{3}] * 3), (1, 2, 3), (5,))
    assert chosen == 3
    assert after == (5, 3)


def test_differing_sets_raise_desync():
    with pytest.raises(DesyncError, match=r"agent 1 holds \[2\], agent 2 holds \[3\]"):
        select_and_append(masks([{2}, {3}, {2}]), (1, 2, 3), ())


def test_empty_agreement_raises_infeasible_psi():
    with pytest.raises(InfeasiblePsiError):
        select_and_append(masks([set(), set(), set()]), (1, 2, 3), ())


# --- full runs --------------------------------------------------------------

def exact_consensus_config(fam, K, T=1, **kw):
    n = fam.n
    return RunConfig(generate("complete", n), uniform_complete_weights(n),
                     fam, K, T, **kw)


def test_exact_consensus_matches_centralized_greedy():
    fam = c4_family(4)
    trace = run(exact_consensus_config(fam, K=2))
    assert trace.selected == (1, 4)
    assert trace.value == 6.0
    greedy = centralized_greedy(fam.average(), 2)
    assert trace.selected == greedy.selected


def test_full_budget_selects_everything():
    fam = c4_family(2)
    trace = run(exact_consensus_config(fam, K=4))
    assert set(trace.selected) == {1, 2, 3, 4}
    assert trace.value == 6.0


def test_budget_is_clamped_with_a_warning(caplog):
    fam = c4_family(2)
    with caplog.at_level(logging.WARNING, logger="distgreedy.protocol"):
        trace = run(exact_consensus_config(fam, K=9))
    assert trace.K == 4
    assert set(trace.selected) == {1, 2, 3, 4}
    assert any("clamping" in rec.message for rec in caplog.records)


def test_single_agent_reduces_to_centralized_greedy():
    fam = c4_family(1)
    G = generate("path", 1)
    cfg = RunConfig(G, metropolis_weights(G), fam, K=3, T=1)
    trace = run(cfg)
    greedy = centralized_greedy(fam.functions[0], 3)
    assert trace.selected == greedy.selected
    assert trace.psi == 0.0


def test_identical_runs_are_bit_identical():
    fam = local_family(5, "weighted_coverage",
                       params={"size": 6, "universe": 7}, seed=21)
    G = generate("cycle", 5, seed=1)
    M = metropolis_weights(G)
    t1 = run(RunConfig(G, M, fam, K=3, T=4))
    t2 = run(RunConfig(G, M, fam, K=3, T=4))
    assert t1.selected == t2.selected
    assert t1.value == t2.value
    for r1, r2 in zip(t1.rounds, t2.rounds):
        for a, b in zip(r1.steps(), r2.steps(), strict=True):
            assert np.array_equal(a.view(np.int64), b.view(np.int64))
        assert np.array_equal(r1.x_final.view(np.int64), r2.x_final.view(np.int64))
        assert r1.candidate_steps == r2.candidate_steps


def test_trace_shapes_match_parameters():
    fam = c4_family(3)
    G = generate("path", 3)
    M = metropolis_weights(G)
    T, K = 4, 2
    trace = run(RunConfig(G, M, fam, K=K, T=T))
    assert trace.t_prime == T + 1 + 2
    assert len(trace.rounds) == K
    for k, rec in enumerate(trace.rounds):
        assert [X.shape for X in rec.steps()] == [(3, 4 - k)] * (T + 1)
        assert rec.x_final.shape == (3, 4 - k)
        assert len(rec.deviations) == len(rec.drifts) == T + 1
        assert len(rec.candidate_steps) == trace.diameter + 1
        assert len(rec.selected_after) == k + 1


def test_agreement_holds_every_round_under_auto_psi():
    # distinct locals, several graph shapes
    rng = np.random.default_rng(31)
    for kind in ("path", "cycle", "grid", "erdos_renyi"):
        n = int(rng.integers(3, 9))
        G = generate(kind, n, seed=rng.integers(2 ** 31), p=0.5)
        fam = local_family(n, "coverage", params={"size": 6, "universe": 8},
                           seed=rng.integers(2 ** 31))
        trace = run(RunConfig(G, metropolis_weights(G), fam, K=3, T=3))
        for rec in trace.rounds:
            final = rec.candidate_steps[-1]
            assert all(s == final[0] for s in final)
            assert rec.chosen == min(final[0])


def test_tight_threshold_splits_candidates_and_fails():
    G = generate("path", 3)
    M = metropolis_weights(G)
    fam = modular_family([[9, 0, 0], [0, 5, 0], [0, 0, 30]])
    with pytest.raises(InfeasiblePsiError):
        run(RunConfig(G, M, fam, K=1, T=1, psi=0.0))


def test_infeasible_psi_names_the_round_the_agents_and_the_shortfall():
    # X_T rows [6, 1.67, 0], [3, 1.67, 10] and [0, 1.67, 20]: agent 3 cuts
    # at 20 and holds 0 for element 1, agent 1's argmax
    G = generate("path", 3)
    fam = modular_family([[9, 0, 0], [0, 5, 0], [0, 0, 30]])
    with pytest.raises(InfeasiblePsiError) as err:
        run(RunConfig(G, metropolis_weights(G), fam, K=1, T=1, psi=0.0))
    assert str(err.value) == (
        "round 0: candidate sets intersected to nothing; agent 3 drops element 1, "
        "agent 1's argmax: its estimate falls 20 short of its maximum minus "
        "psi + slack (0)")


def near_tie_config(T):
    # agents 1 and 3 hold near-tied gains for elements 19 and 20; from
    # T=99 on, the auto psi (2.2e-14 there) is below one ulp of the gain
    # cap 540, and their argmaxes split by 5.7e-14
    return build_run_config(ExperimentConfig({
        "graph": {"kind": "erdos_renyi", "n": 12, "p": 0.5}, "mixing": "metropolis",
        "functions": {"kind": "facility_location", "size": 36, "universe": 60},
        "K": 6, "T": T, "psi": "auto", "seed": 14}))


@pytest.mark.parametrize("T", [80] + [pytest.param(T, marks=pytest.mark.xfail(
    strict=True, raises=InfeasiblePsiError,
    reason="the auto psi falls below round-off (ROADMAP item 2)"))
    for T in (99, 150, 299)])
def test_auto_psi_runs_and_passes_its_audit_on_a_near_tie(T):
    config = near_tie_config(T)
    assert bounds_report(run(config), config.family).passed


def test_own_set_in_the_intersection_keeps_a_path_in_sync():
    # without its own set the center would keep only what its ends agree on
    G = generate("path", 3)
    M = metropolis_weights(G)
    fam = modular_family([[10, 10, 9], [10, 10, 6], [10, 10, 0]])
    assert run(RunConfig(G, M, fam, K=1, T=1, psi=5.5)).selected == (1,)


def test_config_rejects_mismatched_sizes():
    fam = c4_family(3)
    with pytest.raises(ConfigError):
        RunConfig(generate("path", 4), metropolis_weights(generate("path", 4)),
                  fam, K=1, T=1)
    G = generate("path", 3)
    with pytest.raises(ConfigError):
        RunConfig(G, uniform_complete_weights(4), fam, K=1, T=1)
    with pytest.raises(ConfigError):
        RunConfig(G, metropolis_weights(G), fam, K=0, T=1)
    with pytest.raises(ConfigError):
        RunConfig(G, metropolis_weights(G), fam, K=1, T=0)
    with pytest.raises(ConfigError):
        RunConfig(G, metropolis_weights(G), fam, K=1, T=1, psi=-0.5)


def test_auto_psi_rejects_a_periodic_matrix_at_construction():
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    fam = local_family(2, "modular", params={"weights": [1, 2]})
    with pytest.raises(ConfigError, match="contracting") as info:
        RunConfig(generate("path", 2), MixingMatrix(W, spectral_mu(W)), fam,
                  K=1, T=1)
    assert info.value.field == "psi"


def test_a_mu_above_1_runs_until_its_bounds_overflow():
    # within STRUCT_TOL of the 2-node swap, mu is a hair above 1
    W = np.array([[-5e-13, 1 + 5e-13], [1 + 5e-13, -5e-13]])
    mixing = MixingMatrix(W, spectral_mu(W))
    assert mixing.mu > 1.0
    fam = local_family(2, "modular", params={"weights": [1, 2]})
    G = generate("path", 2)
    trace = run(RunConfig(G, mixing, fam, K=1, T=3, psi=3.0))
    assert trace.epsilon_T == epsilon(2, mixing.mu, 3, 3.0) > 3.0 * np.sqrt(2)
    # mu ** T overflows a double here
    with pytest.raises(ConfigError, match="bounds overflow at T=10000000000000000") as info:
        RunConfig(G, mixing, fam, K=1, T=10 ** 16, psi=3.0)
    assert info.value.field == "psi"


def test_sweep_rejects_a_descending_t_list():
    # Run alone, T=1 picks (2, 6, 3); fed after T=12, it used to reuse
    # T=12's averaged gains and pick (2, 1, 3).
    n = int(np.random.default_rng(3).integers(3, 7))
    G = generate("erdos_renyi", n, seed=3, p=0.6)
    fam = local_family(n, "facility_location", seed=3,
                       params={"size": 8, "universe": 6})
    cfg = RunConfig(G, metropolis_weights(G), fam, K=3, T=1)
    assert run(RunConfig(G, metropolis_weights(G), fam, K=3, T=1,
                         psi=2.0)).selected == (2, 6, 3)
    with pytest.raises(ConfigError, match="strictly ascending") as info:
        sweep(cfg, [12, 1], psi=2.0)
    assert info.value.field == "T"


def test_auto_psi_resolves_to_the_floor():
    fam = c4_family(3)
    G = generate("path", 3)
    M = metropolis_weights(G)
    cfg = RunConfig(G, M, fam, K=2, T=3)
    expected = 4.0 * np.sqrt(3) * M.mu ** 3 * fam.max_total
    assert cfg.trace_parameters(3, None)["psi"] == expected
    trace = run(cfg)
    assert trace.psi == expected


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 10 ** 6), st.integers(1, 100), st.integers(1, 300),
       st.floats(0.0, 1.0, exclude_max=True), st.floats(0.0, 1e12),
       st.floats(0.0, 1e9), st.floats(1.0, 1e300))
def test_bounds_are_the_closed_forms_bit_for_bit(n, K, T, mu, cap, psi, mu_hi):
    eps, floor = epsilon(n, mu, T, cap), psi_min(n, mu, T, cap)
    assert [b.hex() for b in bounds(n, K, T, mu, cap, psi)] == [
        eps.hex(), floor.hex(), (K * (psi + 2.0 * eps)).hex()]
    # psi=None is the floor, as RunConfig resolves psi 'auto'
    assert bounds(n, K, T, mu, cap, None)[2].hex() == (K * (floor + 2.0 * eps)).hex()
    # mu >= 1 has the same closed forms; its bounds used to be None
    eps_hi = epsilon(n, mu_hi, T, cap)
    assert [b.hex() for b in bounds(n, K, T, mu_hi, cap, psi)] == [
        eps_hi.hex(), (4.0 * eps_hi).hex(), (K * (psi + 2.0 * eps_hi)).hex()]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 6), st.integers(1, 5), st.integers(1, 7),
       st.sampled_from([1.0, 1e3, 1e150, 1e300]), st.integers(0, 2 ** 32 - 1))
def test_step_deviations_equal_the_whole_array_formula(steps, n, r, scale, seed):
    # Large and negative gains; the references take the stacked steps at
    # once.
    rng = np.random.default_rng(seed)
    x_steps = rng.standard_normal((steps, n, r)) * scale
    x_steps[rng.random(x_steps.shape) < 0.2] *= -1e5 if scale < 1e300 else -1
    mean0 = x_steps[0].mean(axis=0)
    references = (x_steps[-1], np.abs(x_steps - mean0).max(axis=(1, 2)),
                  np.abs(x_steps.mean(axis=1) - mean0).max(axis=1))
    for got, reference in zip(averaging_record(iter(x_steps)), references, strict=True):
        assert np.array_equal(got.view(np.int64), reference.view(np.int64))
        assert not got.flags.writeable
