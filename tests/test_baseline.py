"""Centralized greedy, the perturbed variant, and the brute-force oracle."""

import math
import tracemalloc

import numpy as np
import pytest

from distgreedy import (
    brute_force_optimum,
    build_test_function,
    centralized_greedy,
    check_structure,
    local_family,
    perturbed_greedy,
)
from distgreedy.baseline import CHUNK_BYTES, gap_recurrence_margins, max_marginal
from distgreedy.errors import CapExceededError
from distgreedy.setfn import BATCH_BYTES

C4_PARAMS = {"universe": 6, "sets": [[1, 2, 3], [3, 4], [5], [4, 5, 6]]}
ONE_MINUS_1_OVER_E = 1.0 - 1.0 / math.e


def c4():
    return build_test_function("coverage", C4_PARAMS)


def pairfn():
    return build_test_function("pair_supermodular",
                               {"size": 3, "pair": (1, 2), "g": (0, 1, 3)})


def random_submodular(rng):
    kind = ("coverage", "weighted_coverage", "facility_location")[int(rng.integers(3))]
    size = int(rng.integers(4, 9))
    universe = int(rng.integers(3, 9))
    return build_test_function(kind, {"size": size, "universe": universe},
                               seed=rng.integers(2 ** 31))


# --- centralized greedy ------------------------------------------------------

def test_greedy_on_c4_breaks_tie_by_index():
    result = centralized_greedy(c4(), 2)
    assert result.selected == (1, 4)
    assert result.value == 6.0
    assert result.values == (3.0, 6.0)
    assert result.gains == (3.0, 3.0)


def test_greedy_modular_takes_heaviest():
    f = build_test_function("modular", {"weights": [5, 1, 1]})
    result = centralized_greedy(f, 1)
    assert result.selected == (1,)
    assert result.value == 5.0


def test_greedy_full_budget_reaches_full_value():
    f = c4()
    result = centralized_greedy(f, 4)
    assert result.value == f(range(1, 5))
    assert centralized_greedy(f, 10).value == f(range(1, 5))


def test_greedy_values_are_nondecreasing():
    rng = np.random.default_rng(2)
    for _ in range(10):
        f = random_submodular(rng)
        result = centralized_greedy(f, f.ground.size)
        assert all(a <= b for a, b in zip(result.values, result.values[1:]))


def test_greedy_guarantee_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(30):
        f = random_submodular(rng)
        K = int(rng.integers(1, f.ground.size + 1))
        _, opt = brute_force_optimum(f, K)
        assert centralized_greedy(f, K).value >= ONE_MINUS_1_OVER_E * opt - 1e-9


# --- brute force -------------------------------------------------------------

def test_brute_force_on_c4():
    assert brute_force_optimum(c4(), 2) == ((1, 4), 6.0)


def test_brute_force_modular_top_k():
    f = build_test_function("modular", {"weights": [3, 9, 1, 7, 5]})
    assert brute_force_optimum(f, 2) == ((2, 4), 16.0)


def test_brute_force_full_budget():
    f = c4()
    assert brute_force_optimum(f, 9) == ((1, 2, 3, 4), 6.0)


def test_brute_force_tie_is_lexicographically_smallest():
    f = build_test_function("modular", {"weights": [1, 1, 1, 1]})
    assert brute_force_optimum(f, 2) == ((1, 2), 2.0)


def test_brute_force_cap():
    f = build_test_function("modular", {"weights": [1] * 45})
    with pytest.raises(CapExceededError):
        brute_force_optimum(f, 20)


def test_brute_force_empty_budget():
    assert brute_force_optimum(c4(), 0) == ((), 0.0)


def test_brute_force_memory_does_not_grow_with_the_subsets():
    # the C(25, 6) = 177100 subsets are streamed in chunks, each held
    # with its evaluation within two evaluator budgets
    family = local_family(10, "weighted_coverage", params={"size": 25, "universe": 60})
    average = family.average()
    tracemalloc.start()
    try:
        brute_force_optimum(average, 6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * BATCH_BYTES


# C(20, 8) = 125970 subsets are several chunks of 8-element combinations
M_CHUNKED, K_CHUNKED = 20, 8
CHUNK_ROWS = CHUNK_BYTES // (8 * K_CHUNKED)


def test_brute_force_all_tied_across_chunks():
    assert math.comb(M_CHUNKED, K_CHUNKED) > 2 * CHUNK_ROWS
    f = build_test_function("modular", {"weights": [1] * M_CHUNKED})
    assert brute_force_optimum(f, K_CHUNKED) == (tuple(range(1, 9)), 8.0)


def test_brute_force_first_maximizer_after_a_chunk_boundary():
    # every subset without element 1 is a maximizer; the first of them,
    # (2, ..., 9), follows the C(19, 7) subsets that hold element 1
    assert math.comb(M_CHUNKED - 1, K_CHUNKED - 1) > CHUNK_ROWS
    f = build_test_function("modular", {"weights": [0] + [1] * (M_CHUNKED - 1)})
    assert brute_force_optimum(f, K_CHUNKED) == (tuple(range(2, 10)), 8.0)
    rising = build_test_function("modular", {"weights": list(range(1, M_CHUNKED + 1))})
    assert brute_force_optimum(rising, K_CHUNKED) == (tuple(range(13, 21)), 132.0)


# --- batched gains against the scalar oracle ---------------------------------

def reference_greedy(f, K, taus=None, seed=0):
    """Greedy and perturbed greedy over value_mask, one element at a time:
    ties to the lowest index, eligible elements drawn in ascending order."""
    m = f.ground.size
    rng = np.random.default_rng(seed)
    mask, selected, values = 0, [], []
    for tau in taus if taus is not None else [None] * min(K, m):
        base = f.value_mask(mask)
        step = [(v, f.value_mask(mask | 1 << (v - 1)) - base)
                for v in range(1, m + 1) if not mask >> (v - 1) & 1]
        best_v, best_g = step[0]
        for v, g in step[1:]:
            if g > best_g:
                best_v, best_g = v, g
        if tau is not None:
            eligible = [v for v, g in step if g >= best_g - tau]
            best_v = eligible[int(rng.integers(len(eligible)))]
        selected.append(best_v)
        mask |= 1 << (best_v - 1)
        values.append(f.value_mask(mask))
    return tuple(selected), tuple(values)


def float_family_average(rng):
    """The average of random local functions with non-integer values."""
    kind = ("coverage", "weighted_coverage", "facility_location",
            "pair_supermodular", "modular")[int(rng.integers(5))]
    size = int(rng.integers(3, 10))
    fam = local_family(int(rng.integers(1, 5)), kind,
                       params={"size": size, "universe": int(rng.integers(2, 12))},
                       seed=int(rng.integers(2 ** 31)))
    return fam.average()


def test_greedy_baselines_match_the_scalar_reference():
    rng = np.random.default_rng(21)
    for seed in range(20):
        f = float_family_average(rng)
        m = f.ground.size
        K = int(rng.integers(1, m + 1))
        result = centralized_greedy(f, K)
        assert (result.selected, result.values) == reference_greedy(f, K)
        taus = list(rng.uniform(0.0, 2.0, size=K))
        result = perturbed_greedy(f, K, taus, seed=seed)
        assert (result.selected, result.values) == reference_greedy(f, K, taus, seed)


# --- perturbed greedy ---------------------------------------------------------

def test_zero_slack_meets_the_plain_guarantee():
    rng = np.random.default_rng(6)
    for seed in range(10):
        f = random_submodular(rng)
        K = int(rng.integers(1, f.ground.size + 1))
        _, opt = brute_force_optimum(f, K)
        result = perturbed_greedy(f, K, [0.0] * K, seed=seed)
        assert result.value >= ONE_MINUS_1_OVER_E * opt - 1e-9
        assert result.gains == result.best_gains


def test_c4_with_slack_one_then_zero():
    f = c4()
    _, opt = brute_force_optimum(f, 2)
    for seed in range(20):
        result = perturbed_greedy(f, 2, [1.0, 0.0], seed=seed)
        assert result.gains[0] >= result.best_gains[0] - 1.0
        assert result.gains[1] >= result.best_gains[1]
        assert result.value >= ONE_MINUS_1_OVER_E * opt - 1.0 - 1e-9


def test_pair_function_meets_the_ratio_guarantee():
    f = pairfn()
    gamma = check_structure(f).submodularity_ratio
    assert gamma == 2.0 / 3.0
    _, opt = brute_force_optimum(f, 2)
    assert opt == 3.0
    for seed in range(10):
        result = perturbed_greedy(f, 2, [0.0, 0.0], seed=seed)
        assert result.value >= (1.0 - math.exp(-gamma)) * opt - 1e-9


def test_slack_randomization_actually_varies_picks():
    f = c4()
    firsts = {perturbed_greedy(f, 2, [3.0, 0.0], seed=s).selected[0]
              for s in range(40)}
    assert len(firsts) > 1


def test_certificate_holds_for_every_draw():
    rng = np.random.default_rng(8)
    for _ in range(40):
        f = random_submodular(rng)
        K = int(rng.integers(1, f.ground.size + 1))
        taus = rng.integers(0, 3, size=K).astype(float)
        result = perturbed_greedy(f, K, list(taus), seed=rng.integers(2 ** 31))
        for g, b, tau in zip(result.gains, result.best_gains, taus):
            assert g >= b - tau - 1e-12


def test_additive_guarantee_under_random_slacks():
    rng = np.random.default_rng(10)
    for _ in range(40):
        f = random_submodular(rng)
        K = int(rng.integers(1, f.ground.size + 1))
        taus = list(rng.integers(0, 3, size=K).astype(float))
        _, opt = brute_force_optimum(f, K)
        result = perturbed_greedy(f, K, taus, seed=rng.integers(2 ** 31))
        assert result.value >= ONE_MINUS_1_OVER_E * opt - sum(taus) - 1e-9


def test_ratio_guarantee_with_exact_gamma():
    rng = np.random.default_rng(12)
    for _ in range(20):
        f = build_test_function("pair_supermodular", {"size": 5},
                                seed=rng.integers(2 ** 31))
        gamma = check_structure(f).submodularity_ratio
        assert 0.0 < gamma < 1.0
        K = int(rng.integers(1, 5))
        taus = list(rng.integers(0, 2, size=K).astype(float))
        _, opt = brute_force_optimum(f, K)
        result = perturbed_greedy(f, K, taus, seed=rng.integers(2 ** 31))
        assert result.value >= (1.0 - math.exp(-gamma)) * opt - sum(taus) - 1e-9


def test_gap_recurrence_contracts_every_step():
    rng = np.random.default_rng(14)
    for _ in range(20):
        f = random_submodular(rng)
        K = int(rng.integers(1, f.ground.size + 1))
        taus = list(rng.integers(0, 3, size=K).astype(float))
        _, opt = brute_force_optimum(f, K)
        result = perturbed_greedy(f, K, taus, seed=rng.integers(2 ** 31))
        for margin in gap_recurrence_margins(result, opt, gamma=1.0):
            assert margin >= -1e-9
    for _ in range(20):
        f = build_test_function("pair_supermodular", {"size": 5},
                                seed=rng.integers(2 ** 31))
        gamma = check_structure(f).submodularity_ratio
        K = int(rng.integers(1, 5))
        taus = list(rng.integers(0, 2, size=K).astype(float))
        _, opt = brute_force_optimum(f, K)
        result = perturbed_greedy(f, K, taus, seed=rng.integers(2 ** 31))
        for margin in gap_recurrence_margins(result, opt, gamma):
            assert margin >= -1e-9


def test_perturbed_validates_inputs():
    f = c4()
    with pytest.raises(ValueError):
        perturbed_greedy(f, 2, [0.0])
    with pytest.raises(ValueError):
        perturbed_greedy(f, 2, [0.0, -1.0])
    with pytest.raises(ValueError):
        perturbed_greedy(f, 9, [0.0] * 9)


def test_max_marginal_matches_greedy_first_gain():
    f = c4()
    assert max_marginal(f, ()) == 3.0
    assert max_marginal(f, (1,)) == 3.0
    assert max_marginal(f, (1, 4)) == 0.0
