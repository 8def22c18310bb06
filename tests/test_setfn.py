"""Set-function builders, exact checkers and the ratio oracle."""

import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgreedy import (
    GroundSet,
    LocalFamily,
    SetFunction,
    average_function,
    build_test_function,
    check_structure,
    local_family,
    marginal_gain,
)
from distgreedy.errors import CapExceededError, ConfigError
from distgreedy.setfn import (BATCH_BYTES, FUNCTION_KINDS, _coverage_table, _members,
                              family_from_config)

SRC = Path(__file__).resolve().parent.parent / "src"

C4_PARAMS = {"universe": 6, "sets": [[1, 2, 3], [3, 4], [5], [4, 5, 6]]}


def c4():
    return build_test_function("coverage", C4_PARAMS)


def pairfn():
    return build_test_function("pair_supermodular",
                               {"size": 3, "pair": (1, 2), "g": (0, 1, 3)})


def all_subsets(m):
    for mask in range(1 << m):
        yield [v for v in range(1, m + 1) if mask >> (v - 1) & 1]


# --- marginal gains -------------------------------------------------------

def test_marginal_gain_from_empty():
    assert marginal_gain(c4(), 1, []) == 3.0


def test_marginal_gain_with_overlap():
    assert marginal_gain(c4(), 2, [1]) == 1.0


def test_marginal_gain_modular_all_ones():
    f = build_test_function("modular", {"weights": [1, 1, 1, 1, 1]})
    for v in range(1, 6):
        assert marginal_gain(f, v, [u for u in (1, 2, 3) if u != v]) == 1.0


def test_marginal_gain_rejects_member():
    with pytest.raises(ValueError, match="already in"):
        marginal_gain(c4(), 1, [1, 2])


def test_marginal_gain_rejects_foreign_element():
    with pytest.raises(ValueError, match="outside"):
        marginal_gain(c4(), 9, [])


def test_numpy_integer_elements_are_elements():
    # a bit shift on an np.int64 element wraps at 64
    f = build_test_function("coverage", {"size": 80, "universe": 100}, seed=1)
    assert f(np.array([3, 70])) == f([3, 70]) == 87.0
    assert f.value_mask(np.int64(1 << 2 | 1 << 59)) == f([3, 60])
    with pytest.raises(ValueError, match="already in"):
        marginal_gain(f, np.int64(70), [np.int64(70)])
    with pytest.raises(TypeError):
        marginal_gain(f, 2.0, [])


# --- exhaustive structure checks ------------------------------------------

def test_coverage_is_submodular_with_ratio_one():
    rep = check_structure(c4())
    assert rep.is_monotone
    assert rep.is_submodular
    assert rep.submodularity_ratio == 1.0
    assert rep.ratio_witness is None


def test_pair_function_ratio_two_thirds():
    rep = check_structure(pairfn())
    assert rep.is_monotone
    assert not rep.is_submodular
    assert rep.submodularity_ratio == 2.0 / 3.0
    assert rep.ratio_witness == (frozenset({1, 2}), frozenset())


def test_zero_function_has_vacuous_ratio():
    ground = GroundSet(4)
    zero = SetFunction.from_scalar(ground, lambda mask: 0.0, label="zero")
    rep = check_structure(zero)
    assert rep.is_monotone
    assert rep.is_submodular
    assert rep.submodularity_ratio == 1.0


def test_structure_cap_enforced():
    f = build_test_function("modular", {"weights": [1] * 11})
    with pytest.raises(CapExceededError):
        check_structure(f)


def test_structure_check_keeps_its_memory_budget():
    # the ratio holds (2^m, 2^m) arrays: at most five float64 ones
    f = build_test_function("pair_supermodular", {"size": 10}, seed=3)
    tracemalloc.start()
    try:
        rep = check_structure(f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.submodularity_ratio == 2.0 / 3.0
    assert peak <= 5 * 8 * 4 ** 10


def literal_structure_check(f):
    """Independent oracle: the definitions applied verbatim.

    Monotonicity over every nested pair, diminishing returns over every
    (A, B, v) with A inside B, and the ratio as the minimum quotient over
    ALL subset pairs (A, B), not just disjoint representatives; its
    witness is the first minimizing (A, B) with B, then A, ascending as
    bitmasks.
    """
    m = f.ground.size
    subsets = [frozenset(s) for s in all_subsets(m)]
    monotone = all(f(a) <= f(b) for a in subsets for b in subsets if a <= b)
    submodular = True
    for b in subsets:
        for a in subsets:
            if not a <= b:
                continue
            for v in range(1, m + 1):
                if v in b:
                    continue
                if f(a | {v}) - f(a) < f(b | {v}) - f(b):
                    submodular = False
    best, witness = math.inf, None
    for b in subsets:
        for a in subsets:
            denom = f(a | b) - f(b)
            if denom > 0:
                q = sum(f(b | {x}) - f(b) for x in sorted(a - b)) / denom
                if q < best:
                    best, witness = q, (a, b)
    ratio = min(1.0, max(0.0, best))
    return monotone, submodular, ratio, (witness if ratio < 1.0 else None)


def test_checker_matches_the_literal_definitions():
    # the production checker reads single-element steps off one gain
    # table; this pins it to the unreduced enumeration on every kind and
    # on raw tables that are nonmonotone, fractional or 3-agent averages
    rng = np.random.default_rng(41)
    cases = [build_test_function("pair_supermodular",
                                 {"size": 4, "pair": (2, 4), "g": (0, 2, 7)})]
    for kind in ("coverage", "weighted_coverage", "facility_location",
                 "modular", "pair_supermodular"):
        cases.append(build_test_function(kind, {"size": 5, "universe": 4},
                                         seed=rng.integers(2 ** 31)))
    # nonmonotone, nonsubmodular, yet ratio 1: no pair has a positive
    # increment whose gains fall short
    dip = SetFunction.from_scalar(GroundSet(2), [0.0, -1.0, 0.0, 0.0].__getitem__)
    # nonmonotone and submodular: concave in |S|, falling past |S| = 2
    hump = SetFunction.from_scalar(GroundSet(4),
                                   lambda s: s.bit_count() * (4.0 - s.bit_count()))
    cases += [dip, hump]
    for m in (3, 4, 5):
        for table in (rng.integers(-3, 10, size=1 << m).astype(float),
                      rng.random(1 << m) * 10,
                      np.sqrt(rng.random(1 << m)).cumsum()):
            cases.append(SetFunction.from_scalar(GroundSet(m), table.tolist().__getitem__))
        for kind in ("coverage", "facility_location"):
            cases.append(local_family(3, kind, params={"size": m, "universe": 5},
                                      seed=rng.integers(2 ** 31)).average())
    seen = set()
    for f in cases:
        rep = check_structure(f)
        monotone, submodular, ratio, witness = literal_structure_check(f)
        assert rep.is_monotone == monotone
        assert rep.is_submodular == submodular
        assert rep.submodularity_ratio == ratio
        assert rep.ratio_witness == witness
        seen.add((monotone, submodular, ratio == 1.0))
    rep = check_structure(dip)
    assert (rep.is_monotone, rep.is_submodular, rep.submodularity_ratio) == (False, False, 1.0)
    assert {(True, True, True), (True, False, False), (False, True, True),
            (False, False, False), (False, False, True)} <= seen


def test_ratio_one_iff_submodular_on_random_families():
    rng = np.random.default_rng(7)
    for size in (5, 8):  # exhaustive diminishing-returns check up to |V|=8
        for kind in ("coverage", "weighted_coverage", "facility_location",
                     "modular"):
            f = build_test_function(kind, {"size": size, "universe": 6},
                                    seed=rng.integers(2 ** 31))
            rep = check_structure(f)
            assert rep.is_submodular and rep.submodularity_ratio == 1.0, kind
            assert f.submodularity_ratio is None, kind  # no closed form carried
    for _ in range(5):
        f = build_test_function("pair_supermodular", {"size": 5},
                                seed=rng.integers(2 ** 31))
        rep = check_structure(f)
        assert not rep.is_submodular
        assert rep.submodularity_ratio == f.submodularity_ratio == 2.0 / 3.0


def test_pair_ratio_in_closed_form_is_the_oracles_bit_for_bit():
    rng = np.random.default_rng(21)
    levels = [(0, 0, 0), (0, 0, 3), (0, 1, 3), (0, 2, 3), (0, 3, 3)]
    levels += [(0, *sorted(rng.integers(0, 10, size=2).tolist())) for _ in range(145)]
    for scale in (1e-3, 1.0, 1e6):
        levels += [(0.0, *sorted((rng.random(2) * scale).tolist())) for _ in range(150)]
    for g in levels:
        f = build_test_function("pair_supermodular",
                                {"size": int(rng.integers(2, 9)), "g": g},
                                seed=int(rng.integers(2 ** 31)))
        assert f.submodularity_ratio == check_structure(f).submodularity_ratio, g


def test_members_decodes_the_set_bits_ascending():
    rng = np.random.default_rng(4)
    wide = [int.from_bytes(rng.bytes(250), "little") for _ in range(20)]
    sparse = [sum(1 << i for i in rng.choice(2000, size=50, replace=False).tolist())
              for _ in range(20)]
    ground = GroundSet(2000)
    for mask in [0, 1, 1 << 1999, *wide, *sparse]:
        bits = [i for i in range(mask.bit_length()) if mask >> i & 1]
        assert np.flatnonzero(_members(mask, 2000)).tolist() == bits
        assert ground.remaining(mask).tolist() == sorted(
            set(range(1, 2001)).difference(i + 1 for i in bits))


# --- builders --------------------------------------------------------------

def test_coverage_full_value():
    assert c4()(range(1, 5)) == 6.0


def test_modular_all_ones_counts():
    f = build_test_function("modular", {"weights": [1] * 5})
    for subset in all_subsets(5):
        assert f(subset) == len(subset)


def test_every_kind_is_normalized_and_monotone():
    rng = np.random.default_rng(3)
    for kind in ("coverage", "weighted_coverage", "facility_location",
                 "modular", "pair_supermodular"):
        f = build_test_function(kind, {"size": 6, "universe": 5},
                                seed=rng.integers(2 ** 31))
        assert f([]) == 0.0
        rep = check_structure(f)
        assert rep.is_monotone, kind


def test_malformed_coverage_rejected():
    with pytest.raises(ConfigError):
        build_test_function("coverage", {"universe": 3, "sets": [[1, 9]]})


def literal_table(sets, universe):
    """Each set's items ORed into an int one at a time, as little-endian
    bytes."""
    width = (universe + 7) // 8
    rows = []
    for s in sets:
        mask = 0
        for u in s:
            mask |= 1 << (int(u) - 1)
        rows.append(mask.to_bytes(width, "little"))
    return rows


@pytest.mark.parametrize("kind", ["coverage", "weighted_coverage"])
@pytest.mark.parametrize("size, universe, seed", [(1, 1, 0), (7, 9, 1), (30, 64, 2),
                                                  (200, 400, 3)])
def test_drawn_coverage_table_matches_a_literal_loop(kind, size, universe, seed):
    # The draws are the ones that the table's rows record: sets drawn
    # by the same rng calls, in the same order, then ORed item by item.
    rng = np.random.default_rng(seed)
    sets = [rng.choice(universe, size=int(rng.integers(1, universe + 1)),
                       replace=False) + 1 for _ in range(size)]
    table, got_universe = _coverage_table(
        kind, {"size": size, "universe": universe}, np.random.default_rng(seed))
    assert got_universe == universe
    assert table.dtype == np.uint8 and table.shape == (size, (universe + 7) // 8)
    assert [row.tobytes() for row in table] == literal_table(sets, universe)


@pytest.mark.parametrize("params, universe", [
    (C4_PARAMS, 6),
    ({"sets": [[1, 2, 3], [3, 4], [5], [4, 5, 7]]}, 7),  # the largest item
    ({"universe": 17, "sets": [[17], [], [1, 9, 8, 16, 17], [2.0, "3"]]}, 17),
    ({"sets": [[]]}, 1),
])
def test_explicit_coverage_table_matches_a_literal_loop(params, universe):
    table, got_universe = _coverage_table("coverage", params,
                                          np.random.default_rng(0))
    assert got_universe == universe
    assert [row.tobytes() for row in table] == literal_table(params["sets"], universe)


@pytest.mark.parametrize("sets, bad, at", [
    ([[1, 9]], 9, "sets[0]"), ([[1, 2], [3, 0, 9]], 0, "sets[1]"),
    ([[2], [1, -4]], -4, "sets[1]")])
def test_explicit_items_outside_the_universe_are_named(sets, bad, at):
    for kind in ("coverage", "weighted_coverage"):
        params = {"universe": 3, "sets": sets, "weights": [1, 1, 1]}
        with pytest.raises(ConfigError, match=rf"^covered item {bad} outside "
                                              r"universe 1\.\.3$") as info:
            build_test_function(kind, params)
        assert info.value.field == at


def test_malformed_pair_levels_rejected():
    with pytest.raises(ConfigError):
        build_test_function("pair_supermodular", {"size": 3, "g": (1, 2, 3)})
    with pytest.raises(ConfigError):
        build_test_function("pair_supermodular", {"size": 3, "g": (0, 3, 1)})


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        build_test_function("entropy", {})


def test_memoization_is_invisible():
    calls = {"n": 0}

    def raw(mask):
        calls["n"] += 1
        return float(mask.bit_count())

    f = SetFunction.from_scalar(GroundSet(4), raw)
    first = [f.value_mask(m) for m in range(16)]
    count = calls["n"]
    second = [f.value_mask(m) for m in range(16)]
    assert first == second
    assert calls["n"] == count


# --- local families ---------------------------------------------------------

def test_family_caps_for_c4():
    fam = local_family(1, "coverage", params=C4_PARAMS)
    assert fam.max_total == 6.0


def test_family_caps_for_modular_ones():
    m = 7
    fam = local_family(4, "modular", params={"weights": [1] * m})
    assert fam.max_total == m


def test_identical_family_average_is_pointwise_equal():
    fam = local_family(3, "coverage", params=C4_PARAMS)
    avg = fam.average()
    for subset in all_subsets(4):
        for f in fam.functions:
            assert avg(subset) == f(subset)


def test_random_family_shares_ground_set_and_differs():
    fam = local_family(4, "coverage", params={"size": 5, "universe": 8}, seed=11)
    assert all(f.ground == fam.ground for f in fam.functions)
    tables = {tuple(f.table()) for f in fam.functions}
    assert len(tables) > 1


def test_family_is_deterministic_in_seed():
    a = local_family(3, "facility_location", params={"size": 4, "universe": 5},
                     seed=42)
    b = local_family(3, "facility_location", params={"size": 4, "universe": 5},
                     seed=42)
    for fa, fb in zip(a.functions, b.functions):
        assert np.array_equal(fa.table(), fb.table())


def test_average_of_submodular_families_is_submodular():
    # family sizes 2 and 4 keep integer means exactly representable,
    # so the exhaustive check needs no tolerance
    rng = np.random.default_rng(19)
    for n in (2, 4):
        for _ in range(3):
            fam = local_family(n, "coverage", params={"size": 5, "universe": 6},
                               seed=rng.integers(2 ** 31))
            rep = check_structure(fam.average())
            assert rep.is_monotone and rep.is_submodular
            assert rep.submodularity_ratio == 1.0


def test_average_over_odd_family_submodular_up_to_rounding():
    # dividing integer sums by 3 costs one ulp; the ratio reflects it
    fam = local_family(3, "coverage", params={"size": 5, "universe": 6}, seed=19)
    rep = check_structure(fam.average())
    assert rep.is_monotone
    assert rep.submodularity_ratio >= 1.0 - 1e-12


def test_monotone_chains_on_random_families():
    rng = np.random.default_rng(23)
    fam = local_family(2, "facility_location", params={"size": 6, "universe": 5},
                       seed=3)
    for f in fam.functions:
        for _ in range(50):
            size_b = int(rng.integers(0, 7))
            b = list(rng.choice(6, size=size_b, replace=False) + 1)
            keep = int(rng.integers(0, size_b + 1))
            a = b[:keep]
            assert f(a) <= f(b)


def test_family_from_config_builds_identical_copies():
    fam = family_from_config(dict(kind="coverage", **C4_PARAMS), n=3)
    assert fam.n == 3
    assert fam.max_total == 6.0


@pytest.mark.parametrize("kind, other", [("facility_location", {"pair": [1, 2]}),
                                         ("coverage", {"weights": [1] * 10})])
def test_only_the_kinds_own_data_is_shared(kind, other):
    # another kind's data key used to give every agent one shared function
    params = {"size": 8, "universe": 10}
    drawn = local_family(6, kind, seed=3, params=params)
    lenient = local_family(6, kind, seed=3, params={**params, **other})
    assert len({id(f) for f in lenient.functions}) == 6
    assert ([f.table().tolist() for f in lenient.functions]
            == [f.table().tolist() for f in drawn.functions])


def test_average_function_requires_shared_ground():
    f = build_test_function("modular", {"weights": [1, 2]})
    g = build_test_function("modular", {"weights": [1, 2, 3]})
    with pytest.raises(ValueError):
        average_function([f, g])


@pytest.mark.parametrize("size", [3, 4])
def test_local_family_requires_shared_ground(size):
    # checked before any member is evaluated: on 3 elements f4 would
    # evaluate fine, on 4 elements f3 would raise a plain ValueError
    f3 = build_test_function("modular", {"weights": [1, 2, 3]})
    f4 = build_test_function("modular", {"weights": [1, 2, 3, 4]})
    with pytest.raises(ConfigError, match="share the ground set") as info:
        LocalFamily([f3, f4] if size == 3 else [f4, f3])
    assert info.value.field == "functions"


def test_an_empty_family_is_a_config_error():
    with pytest.raises(ConfigError, match="family needs at least one function") as info:
        LocalFamily([])
    assert info.value.field == "functions"


@pytest.mark.parametrize("m", [1, 7, 8, 9, 63, 64, 65, 2000])
def test_remaining_and_unmask_decode_like_the_element_loop(m):
    ground = GroundSet(m)
    rng = np.random.default_rng(m)
    masks = [0, (1 << m) - 1] + [ground.mask((np.flatnonzero(rng.random(m) < p) + 1).tolist())
                                 for p in (0.05, 0.5, 0.95)]
    for mask in masks:
        outside = [v for v in range(1, m + 1) if not mask >> (v - 1) & 1]
        remaining = ground.remaining(mask)
        assert remaining.dtype == np.intp and not remaining.flags.writeable
        assert remaining.tolist() == outside
        assert ground.unmask(mask) == frozenset(range(1, m + 1)).difference(outside)


# --- batched oracle ------------------------------------------------------------

def explicit_params(kind, m, rng):
    """Explicit data for `kind` on m elements; weights are multiples of 0.1,
    so sums round and the summation order shows, or in half the cases
    integers, which weighted_coverage and modular sum by byte tables."""
    universe = int(rng.integers(1, 301))
    unit = 1.0 if rng.random() < 0.5 else 0.1

    def weights(size):
        return rng.integers(0, 100, size=size) * unit

    if kind in ("coverage", "weighted_coverage"):
        sets = [sorted(int(u) for u in rng.choice(universe, size=int(rng.integers(
            0, universe + 1)), replace=False) + 1) for _ in range(m)]
        params = {"universe": universe, "sets": sets}
        if kind == "weighted_coverage":
            params["weights"] = weights(universe).tolist()
        return params
    if kind == "facility_location":
        return {"weights": weights((universe, m)).tolist()}
    if kind == "modular":
        return {"weights": weights(m).tolist()}
    pair = sorted(int(v) for v in rng.choice(m, size=2, replace=False) + 1)
    return {"size": m, "pair": pair, "g": [0.0] + sorted(weights(2).tolist())}


def literal_value(kind, params, elements):
    """The value of `kind` on the set `elements`, from the definition and
    the explicit data; sums go from 0.0 in ascending order."""
    chosen = sorted(set(elements))
    if kind == "facility_location":
        cols = [v - 1 for v in chosen]
        return float(np.array(params["weights"])[:, cols].max(axis=1).sum()) if cols else 0.0
    if kind == "pair_supermodular":
        return float(params["g"][len(set(params["pair"]) & set(chosen))])
    if kind == "modular":
        items, weights = chosen, params["weights"]
    else:
        items = sorted(set().union(*(params["sets"][v - 1] for v in chosen)))
        if kind == "coverage":
            return float(len(items))
        weights = params["weights"]
    total = 0.0
    for u in items:  # not sum(), which compensates on Python 3.12+
        total += weights[u - 1]
    return total


@st.composite
def explicit_functions(draw, m):
    """A corpus function with explicit data, with its kind and data."""
    kind = draw(st.sampled_from(FUNCTION_KINDS))
    params = explicit_params(kind, m, np.random.default_rng(
        draw(st.integers(0, 2 ** 32 - 1))))
    return build_test_function(kind, params), kind, params


@st.composite
def corpus_functions(draw, m):
    if draw(st.booleans()):
        return draw(explicit_functions(m))[0]
    return build_test_function(draw(st.sampled_from(FUNCTION_KINDS)),
                               {"size": m, "universe": draw(st.integers(1, 300))},
                               seed=draw(st.integers(0, 2 ** 32 - 1)))


def custom_raw(mask):
    """A monotone function with irrational values."""
    return float(mask.bit_count()) ** 0.5 + float(mask & 0b101 != 0) / 3.0


@st.composite
def extensions(draw, m):
    """A base bitmask and a (C, j) array of rows, possibly overlapping it."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    shape = (draw(st.integers(0, 40)), draw(st.integers(0, 4)))
    rows = rng.integers(1, m + 1, size=shape)
    return draw(st.integers(0, (1 << m) - 1)), rows


def reference_values(f, base, rows, value):
    """value(mask) of each mask base | row, one row at a time."""
    return np.array([value(base | f.ground.mask(row)) for row in rows.tolist()],
                    dtype=float)


@settings(max_examples=300, deadline=None)
@given(data=st.data(), m=st.integers(2, 12))
def test_extend_values_matches_the_literal_definitions(data, m):
    f, kind, params = data.draw(explicit_functions(m))
    for _ in range(3):
        base, rows = data.draw(extensions(m))
        assert np.array_equal(f.extend_values(base, rows), reference_values(
            f, base, rows, lambda mask: literal_value(kind, params, f.ground.unmask(mask))))


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(2, 8))
def test_table_matches_the_literal_definitions(data, m):
    f, kind, params = data.draw(explicit_functions(m))
    assert np.array_equal(f.table(), [literal_value(kind, params, s)
                                      for s in all_subsets(m)])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), m=st.integers(2, 10))
def test_average_and_custom_extend_values_are_bit_identical(data, m):
    members = data.draw(st.lists(corpus_functions(m), min_size=1, max_size=4))
    custom = SetFunction.from_scalar(GroundSet(m), custom_raw, label="custom")
    members += [custom, members[0]]  # a scalar function and a repeat

    def mean(mask):  # member order from 0.0, then one division
        total = 0.0
        for f in members:
            total += f.value_mask(mask)
        return total / len(members)

    for f, value in ((custom, custom_raw), (average_function(members), mean)):
        base, rows = data.draw(extensions(m))
        assert np.array_equal(f.extend_values(base, rows),
                              reference_values(f, base, rows, value))


def test_extend_values_is_exact_across_row_blocks():
    rng = np.random.default_rng(8)
    universe = 400
    params = {"weights": (rng.integers(0, 1000, size=(universe, 30)) * 0.1).tolist()}
    f = build_test_function("facility_location", params)
    rows = np.array(list(itertools.combinations(range(1, 31), 3)))
    assert len(rows) > 2 * f._rows_per_block  # several blocks
    assert np.array_equal(f.extend_values(0b1001, rows), reference_values(
        f, 0b1001, rows,
        lambda mask: literal_value("facility_location", params, f.ground.unmask(mask))))


@pytest.mark.parametrize("kind", FUNCTION_KINDS + ("average", "custom"))
def test_gains_are_cached_marginal_values(kind):
    m = 12
    evals = []

    def raw(mask):
        evals.append(mask)
        return custom_raw(mask)

    custom = SetFunction.from_scalar(GroundSet(m), raw, label="custom")
    if kind == "custom":
        f = custom
    elif kind == "average":
        f = average_function([build_test_function(k, {"size": m, "universe": 50}, seed=i)
                              for i, k in enumerate(FUNCTION_KINDS)] + [custom])
    else:
        f = build_test_function(kind, {"size": m, "universe": 50}, seed=3)
    batch = f._batch  # counted too: a cached average calls no member either
    f._batch = lambda base, rows: evals.append(base) or batch(base, rows)
    rng = np.random.default_rng(4)
    masks = [0, (1 << m) - 1] + rng.integers(0, 1 << m, size=20).tolist()
    for mask in masks:
        gains = f.gains(mask)
        assert not gains.flags.writeable
        count = len(evals)
        assert f.gains(mask).tobytes() == gains.tobytes()
        assert len(evals) == count  # the second call evaluates nothing
        outside = [v for v in range(1, m + 1) if not mask >> (v - 1) & 1]
        expected = [f.value_mask(mask | 1 << (v - 1)) - f.value_mask(mask)
                    for v in outside]
        assert gains.tobytes() == np.array(expected, dtype=float).tobytes()
    assert evals


def facility_weights(top):
    """A 50 x 8 facility matrix of integers 0..255, its last entry `top`."""
    weights = np.random.default_rng(5).integers(0, 256, size=(50, 8)).tolist()
    weights[-1][-1] = top
    return weights


@pytest.mark.parametrize("weights, itemsize", [
    (facility_weights(255), 1),
    (facility_weights(256), 8),
    (facility_weights(0.5), 8),
    ((np.random.default_rng(6).integers(0, 1000, size=(50, 8)) + 1e9).tolist(), 8),
], ids=["uint8", "256", "half", "1e9"])
def test_facility_tables_are_exact_at_the_compact_boundary(weights, itemsize):
    # integers 0..255 are stored as uint8, any other weight keeps float64;
    # the block size shows which table was built
    params = {"weights": weights}
    f = build_test_function("facility_location", params)
    assert f._rows_per_block == BATCH_BYTES // (2 * itemsize * 50 + 8)
    assert np.array_equal(f.table(), [literal_value("facility_location", params, s)
                                      for s in all_subsets(8)])
    rows = np.random.default_rng(7).integers(1, 9, size=(3 * f._rows_per_block, 3))
    assert np.array_equal(f.extend_values(0b100, rows), reference_values(
        f, 0b100, rows,
        lambda mask: literal_value("facility_location", params, f.ground.unmask(mask))))


# eight elements over 16 items; element 3 covers items 1, 9 and 10
BOUNDARY_SETS = [list(range(1, 9)), list(range(9, 17)), [1, 9, 10], [2, 3, 10],
                 [9], [1], [4, 11, 16], [5, 6, 7, 12, 13]]


def boundary_weights(size, case):
    """`size` weights on one side of the byte tables' exactness rule."""
    weights = np.random.default_rng(9).integers(0, 1000, size=size).astype(float)
    if case == "half":
        weights[3] = 0.5
    elif case == "2^53":
        # ascending from 0.0: 2^53 + 1 + 1 rounds to 2^53; by bytes 2^53 + 2
        weights[:] = 0.0
        weights[0], weights[8], weights[9] = 2.0 ** 53, 1.0, 1.0
    elif case == "-0.0":
        weights[:] = -0.0
    return weights.tolist()


@pytest.mark.parametrize("kind", ["weighted_coverage", "modular"])
@pytest.mark.parametrize("case, exact", [
    ("integral", True), ("half", False), ("2^53", False), ("-0.0", True),
])
def test_coverage_byte_tables_are_exact_at_their_boundary(kind, case, exact):
    # integral weights totalling below 2^53 are summed by per-byte tables,
    # any other weight item by item; the block size shows which path was
    # taken, and bit patterns tell -0.0 from 0.0
    size = 16 if kind == "weighted_coverage" else 10
    params = {"weights": boundary_weights(size, case)}
    if kind == "weighted_coverage":
        params.update(universe=16, sets=BOUNDARY_SETS)
    f = build_test_function(kind, params)
    nbytes = 8  # 16 or 10 items fold into one 64-bit word
    assert f._rows_per_block == BATCH_BYTES // (
        18 * nbytes + 8 if exact else 17 * size + 2 * nbytes + 16)
    m = f.ground.size
    literal = [literal_value(kind, params, s) for s in all_subsets(m)]
    assert f.table().tobytes() == np.array(literal).tobytes()
    rows = np.random.default_rng(10).integers(1, m + 1, size=(3 * f._rows_per_block, 3))
    assert f.extend_values(0b100, rows).tobytes() == reference_values(
        f, 0b100, rows,
        lambda mask: literal_value(kind, params, f.ground.unmask(mask))).tobytes()


@pytest.mark.parametrize("kind", FUNCTION_KINDS + ("item_by_item",))
def test_extend_values_keeps_the_memory_budget(kind):
    # each kind's row_bytes is its true working set per row: a request
    # several blocks long peaks within two budgets plus its (C,) output;
    # item_by_item is weighted coverage with weights that the byte tables
    # cannot sum, so its float temporaries count too
    params = {"size": 30, "universe": 400}
    if kind == "item_by_item":
        kind, params["weights"] = "weighted_coverage", (np.arange(400) + 0.5).tolist()
    f = build_test_function(kind, params, seed=2)
    rows = np.random.default_rng(0).integers(1, 31, size=(4 * f._rows_per_block, 3))
    tracemalloc.start()
    try:
        values = f.extend_values(0b1001, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * BATCH_BYTES + values.nbytes


@pytest.mark.parametrize("kind, weights, message", [
    ("modular", [1, math.nan, 2], r"modular weights .* weights\[1\] = nan"),
    ("modular", [1, 2, -math.inf], r"modular weights .* weights\[2\] = -inf"),
    ("weighted_coverage", [math.nan, 1], r"item weights .* weights\[0\] = nan"),
    ("weighted_coverage", [1, math.inf], r"item weights .* weights\[1\] = inf"),
    ("facility_location", [[1, 1], [-1, math.nan]],
     r"facility weights .* weights\[1\]\[0\] = -1.0"),
    ("facility_location", [[math.inf, 1], [2, 3]],
     r"facility weights .* weights\[0\]\[0\] = inf"),
], ids=["modular_nan", "modular_-inf", "weighted_nan", "weighted_inf",
        "facility_negative", "facility_inf"])
def test_weights_must_be_finite_and_nonnegative(kind, weights, message):
    params = {"weights": weights, "universe": 2, "sets": [[1], [1, 2]]}
    if kind != "weighted_coverage":
        params = {"weights": weights}
    with pytest.raises(ConfigError, match=message) as err:
        build_test_function(kind, params)
    assert err.value.field == "weights"


@pytest.mark.parametrize("kind, params", [
    ("modular", {"weights": [[1, 2]]}),
    ("modular", {"weights": []}),
    ("weighted_coverage", {"universe": 2, "sets": [[1], [1, 2]], "weights": [[1], [2]]}),
    ("facility_location", {"weights": [1, 2]}),
    ("facility_location", {"weights": [[]]}),
], ids=["modular_nested", "modular_empty", "weighted_nested", "facility_flat",
        "facility_no_sites"])
def test_weights_must_have_the_kinds_shape(kind, params):
    # a nested list used to fail with a TypeError from the sign check
    with pytest.raises(ConfigError, match="weights must be a nonempty") as err:
        build_test_function(kind, params)
    assert err.value.field == "weights"


def test_small_scans_are_cached_read_only():
    # the two scans that repeat: base's remaining column and the one empty row
    f = c4()
    column = f.ground.remaining(0b10)[:, None]
    gains = f.extend_values(0b10, column)
    assert f.extend_values(0b10, column.copy()) is gains
    empty = f.extend_values(0b10, np.empty((1, 0), dtype=int))
    assert f.extend_values(0b10, np.empty((1, 0), dtype=int)) is empty
    assert not gains.flags.writeable and not empty.flags.writeable
    assert list(gains) == [4.0, 3.0, 4.0] and list(empty) == [2.0]
    assert f.extend_values(0b10, column.T) is not gains  # another shape
    # small, but not base's column: element 2 is in base
    singletons = np.arange(1, 5)[:, None]
    first = f.extend_values(0b10, singletons)
    assert list(first) == [4.0, 2.0, 3.0, 4.0]
    assert f.extend_values(0b10, singletons) is not first
    assert sorted(f._scans) == [(0b10, 0), (0b10, 1)]


def test_extend_values_rejects_foreign_elements_and_flat_rows():
    f = c4()
    with pytest.raises(ValueError, match="outside ground set"):
        f.extend_values(0, [[1, 5]])
    with pytest.raises(ValueError, match="outside ground set"):
        f.extend_values(0, [[0]])
    with pytest.raises(ValueError, match="shape"):
        f.extend_values(0, [1, 2])


@pytest.mark.parametrize("kind", FUNCTION_KINDS + ("custom", "average"))
def test_masks_outside_the_ground_set_are_a_value_error(kind):
    # a mask holding an element past m, or a negative one, is refused
    # by every reader of a mask, naming the ground set
    m = 12
    custom = SetFunction.from_scalar(GroundSet(m), custom_raw, label="custom")
    corpus = [build_test_function(k, {"size": m, "universe": 50}, seed=3)
              for k in FUNCTION_KINDS]
    f = {"custom": custom, "average": average_function(corpus + [custom]),
         **dict(zip(FUNCTION_KINDS, corpus))}[kind]
    column = np.arange(1, m + 1)[:, None]
    for mask in (1 << m, 1 << m | 1, 1 << 3 * m, -1, -(1 << m), -(1 << 3 * m) | 1):
        for call in (f.gains, f.value_mask, f.ground.remaining, f.ground.unmask,
                     lambda mask: f.extend_values(mask, column),
                     lambda mask: f.extend_values(mask, column[:0])):
            with pytest.raises(ValueError, match=r"outside ground set 1\.\.12$"):
                call(mask)


NEGATIVE_BASE = """
import numpy as np
from distgreedy import build_test_function
f = build_test_function("coverage", {"size": 12, "universe": 50})
try:
    f.extend_values(-1, np.ones((3, 1), dtype=int))
except ValueError as exc:
    print(exc)
"""


def test_a_negative_base_fails_at_once():
    # a decoder that clears the lowest set bit until none is left never
    # returns on a negative mask, so the call runs in a child with a timeout
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", NEGATIVE_BASE], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout == "negative mask outside ground set 1..12\n", proc.stderr[-2000:]
