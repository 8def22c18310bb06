"""Trace CSV formatting and parsing: exact text, exact round trip, v1 input."""

import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgreedy import RunConfig, generate, local_family, metropolis_weights
from distgreedy.config import build_run_config, load_experiment
from distgreedy.errors import ProtocolError
from distgreedy.graph import make_network
from distgreedy.protocol import RoundRecord, RunTrace, step_deviations
from distgreedy.protocol import run as run_protocol
from distgreedy.traceio import (
    format_float,
    format_floats,
    read_trace_csv,
    write_trace_csv,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIXED = [0.0, -0.0, 3.0, 1e16, 1e17, 5e-324, 0.1, 1 / 3, -2.5]
doubles = st.floats(allow_nan=False, allow_infinity=False)


def bundled_trace(name="ring_metropolis"):
    return run_protocol(build_run_config(load_experiment(CONFIGS / f"{name}.json")))


def with_x_steps(trace, x_steps):
    """`trace` with its rounds' gain estimates replaced."""
    rounds = [RoundRecord(rec.index, rec.remaining, x, step_deviations(x),
                          rec.candidate_masks, rec.chosen, rec.selected_after)
              for rec, x in zip(trace.rounds, x_steps)]
    return RunTrace(trace.n, trace.K, trace.T, trace.t_prime, trace.diameter,
                    trace.psi, trace.mu, trace.value_cap, trace.include_self,
                    trace.threshold_slack, trace.seed, rounds, trace.selected,
                    trace.value)


def assert_same_trace(a, b):
    for attr in ("n", "K", "T", "t_prime", "diameter", "psi", "mu", "value_cap",
                 "include_self", "threshold_slack", "seed", "selected", "value"):
        assert getattr(a, attr) == getattr(b, attr), attr
    assert len(a.rounds) == len(b.rounds)
    for x, y in zip(a.rounds, b.rounds):
        assert (x.index, x.remaining, x.chosen, x.selected_after) == \
               (y.index, y.remaining, y.chosen, y.selected_after)
        assert x.candidate_steps == y.candidate_steps
        assert np.array_equal(x.x_steps.view(np.int64), y.x_steps.view(np.int64))
        assert np.array_equal(x.deviations, y.deviations)


@settings(max_examples=200, deadline=None)
@given(st.lists(doubles, max_size=40))
def test_bulk_formatting_matches_format_float(values):
    values = FIXED + values
    assert format_floats(np.array(values)) == [format_float(v) for v in values]


def test_bulk_formatting_of_fixed_values():
    assert format_floats(np.array(FIXED).reshape(3, 3)) == [
        "0.0", "-0.0", "3.0", "10000000000000000.0", "1e+17",
        "4.9406564584124654e-324", "0.10000000000000001",
        "0.33333333333333331", "-2.5"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bulk_formatting_refuses_non_finite(bad):
    with pytest.raises(ValueError, match="non-finite"):
        format_floats(np.array([1.0, bad]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=20),
       st.integers(0, 2 ** 32 - 1))
def test_write_read_round_trips_every_bit(tmp_path_factory, values, seed):
    # Gains drawn from the fixed values plus a random pool; |x| <= 1e300
    # keeps the recomputed deviations finite.
    pool = np.array(FIXED + values)
    rng = np.random.default_rng(seed)
    base = bundled_trace()
    trace = with_x_steps(base, [pool[rng.integers(pool.size, size=rec.x_steps.shape)]
                                for rec in base.rounds])
    path = tmp_path_factory.mktemp("rt") / "t.csv"
    write_trace_csv(trace, path)
    assert_same_trace(read_trace_csv(path), trace)


def written_lines(tmp_path, trace):
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        return fh.read().splitlines(keepends=True)


def test_reader_accepts_shuffled_x_rows(tmp_path):
    trace = bundled_trace()
    lines = written_lines(tmp_path, trace)
    x_at = [j for j, line in enumerate(lines) if line.startswith("x,")]
    shuffled = list(lines)
    for j, k in zip(x_at, np.random.default_rng(3).permutation(x_at)):
        shuffled[j] = lines[k]
    (tmp_path / "s.csv").write_text("".join(shuffled), newline="")
    assert_same_trace(read_trace_csv(tmp_path / "s.csv"), trace)


def test_reader_keeps_the_last_duplicate_x_row(tmp_path):
    trace = bundled_trace()
    lines = written_lines(tmp_path, trace)
    j = next(j for j, line in enumerate(lines) if line.startswith("x,0,2,"))
    _, _, t, agent, element, _, _ = lines[j].split(",")
    lines.insert(len(lines) - 1, f"x,0,{t},{agent},{element},0.25,\r\n")
    (tmp_path / "d.csv").write_text("".join(lines), newline="")
    x = trace.rounds[0].x_steps.copy()
    x[int(t), int(agent) - 1, trace.rounds[0].remaining.index(int(element))] = 0.25
    expected = with_x_steps(trace, [x] + [rec.x_steps for rec in trace.rounds[1:]])
    assert_same_trace(read_trace_csv(tmp_path / "d.csv"), expected)


def test_reader_accepts_lf_line_ends(tmp_path):
    trace = bundled_trace()
    lines = written_lines(tmp_path, trace)
    (tmp_path / "lf.csv").write_text(
        "".join(line.replace("\r\n", "\n") for line in lines), newline="")
    assert b"\r" not in (tmp_path / "lf.csv").read_bytes()
    assert_same_trace(read_trace_csv(tmp_path / "lf.csv"), trace)


def assert_masks_are_the_record(trace):
    for rec in trace.rounds:
        masks = rec.candidate_masks
        assert masks.dtype == bool and not masks.flags.writeable
        assert masks.shape == (trace.diameter + 1, trace.n, len(rec.remaining))
        assert rec.candidate_steps == tuple(
            tuple(frozenset(v for v, keep in zip(rec.remaining, row) if keep)
                  for row in C) for C in masks.tolist())


@st.composite
def small_configs(draw):
    n = draw(st.integers(1, 6))
    edges = [(draw(st.integers(1, k - 1)), k) for k in range(2, n + 1)]
    extra = draw(st.lists(st.tuples(st.integers(1, n), st.integers(1, n)),
                          max_size=n))
    G = make_network(n, edges + [(i, j) for i, j in extra if i != j])
    m = draw(st.integers(1, 7))
    fam = local_family(n, draw(st.sampled_from(["coverage", "facility_location"])),
                       seed=draw(st.integers(0, 2 ** 32 - 1)),
                       params={"size": m, "universe": draw(st.integers(1, 9))})
    return RunConfig(G, metropolis_weights(G), fam, K=draw(st.integers(1, m)),
                     T=draw(st.integers(1, 5)),
                     psi=draw(st.sampled_from([None, 0.5, 5.0])),
                     include_self_in_intersection=draw(st.booleans()))


@settings(max_examples=100, deadline=None)
@given(config=small_configs())
def test_candidate_masks_survive_run_and_round_trip(tmp_path_factory, config):
    try:
        trace = run_protocol(config)
    except ProtocolError:  # a tight psi, or neighbors-only desynchronized
        return
    assert_masks_are_the_record(trace)
    path = tmp_path_factory.mktemp("masks") / "t.csv"
    write_trace_csv(trace, path)
    loaded = read_trace_csv(path)
    assert_masks_are_the_record(loaded)
    for a, b in zip(loaded.rounds, trace.rounds):
        assert np.array_equal(a.candidate_masks, b.candidate_masks)


def test_reader_memory_scales_with_the_gains(tmp_path):
    # n=20, m=50, K=6, T=24: about 143k x rows, 1.1 MB of gains
    G = generate("erdos_renyi", 20, seed=3, p=0.3)
    fam = local_family(20, "facility_location",
                       params={"size": 50, "universe": 100}, seed=3)
    write_trace_csv(run_protocol(RunConfig(G, metropolis_weights(G), fam,
                                           K=6, T=24)), tmp_path / "t.csv")
    tracemalloc.start()
    try:
        trace = read_trace_csv(tmp_path / "t.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    gains = sum(rec.x_steps.nbytes for rec in trace.rounds)
    assert gains >= 1e6
    assert peak <= 4 * gains
