"""Trace CSV formatting and parsing: exact text, exact round trip, v1 input."""

import filecmp
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgreedy import RunConfig, generate, local_family, metropolis_weights
from distgreedy.config import build_run_config, load_experiment
from distgreedy.errors import ConfigError, ProtocolError
from distgreedy.graph import make_network
from distgreedy.protocol import (TRACE_PARAMETERS, RoundRecord, RunTrace,
                                 step_deviations)
from distgreedy.protocol import run as run_protocol
from distgreedy.traceio import format_float, read_trace_csv, write_trace_csv

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIXED = [0.0, -0.0, 3.0, 1e16, 1e17, 5e-324, 0.1, 1 / 3, -2.5, 1e300, -1e300]
doubles = st.floats(allow_nan=False, allow_infinity=False)


def bundled_trace(name="ring_metropolis"):
    return run_protocol(build_run_config(load_experiment(CONFIGS / f"{name}.json")))


def with_x_steps(trace, x_steps):
    """`trace` with its rounds' gain estimates replaced."""
    rounds = [RoundRecord(rec.index, rec.remaining, x, step_deviations(x),
                          rec.candidate_masks, rec.chosen, rec.selected_after)
              for rec, x in zip(trace.rounds, x_steps)]
    return RunTrace(rounds, trace.selected, trace.value,
                    **{name: getattr(trace, name) for name, _ in TRACE_PARAMETERS})


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


def written_x_values(tmp_path, values):
    """The x_value cells that write_trace_csv gives a bundled trace whose
    gains are `values`, repeated to fill its rounds in the writer's
    order, and the gains that those cells hold."""
    base = bundled_trace()
    gains = [np.resize(np.array(values, dtype=float), rec.x_steps.shape)
             for rec in base.rounds]
    # the writer reads no deviations, and sums of |x| near 1.8e308 overflow
    rounds = [RoundRecord(rec.index, rec.remaining, x, None, rec.candidate_masks,
                          rec.chosen, rec.selected_after)
              for rec, x in zip(base.rounds, gains)]
    trace = RunTrace(rounds, base.selected, base.value,
                     **{name: getattr(base, name) for name, _ in TRACE_PARAMETERS})
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        cells = [line.split(",")[5] for line in fh if line.startswith("x,")]
    return cells, np.concatenate([x.ravel() for x in gains]).tolist()


@settings(max_examples=200, deadline=None)
@given(st.lists(doubles, max_size=40))
def test_bulk_formatting_matches_format_float(tmp_path_factory, values):
    # Agent rows mix integral and non-integral values.
    cells, gains = written_x_values(tmp_path_factory.mktemp("fmt"), FIXED + values)
    assert cells == [format_float(v) for v in gains]


def test_bulk_formatting_of_fixed_values(tmp_path):
    cells, _ = written_x_values(tmp_path, FIXED)
    assert cells[:len(FIXED)] == [
        "0.0", "-0.0", "3.0", "10000000000000000.0", "1e+17",
        "4.9406564584124654e-324", "0.10000000000000001",
        "0.33333333333333331", "-2.5", "1.0000000000000001e+300",
        "-1.0000000000000001e+300"]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bulk_formatting_refuses_non_finite(tmp_path, bad):
    with pytest.raises(ValueError, match="non-finite"):
        written_x_values(tmp_path, [1.0, bad])


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


def _swap_x_rows(lines, j):
    return lines[:j] + [lines[j + 1], lines[j]] + lines[j + 2:]


def _repeat_x_row(lines, j):
    return lines[:j + 1] + lines[j:]


def _move_x_row_to_end(lines, j):
    return lines[:j] + lines[j + 1:] + [lines[j]]


@pytest.mark.parametrize("reorder, offset", [
    (_swap_x_rows, 0), (_repeat_x_row, 1), (_move_x_row_to_end, 0)])
def test_reader_rejects_rows_out_of_the_written_order(tmp_path, reorder, offset):
    # lines[j] is trace line j + 1; the first row out of place is named
    lines = written_lines(tmp_path, bundled_trace())
    j = next(j for j, line in enumerate(lines) if line.startswith("x,1,2,3,"))
    (tmp_path / "o.csv").write_text("".join(reorder(lines, j)), newline="")
    message = (rf"^round 1, t=2: missing agent 3 gain row .*"
               rf"\(trace line {j + 1 + offset} is 'x,")
    with pytest.raises(ConfigError, match=message):
        read_trace_csv(tmp_path / "o.csv")


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


@pytest.fixture(scope="module")
def facility_run():
    # n=20, m=50, K=6, T=24: about 143k x rows, 1.1 MB of gains
    G = generate("erdos_renyi", 20, seed=3, p=0.3)
    fam = local_family(20, "facility_location",
                       params={"size": 50, "universe": 100}, seed=3)
    config = RunConfig(G, metropolis_weights(G), fam, K=6, T=24)
    return config, run_protocol(config)


@pytest.fixture(scope="module")
def facility_trace(tmp_path_factory, facility_run):
    path = tmp_path_factory.mktemp("facility") / "t.csv"
    write_trace_csv(facility_run[1], path)
    return path


def gain_bytes(trace):
    return sum(rec.x_steps.nbytes for rec in trace.rounds)


def traced_peak(read, *args):
    """read(*args) and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = read(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_reader_memory_scales_with_the_gains(facility_trace):
    trace, peak = traced_peak(read_trace_csv, facility_trace)
    gains = gain_bytes(trace)
    assert gains >= 1e6
    assert peak <= 2.5 * gains


def test_reader_holds_one_step_of_rows_besides_the_gains(facility_trace):
    # Each step is parsed into the round's array; no list of steps is
    # stacked into a second copy of the round.
    trace, peak = traced_peak(read_trace_csv, facility_trace)
    assert peak <= 1.3 * gain_bytes(trace)


def test_run_memory_is_the_gains(facility_run):
    # The fixture's run of the same config filled the functions' scan
    # cache, so this peak is the run's own arrays: the gains and a few
    # (n, r) steps.
    config, first = facility_run
    trace, peak = traced_peak(run_protocol, config)
    assert trace.selected == first.selected
    assert peak <= 1.15 * gain_bytes(trace)


def test_step_deviations_hold_one_step(facility_run):
    x_steps = facility_run[1].rounds[0].x_steps
    _, peak = traced_peak(step_deviations, x_steps)
    assert peak <= 4 * x_steps[0].nbytes


def test_writer_memory_is_a_fraction_of_the_gains(tmp_path, facility_run):
    trace = facility_run[1]
    _, peak = traced_peak(write_trace_csv, trace, tmp_path / "t.csv")
    assert peak <= 0.12 * gain_bytes(trace)


def test_a_larger_header_n_fails_within_the_first_step(tmp_path, facility_trace):
    # The header claims 10**6 agents. Step 0 ends after the 20 recorded
    # ones, so the reader stops there: it holds about one step of text,
    # far below the 1.1 MB of gains, and allocates nothing by the header.
    doctored = tmp_path / "n.csv"
    doctored.write_text(
        facility_trace.read_text().replace("# n=20,", "# n=1000000,", 1))
    message = (r"^round 0, t=0: missing agent 21 gain row for element 1 "
               r"\(trace line 1004 is 'x,0,1,1,1,")

    def read():
        with pytest.raises(ConfigError, match=message):
            read_trace_csv(doctored)

    _, peak = traced_peak(read)
    assert peak <= 0.3e6


def test_a_larger_header_T_fails_at_the_first_missing_step(tmp_path, facility_trace):
    # The header claims 10**6 steps. The reader sizes a round's gains by
    # what the file's characters could fill, not by T, and fails where
    # round 0's recorded steps end and its set rows begin.
    text = facility_trace.read_text()
    meta = text.splitlines()[1]
    fields = dict(item.split("=", 1) for item in meta[2:].split(","))
    T, t_prime = int(fields["T"]), int(fields["t_prime"])
    doctored = tmp_path / "T.csv"
    doctored.write_text(text.replace(
        meta, meta.replace(f",T={T},", ",T=1000000,").replace(
            f",t_prime={t_prime},", f",t_prime={1000001 + t_prime - T - 1},"), 1))
    message = (rf"^round 0, t={T + 1}: missing agent 1 gain row for element 1 "
               rf"\(trace line {4 + (T + 1) * 20 * 50} is 'set,0,{T + 1},1,,,")

    def read():
        with pytest.raises(ConfigError, match=message):
            read_trace_csv(doctored)

    _, peak = traced_peak(read)
    assert peak <= doctored.stat().st_size


@pytest.mark.slow
def test_mid_scale_trace_rewrites_byte_for_byte(tmp_path):
    # The ROADMAP facility mid row: ER p=0.2, n=50, m=200, universe 400,
    # K=20, T=30. About 47 MB of gains and two 200 MB traces.
    G = generate("erdos_renyi", 50, seed=0, p=0.2)
    fam = local_family(50, "facility_location",
                       params={"size": 200, "universe": 400}, seed=0)
    trace, peak = traced_peak(run_protocol,
                              RunConfig(G, metropolis_weights(G), fam, K=20, T=30))
    assert peak <= 1.15 * gain_bytes(trace)
    written, rewritten = tmp_path / "a.csv", tmp_path / "b.csv"
    write_trace_csv(trace, written)
    del trace
    write_trace_csv(read_trace_csv(written), rewritten)
    assert filecmp.cmp(written, rewritten, shallow=False)
