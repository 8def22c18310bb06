"""Trace CSV formatting and parsing: exact text, exact round trip, v1 input."""

import math
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distgreedy import (RunConfig, bounds_report, generate, local_family,
                        metropolis_weights)
from distgreedy.config import build_run_config, load_experiment
from distgreedy.errors import ConfigError, ProtocolError
from distgreedy.graph import make_network
from distgreedy.protocol import (TRACE_PARAMETERS, RoundRecord, RunTrace,
                                 averaging_record)
from distgreedy.protocol import run as run_protocol
from distgreedy.traceio import (format_float, read_trace_csv, write_bounds_json,
                                write_summary_json, write_trace_csv)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
FIXED = [0.0, -0.0, 3.0, 1e16, 1e17, 5e-324, 0.1, 1 / 3, -2.5, 1e300, -1e300]
doubles = st.floats(allow_nan=False, allow_infinity=False)


def bundled_config(name="ring_metropolis"):
    return build_run_config(load_experiment(CONFIGS / f"{name}.json"))


def bundled_trace(name="ring_metropolis"):
    return run_protocol(bundled_config(name))


def with_steps(trace, steps, record=averaging_record):
    """`trace` with each round's averaging steps replaced by a list of
    (n, r) arrays, which become the round's step source; `record` gives
    the round's x_final, deviations and drifts from its steps."""
    rounds = [RoundRecord(rec.index, rec.remaining, *record(x), rec.candidate_masks,
                          rec.chosen, rec.selected_after, partial(iter, x))
              for rec, x in zip(trace.rounds, steps)]
    return RunTrace(rounds, trace.selected, trace.value,
                    **{name: getattr(trace, name) for name, _ in TRACE_PARAMETERS})


def assert_same_bits(a, b):
    assert a.shape == b.shape
    assert np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_trace(a, b):
    for attr in ("n", "K", "T", "t_prime", "diameter", "psi", "mu", "value_cap",
                 "include_self", "threshold_slack", "seed", "selected", "value"):
        assert getattr(a, attr) == getattr(b, attr), attr
    assert len(a.rounds) == len(b.rounds)
    for x, y in zip(a.rounds, b.rounds):
        assert (x.index, x.remaining, x.chosen, x.selected_after) == \
               (y.index, y.remaining, y.chosen, y.selected_after)
        assert np.array_equal(x.candidate_masks, y.candidate_masks)
        for field in ("x_final", "deviations", "drifts"):
            assert_same_bits(getattr(x, field), getattr(y, field))


def written_x_values(tmp_path, values):
    """The x_value cells that write_trace_csv gives a bundled trace whose
    step sources yield `values`, repeated to fill its rounds in the
    writer's order, and the gains that those cells hold."""
    base = bundled_trace()
    gains = [list(np.resize(np.array(values, dtype=float),
                            (base.T + 1,) + rec.x_final.shape))
             for rec in base.rounds]
    # the writer reads only the steps; sums of |x| near 1.8e308 overflow
    trace = with_steps(base, gains, record=lambda x: (None, None, None))
    path = tmp_path / "t.csv"
    write_trace_csv(trace, path)
    with open(path, newline="") as fh:
        cells = [line.split(",")[5] for line in fh if line.startswith("x,")]
    return cells, np.concatenate([np.ravel(x) for x in gains]).tolist()


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
    # A T=1 trace, whose steps X_0 and X_1 are drawn from the fixed values
    # plus a random pool; |x| <= 1e300 keeps the deviations finite. The
    # reader keeps X_T, so each draw is written once as X_1 and once as
    # X_0, and every bit of both comes back.
    pool = np.array(FIXED + values)
    rng = np.random.default_rng(seed)
    bundled = bundled_config()
    config = RunConfig(bundled.network, bundled.mixing, bundled.family,
                       K=bundled.K, T=1)
    base = run_protocol(config)
    draws = [[pool[rng.integers(pool.size, size=rec.x_final.shape)]
              for _ in range(2)] for rec in base.rounds]
    for order in (1, -1):
        trace = with_steps(base, [steps[::order] for steps in draws])
        path = tmp_path_factory.mktemp("rt") / "t.csv"
        write_trace_csv(trace, path)
        assert_same_trace(read_trace_csv(path, config), trace)


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
        read_trace_csv(tmp_path / "o.csv", bundled_config())


@pytest.mark.parametrize("name, text", [("mu", "-0.5"), ("value_cap", "-6.0")])
def test_reader_rejects_a_negative_mu_or_value_cap(tmp_path, name, text):
    # such a header has no bounds, and it is not the config's
    config = bundled_config()
    lines = written_lines(tmp_path, run_protocol(config))
    head, _, rest = lines[1].partition(f",{name}=")
    lines[1] = f"{head},{name}={text}{rest[rest.index(','):]}"
    (tmp_path / "neg.csv").write_text("".join(lines), newline="")
    given = format_float(getattr(config, name))
    with pytest.raises(ConfigError, match=rf"^trace header {name}={text}, but the "
                                          rf"config gives {given}$"):
        read_trace_csv(tmp_path / "neg.csv", config)


def test_a_doctored_header_fails_before_any_row(tmp_path):
    # The file ends after its column row, so a reader that got to the
    # rows would name a missing row instead.
    config = bundled_config()
    lines = written_lines(tmp_path, run_protocol(config))
    assert ",value_cap=10.0," in lines[1]
    lines[1] = lines[1].replace(",value_cap=10.0,", ",value_cap=1000.0,")
    (tmp_path / "cut.csv").write_text("".join(lines[:3]), newline="")
    with pytest.raises(ConfigError, match=r"^trace header value_cap=1000\.0, but "
                                          r"the config gives 10\.0$"):
        read_trace_csv(tmp_path / "cut.csv", config)


def test_reader_accepts_lf_line_ends(tmp_path):
    config = bundled_config()
    trace = run_protocol(config)
    lines = written_lines(tmp_path, trace)
    (tmp_path / "lf.csv").write_text(
        "".join(line.replace("\r\n", "\n") for line in lines), newline="")
    assert b"\r" not in (tmp_path / "lf.csv").read_bytes()
    assert_same_trace(read_trace_csv(tmp_path / "lf.csv", config), trace)


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
                     psi=draw(st.sampled_from([None, 0.5, 5.0])))


@settings(max_examples=100, deadline=None)
@given(config=small_configs())
def test_candidate_masks_survive_run_and_round_trip(tmp_path_factory, config):
    try:
        trace = run_protocol(config)
    except ProtocolError:  # a tight psi
        return
    assert_masks_are_the_record(trace)
    path = tmp_path_factory.mktemp("masks") / "t.csv"
    write_trace_csv(trace, path)
    loaded = read_trace_csv(path, config)
    assert_masks_are_the_record(loaded)
    for a, b in zip(loaded.rounds, trace.rounds):
        assert np.array_equal(a.candidate_masks, b.candidate_masks)


def facility_config(T):
    # n=20, m=50, K=6: at T=24 about 143k x rows, 1.1 MB of gains
    G = generate("erdos_renyi", 20, seed=3, p=0.3)
    fam = local_family(20, "facility_location",
                       params={"size": 50, "universe": 100}, seed=3)
    return RunConfig(G, metropolis_weights(G), fam, K=6, T=T)


@pytest.fixture(scope="module")
def facility_runs():
    """The facility config at T=24 and at T=96, each with its run, which
    also fills the functions' scan cache."""
    configs = {T: facility_config(T) for T in (24, 96)}
    return {T: (config, run_protocol(config)) for T, config in configs.items()}


@pytest.fixture(scope="module")
def facility_run(facility_runs):
    return facility_runs[24]


@pytest.fixture(scope="module")
def facility_traces(tmp_path_factory, facility_runs):
    paths = {}
    for T, (_, trace) in facility_runs.items():
        paths[T] = tmp_path_factory.mktemp("facility") / f"t{T}.csv"
        write_trace_csv(trace, paths[T])
    return paths


@pytest.fixture(scope="module")
def facility_trace(facility_traces):
    return facility_traces[24]


def gain_bytes(trace):
    """The bytes of the T+1 steps of gains that the trace file holds."""
    return sum((trace.T + 1) * rec.x_final.nbytes for rec in trace.rounds)


def traced_peak(read, *args):
    """read(*args) and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        result = read(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_peaks_do_not_grow_with_T(facility_runs, peak_at):
    # Four times the steps add less than one (n, m) step of gains, 0.7%
    # of the gains at T=24, to the peak; the per-step deviations and
    # drifts, 16 bytes a step and round, add 6.9 kB to the run's. A peak
    # may also fall: the T=24 run's wider psi keeps longer candidate sets.
    peaks = {T: peak_at(T) for T in facility_runs}
    step = facility_runs[24][1].rounds[0].x_final.nbytes
    assert peaks[96] - peaks[24] < step, peaks


def test_reader_memory_does_not_grow_with_T(facility_runs, facility_traces):
    def peak_at(T):
        config, run = facility_runs[T]
        trace, peak = traced_peak(read_trace_csv, facility_traces[T], config)
        assert_same_trace(trace, run)
        return peak
    assert_peaks_do_not_grow_with_T(facility_runs, peak_at)


def test_reader_holds_one_step_of_rows_besides_the_gains(facility_run, facility_trace):
    trace, peak = traced_peak(read_trace_csv, facility_trace, facility_run[0])
    assert peak <= 1.3 * gain_bytes(trace)


def test_run_memory_does_not_grow_with_T(facility_runs):
    # Each fixture run filled its functions' scan cache, so these peaks
    # are the runs' own arrays.
    def peak_at(T):
        config, first = facility_runs[T]
        trace, peak = traced_peak(run_protocol, config)
        assert trace.selected == first.selected
        return peak
    assert_peaks_do_not_grow_with_T(facility_runs, peak_at)


def test_a_run_keeps_no_copy_of_its_gains(facility_run):
    # The fixture's run filled the scan cache, which holds every round's
    # gains, so a record's step source replays X_0 from it: beyond its
    # records' arrays the trace keeps 0.21 x their x_final bytes in
    # tuples and objects, not an (n, r) X_0 a round (1.22 x).
    config, _ = facility_run
    tracemalloc.start()
    try:
        trace = run_protocol(config)
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    arrays = sum(rec.x_final.nbytes + rec.deviations.nbytes + rec.drifts.nbytes
                 + rec.candidate_masks.nbytes for rec in trace.rounds)
    assert kept - arrays < 0.5 * sum(rec.x_final.nbytes for rec in trace.rounds)
    for rec in trace.rounds:
        for replayed, recorded in zip(averaging_record(rec.steps()),
                                      (rec.x_final, rec.deviations, rec.drifts)):
            assert_same_bits(replayed, recorded)


def test_step_deviations_hold_one_step(facility_run):
    # The round's step source makes each step as it is read.
    rec = facility_run[1].rounds[0]
    _, peak = traced_peak(averaging_record, rec.steps())
    assert peak <= 4 * rec.x_final.nbytes


def test_writer_memory_is_a_fraction_of_the_gains(tmp_path, facility_runs):
    def peak_at(T):
        trace = facility_runs[T][1]
        _, peak = traced_peak(write_trace_csv, trace, tmp_path / "t.csv")
        assert peak <= 0.12 * gain_bytes(trace)
        return peak
    assert_peaks_do_not_grow_with_T(facility_runs, peak_at)


def test_a_read_trace_cannot_be_written_again(tmp_path, facility_run, facility_trace):
    with pytest.raises(ValueError, match="round 0 has no step source"):
        write_trace_csv(read_trace_csv(facility_trace, facility_run[0]),
                        tmp_path / "t.csv")


def test_a_larger_header_n_fails_within_the_first_step(tmp_path, facility_run,
                                                     facility_trace):
    # The header claims 10**6 agents, not the config's 20, so the reader
    # stops at the header: it reads no row and allocates nothing by it.
    doctored = tmp_path / "n.csv"
    doctored.write_text(
        facility_trace.read_text().replace("# n=20,", "# n=1000000,", 1))
    message = r"^trace header n=1000000, but the config gives 20$"

    def read():
        with pytest.raises(ConfigError, match=message):
            read_trace_csv(doctored, facility_run[0])

    _, peak = traced_peak(read)
    assert peak <= 0.3e6


def test_a_larger_header_T_fails_at_the_first_missing_step(tmp_path, facility_run,
                                                         facility_trace):
    # The header claims 10**6 steps, not the config's 24, so the reader
    # stops at the header and sizes nothing by it.
    text = facility_trace.read_text()
    meta = text.splitlines()[1]
    fields = dict(item.split("=", 1) for item in meta[2:].split(","))
    T, t_prime = int(fields["T"]), int(fields["t_prime"])
    doctored = tmp_path / "T.csv"
    doctored.write_text(text.replace(
        meta, meta.replace(f",T={T},", ",T=1000000,").replace(
            f",t_prime={t_prime},", f",t_prime={1000001 + t_prime - T - 1},"), 1))
    message = rf"^trace header T=1000000, but the config gives {T}$"

    def read():
        with pytest.raises(ConfigError, match=message):
            read_trace_csv(doctored, facility_run[0])

    _, peak = traced_peak(read)
    assert peak <= doctored.stat().st_size


@pytest.mark.slow
def test_mid_scale_memory_does_not_grow_with_T_and_analyze_reproduces_run(tmp_path):
    # The ROADMAP facility mid row: ER p=0.2, n=50, m=200, universe 400,
    # K=20, T=30. About 47 MB of gains and a 200 MB trace. At T=120 the
    # run's peak grows by the per-step statistics alone, 16 bytes a step
    # and round, far less than one (n, m) step.
    G = generate("erdos_renyi", 50, seed=0, p=0.2)
    fam = local_family(50, "facility_location",
                       params={"size": 200, "universe": 400}, seed=0)
    configs = {T: RunConfig(G, metropolis_weights(G), fam, K=20, T=T) for T in (30, 120)}
    for config in configs.values():
        run_protocol(config)  # fills the scan cache
    runs = {T: traced_peak(run_protocol, config) for T, config in configs.items()}
    trace = runs[30][0]
    assert abs(runs[120][1] - runs[30][1]) < trace.rounds[0].x_final.nbytes
    written = tmp_path / "t.csv"
    write_trace_csv(trace, written)
    read = read_trace_csv(written, configs[30])
    assert_same_trace(read, trace)
    outputs = []
    for t in (trace, read):
        write_bounds_json(bounds_report(t, fam), tmp_path / "b.json")
        write_summary_json(t, tmp_path / "s.json")
        outputs.append([(tmp_path / name).read_bytes() for name in ("b.json", "s.json")])
    assert outputs[0] == outputs[1]
