"""Trace, summary and report serialization.

Floats are rendered with 17 significant digits everywhere, which
round-trips IEEE doubles exactly: a trace read back reproduces the
original audit bit for bit, and identical runs produce byte-identical
files. A trace is read against the RunConfig of its run, with its
sizes: each line must be the one that the writer writes for that config,
but for the text of the x values, which is read as numpy reads a float.
"""

import csv
import json
import math
import re
from contextlib import contextmanager, suppress
from functools import partial
from itertools import chain, compress, islice, takewhile

import numpy as np

from .errors import ConfigError
from .protocol import TRACE_PARAMETERS, RoundRecord, RunTrace, averaging_record

TRACE_MAGIC = "# distgreedy trace v1"
TRACE_COLUMNS = "record,round,t,agent,element,x_value,candidate_set"


def format_float(x):
    if math.isnan(x) or math.isinf(x):
        raise ValueError("refusing to serialize a non-finite float")
    s = f"{x:.17g}"
    if not any(c in s for c in ".eE"):
        s += ".0"
    return s


def _optional_float(x):
    """An empty CSV cell for a value that does not exist."""
    return "" if x is None else format_float(x)


@contextmanager
def _output(path, newline=None):
    """`path` open for writing; an OSError names it, even one from close."""
    try:
        with open(path, "w", newline=newline) as fh:
            yield fh
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from None


def canonical_json(obj):
    """json.dumps, indented by 2, with floats at full 17-digit precision."""
    slots = []

    def encode(o):
        if isinstance(o, bool):
            return o
        if isinstance(o, (float, np.floating)):
            slots.append(format_float(float(o)))
            return f"\x00{len(slots) - 1}\x00"
        if isinstance(o, np.integer):
            return int(o)
        if isinstance(o, dict):
            return {k: encode(v) for k, v in o.items()}
        if isinstance(o, (list, tuple)):
            return [encode(v) for v in o]
        return o

    text = json.dumps(encode(obj), indent=2)
    # json.dumps escapes the \x00 sentinels to \u0000 in the output text
    return re.sub(r'"\\u0000(\d+)\\u0000"', lambda m: slots[int(m.group(1))], text)


def _meta_line(parameters, selected, value):
    """The `#` metadata line of a run with these TRACE_PARAMETERS, by
    name, selection and value: a float at 17 digits, a flag as 0 or 1,
    an integer as is."""
    texts = {name: format_float(parameters[name]) if kind is float
             else str(int(parameters[name])) for name, kind in TRACE_PARAMETERS}
    texts.update(selected="|".join(str(v) for v in selected),
                 value=format_float(value))
    return "# " + ",".join(f"{name}={text}" for name, text in texts.items())


def write_trace_csv(trace, path):
    """One CSV with three record kinds.

    `x` rows carry round,t,agent,element,x_value for the averaging
    phase; `set` rows carry round,t,agent,candidate_set (pipe-joined
    ascending indices) for the intersection phase; a `chosen` row closes
    each round. Run metadata rides in `#` header lines, which end in
    `\n`; the CSV rows end in `\r\n`, as `csv.writer` writes them.

    A round's averaging steps come from its record's step source, one
    step at a time; a record read from a file has none, so a read trace
    cannot be written again. An agent's x rows at one averaging step are
    written with one `%` format, from templates built once per round: a
    cell is `%.1f` when its value is integral with |x| < 1e17, where
    `%.17g` prints the integer's digits alone, and `%.17g` otherwise.
    That gives `format_float`'s text for every finite double. So the
    writer holds one step and one agent's rows of text at a time,
    whatever the run's size.
    """
    with _output(path, newline="") as fh:
        meta = _meta_line(vars(trace), trace.selected, trace.value)
        fh.write(f"{TRACE_MAGIC}\n{meta}\n{TRACE_COLUMNS}\r\n")
        for rec in trace.rounds:
            k = rec.index
            if rec.steps is None:
                raise ValueError(f"round {k} has no step source: a trace read "
                                 "from a file cannot be written again")
            # each cell after its row's "x,k,t,i," head, in both float forms
            cells = [(f"{v},%.17g,\r\n", f"{v},%.1f,\r\n") for v in rec.remaining]
            # without this list writing was slower, 6 of 6: 0.189-0.235 s vs 0.174-0.203
            general = [g for g, _ in cells]
            for t, X in enumerate(rec.steps()):
                if not np.isfinite(X).all():
                    raise ValueError("refusing to serialize a non-finite float")
                integral = (X == np.trunc(X)) & (np.abs(X) < 1e17)
                for i, (row, forms) in enumerate(zip(X.tolist(), integral.tolist()), 1):
                    head = f"x,{k},{t},{i},"
                    template = head + head.join(
                        map(tuple.__getitem__, cells, forms) if any(forms) else general)
                    fh.write(template % tuple(row))
            labels = [str(v) for v in rec.remaining]
            parts = []
            for step, C in enumerate(rec.candidate_masks.tolist()):
                t = trace.T + 1 + step
                parts.extend(f"{_set_row(k, t, i, labels, row)}\r\n"
                             for i, row in enumerate(C, 1))
            parts.append(f"{_chosen_row(k, trace.t_prime, rec.chosen)}\r\n")
            fh.write("".join(parts))


def _set_row(k, t, i, labels, row):
    """Agent i's set row at step t of round k: the `labels` of the
    elements that the bools of `row` keep, ascending."""
    return f"set,{k},{t},{i},,,{'|'.join(compress(labels, row))}"


def _chosen_row(k, t_prime, chosen):
    return f"chosen,{k},{t_prime},,{chosen},,"


# An x row's seven cells; one character shows that the last is not empty
X_ROW = np.dtype([("record", "U2")]
                 + [(key, np.int64) for key in ("round", "t", "agent", "element")]
                 + [("x", np.float64), ("candidate_set", "U1")])
_parse_x_rows = partial(np.loadtxt, dtype=X_ROW, delimiter=",", comments=None,
                        ndmin=1)


def _found(number, text):
    """What an error message says was read at trace line `number`."""
    if not text:
        return f"the trace has no line {number}"
    return f"trace line {number} is {text.rstrip()!r}"


def _x_rows(lines, number):
    """x lines, the first at trace line `number`, parsed as X_ROW records."""
    try:
        return _parse_x_rows(lines) if lines else np.empty(0, X_ROW)
    except ValueError:
        for j, line in enumerate(lines):
            try:
                _parse_x_rows([line])
            except ValueError as exc:
                raise ConfigError(f"trace line {number + j}: cannot read x row "
                                  f"{line.rstrip()!r} ({exc})") from None


def _x_step(lines, number, k, t, remaining, n):
    """Round k's n * r gains at step t, flat in the writer's order.

    `lines` holds the n * r lines that the step takes, fewer where the
    file ends, the first at trace line `number`. Each row must hold the
    round, step, agent and element of its place in the writer's order,
    and an empty last cell. The lines are parsed as one block, record
    column included, and each record must read "x"; a numpy string
    drops trailing NULs, so a NUL in the block counts as a mismatch.
    Only on a block that does not parse or mismatches are the lines
    walked one at a time: lines from the first that does not start with
    "x," or holds a NUL are missing rows, not x rows to parse, and a bad
    x line before them is named.
    """
    r = remaining.size
    rows = None
    if lines:
        with suppress(ValueError):
            rows = _parse_x_rows(lines)
    # a per-line "x," scan read slower, 6 of 6: 0.202-0.250 s, not 0.194-0.235
    if rows is None or not (rows["record"] == "x").all() or "\0" in "".join(lines):
        rows = _x_rows(list(takewhile(
            lambda line: line.startswith("x,") and "\0" not in line, lines)), number)
    agent, column = np.divmod(np.arange(rows.size), r)
    wrong = ((rows["candidate_set"] != "") | (rows["round"] != k) | (rows["t"] != t)
             | (rows["agent"] != agent + 1) | (rows["element"] != remaining[column]))
    j = int(wrong.argmax()) if wrong.any() else rows.size
    if j < n * r:
        raise ConfigError(
            f"round {k}, t={t}: missing agent {j // r + 1} gain row for "
            f"element {remaining[j % r]} "
            f"({_found(number + j, lines[j] if j < len(lines) else '')})")
    x = rows["x"].copy()
    infinite = np.flatnonzero(~np.isfinite(x))
    if infinite.size:
        j = int(infinite[0])
        raise ConfigError(
            f"trace line {number + j}: round {k}, t={t}: agent {j // r + 1} has "
            f"a non-finite gain {x[j]} for element {remaining[j % r]}")
    return x


def _later_steps(rest, number, k, T, remaining, n):
    """Round k's gains at steps 1..T, each an (n, r) array parsed from the
    next n * r lines of `rest`, the first at trace line `number`."""
    size = n * remaining.size
    for t in range(1, T + 1):
        yield _x_step(list(islice(rest, size)), number, k, t, remaining,
                      n).reshape(n, -1)
        number += size


def _candidate_mask(text, number, k, t, i, columns):
    """Agent i's candidate mask at step t of round k, from the set row
    `text` at trace line `number`, which must be the row that the writer
    writes for it; `columns` maps each of the round's remaining
    elements, as text and ascending, to its column."""
    line = text.rstrip("\n")
    head = f"set,{k},{t},{i},,,"
    if not line.startswith(head):
        raise ConfigError(f"round {k}, t={t}: missing agent {i} candidate set "
                          f"({_found(number, text)})")
    mask = np.zeros(len(columns), dtype=bool)
    try:
        mask[[columns[v] for v in line[len(head):].split("|") if v]] = True
    except KeyError as exc:
        raise ConfigError(
            f"trace line {number}: set row names element {exc.args[0]}, not "
            f"one of round {k}'s remaining elements") from None
    if line != (want := _set_row(k, t, i, columns, mask.tolist())):
        raise ConfigError(f"trace line {number}: set row {line!r} is not its "
                          f"elements written ascending, {want!r}")
    return mask


def _chosen(text, number, k, t_prime):
    """The element of round k's chosen row `text`, at trace line `number`,
    which must be the row that the writer writes for it."""
    line = text.rstrip("\n")
    with suppress(ValueError, IndexError):
        chosen = int(line.split(",")[4])
        if line == _chosen_row(k, t_prime, chosen):
            return chosen
    raise ConfigError(f"round {k}: missing chosen row ({_found(number, text)})")


@contextmanager
def _reading(path):
    """An OSError raised while reading the trace at `path` as a ConfigError."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot read trace {path}: {exc.strerror}") from None


def _meta_mismatch(line, want, selection):
    """What the metadata line `line` states first that differs from
    `want`, the line that the config gives for `selection`."""
    if line.startswith("# "):
        for field, wanted in zip(line[2:].split(","), want[2:].split(",")):
            name, _, text = field.partition("=")
            wanted_name, _, given = wanted.partition("=")
            if name != wanted_name:
                break
            if text == given:
                continue
            if name == "value":
                return (f"trace header value={text}, but the config's average "
                        f"function gives {given} for selection {selection}")
            if name == "selected":
                return (f"trace header selected={text}, but selection "
                        f"{selection} is written {given}")
            return f"trace header {name}={text}, but the config gives {given}"
    return f"trace metadata line {line!r} is not the config's {want!r}"


def read_trace_csv(path, config):
    """Rebuild the RunTrace that `run` of RunConfig `config` writes as CSV.

    The metadata line must be the line that the writer writes for the
    selection it states: the config's trace_parameters, that selection
    and the value that the config's average function gives it, byte for
    byte. Else the first field that differs, or the line, is named,
    before any row is read. The column row must be TRACE_COLUMNS. The
    rows are read with the config's n, K, T and t_prime, only in the
    writer's order, with `\\n` or `\\r\\n` line ends: each line is
    checked against the row that the order puts there, a set or chosen
    row as the writer spells it. Agent 1's t=0 `x` rows of a round name
    its remaining elements, and fix how many `x` rows each (t, agent)
    block holds.
    The `x` lines of one averaging step go through numpy's C parser as
    one block, and the step goes to protocol.averaging_record, which
    keeps the round's x_final, deviations and drifts from the file's
    own gains; then come the round's `set` rows, each one row of its
    candidate_masks, and its `chosen` row. The reader holds one step's
    lines and gains at a time, besides what the records keep. Since
    floats round-trip exactly, the rebuilt trace audits identically to
    the original. Its records have no step source, so it cannot be
    written again. A byte that is not UTF-8 reads as U+FFFD, so it
    fails the check of its line.
    """
    parameters = config.trace_parameters(config.T, config.psi)
    n, K, T, t_prime = (parameters[key] for key in ("n", "K", "T", "t_prime"))
    try:
        fh = open(path, encoding="utf-8", errors="replace")
    except OSError as exc:
        raise ConfigError(f"cannot open trace {path}: {exc.strerror}") from None
    with fh, _reading(path):
        magic = fh.readline().rstrip("\n")
        if magic != TRACE_MAGIC:
            raise ConfigError(f"not a trace file (header {magic!r})")
        line = fh.readline().rstrip("\n")
        listed = line.partition(",selected=")[2].partition(",")[0]
        try:
            declared = tuple(int(v) for v in listed.split("|") if v)
            value = config.family.average().value(declared)
        except ValueError as exc:
            raise ConfigError(f"trace header selected={listed}: {exc}") from None
        want = _meta_line(parameters, declared, value)
        if line != want:
            raise ConfigError(_meta_mismatch(line, want, declared))
        line = fh.readline().rstrip("\n")
        if line != TRACE_COLUMNS:
            raise ConfigError(f"trace columns {line!r} are not {TRACE_COLUMNS!r}")
        number = 4  # the trace line that the next read starts at
        rounds, selected = [], ()
        for k in range(K):
            lines = []  # agent 1's t=0 rows name the remaining elements
            while (text := fh.readline()).startswith(f"x,{k},0,1,"):
                lines.append(text)
            if not lines:
                raise ConfigError(f"round {k}, t=0: missing agent 1 gain rows "
                                  f"({_found(number, text)})")
            remaining = _x_rows(lines, number)["element"]
            ascending = np.diff(remaining, prepend=0) > 0
            if not ascending.all():
                j = int(ascending.argmin())
                raise ConfigError(
                    f"round {k}, t=0: agent 1's elements do not ascend from 1 "
                    f"({_found(number + j, lines[j])})")
            r = remaining.size
            rest = chain([text] if text else [], fh)
            lines += islice(rest, (n - 1) * r)  # agents 2..n
            X0 = _x_step(lines, number, k, 0, remaining, n).reshape(n, r)
            del lines  # one step of rows at a time
            number += n * r
            x_final, deviations, drifts = averaging_record(
                chain([X0], _later_steps(rest, number, k, T, remaining, n)))
            number += T * n * r
            columns = {str(v): j for j, v in enumerate(remaining.tolist())}
            masks = []
            for t in range(T + 1, t_prime + 1):
                for i in range(1, n + 1):
                    masks.append(_candidate_mask(fh.readline(), number, k, t, i,
                                                 columns))
                    number += 1
            masks = np.array(masks).reshape(t_prime - T, n, r)
            masks.flags.writeable = False
            chosen = _chosen(fh.readline(), number, k, t_prime)
            number += 1
            selected += (chosen,)
            rounds.append(RoundRecord(k, tuple(remaining.tolist()), x_final,
                                      deviations, drifts, masks, chosen, selected))
        if text := fh.readline():
            raise ConfigError(f"trace line {number}: row after the last round: "
                              f"{text.rstrip()!r}")

    if declared != selected:
        raise ConfigError(
            f"trace header announces selection {declared} but the rounds "
            f"build {selected}")
    return RunTrace(rounds, selected, value, **parameters)


def summary_dict(trace):
    return {
        "selected": list(trace.selected),
        "value": trace.value,
        "chosen_per_round": [rec.chosen for rec in trace.rounds],
        "deviation_curves": [[float(d) for d in rec.deviations]
                             for rec in trace.rounds],
        "bounds": {
            "psi": trace.psi,
            "psi_floor": trace.psi_floor,
            "epsilon_T": trace.epsilon_T,
            "additive_gap": trace.additive_gap,
            "mu": trace.mu,
            "value_cap": trace.value_cap,
        },
        # psi, mu and value_cap are reported under "bounds"
        "parameters": {name: getattr(trace, name)
                       for name, _ in TRACE_PARAMETERS
                       if name not in ("psi", "mu", "value_cap")},
    }


def write_json(obj, path):
    with _output(path) as fh:
        fh.write(canonical_json(obj) + "\n")


def write_summary_json(trace, path):
    write_json(summary_dict(trace), path)


def write_bounds_json(report, path):
    write_json(report.to_jsonable(), path)


SWEEP_COLUMNS = ["T", "psi", "epsilon", "E_r", "achieved", "rhs", "vacuous"]


def write_sweep_csv(rows, path):
    with _output(path, newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([
                row.T, format_float(row.psi), _optional_float(row.epsilon),
                _optional_float(row.additive_gap), format_float(row.achieved),
                _optional_float(row.rhs),
                "" if row.vacuous is None else int(row.vacuous)])
