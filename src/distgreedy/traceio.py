"""Trace, summary and report serialization.

Floats are rendered with 17 significant digits everywhere, which
round-trips IEEE doubles exactly: a replayed trace reproduces the
original audit bit for bit, and identical runs produce byte-identical
files.
"""

import csv
import json
import math
import os
import re
from contextlib import suppress
from functools import partial
from itertools import chain, compress, islice, repeat, takewhile

import numpy as np

from .errors import ConfigError
from .protocol import TRACE_PARAMETERS, RoundRecord, RunTrace, step_deviations

TRACE_MAGIC = "# distgreedy trace v1"


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


def canonical_json(obj, indent=2):
    """json.dumps with floats at full 17-digit precision."""
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

    text = json.dumps(encode(obj), indent=indent)
    # json.dumps escapes the \x00 sentinels to \u0000 in the output text
    return re.sub(r'"\\u0000(\d+)\\u0000"', lambda m: slots[int(m.group(1))], text)


def meta_text(kind, value):
    """A run parameter as the trace header writes it: a float at 17
    digits, a flag as 0 or 1, an integer as is."""
    return format_float(value) if kind is float else str(int(value))


def _meta_line(trace):
    fields = [f"{name}={meta_text(kind, getattr(trace, name))}"
              for name, kind in TRACE_PARAMETERS]
    fields += [f"selected={'|'.join(str(v) for v in trace.selected)}",
               f"value={format_float(trace.value)}"]
    return "# " + ",".join(fields)


def write_trace_csv(trace, path):
    """One CSV with three record kinds.

    `x` rows carry round,t,agent,element,x_value for the averaging
    phase; `set` rows carry round,t,agent,candidate_set (pipe-joined
    ascending indices) for the intersection phase; a `chosen` row closes
    each round. Run metadata rides in `#` header lines, which end in
    `\n`; the CSV rows end in `\r\n`, as `csv.writer` writes them.

    An agent's x rows at one averaging step are written with one `%`
    format, from templates built once per round: a cell is `%.1f` when
    its value is integral with |x| < 1e17, where `%.17g` prints the
    integer's digits alone, and `%.17g` otherwise. That gives
    `format_float`'s text for every finite double. So the writer holds
    one agent's rows of text at a time, whatever the run's size.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"{TRACE_MAGIC}\n{_meta_line(trace)}\n"
                 "record,round,t,agent,element,x_value,candidate_set\r\n")
        for rec in trace.rounds:
            k = rec.index
            # each cell after its row's "x,k,t,i," head, in both float forms
            cells = [(f"{v},%.17g,\r\n", f"{v},%.1f,\r\n") for v in rec.remaining]
            general = [g for g, _ in cells]
            for t, X in enumerate(rec.x_steps):
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
                for i, row in enumerate(C, 1):
                    joined = "|".join(compress(labels, row))
                    parts.append(f"set,{k},{t},{i},,,{joined}\r\n")
            parts.append(f"chosen,{k},{trace.t_prime},,{rec.chosen},,\r\n")
            fh.write("".join(parts))


def _parse_meta(line):
    """The `#` metadata line as (run parameters by name, selection, value)."""
    meta = dict(item.partition("=")[::2] for item in line.lstrip("# ").split(","))
    try:
        parameters = {name: float(meta[name]) if kind is float
                      else kind(int(meta[name]))
                      for name, kind in TRACE_PARAMETERS}
        selected = tuple(int(v) for v in meta["selected"].split("|") if v)
        value = float(meta["value"])
        for name, number in [*parameters.items(), ("value", value)]:
            if not math.isfinite(number):  # the writer never writes one
                raise ValueError(f"{name}={number}")
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed trace metadata line: {exc!r}") from None
    return parameters, selected, value


X_ROW = np.dtype([(key, np.int64) for key in ("round", "t", "agent", "element")]
                 + [("x", np.float64)])
# The shortest line that parses as an x row, "x,0,0,1,1,5", has 11 characters.
MIN_X_ROW = 11


def _found(number, text):
    """What an error message says was read at trace line `number`."""
    if not text:
        return f"the trace has no line {number}"
    return f"trace line {number} is {text.rstrip()!r}"


def _x_rows(lines, number):
    """x lines, the first at trace line `number`, parsed as X_ROW records;
    the record column, each line's "x," prefix, is not read."""
    parse = partial(np.loadtxt, dtype=X_ROW, delimiter=",", comments=None,
                    usecols=range(1, 6), ndmin=1)
    try:
        return parse(lines) if lines else np.empty(0, X_ROW)
    except ValueError:
        for j, line in enumerate(lines):
            try:
                parse([line])
            except ValueError as exc:
                raise ConfigError(f"trace line {number + j}: cannot read x row "
                                  f"{line.rstrip()!r} ({exc})") from None


def _x_step(lines, after, number, k, t, remaining, n, head=()):
    """Round k's n * r gains at step t, flat in the writer's order.

    `head` holds the gains of the step's rows already read, and `lines`
    the x lines of the rest, the first at trace line `number` +
    len(head); `after` is the line that follows them. Each row must hold
    the round, step, agent and element of its place in the writer's
    order. The lines are parsed as one block; they go one at a time only
    to name a bad line. Lines from the first that is not an x row are
    missing rows, not x rows to parse.
    """
    r = remaining.size
    done = len(head)
    first = number + done
    x_lines = lines
    if not all(map(str.startswith, lines, repeat("x,"))):
        x_lines = list(takewhile(lambda line: line.startswith("x,"), lines))
    rows = _x_rows(x_lines, first)
    agent, column = np.divmod(np.arange(done, done + rows.size), r)
    wrong = ((rows["round"] != k) | (rows["t"] != t) | (rows["agent"] != agent + 1)
             | (rows["element"] != remaining[column]))
    j = int(wrong.argmax()) if wrong.any() else rows.size
    if done + j < n * r:
        raise ConfigError(
            f"round {k}, t={t}: missing agent {(done + j) // r + 1} gain row for "
            f"element {remaining[(done + j) % r]} "
            f"({_found(first + j, lines[j] if j < len(lines) else after)})")
    for offset, x in ((0, head), (done, rows["x"])):
        infinite = np.flatnonzero(~np.isfinite(x))
        if infinite.size:
            j = offset + int(infinite[0])
            raise ConfigError(
                f"trace line {number + j}: round {k}, t={t}: agent {j // r + 1} has "
                f"a non-finite gain {x[j - offset]} for element {remaining[j % r]}")
    return rows["x"]


def _candidate_mask(text, number, k, t, i, columns):
    """Agent i's candidate mask at step t of round k, from the set row
    `text` at trace line `number`; `columns` maps each of the round's
    remaining elements, as text, to its column."""
    fields = text.rstrip("\n").split(",")
    if fields[:4] != ["set", str(k), str(t), str(i)] or len(fields) != 7:
        raise ConfigError(f"round {k}, t={t}: missing agent {i} candidate set "
                          f"({_found(number, text)})")
    mask = np.zeros(len(columns), dtype=bool)
    try:
        mask[[columns[v] for v in fields[6].split("|") if v]] = True
    except KeyError as exc:
        raise ConfigError(
            f"trace line {number}: set row names element {exc.args[0]}, not "
            f"one of round {k}'s remaining elements") from None
    return mask


def _chosen(text, number, k, t_prime):
    """The element of round k's chosen row `text`, at trace line `number`."""
    fields = text.rstrip("\n").split(",")
    if fields[:3] == ["chosen", str(k), str(t_prime)] and len(fields) == 7:
        with suppress(ValueError):
            return int(fields[4])
    raise ConfigError(f"round {k}: missing chosen row ({_found(number, text)})")


def read_trace_csv(path):
    """Rebuild a RunTrace from its CSV form.

    The rows must come in the writer's order, with `\\n` or `\\r\\n` line
    ends: each line is checked against the row that the order puts
    there. Agent 1's t=0 `x` rows of a round name its remaining
    elements, and fix how many `x` rows each later (t, agent) block
    holds. The `x` lines of one averaging step go through numpy's C
    parser as one block, whose gains go straight into the round's
    x_steps; then come the round's `set` rows, each one row of its
    candidate_masks, and its `chosen` row. The reader holds the gains
    plus one step's lines. No array is sized from a header number alone:
    x_steps is sized once step 0 has been read, and holds no more steps
    than the characters left in the file could fill. Deviations are
    recomputed from the gains; since floats round-trip exactly, the
    rebuilt trace audits identically to the original.
    """
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != TRACE_MAGIC:
            raise ConfigError(f"not a trace file (header {magic!r})")
        parameters, declared, value = _parse_meta(fh.readline().rstrip("\n"))
        header = next(csv.reader([fh.readline()]), [])
        if header[:3] != ["record", "round", "t"]:
            raise ConfigError(f"unexpected trace columns {header}")
        n, K, T, t_prime, d = (parameters[key] for key in
                               ("n", "K", "T", "t_prime", "diameter"))
        if min(n, K, T, d + 1) < 1 or t_prime != T + 1 + d:
            raise ConfigError(
                f"trace header sizes n={n}, K={K}, T={T}, diameter={d}, "
                f"t_prime={t_prime} do not fit: n, K and T must be >= 1, "
                "diameter >= 0 and t_prime = T + 1 + diameter")
        number = 4  # the trace line that the next read starts at
        left = os.fstat(fh.fileno()).st_size  # bounds the characters still to read
        rounds, selected = [], ()
        for k in range(K):
            lines = []  # agent 1's t=0 rows name the remaining elements
            while (text := fh.readline()).startswith(f"x,{k},0,1,"):
                lines.append(text)
            if not lines:
                raise ConfigError(f"round {k}, t=0: missing agent 1 gain rows "
                                  f"({_found(number, text)})")
            head = _x_rows(lines, number)
            remaining = head["element"]
            ascending = np.diff(remaining, prepend=0) > 0
            if not ascending.all():
                j = int(ascending.argmin())
                raise ConfigError(
                    f"round {k}, t=0: agent 1's elements do not ascend from 1 "
                    f"({_found(number + j, lines[j])})")
            r = remaining.size
            # Read by line up to its first foreign row, step 0 bounds each
            # later step, even under a header n above the recorded one.
            others = []
            while len(others) < (n - 1) * r and text.startswith(f"x,{k},0,"):
                others.append(text)
                text = fh.readline()
            rest = chain([text] if text else [], fh)
            x = _x_step(others, text, number, k, 0, remaining, n, head["x"])
            # Step 0 held n * r rows, so n is the file's. A header T may
            # not be: x_steps holds no more steps than the characters left
            # could fill at MIN_X_ROW a row, and a step past those fails
            # in _x_step before it is stored.
            left -= sum(map(len, lines)) + sum(map(len, others))
            x_steps = np.empty((min(T + 1, 1 + left // (MIN_X_ROW * n * r)), n, r))
            x_steps[0, 0] = head["x"]
            x_steps[0, 1:] = x.reshape(n - 1, r)
            del lines, others, head, x  # one step of rows at a time
            number += n * r
            for t in range(1, T + 1):
                lines = list(islice(rest, n * r))
                x_steps[t] = _x_step(lines, "", number, k, t, remaining, n).reshape(n, r)
                number += len(lines)
                left -= sum(map(len, lines))
            x_steps.flags.writeable = False
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
            rounds.append(RoundRecord(k, tuple(remaining.tolist()), x_steps,
                                      step_deviations(x_steps), masks, chosen,
                                      selected))
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


def write_summary_json(trace, path):
    with open(path, "w") as fh:
        fh.write(canonical_json(summary_dict(trace)) + "\n")


def write_bounds_json(report, path):
    with open(path, "w") as fh:
        fh.write(canonical_json(report.to_jsonable()) + "\n")


SWEEP_COLUMNS = ["T", "psi", "epsilon", "E_r", "achieved", "rhs", "vacuous"]


def write_sweep_csv(rows, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        for row in rows:
            writer.writerow([
                row.T, format_float(row.psi), _optional_float(row.epsilon),
                _optional_float(row.additive_gap), format_float(row.achieved),
                _optional_float(row.rhs),
                "" if row.vacuous is None else int(row.vacuous)])
