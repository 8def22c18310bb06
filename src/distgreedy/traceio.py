"""Trace, summary and report serialization.

Floats are rendered with 17 significant digits everywhere, which
round-trips IEEE doubles exactly: a replayed trace reproduces the
original audit bit for bit, and identical runs produce byte-identical
files.
"""

import csv
import itertools
import json
import math
import re

import numpy as np

from .errors import ConfigError
from .protocol import RoundRecord, RunTrace, step_deviations

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


def _meta_line(trace):
    fields = [
        f"n={trace.n}", f"K={trace.K}", f"T={trace.T}",
        f"t_prime={trace.t_prime}", f"diameter={trace.diameter}",
        f"psi={format_float(trace.psi)}", f"mu={format_float(trace.mu)}",
        f"value_cap={format_float(trace.value_cap)}",
        f"include_self={int(trace.include_self)}",
        f"threshold_slack={format_float(trace.threshold_slack)}",
        f"seed={trace.seed}",
        f"selected={'|'.join(str(v) for v in trace.selected)}",
        f"value={format_float(trace.value)}",
    ]
    return "# " + ",".join(fields)


def format_floats(values):
    """`format_float` over an array, in C order, as a list of str.

    One `.17g` pass over the whole array; the `.0` suffix goes only on
    integral values whose text has neither a point nor an exponent.
    """
    flat = np.asarray(values, dtype=np.float64).ravel()
    if not np.isfinite(flat).all():
        raise ValueError("refusing to serialize a non-finite float")
    texts = [f"{v:.17g}" for v in flat.tolist()]
    for j in np.flatnonzero(flat == np.trunc(flat)).tolist():
        if "." not in texts[j] and "e" not in texts[j]:
            texts[j] += ".0"
    return texts


def write_trace_csv(trace, path):
    """One CSV with three record kinds.

    `x` rows carry round,t,agent,element,x_value for the averaging
    phase; `set` rows carry round,t,agent,candidate_set (pipe-joined
    ascending indices) for the intersection phase; a `chosen` row closes
    each round. Run metadata rides in `#` header lines, which end in
    `\n`; the CSV rows end in `\r\n`, as `csv.writer` writes them.

    The x rows of one averaging step, an (n, r) block, are formatted in
    one pass and written with one call. A block, not a whole round, so
    that the row strings held at once stay small next to the run's own
    memory.
    """
    with open(path, "w", newline="") as fh:
        fh.write(f"{TRACE_MAGIC}\n{_meta_line(trace)}\n"
                 "record,round,t,agent,element,x_value,candidate_set\r\n")
        for rec in trace.rounds:
            k, r = rec.index, len(rec.remaining)
            elements = [f"{v}," for v in rec.remaining] * trace.n
            for t, X in enumerate(rec.x_steps):
                cells = list(map(str.__add__, elements, format_floats(X)))
                fh.write("".join(
                    f"x,{k},{t},{i},"
                    + f",\r\nx,{k},{t},{i},".join(cells[(i - 1) * r:i * r])
                    + ",\r\n" for i in range(1, trace.n + 1)))
            parts = []
            for step, per_agent in enumerate(rec.candidate_steps):
                t = trace.T + 1 + step
                for i, cands in enumerate(per_agent, 1):
                    joined = "|".join(str(v) for v in sorted(cands))
                    parts.append(f"set,{k},{t},{i},,,{joined}\r\n")
            parts.append(f"chosen,{k},{trace.t_prime},,{rec.chosen},,\r\n")
            fh.write("".join(parts))


def _parse_meta(line):
    """The `#` metadata line as (int fields, float fields, selection)."""
    meta = dict(item.partition("=")[::2] for item in line.lstrip("# ").split(","))
    try:
        ints = {key: int(meta[key]) for key in
                ("n", "K", "T", "t_prime", "diameter", "include_self", "seed")}
        floats = {key: float(meta[key]) for key in
                  ("psi", "mu", "value_cap", "threshold_slack", "value")}
        selected = tuple(int(v) for v in meta["selected"].split("|") if v)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"malformed trace metadata line: {exc!r}") from None
    return ints, floats, selected


READ_BLOCK = 1 << 16  # bytes of lines per read in read_trace_csv
X_KEYS = ("round", "t", "agent", "element")
X_ROW = np.dtype([(key, np.int64) for key in X_KEYS] + [("x", np.float64)])


def _key_steps(rows):
    """For each pair of consecutive x rows: does the key rise, is it equal?"""
    rises = np.zeros(len(rows) - 1, dtype=bool)
    ties = np.ones(len(rows) - 1, dtype=bool)
    for key in X_KEYS:
        step = np.diff(rows[key])
        rises |= ties & (step > 0)
        ties &= step == 0
    return rises, ties


def _ordered(rows):
    """x rows sorted by key, keeping the last row of equal keys.

    That is what v1's dict overwrite kept. Rows already in strict order,
    as the writer emits them, are returned without a copy.
    """
    if len(rows) < 2 or _key_steps(rows)[0].all():
        return rows
    rows = rows[np.lexsort([rows[key] for key in reversed(X_KEYS)])]
    return rows[np.append(~_key_steps(rows)[1], True)]


def _round_grid(k, rows, T, n):
    """`remaining` and `x_steps` of round k from its sorted x rows.

    The rows must form the full (t, agent, element) grid, every agent
    at every step carrying the elements of agent 1 at t=0.
    """
    ts, agents, elements = rows["t"], rows["agent"], rows["element"]
    if not np.array_equal(np.unique(ts), np.arange(T + 1)):
        raise ConfigError(f"round {k}: averaging steps are incomplete")
    remaining = elements[(ts == 0) & (agents == 1)]
    if not remaining.size:
        raise ConfigError(f"round {k}, t=0: missing agent 1 gain rows")
    grid_t, grid_agent, column = np.indices((T + 1, n, remaining.size)).reshape(3, -1)
    grid_agent += 1
    size = min(len(rows), column.size)
    wrong = np.zeros(size, dtype=bool)
    for have, want in ((ts, grid_t), (agents, grid_agent),
                       (elements, remaining[column])):
        wrong |= have[:size] != want[:size]
    if wrong.any() or len(rows) != column.size:
        # The first row off the grid lies in the earlier of the block
        # it sits in and the block the grid expects there.
        at = int(wrong.argmax()) if wrong.any() else size
        blocks = [(int(ts[at]), int(agents[at]))] if at < len(rows) else []
        if at < column.size:
            blocks.append((int(grid_t[at]), int(grid_agent[at])))
        t, i = min(blocks)
        if not 1 <= i <= n:
            raise ConfigError(f"round {k}, t={t}: gain rows for agent {i}, "
                              f"outside 1..{n}")
        raise ConfigError(f"round {k}, t={t}: missing agent {i} gain rows")
    x_steps = rows["x"].reshape(T + 1, n, remaining.size).copy()
    x_steps.flags.writeable = False
    return tuple(remaining.tolist()), x_steps


def read_trace_csv(path):
    """Rebuild a RunTrace from its CSV form.

    Rows may come in any order and with either line end; of two `x` or
    `set` rows with the same key the later one counts. The `x` rows
    stream into numpy's C parser; the few `set` and `chosen` rows go
    through `csv`. Deviations are recomputed from the x rows; since
    floats round-trip exactly, the rebuilt trace audits identically to
    the original.
    """
    side = []  # (line number, text) of every row that is not an x row
    start, chunk, line = 4, [], ""

    def x_lines(fh):
        """The x rows, read a block of lines at a time; others go to side."""
        nonlocal start, chunk, line
        while chunk := fh.readlines(READ_BLOCK):
            xs = [text for text in chunk if text.startswith("x,")]
            if len(xs) < len(chunk):
                side.extend((start + j, text) for j, text in enumerate(chunk)
                            if not text.startswith("x,"))
            for line in xs:
                yield line
            start += len(chunk)

    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != TRACE_MAGIC:
            raise ConfigError(f"not a trace file (header {magic!r})")
        ints, floats, declared = _parse_meta(fh.readline().rstrip("\n"))
        header = next(csv.reader([fh.readline()]), [])
        if header[:3] != ["record", "round", "t"]:
            raise ConfigError(f"unexpected trace columns {header}")
        lines = x_lines(fh)
        first = next(lines, None)  # loadtxt warns on no input
        rows = np.empty(0, dtype=X_ROW)
        if first is not None:
            try:
                rows = np.loadtxt(itertools.chain([first], lines), dtype=X_ROW,
                                  delimiter=",", comments=None,
                                  usecols=(1, 2, 3, 4, 5), ndmin=1)
            except ValueError as exc:
                # numpy pulls one line at a time, so the last line handed
                # over is the one it failed on.
                raise ConfigError(
                    f"trace line {start + chunk.index(line)}: cannot read x "
                    f"row {line.rstrip()!r} ({exc})") from None

    set_rows, chosen_rows = {}, {}
    for number, text in side:
        row = next(csv.reader([text]), [])
        try:
            record, rnd, t = row[0], int(row[1]), int(row[2])
            if record == "set":
                cands = frozenset(int(v) for v in row[6].split("|") if v)
                set_rows.setdefault(rnd, {}).setdefault(t, {})[int(row[3])] = cands
            elif record == "chosen":
                chosen_rows[rnd] = int(row[4])
        except (IndexError, ValueError) as exc:
            raise ConfigError(f"trace line {number}: cannot read row "
                              f"{text.rstrip()!r} ({exc})") from None
        if record not in ("set", "chosen"):
            raise ConfigError(f"unknown record kind {record!r} in trace "
                              f"(line {number})")

    rows = _ordered(rows)
    infinite = np.flatnonzero(~np.isfinite(rows["x"]))
    if infinite.size:
        bad = rows[infinite[0]]
        raise ConfigError(
            f"round {bad['round']}, t={bad['t']}: agent {bad['agent']} has a "
            f"non-finite gain {bad['x']} for element {bad['element']}")
    n, K, T, t_prime = ints["n"], ints["K"], ints["T"], ints["t_prime"]
    bounds = np.searchsorted(rows["round"], np.arange(K + 1))
    rounds = []
    selected = ()
    for k in range(K):
        if bounds[k] == bounds[k + 1] or k not in chosen_rows:
            raise ConfigError(f"trace is missing round {k}")
        remaining, x_steps = _round_grid(k, rows[bounds[k]:bounds[k + 1]], T, n)

        step_ts = sorted(set_rows.get(k, {}))
        if step_ts != list(range(T + 1, t_prime + 1)):
            raise ConfigError(f"round {k}: intersection steps are incomplete")
        candidate_steps = []
        for t in step_ts:
            by_agent = set_rows[k][t]
            missing = [i for i in range(1, n + 1) if i not in by_agent]
            if missing:
                raise ConfigError(
                    f"round {k}, t={t}: missing agent {missing[0]} candidate set")
            candidate_steps.append(tuple(by_agent[i] for i in range(1, n + 1)))
        chosen = chosen_rows[k]
        selected = selected + (chosen,)
        rounds.append(RoundRecord(k, remaining, x_steps, step_deviations(x_steps),
                                  tuple(candidate_steps), chosen, selected))

    if declared != selected:
        raise ConfigError(
            f"trace header announces selection {declared} but the rounds "
            f"build {selected}")
    return RunTrace(n, K, T, t_prime, ints["diameter"], floats["psi"],
                    floats["mu"], floats["value_cap"], bool(ints["include_self"]),
                    floats["threshold_slack"], ints["seed"], rounds, selected,
                    floats["value"])


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
        "parameters": {
            "n": trace.n, "K": trace.K, "T": trace.T,
            "t_prime": trace.t_prime, "diameter": trace.diameter,
            "include_self": trace.include_self,
            "threshold_slack": trace.threshold_slack,
            "seed": trace.seed,
        },
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
