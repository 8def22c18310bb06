"""Trace, summary and report serialization.

Floats are rendered with 17 significant digits everywhere, which
round-trips IEEE doubles exactly: a replayed trace reproduces the
original audit bit for bit, and identical runs produce byte-identical
files.
"""

import csv
import json
import math
import re
from itertools import compress

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
X_ROW = np.dtype([(key, np.int64) for key in ("round", "t", "agent", "element")]
                 + [("x", np.float64)])


def _x_rows(lines):
    """x lines parsed as X_ROW records."""
    return np.loadtxt(lines, dtype=X_ROW, delimiter=",", comments=None,
                      usecols=(1, 2, 3, 4, 5), ndmin=1)


def _unreadable(lines):
    """The first of `lines` that does not read as an x row, and why."""
    for line in lines:
        try:
            _x_rows([line])
        except ValueError as exc:
            return line, exc


class _XKeys:
    """x-row keys packed into one int64 each, in (round, t, agent,
    element) order: the block number (round*(T+1) + t)*n + agent-1
    above `bits` low bits that hold the element."""

    def __init__(self, K, T, n):
        blocks = K * (T + 1) * n
        if min(K, T + 1, n) < 1 or blocks.bit_length() > 40:
            raise ConfigError(f"trace header sizes K={K}, T={T}, n={n} out "
                              "of range")
        self.K, self.T, self.n = K, T, n
        self.bits = 63 - blocks.bit_length()

    def block(self, rnd, t=0, agent=1):
        """The smallest key of a (round, t, agent) block."""
        return ((rnd * (self.T + 1) + t) * self.n + agent - 1) << self.bits

    def pack(self, rows):
        """Keys of parsed x rows, every field checked against its range."""
        rnd, t, agent, element = (rows[key] for key in X_ROW.names[:4])
        ok = ((0 <= rnd) & (rnd < self.K) & (0 <= t) & (t <= self.T)
              & (1 <= agent) & (agent <= self.n)
              & (1 <= element) & (element >> self.bits == 0))
        if not ok.all():
            self._out_of_range(*rows[ok.argmin()].tolist()[:4])
        return self.block(rnd, t, agent) | element

    def unpack(self, key):
        block, element = divmod(int(key), 1 << self.bits)
        block, agent = divmod(block, self.n)
        return (*divmod(block, self.T + 1), agent + 1, element)

    def _out_of_range(self, rnd, t, agent, element):
        if not 0 <= rnd < self.K:
            raise ConfigError(f"round {rnd}: gain rows outside rounds "
                              f"0..{self.K - 1}")
        if not 0 <= t <= self.T:
            raise ConfigError(f"round {rnd}: gain rows for t={t}, outside "
                              f"0..{self.T}")
        if not 1 <= agent <= self.n:
            raise ConfigError(f"round {rnd}, t={t}: gain rows for agent "
                              f"{agent}, outside 1..{self.n}")
        raise ConfigError(f"round {rnd}, t={t}: agent {agent} has a gain row "
                          f"for element {element}, outside 1..2**{self.bits}-1")


def _round_grid(k, keys, values, layout):
    """`remaining` and `x_steps` of round k from its sorted, distinct
    keys and their values; `x_steps` is a view of `values`.

    The keys must form the full (t, agent, element) grid, every agent
    at every step carrying the elements of agent 1 at t=0.
    """
    T, n = layout.T, layout.n
    r = int(np.searchsorted(keys, layout.block(k, 0, 2)))
    if not r:
        raise ConfigError(f"round {k}, t=0: missing agent 1 gain rows")
    remaining = keys[:r] & ((1 << layout.bits) - 1)
    grid = (layout.block(k, np.arange(T + 1)[:, None, None],
                         np.arange(1, n + 1)[:, None]) | remaining).ravel()
    size = min(keys.size, grid.size)
    wrong = keys[:size] != grid[:size]
    if not wrong.any() and keys.size == grid.size:
        return tuple(remaining.tolist()), values.reshape(T + 1, n, r)
    # The first row off the grid lies in the earlier of the block it
    # sits in and the block the grid expects there.
    at = int(wrong.argmax()) if wrong.any() else size
    blocks = [layout.unpack(keys[at])[1:3]] if at < keys.size else []
    if at < grid.size:
        blocks.append(layout.unpack(grid[at])[1:3])
    t, i = min(blocks)
    raise ConfigError(f"round {k}, t={t}: missing agent {i} gain rows")


def _round_masks(k, steps, remaining, T, t_prime, n):
    """candidate_masks of round k from its set rows: `steps` maps t to
    {agent: (line number, candidate_set cell)}."""
    if sorted(steps) != list(range(T + 1, t_prime + 1)):
        raise ConfigError(f"round {k}: intersection steps are incomplete")
    remaining = np.array(remaining)
    masks = np.zeros((t_prime - T, n, remaining.size), dtype=bool)
    for t in range(T + 1, t_prime + 1):
        by_agent = steps[t]
        for i in range(1, n + 1):
            if i not in by_agent:
                raise ConfigError(
                    f"round {k}, t={t}: missing agent {i} candidate set")
            number, cell = by_agent[i]
            try:
                elements = np.array([int(v) for v in cell.split("|") if v],
                                    dtype=np.int64)
            except (ValueError, OverflowError) as exc:
                raise ConfigError(f"trace line {number}: cannot read candidate "
                                  f"set {cell!r} ({exc})") from None
            columns = np.searchsorted(remaining, elements)
            foreign = remaining[np.minimum(columns, remaining.size - 1)] != elements
            if foreign.any():
                raise ConfigError(
                    f"trace line {number}: set row names element "
                    f"{elements[foreign.argmax()]}, not one of round {k}'s "
                    "remaining elements")
            masks[t - T - 1, i - 1, columns] = True
    masks.flags.writeable = False
    return masks


def _side_row(number, text, layout, sets, chosen):
    """File a `set` row's cell in sets[round][t][agent], or a `chosen`
    row's element in chosen[round]; the later row of a key wins."""
    row = next(csv.reader([text]), [])
    try:
        record, rnd, t = row[0], int(row[1]), int(row[2])
        if record == "set":
            agent = int(row[3])
            cell = row[6]
        elif record == "chosen":
            element = int(row[4])
    except (IndexError, ValueError) as exc:
        raise ConfigError(f"trace line {number}: cannot read row "
                          f"{text.rstrip()!r} ({exc})") from None
    if record not in ("set", "chosen"):
        raise ConfigError(f"unknown record kind {record!r} in trace "
                          f"(line {number})")
    if not 0 <= rnd < layout.K:
        raise ConfigError(f"trace line {number}: {record} row for round "
                          f"{rnd}, outside 0..{layout.K - 1}")
    if record == "chosen":
        chosen[rnd] = element
    elif not 1 <= agent <= layout.n:
        raise ConfigError(f"trace line {number}: set row for agent {agent}, "
                          f"outside 1..{layout.n}")
    else:
        sets.setdefault(rnd, {}).setdefault(t, {})[agent] = (number, cell)


def read_trace_csv(path):
    """Rebuild a RunTrace from its CSV form.

    Rows may come in any order and with either line end; of two `x` or
    `set` rows with the same key the later one counts. Each block of
    `x` lines goes through numpy's C parser and a range check; the
    reader then holds one packed int64 key and one float64 gain per x
    row, and every round's x_steps is a read-only view of the gains.
    The few `set` and `chosen` rows go through `csv`, and each set row
    becomes a row of the round's candidate_masks. Deviations are
    recomputed from the x rows; since floats round-trip exactly, the
    rebuilt trace audits identically to the original.
    """
    keys, values = np.empty(0, np.int64), np.empty(0)
    count = 0  # x rows read; keys and values grow in place ahead of it
    sets, chosen = {}, {}  # see _side_row
    with open(path) as fh:
        magic = fh.readline().rstrip("\n")
        if magic != TRACE_MAGIC:
            raise ConfigError(f"not a trace file (header {magic!r})")
        ints, floats, declared = _parse_meta(fh.readline().rstrip("\n"))
        header = next(csv.reader([fh.readline()]), [])
        if header[:3] != ["record", "round", "t"]:
            raise ConfigError(f"unexpected trace columns {header}")
        n, K, T, t_prime = ints["n"], ints["K"], ints["T"], ints["t_prime"]
        layout = _XKeys(K, T, n)
        start = 4
        while chunk := fh.readlines(READ_BLOCK):
            xs = [text for text in chunk if text.startswith("x,")]
            if len(xs) < len(chunk):
                for j, text in enumerate(chunk):
                    if not text.startswith("x,"):
                        _side_row(start + j, text, layout, sets, chosen)
            if xs:
                try:
                    rows = _x_rows(xs)
                except ValueError:
                    line, exc = _unreadable(xs)
                    raise ConfigError(
                        f"trace line {start + chunk.index(line)}: cannot read "
                        f"x row {line.rstrip()!r} ({exc})") from None
                end = count + rows.size
                if end > keys.size:
                    size = max(end, keys.size * 5 // 4)
                    for column in (keys, values):
                        column.resize(size, refcheck=False)
                keys[count:end] = layout.pack(rows)
                values[count:end] = rows["x"]
                count = end
            start += len(chunk)

    for column in (keys, values):
        column.resize(count, refcheck=False)
    if not (keys[1:] > keys[:-1]).all():
        # sort, keeping the last row of equal keys, as v1's dict did
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        values = values[order]
        del order
        last = np.append(keys[1:] != keys[:-1], True)
        keys = keys[last]
        values = values[last]
    values.flags.writeable = False
    infinite = np.flatnonzero(~np.isfinite(values))
    if infinite.size:
        rnd, t, agent, element = layout.unpack(keys[infinite[0]])
        raise ConfigError(
            f"round {rnd}, t={t}: agent {agent} has a non-finite gain "
            f"{values[infinite[0]]} for element {element}")
    bounds = np.searchsorted(keys, layout.block(np.arange(K + 1))).tolist()
    rounds = []
    selected = ()
    for k in range(K):
        lo, hi = bounds[k], bounds[k + 1]
        if lo == hi or k not in chosen:
            raise ConfigError(f"trace is missing round {k}")
        remaining, x_steps = _round_grid(k, keys[lo:hi], values[lo:hi], layout)
        masks = _round_masks(k, sets.pop(k, {}), remaining, T, t_prime, n)
        selected = selected + (chosen[k],)
        rounds.append(RoundRecord(k, remaining, x_steps, step_deviations(x_steps),
                                  masks, chosen[k], selected))

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
