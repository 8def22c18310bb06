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


def write_trace_csv(trace, path):
    """One CSV with three record kinds.

    `x` rows carry round,t,agent,element,x_value for the averaging
    phase; `set` rows carry round,t,agent,candidate_set (pipe-joined
    ascending indices) for the intersection phase; a `chosen` row closes
    each round. Run metadata rides in `#` header lines.
    """
    with open(path, "w", newline="") as fh:
        fh.write(TRACE_MAGIC + "\n")
        fh.write(_meta_line(trace) + "\n")
        writer = csv.writer(fh)
        writer.writerow(["record", "round", "t", "agent", "element",
                         "x_value", "candidate_set"])
        for rec in trace.rounds:
            for t in range(trace.T + 1):
                for i in range(trace.n):
                    for j, v in enumerate(rec.remaining):
                        writer.writerow([
                            "x", rec.index, t, i + 1, v,
                            format_float(float(rec.x_steps[t, i, j])), ""])
            for step, per_agent in enumerate(rec.candidate_steps):
                t = trace.T + 1 + step
                for i, cands in enumerate(per_agent):
                    joined = "|".join(str(v) for v in sorted(cands))
                    writer.writerow(["set", rec.index, t, i + 1, "", "", joined])
            writer.writerow(["chosen", rec.index, trace.t_prime, "",
                             rec.chosen, "", ""])


def _parse_meta(line):
    meta = {}
    for item in line.lstrip("# ").split(","):
        key, _, value = item.partition("=")
        meta[key] = value
    return meta


def read_trace_csv(path):
    """Rebuild a RunTrace from its CSV form.

    Deviations are recomputed from the x rows; since floats round-trip
    exactly, the rebuilt trace audits identically to the original.
    """
    with open(path, newline="") as fh:
        magic = fh.readline().rstrip("\n")
        if magic != TRACE_MAGIC:
            raise ConfigError(f"not a trace file (header {magic!r})")
        meta = _parse_meta(fh.readline().rstrip("\n"))
        reader = csv.reader(fh)
        header = next(reader)
        if header[:3] != ["record", "round", "t"]:
            raise ConfigError(f"unexpected trace columns {header}")
        x_rows, set_rows, chosen_rows = {}, {}, {}
        for row in reader:
            record, rnd, t = row[0], int(row[1]), int(row[2])
            if record == "x":
                x_rows.setdefault(rnd, {}).setdefault(t, {}).setdefault(
                    int(row[3]), {})[int(row[4])] = float(row[5])
            elif record == "set":
                cands = frozenset(int(v) for v in row[6].split("|") if v)
                set_rows.setdefault(rnd, {}).setdefault(t, {})[int(row[3])] = cands
            elif record == "chosen":
                chosen_rows[rnd] = int(row[4])
            else:
                raise ConfigError(f"unknown record kind {record!r} in trace")

    n = int(meta["n"])
    K = int(meta["K"])
    T = int(meta["T"])
    t_prime = int(meta["t_prime"])
    rounds = []
    selected = ()
    for k in range(K):
        if k not in x_rows or k not in chosen_rows:
            raise ConfigError(f"trace is missing round {k}")
        by_t = x_rows[k]
        if sorted(by_t) != list(range(T + 1)):
            raise ConfigError(f"round {k}: averaging steps are incomplete")
        remaining = tuple(sorted(by_t[0][1]))
        x_steps = np.empty((T + 1, n, len(remaining)))
        for t in range(T + 1):
            for i in range(1, n + 1):
                agent_vals = by_t[t].get(i)
                if agent_vals is None or sorted(agent_vals) != list(remaining):
                    raise ConfigError(
                        f"round {k}, t={t}: missing agent {i} gain rows")
                for j, v in enumerate(remaining):
                    x_steps[t, i - 1, j] = agent_vals[v]
        x_steps.flags.writeable = False

        step_ts = sorted(set_rows.get(k, {}))
        if step_ts != list(range(T + 1, t_prime + 1)):
            raise ConfigError(f"round {k}: intersection steps are incomplete")
        candidate_steps = tuple(
            tuple(set_rows[k][t][i] for i in range(1, n + 1)) for t in step_ts)
        chosen = chosen_rows[k]
        selected = selected + (chosen,)
        rounds.append(RoundRecord(k, remaining, x_steps, step_deviations(x_steps),
                                  candidate_steps, chosen, selected))

    declared = tuple(int(v) for v in meta["selected"].split("|") if v)
    if declared != selected:
        raise ConfigError(
            f"trace header announces selection {declared} but the rounds "
            f"build {selected}")
    return RunTrace(n, K, T, t_prime, int(meta["diameter"]),
                    float(meta["psi"]), float(meta["mu"]),
                    float(meta["value_cap"]), bool(int(meta["include_self"])),
                    float(meta["threshold_slack"]), int(meta["seed"]),
                    rounds, selected, float(meta["value"]))


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
