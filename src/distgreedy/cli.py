"""Command-line experiment runner.

Subcommands: run, sweep, baseline, analyze, replay, validate-config.
Exit codes: 0 all enabled checks pass, 1 a check failed (margins are
printed), 2 configuration or dimension problems (the offending field is
named). Set DG_LOG=DEBUG|INFO|WARNING for verbosity.
"""

import argparse
import logging
import os
import sys

from .analysis import bounds_report, tradeoff_sweep
from .baseline import brute_force_optimum, centralized_greedy, perturbed_greedy
from .config import adversary_stream, build_run_config, load_experiment
from .errors import CapExceededError, ConfigError, ProtocolError
from .protocol import run as run_protocol
from .setfn import check_structure
from .traceio import (
    canonical_json,
    format_float,
    read_trace_csv,
    write_bounds_json,
    write_summary_json,
    write_sweep_csv,
    write_trace_csv,
)

logger = logging.getLogger("distgreedy")


def _setup_logging():
    level = os.environ.get("DG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _gammas_if_checkable(family):
    """Exact per-agent ratios, only when the family may be nonsubmodular
    and is small enough for the exhaustive oracle."""
    if family.kind != "pair_supermodular":
        return None
    if family.ground.size > 8:
        logger.info("skipping ratio bound: |V|=%d exceeds the exact-oracle cap",
                    family.ground.size)
        return None
    return [check_structure(f, cap=8).submodularity_ratio
            for f in family.functions]


def _print_report(report):
    for check in report.checks:
        state = "skip" if check.skipped else ("pass" if check.passed else "FAIL")
        margin = "" if check.margin is None else f" margin={check.margin:.6g}"
        detail = f" ({check.detail})" if check.detail else ""
        print(f"  [{state}] {check.name}{margin}{detail}")


def _full_report(trace, family):
    """The audit, plus the guarantee checks when the optimum is enumerable."""
    try:
        _, optimum = brute_force_optimum(family.average(), trace.K)
    except CapExceededError:
        optimum = None
        logger.info("instance too large for the exact optimum; "
                    "guarantee checks disabled")
    return bounds_report(trace, family, optimum=optimum,
                         gammas=_gammas_if_checkable(family))


def cmd_run(args):
    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    trace = run_protocol(run_config)
    report = _full_report(trace, run_config.family)

    write_trace_csv(trace, args.trace_out)
    write_summary_json(trace, args.summary_out)
    bounds_out = args.bounds_out or _default_bounds_path(args.summary_out)
    write_bounds_json(report, bounds_out)

    print(f"selected: {list(trace.selected)}  value: {trace.value:.6g}")
    _print_report(report)
    return 0 if report.passed else 1


def _default_bounds_path(summary_path):
    root, ext = os.path.splitext(summary_path)
    return f"{root}.bounds{ext or '.json'}"


def _parse_t_range(text):
    lo, sep, hi = text.partition(":")
    try:
        if sep:
            values = list(range(int(lo), int(hi) + 1))
        else:
            values = [int(v) for v in text.split(",")]
    except ValueError:
        raise ConfigError(f"cannot parse T range {text!r}; use A:B or a "
                          "comma-separated list", field="T")
    if not values or any(v < 1 for v in values):
        raise ConfigError(f"T range {text!r} must be positive", field="T")
    if any(b <= a for a, b in zip(values, values[1:])):
        raise ConfigError(f"T list {text!r} must be strictly ascending",
                          field="T")
    return values


def cmd_sweep(args):
    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    T_values = _parse_t_range(args.T)
    psi = "auto" if cfg.psi == "auto" else cfg.psi
    rows = tradeoff_sweep(run_config, T_values, psi=psi)
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep points to {args.out}")
    return 0


def cmd_baseline(args):
    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    avg = run_config.family.average()
    K = min(cfg.K, run_config.family.ground.size)

    if args.which == "greedy":
        result = centralized_greedy(avg, K)
        payload = {"selected": list(result.selected),
                   "values": list(result.values),
                   "gains": list(result.gains)}
    elif args.which == "optimum":
        best_set, best_val = brute_force_optimum(avg, K)
        payload = {"optimum_set": list(best_set), "optimum_value": best_val}
    else:
        taus = cfg.taus if cfg.taus is not None else [0.0] * K
        if len(taus) != K:
            raise ConfigError(f"taus has {len(taus)} entries but K={K}",
                              field="taus")
        result = perturbed_greedy(avg, K, taus, seed=adversary_stream(cfg))
        payload = {"selected": list(result.selected),
                   "values": list(result.values),
                   "gains": list(result.gains),
                   "best_gains": list(result.best_gains),
                   "taus": taus}
    text = canonical_json(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return 0


def _load_trace_for_config(trace_path, run_config):
    trace = read_trace_csv(trace_path)
    n = run_config.network.n
    if trace.n != n:
        raise ConfigError(f"trace has {trace.n} agents, config builds {n}")
    if trace.T != run_config.T:
        raise ConfigError(f"trace ran T={trace.T}, config says T={run_config.T}")
    if trace.t_prime != run_config.t_prime:
        raise ConfigError(
            f"trace phase length t_prime={trace.t_prime} does not match the "
            f"config graph ({run_config.t_prime})")
    expected_K = min(run_config.K, run_config.family.ground.size)
    if trace.K != expected_K:
        raise ConfigError(f"trace has {trace.K} rounds, config implies "
                          f"{expected_K}")
    try:
        value = run_config.family.average().value(trace.selected)
    except ValueError as exc:
        raise ConfigError(f"trace selection {trace.selected}: {exc}") from None
    if float(value).hex() != trace.value.hex():
        raise ConfigError(
            f"trace header value={format_float(trace.value)}, but the config's "
            f"average function gives {format_float(value)} for selection "
            f"{trace.selected}")
    return trace


def cmd_analyze(args):
    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    trace = _load_trace_for_config(args.trace, run_config)
    report = _full_report(trace, run_config.family)
    write_bounds_json(report, args.out)
    _print_report(report)
    return 0 if report.passed else 1


def cmd_replay(args):
    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    trace = _load_trace_for_config(args.trace, run_config)
    if trace.include_self != run_config.include_self_in_intersection:
        print("note: intersection rule mismatch: the trace was recorded with "
              f"include_self={trace.include_self}, the config requests "
              f"{run_config.include_self_in_intersection}")
    report = bounds_report(trace, run_config.family)
    _print_report(report)
    return 0 if report.passed else 1


def cmd_validate_config(args):
    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    print(f"config ok: scenario={cfg.scenario or '(unnamed)'} "
          f"n={run_config.network.n} |V|={run_config.family.ground.size} "
          f"K={cfg.K} T={cfg.T} psi={cfg.psi} mu={run_config.mu:.6g}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distgreedy",
        description="distributed greedy selection: run, audit and sweep")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run one experiment and audit it")
    p.add_argument("--config", required=True)
    p.add_argument("--trace-out", required=True)
    p.add_argument("--summary-out", required=True)
    p.add_argument("--bounds-out")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="sweep the number of averaging steps T")
    p.add_argument("--config", required=True)
    p.add_argument("--T", required=True, help="range A:B or comma list")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("baseline", help="centralized reference algorithms")
    p.add_argument("--config", required=True)
    p.add_argument("--which", required=True,
                   choices=["greedy", "optimum", "perturbed"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_baseline)

    p = sub.add_parser("analyze", help="audit a recorded trace")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("replay", help="re-audit a trace without re-simulating")
    p.add_argument("--trace", required=True)
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("validate-config", help="schema-check a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate_config)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        field = f" at {exc.field!r}" if getattr(exc, "field", None) else ""
        print(f"config error{field}: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"instance too large: {exc}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
