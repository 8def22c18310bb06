"""Command-line experiment runner.

Subcommands: run, sweep, baseline, analyze, validate-config.
Exit codes: 0 all enabled checks pass, 1 a check failed (margins are
printed), 2 configuration or dimension problems (the offending field is
named), an instance too large for a cap or for memory, or an unwritable
output file (the path, or <stdout>, is named).
Set DG_LOG=DEBUG|INFO|WARNING for verbosity.

Each command imports the analysis, baseline and traceio functions it
calls, so that a process loads only what its command uses: validate-config
loads none of the three. The program leaves through entry(), which skips
the interpreter's teardown once every output is flushed and closed.
"""

import argparse
import logging
import os
import sys
from functools import partial

from .config import adversary_stream, build_run_config, load_experiment
from .errors import CapExceededError, ConfigError, ProtocolError
from .protocol import run as run_protocol

logger = logging.getLogger("distgreedy")


def _setup_logging():
    level = os.environ.get("DG_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(levelname)s %(name)s: %(message)s")


def _print_report(report):
    for check in report.checks:
        state = "skip" if check.skipped else ("pass" if check.passed else "FAIL")
        margin = "" if check.margin is None else f" margin={check.margin:.6g}"
        detail = f" ({check.detail})" if check.detail else ""
        print(f"  [{state}] {check.name}{margin}{detail}")


def _audited_trace(args, trace_of):
    """The trace that trace_of(run config of --config) gives, and its
    report: the audit, plus the guarantee checks when the optimum is
    enumerable. analysis is loaded before the instance is built, since
    compiling it on top of a built trace raises the process's peak RSS."""
    from .analysis import bounds_report, exact_optimum

    run_config = build_run_config(load_experiment(args.config))
    trace = trace_of(run_config)
    family = run_config.family
    optimum = exact_optimum(family, trace.K)
    if optimum is None:
        logger.info("instance too large for the exact optimum; "
                    "guarantee checks disabled")
    gammas = [f.submodularity_ratio for f in family.functions]
    return trace, bounds_report(trace, family, optimum=optimum,
                                gammas=None if None in gammas else gammas)


def cmd_run(args):
    from .traceio import write_bounds_json, write_summary_json, write_trace_csv

    trace, report = _audited_trace(args, run_protocol)

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
    if not values:
        raise ConfigError(f"T range {text!r} is empty", field="T")
    return values


def cmd_sweep(args):
    from .analysis import tradeoff_sweep
    from .traceio import write_sweep_csv

    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    T_values = _parse_t_range(args.T)
    rows = tradeoff_sweep(run_config, T_values, psi=cfg.psi)
    write_sweep_csv(rows, args.out)
    print(f"wrote {len(rows)} sweep points to {args.out}")
    return 0


def cmd_baseline(args):
    from .baseline import brute_force_optimum, centralized_greedy, perturbed_greedy
    from .traceio import canonical_json, write_json

    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    avg = run_config.family.average()
    K = run_config.K

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
    if args.out:
        write_json(payload, args.out)
        return 0
    print(canonical_json(payload))
    return 0


def cmd_analyze(args):
    from .traceio import read_trace_csv, write_bounds_json

    _, report = _audited_trace(args, partial(read_trace_csv, args.trace))
    write_bounds_json(report, args.out)
    _print_report(report)
    return 0 if report.passed else 1


def cmd_validate_config(args):
    cfg = load_experiment(args.config)
    run_config = build_run_config(cfg)
    print(f"config ok: scenario={cfg.scenario or '(unnamed)'} "
          f"n={run_config.network.n} |V|={run_config.family.ground.size} "
          f"K={run_config.K} T={cfg.T} psi={cfg.psi} mu={run_config.mu:.6g}")
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

    p = sub.add_parser("validate-config", help="schema-check a config file")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_validate_config)
    return parser


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when the shell closed it
            sys.stdout.flush()  # a stdout that cannot take the text fails here
        return code
    except ConfigError as exc:
        field = f" at {exc.field!r}" if getattr(exc, "field", None) else ""
        print(f"config error{field}: {exc}", file=sys.stderr)
        return 2
    except (CapExceededError, MemoryError) as exc:
        print(f"instance too large: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except ProtocolError as exc:
        print(f"protocol failure: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:  # reads raise ConfigError; each writer names its path
        path = "<stdout>" if exc.filename is None else exc.filename
        print(f"cannot write {path}: {exc.strerror}", file=sys.stderr)
        return 2


def entry():
    """The program: `python -m distgreedy.cli` and the `distgreedy` script.

    When main returns, stdout is flushed and every artifact closed, so the
    process leaves through os._exit, skipping the interpreter's teardown
    (its last garbage collections and module cleanup). An exception that
    escapes main, such as argparse's exit for --help or a usage error,
    leaves the normal way.
    """
    code = main()
    logging.shutdown()
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
