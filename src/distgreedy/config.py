"""Experiment configuration: JSON schema, validation, derived seeding.

ExperimentConfig is the one reader of the experiment JSON: it checks the
top-level keys and, against SPECS, every key of the graph and functions
specs, each one that its kind reads (graph.GRAPH_KEYS, setfn.KIND_KEYS),
so the builders take plain Python arguments. One master seed drives
graph generation, function generation and the perturbed-baseline
randomness through independent derived streams, so a config is
reproducible as a whole while each component stays isolated. Validation
failures carry the offending field path for the CLI's exit-2
diagnostics.
"""

import json
import math
from itertools import chain

import numpy as np

from .errors import ConfigError, GraphGenerationError
from .graph import GRAPH_KEYS, generate
from .mixing import mixing_from_config
from .protocol import RunConfig
from .setfn import KIND_KEYS, family_from_config

TOP_LEVEL_KEYS = {
    "scenario", "graph", "mixing", "functions", "K", "T", "psi", "seed",
    "threshold_slack", "taus",
}


class ExperimentConfig:
    """Parsed and type-checked experiment description."""

    def __init__(self, raw):
        if not isinstance(raw, dict):
            raise ConfigError("config root must be an object", field="")
        for key in raw:
            if key not in TOP_LEVEL_KEYS:
                raise ConfigError(f"unknown config key {key!r}", field=key)
        for key in ("graph", "mixing", "functions", "K", "T"):
            if key not in raw:
                raise ConfigError(f"missing required key {key!r}", field=key)

        self.scenario = raw.get("scenario", "")
        if not isinstance(self.scenario, str):
            raise ConfigError(f"scenario must be a string, not {self.scenario!r}",
                              field="scenario")
        self.graph = raw["graph"]
        self.mixing = raw["mixing"]
        self.functions = raw["functions"]
        for name, (required, known) in SPECS.items():
            _check_spec(name, raw[name], required, known)
        self.K = _require_int(raw["K"], "K")
        self.T = _require_int(raw["T"], "T")
        self.psi = raw.get("psi", "auto")
        if self.psi != "auto":
            if not isinstance(self.psi, (int, float)) or isinstance(self.psi, bool):
                raise ConfigError("psi must be 'auto' or a number", field="psi")
            self.psi = float(self.psi) + 0.0  # -0.0 is read as 0.0
        self.seed = _require_int(raw.get("seed", 0), "seed")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0", field="seed")
        self.threshold_slack = _require_number(raw.get("threshold_slack", 0.0),
                                               "threshold_slack")
        self.taus = raw.get("taus")
        if self.taus is not None:
            if (not isinstance(self.taus, list)
                    or any(not isinstance(t, (int, float)) or isinstance(t, bool)
                           or not 0 <= t < math.inf for t in self.taus)):
                raise ConfigError("taus must be a list of finite nonnegative numbers",
                                  field="taus")
            self.taus = [float(t) + 0.0 for t in self.taus]


def _require_int(value, field):
    if not isinstance(value, int) or isinstance(value, bool):
        raise ConfigError(f"{field} must be an integer, not {value!r}", field=field)
    return int(value)


def _require_number(value, field):
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise ConfigError(f"{field} must be a number, not {value!r}", field=field)
    return float(value) + 0.0  # -0.0 is read as 0.0


# The keys of a graph or functions spec that each kind reads, besides
# kind; a key that no kind lists, as a functions spec's seed, all read
_KIND_READS = {"graph": GRAPH_KEYS,
               "functions": {kind: reads for kind, (reads, _) in KIND_KEYS.items()}}
# Each spec key's check of its numbers, each list entry checked like a
# top-level number; the builders check kind
_NUMBERS = {"n": _require_int, "p": _require_number, "seed": _require_int,
            "universe": _require_int, "sets": _require_int, "weights": _require_number,
            "size": _require_int, "pair": _require_int, "g": _require_number}
# The graph and functions specs: their required keys, and their known
# keys with the checks of their numbers
SPECS = {name: (required, {key: _NUMBERS.get(key) for key in chain(
             ["kind"], *_KIND_READS[name].values(), shared)})
         for name, required, shared in (("graph", ("kind", "n"), ()),
                                        ("functions", ("kind",), ["seed"]))}


def _check_spec(name, spec, required, known):
    """The `name` spec is an object of known keys, the required ones
    among them, each read by its kind, and its numbers pass their checks."""
    if not isinstance(spec, dict):
        raise ConfigError(f"{name} spec must be an object", field=name)
    for key in spec:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in {name} spec",
                              field=f"{name}.{key}")
    if not spec.keys() >= set(required):  # one is named by its path
        raise ConfigError(f"{name} spec needs {' and '.join(map(repr, required))}",
                          field=f"{name}.{required[0]}" if len(required) == 1 else name)
    kind, kinds = spec["kind"], _KIND_READS[name]
    # an unknown kind reads every known key, and its builder names it
    reads = kinds.get(kind, known) if isinstance(kind, str) else known
    for key in spec:
        if key not in reads and any(key in keys for keys in kinds.values()):
            raise ConfigError(f"{kind} does not read {key!r}; it reads "
                              f"{', '.join(reads)}", field=f"{name}.{key}")
    for key, check in known.items():
        if check is not None and key in spec:
            _require_each(spec[key], check, f"{name}.{key}")


def _require_each(value, check, field):
    """check(entry, its path) for value, a number or nested lists of them."""
    if isinstance(value, list):
        for i, entry in enumerate(value):
            _require_each(entry, check, f"{field}[{i}]")
    else:
        check(value, field)


def load_experiment(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc.strerror}", field="")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not UTF-8: {exc}", field="")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}", field="")
    return ExperimentConfig(raw)


def derived_streams(master_seed):
    """Independent child streams for (graph, functions, adversary)."""
    return np.random.SeedSequence(master_seed).spawn(3)


def _from_spec(field, build, *args):
    """build(*args), with a value of the `field` spec that the builder
    cannot use raised as a ConfigError naming the spec, not a traceback.
    A builder's own ConfigError names a key of the spec, so its path gets
    the spec's prefix: `kind` becomes `graph.kind`."""
    try:
        return build(*args)
    except ConfigError as exc:
        exc.field = field if exc.field in (None, "", field) else f"{field}.{exc.field}"
        raise
    except (TypeError, ValueError, GraphGenerationError) as exc:
        raise ConfigError(f"cannot build the {field} spec: {exc}",
                          field=field) from None


def build_run_config(cfg):
    """Materialize graph, weights and functions; enforce cross-field rules."""
    graph_ss, fn_ss, _ = derived_streams(cfg.seed)
    graph = cfg.graph
    network = _from_spec("graph", generate, graph["kind"], graph["n"],
                         graph.get("seed", graph_ss), float(graph.get("p", 0.5)))
    mix = mixing_from_config(cfg.mixing, network)
    family = _from_spec("functions", family_from_config,
                        {"seed": fn_ss, **cfg.functions}, network.n)

    return RunConfig(
        network, mix, family, cfg.K, cfg.T,
        psi=None if cfg.psi == "auto" else cfg.psi,
        threshold_slack=cfg.threshold_slack,
        seed=cfg.seed)


def adversary_stream(cfg):
    """Seed stream reserved for perturbed-baseline randomness."""
    return derived_streams(cfg.seed)[2]
