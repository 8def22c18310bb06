"""Distributed greedy maximization of monotone set functions.

A simulator and analysis toolkit for a network of agents that jointly
maximize the average of their local set functions under a cardinality
budget: each selection round averages marginal gains by gossip,
thresholds near-maximal candidates, intersects candidate sets along the
graph, and appends the lowest-index survivor. Companion modules provide
centralized baselines, exact structure oracles, and audits of the
protocol's approximation guarantees.
"""

import importlib

from .setfn import (
    GroundSet,
    SetFunction,
    StructureReport,
    LocalFamily,
    marginal_gain,
    check_structure,
    build_test_function,
    local_family,
    average_function,
)
from .graph import Network, generate, diameter
from .mixing import (
    MixingMatrix,
    metropolis_weights,
    lazy_max_degree_weights,
    uniform_complete_weights,
    lazy,
    validate_mixing,
    spectral_mu,
    power_iteration_mu,
    contraction_bound_check,
)
from .protocol import RunConfig, RunTrace, epsilon, psi_min, run

# Exports of the baseline and analysis modules, imported on first access
# (PEP 562), so that a CLI command that calls neither does not load them
_LAZY = {
    "GreedyResult": "baseline", "centralized_greedy": "baseline",
    "perturbed_greedy": "baseline", "brute_force_optimum": "baseline",
    "audit_trace": "analysis", "bounds_report": "analysis",
    "tradeoff_sweep": "analysis",
}

__all__ = [
    "GroundSet", "SetFunction", "StructureReport", "LocalFamily",
    "marginal_gain", "check_structure", "build_test_function",
    "local_family", "average_function",
    "Network", "generate", "diameter",
    "MixingMatrix", "metropolis_weights", "lazy_max_degree_weights",
    "uniform_complete_weights", "lazy", "validate_mixing", "spectral_mu",
    "power_iteration_mu", "contraction_bound_check",
    "RunConfig", "RunTrace", "run",
    "GreedyResult", "centralized_greedy", "perturbed_greedy",
    "brute_force_optimum",
    "epsilon", "psi_min", "audit_trace", "bounds_report", "tradeoff_sweep",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
