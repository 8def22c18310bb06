"""Synchronous-round simulation of the distributed greedy selection.

The agents build a solution of size K over K rounds. Within a round,
every agent starts from its own marginal gains for the remaining
elements, runs T steps of gossip averaging with the mixing matrix, keeps
the elements whose averaged gain is within psi of its own maximum,
intersects candidate sets with its neighbors for diameter-many steps,
and finally appends the surviving element with the smallest global
index. Because the label order is global and the intersection reaches a
network-wide fixed point, all agents append the same element, so the
selected set stays identical everywhere without any further
coordination.

A round's state is two arrays with one row per agent and one column per
remaining element: the gain estimates X and the candidate mask C. Each
time step is a global barrier, so a step is one matrix operation on the
whole network: averaging is X <- W X, and intersection keeps column j
for agent i unless some agent in i's closed neighbourhood lacks it.

The closed-form consensus error after T averaging steps is

    epsilon(T) = sqrt(n) * mu^T * value_cap,

and the smallest threshold width that provably keeps every agent's
argmax alive through thresholding and intersection is 4 * epsilon(T).
A run that uses a feasible psi earns the additive guarantee

    achieved >= (1 - 1/e) * optimum - additive_gap,

where RunTrace.additive_gap is K * (psi + 2 * epsilon(T)), and 1 - 1/e
becomes 1 - exp(-gamma_min) when the locals are only approximately
submodular with ratio at least gamma_min > 0.
"""

import logging
import math
from itertools import compress

import numpy as np

from .errors import (ConfigError, DesyncError, InfeasiblePsiError,
                     MonotonicityError, ProtocolError)
from .graph import diameter

logger = logging.getLogger(__name__)


def epsilon(n, mu, T, value_cap):
    """Worst-case distance to the true average after T averaging steps."""
    if n < 1:
        raise ValueError("need at least one agent")
    if not 0.0 <= mu < 1.0:
        raise ValueError(f"contraction rate mu={mu} outside [0, 1); "
                         "averaging would not converge")
    if T < 1:
        raise ValueError("T must be >= 1")
    if value_cap < 0:
        raise ValueError("value cap must be nonnegative")
    return math.sqrt(n) * mu ** T * value_cap


def psi_min(n, mu, T, value_cap):
    """Smallest threshold width that keeps every agent's argmax alive."""
    return 4.0 * epsilon(n, mu, T, value_cap)


def _check_averaging(T, psi):
    """The checks on T and psi that RunConfig and trace_parameters share."""
    if T < 1:
        raise ConfigError("consensus steps T must be >= 1", field="T")
    if psi is not None and not 0 <= psi < math.inf:
        raise ConfigError(f"threshold width psi must be finite and >= 0, not {psi}",
                          field="psi")


class RunConfig:
    """Everything a run needs, with the derived quantities pinned.

    psi=None resolves to the smallest feasible threshold width
    4 * sqrt(n) * mu^T * value_cap at run time; on more than one agent
    that needs a contracting mixing matrix. A budget K above the
    ground-set size is clamped to it here, with one warning. The
    network is immutable, so its diameter and the intersection sources
    are computed once here. trace_parameters derives everything that a
    RunTrace records from these.
    """

    def __init__(self, network, mixing, family, K, T, psi=None,
                 include_self_in_intersection=True, use_singleton_cap=False,
                 threshold_slack=0.0, seed=0):
        if family.n != network.n:
            raise ConfigError(
                f"{family.n} local functions for {network.n} agents", field="functions")
        if mixing.n != network.n:
            raise ConfigError(
                f"{mixing.n}x{mixing.n} mixing matrix for {network.n} agents",
                field="mixing")
        if K < 1:
            raise ConfigError("cardinality budget K must be >= 1", field="K")
        _check_averaging(T, psi)
        if not 0 <= threshold_slack < math.inf:
            raise ConfigError(f"threshold_slack must be finite and >= 0, not "
                              f"{threshold_slack}", field="threshold_slack")
        if use_singleton_cap and family.kind == "pair_supermodular":
            raise ConfigError(
                "the singleton gain cap is only valid for diminishing-returns "
                "families", field="tight_value_cap")
        m = family.ground.size
        if K > m:
            logger.warning("budget K=%d exceeds the %d available elements; "
                           "clamping", K, m)
        self.network = network
        self.mixing = mixing
        self.family = family
        self.K = min(int(K), m)
        self.T = int(T)
        self.psi = None if psi is None else float(psi)
        self.include_self_in_intersection = bool(include_self_in_intersection)
        self.use_singleton_cap = bool(use_singleton_cap)
        self.threshold_slack = float(threshold_slack)
        self.seed = int(seed)
        if self.psi is None and not self.mu < 1.0:
            raise ConfigError(f"psi 'auto' needs a contracting mixing matrix, "
                              f"but mu={self.mu}", field="psi")
        self.diameter = diameter(network)
        self.sources = intersection_sources(network, include_self_in_intersection)
        self.trace_parameters(self.T, self.psi)  # bounds that overflow fail here

    @property
    def value_cap(self):
        fam = self.family
        return fam.max_singleton if self.use_singleton_cap else fam.max_total

    @property
    def mu(self):
        # single agent: averaging is the identity and the error bound is 0
        return 0.0 if self.network.n == 1 else self.mixing.mu

    def trace_parameters(self, T, psi):
        """The TRACE_PARAMETERS of a run with T averaging steps and width
        psi, by name; psi=None is the floor at that T. The intersection
        phase lasts exactly the diameter, so t_prime is derived. The
        bounds that a trace derives from them must be finite, or its
        files could not be written."""
        _check_averaging(T, psi)
        n, mu, cap = self.network.n, self.mu, self.value_cap
        parameters = {
            "n": n, "K": self.K, "T": T, "t_prime": T + 1 + self.diameter,
            "diameter": self.diameter,
            "psi": psi_min(n, mu, T, cap) if psi is None else float(psi),
            "mu": mu, "value_cap": cap,
            "include_self": self.include_self_in_intersection,
            "threshold_slack": self.threshold_slack, "seed": self.seed}
        bounds = RunTrace((), (), 0.0, **parameters)
        if bounds.contracting and not math.isfinite(
                max(bounds.psi_floor, bounds.additive_gap)):
            raise ConfigError(
                f"bounds overflow at T={T}, psi={parameters['psi']}: psi floor "
                f"4*epsilon(T) = {bounds.psi_floor}, additive gap "
                f"K*(psi + 2*epsilon(T)) = {bounds.additive_gap}", field="psi")
        return parameters


class RoundRecord:
    """Full state trajectory of one selection round."""

    __slots__ = ("index", "remaining", "x_steps", "deviations",
                 "candidate_masks", "chosen", "selected_after")

    def __init__(self, index, remaining, x_steps, deviations, candidate_masks,
                 chosen, selected_after):
        self.index = index
        self.remaining = remaining          # elements still available, ascending
        self.x_steps = x_steps              # (T+1, n, |remaining|) gain estimates
        self.deviations = deviations        # worst |estimate - initial mean| per step
        # read-only (diameter+1, n, |remaining|) bool: step s, agent i+1
        # keeps remaining[j]; step 0 is the threshold cut
        self.candidate_masks = candidate_masks
        self.chosen = chosen
        self.selected_after = selected_after

    @property
    def candidate_steps(self):
        """candidate_masks as frozensets of elements, per step, per agent.

        Built on every access; the masks are the record.
        """
        return tuple(tuple(_members(row, self.remaining) for row in C)
                     for C in self.candidate_masks)


def step_deviations(x_steps):
    """Worst |estimate - initial network mean| at each averaging step.

    One step at a time, in one (n, r) buffer; the maximum is exact, so
    this equals the whole-array formula bit for bit.
    """
    mean0 = x_steps[0].mean(axis=0)
    buf = np.empty_like(x_steps[0])
    deviations = np.array([np.abs(np.subtract(X, mean0, out=buf), out=buf).max()
                           for X in x_steps])
    deviations.flags.writeable = False
    return deviations


# The run parameters that a RunTrace records, with their types, in the
# order of the trace header.
TRACE_PARAMETERS = (
    ("n", int), ("K", int), ("T", int), ("t_prime", int), ("diameter", int),
    ("psi", float), ("mu", float), ("value_cap", float),
    ("include_self", bool), ("threshold_slack", float), ("seed", int),
)


class RunTrace:
    """Everything recorded during a run, enough to audit every guarantee.

    The run parameters come by keyword, one per TRACE_PARAMETERS name,
    as RunConfig.trace_parameters gives them. A trace may be recorded
    with a non-contracting mu >= 1 (an explicit psi on a periodic
    chain). Averaging then carries no error bound, so the bound
    properties read None and the audits that need them are skipped.
    """

    def __init__(self, rounds, selected, value, **parameters):
        if sorted(parameters) != sorted(name for name, _ in TRACE_PARAMETERS):
            raise TypeError(f"RunTrace parameters {sorted(parameters)}")
        vars(self).update(parameters)
        self.rounds = rounds
        self.selected = selected
        self.value = value

    @property
    def contracting(self):
        return self.mu < 1.0

    @property
    def epsilon_T(self):
        if not self.contracting:
            return None
        return epsilon(self.n, self.mu, self.T, self.value_cap)

    @property
    def psi_floor(self):
        if not self.contracting:
            return None
        return psi_min(self.n, self.mu, self.T, self.value_cap)

    @property
    def additive_gap(self):
        if not self.contracting:
            return None
        return self.K * (self.psi + 2.0 * self.epsilon_T)

    def __repr__(self):
        return (f"RunTrace(n={self.n}, K={self.K}, T={self.T}, "
                f"selected={self.selected}, value={self.value:.6g})")


def init_round(family, selected):
    """Start a round: each agent computes its own marginal gains.

    All agents enter with the identical selected set. Returns the
    remaining elements, ascending, and the (n, |remaining|) gain matrix
    whose row i is agent i+1's gains in that shared column order, from
    one batched oracle call per agent.
    """
    ground = family.ground
    base_mask = ground.mask(selected)
    remaining = tuple(v for v in ground.elements if not base_mask >> (v - 1) & 1)
    rows = np.array(remaining, dtype=np.intp)[:, None]
    X = np.empty((family.n, len(remaining)))
    for i, f in enumerate(family.functions):
        X[i] = f.extend_values(base_mask, rows) - f.value_mask(base_mask)
    negative = np.argwhere(X < 0)
    if negative.size:
        i, j = negative[0]
        raise MonotonicityError(
            f"agent {i + 1}: negative gain {float(X[i, j])} for element "
            f"{remaining[j]}; local function is not monotone")
    return remaining, X


def consensus_step(X, mixing):
    """One synchronous averaging step across all agents.

    Every agent replaces its row by the mixing-weighted combination of
    its neighbors' (and its own) previous rows; with a doubly stochastic
    matrix the column means are preserved.
    """
    return mixing.W @ X


def threshold_candidates(X, psi, slack=0.0):
    """Mask of the elements whose averaged gain is within psi of the
    agent's own maximum, one row per agent.

    Every row keeps its own argmax. `slack` widens the cut by a
    documented fudge (default off) so that randomized float-valued
    instances are not split by last-ulp ties.
    """
    return X >= X.max(axis=1, keepdims=True) - psi - slack


def intersection_sources(network, include_self=True):
    """(n, w) index whose row i lists the agents (0-based) that agent i+1
    intersects with.

    Rows shorter than the widest repeat their first entry, which leaves
    an intersection unchanged. With include_self the agent keeps its own
    set in the intersection, which is what makes the network-wide fixed
    point reachable in diameter-many steps; the neighbors-only variant
    is kept for comparison runs and generally desynchronizes on
    non-complete graphs.
    """
    adj = network.adjacency
    rows = [((i,) if include_self else ()) + adj[i]
            for i in range(1, network.n + 1)]
    width = max(map(len, rows))
    return np.array([[v - 1 for v in row + row[:1] * (width - len(row))]
                     for row in rows], dtype=np.intp).reshape(network.n, width)


def intersection_step(C, sources):
    """One synchronous candidate-set intersection: agent i keeps element j
    unless one of its sources lacks it."""
    return np.logical_and.reduce(C.take(sources, axis=0), axis=1)


def _members(row, remaining):
    return frozenset(compress(remaining, row.tolist()))


def select_and_append(C, remaining, selected):
    """Close a round: all agents must hold the same nonempty candidate set.

    The element with the smallest global index is appended everywhere;
    the shared labeling is what makes this a consensus pick without any
    extra messages.
    """
    differ = np.flatnonzero((C != C[0]).any(axis=1))
    if differ.size:
        i = int(differ[0])
        raise DesyncError(
            f"candidate sets differ at selection time: agent 1 holds "
            f"{sorted(_members(C[0], remaining))}, agent {i + 1} holds "
            f"{sorted(_members(C[i], remaining))}")
    kept = np.flatnonzero(C[0])
    if not kept.size:
        raise InfeasiblePsiError(
            "candidate sets intersected to nothing; the threshold width psi "
            "is below the feasible floor for this mixing rate and T")
    chosen = remaining[kept[0]]
    return chosen, selected + (chosen,)


def finish_round(X_T, psi, slack, sources, d, remaining, selected):
    """The tail of a round after averaging: threshold at psi, run d
    intersection steps, then select. Returns the candidate mask of every
    step, the chosen element and the extended selection."""
    masks = [threshold_candidates(X_T, psi, slack)]
    for _ in range(d):
        masks.append(intersection_step(masks[-1], sources))
    chosen, selected = select_and_append(masks[-1], remaining, selected)
    return masks, chosen, selected


def run(config):
    """Execute all K rounds and record the full trajectory."""
    mixing = config.mixing
    family = config.family
    parameters = config.trace_parameters(config.T, config.psi)
    T, psi = config.T, parameters["psi"]
    slack = config.threshold_slack
    d = config.diameter

    selected = ()
    rounds = []
    for k in range(config.K):
        remaining, X = init_round(family, selected)
        x_steps = np.empty((T + 1,) + X.shape)
        x_steps[0] = X
        for t in range(T):
            x_steps[t + 1] = consensus_step(x_steps[t], mixing)
        x_steps.flags.writeable = False

        masks, chosen, selected = finish_round(
            x_steps[T], psi, slack, config.sources, d, remaining, selected)
        masks = np.stack(masks)
        masks.flags.writeable = False
        rounds.append(RoundRecord(k, remaining, x_steps, step_deviations(x_steps),
                                  masks, chosen, selected))

    value = family.average().value(selected)
    return RunTrace(rounds, selected, value, **parameters)


def sweep(config, T_values, psi=None):
    """Run the protocol once for each T in T_values, strictly ascending,
    computing the rounds that the runs share only once.

    Runs for different T share each round until their picks differ. So
    the walk visits each distinct selection prefix once, with the T
    values that reach it: one init_round, averaging up to the largest of
    those T, and finish_round at each of them; then the T values split
    by the element they chose. The averaging sequence of each T is a
    prefix of the longest one, so every number equals run's bit for bit.

    psi=None gives each T its own floor psi_min(n, mu, T, value_cap),
    otherwise every T uses the fixed psi; config.T and config.psi are
    not used. Returns one RunTrace per T, with no round records. Where
    some run fails, raises what run raises for the smallest such T. A
    T list out of order raises ConfigError at T, before any run.
    """
    T_values = list(T_values)
    if any(b <= a for a, b in zip(T_values, T_values[1:])):
        raise ConfigError(f"T values {T_values} must be strictly ascending",
                          field="T")
    if not T_values:
        return []
    family, mixing = config.family, config.mixing
    runs = [config.trace_parameters(T, psi) for T in T_values]
    slack = config.threshold_slack
    d = config.diameter

    finals, failures = {}, {}  # index into T_values -> selection / exception
    stack = [((), list(range(len(T_values))))]
    while stack:
        selected, group = stack.pop()
        if len(selected) == config.K:
            finals.update(dict.fromkeys(group, selected))
            continue
        try:
            remaining, X = init_round(family, selected)
        except MonotonicityError as exc:  # raised below for the smallest T
            failures.update(dict.fromkeys(group, exc))
            continue
        branches = {}
        t = 0
        for j in group:
            while t < T_values[j]:
                X = consensus_step(X, mixing)
                t += 1
            try:
                _, chosen, _ = finish_round(X, runs[j]["psi"], slack, config.sources,
                                            d, remaining, selected)
            except ProtocolError as exc:
                failures[j] = exc
                continue
            branches.setdefault(chosen, []).append(j)
        stack.extend((selected + (chosen,), group)
                     for chosen, group in branches.items())
    if failures:
        raise failures[min(failures)]

    avg = family.average()
    return [RunTrace((), finals[j], avg.value(finals[j]), **parameters)
            for j, parameters in enumerate(runs)]
