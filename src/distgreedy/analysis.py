"""Post-hoc audits of recorded runs and tradeoff sweeps.

The closed-form bounds (epsilon(T), the psi floor and the additive gap)
come from protocol.bounds, held by each RunTrace; only the per-step
envelope calls epsilon(t). Every audit is computed from trace data
alone, never from re-simulation.
"""

import math

import numpy as np

from .baseline import brute_force_optimum, max_marginal
from .errors import CapExceededError
# epsilon and psi_min stay importable from here, next to the audits
from .protocol import epsilon, psi_min, sweep

AUDIT_SLACK = 1e-9
CONSERVATION_TOL = 1e-12


class CheckResult:
    def __init__(self, name, passed, margin=None, detail="", skipped=False):
        self.name = name
        self.passed = passed
        self.margin = margin
        self.detail = detail
        self.skipped = skipped

    def __repr__(self):
        state = "skipped" if self.skipped else ("pass" if self.passed else "FAIL")
        margin = "" if self.margin is None else f", margin={self.margin:.3g}"
        return f"CheckResult({self.name}: {state}{margin})"


class AuditReport:
    def __init__(self, checks):
        self.checks = {c.name: c for c in checks}

    @property
    def passed(self):
        return all(c.passed or c.skipped for c in self.checks.values())

    def __iter__(self):
        return iter(self.checks.values())

    def __getitem__(self, name):
        return self.checks[name]

    def __repr__(self):
        return f"AuditReport(passed={self.passed}, checks={list(self.checks)})"


def _agreement_failure(rec, ground):
    """Why round rec's candidate sets broke their guarantee, or ''."""
    earlier = set(rec.selected_after[:-1])
    if rec.remaining != tuple(v for v in ground.elements if v not in earlier):
        return (f"round {rec.index}: remaining elements are not the ground "
                f"set minus the earlier picks {sorted(earlier)}")
    first, final = rec.candidate_masks[0], rec.candidate_masks[-1]
    if (final != final[0]).any():
        return f"round {rec.index}: sets differ"
    if not np.array_equal(final[0], first.all(axis=0)):
        return f"round {rec.index}: not the network-wide intersection"
    if not final[0].any():
        return f"round {rec.index}: empty"
    if not final[0, rec.x_final.argmax(axis=1)].all():
        return f"round {rec.index}: drops an agent argmax"
    expected = rec.remaining[int(final[0].argmax())]
    if rec.chosen != expected:
        return (f"round {rec.index}: chose element {rec.chosen}, but the "
                f"lowest element of the agreed set is {expected}")
    return ""


def audit_trace(trace, family):
    """Evaluate every per-round protocol guarantee from recorded data.

    Checks, in order: the averaging steps conserve the network mean; the
    recorded deviations stay under the geometric envelope; at the end of
    averaging no agent undervalues another agent's argmax by more than
    4*epsilon(T); each round offers the ground set minus the earlier
    picks, and its intersection phase ends with all agents holding the
    same nonempty set, equal to the network-wide intersection,
    containing every agent's argmax, and whose lowest element is the one
    chosen; and each round's realized gain in the average objective is
    within psi + 2*epsilon(T) of the best available gain. The bound
    checks allow AUDIT_SLACK of round-off. With a non-contracting
    mu >= 1 there is no epsilon, and the three checks built on it are
    skipped.
    """
    drift = max(float(rec.drifts.max()) for rec in trace.rounds)
    conservation = CheckResult(
        "mean_conservation", drift <= CONSERVATION_TOL,
        margin=CONSERVATION_TOL - drift,
        detail=f"max drift {drift:.3g}")

    agreement_detail = next(filter(None, (_agreement_failure(rec, family.ground)
                                          for rec in trace.rounds)), "")
    candidate_agreement = CheckResult(
        "candidate_agreement", not agreement_detail, detail=agreement_detail)

    if trace.epsilon_T is not None:
        consensus_error, argmax_gap, round_gain = _epsilon_checks(trace, family)
    else:
        consensus_error, argmax_gap, round_gain = (
            _skip_non_contracting(name, trace)
            for name in ("consensus_error", "argmax_gap", "round_gain"))
    return AuditReport([conservation, consensus_error, argmax_gap,
                        candidate_agreement, round_gain])


def _skip_non_contracting(name, trace):
    return CheckResult(name, True, skipped=True,
                       detail=f"mu={trace.mu} >= 1: averaging does not contract, "
                              "so epsilon(T) is undefined")


def _epsilon_checks(trace, family):
    """The consensus_error, argmax_gap and round_gain checks, which
    measure the recorded run against epsilon(t)."""
    n, T, mu, cap, psi = trace.n, trace.T, trace.mu, trace.value_cap, trace.psi
    eps_T, floor = trace.epsilon_T, trace.psi_floor
    avg = family.average()

    envelope = np.array([epsilon(n, mu, t, cap) for t in range(1, T + 1)])
    dev_margin = min(float((envelope - rec.deviations[1:]).min())
                     for rec in trace.rounds)
    consensus_error = CheckResult(
        "consensus_error", dev_margin >= -AUDIT_SLACK, margin=float(dev_margin),
        detail="deviation vs sqrt(n)*mu^t*cap envelope")

    worst = (X.max(axis=1) - X[:, X.argmax(axis=1)].min(axis=1)
             for X in (rec.x_final for rec in trace.rounds))
    gap_margin = min(float((floor - w).min()) for w in worst)
    argmax_gap = CheckResult(
        "argmax_gap", gap_margin >= -AUDIT_SLACK, margin=float(gap_margin),
        detail="cross-agent argmax undervaluation vs 4*epsilon(T)")

    gain_margin = np.inf
    before = ()
    for rec in trace.rounds:
        realized = avg.value(rec.selected_after) - avg.value(before)
        best = max_marginal(avg, before)
        gain_margin = min(gain_margin, realized - (best - psi - 2.0 * eps_T))
        before = rec.selected_after
    round_gain = CheckResult(
        "round_gain", gain_margin >= -AUDIT_SLACK, margin=float(gain_margin),
        detail="realized gain vs best gain - psi - 2*epsilon(T)")

    return consensus_error, argmax_gap, round_gain


def _guarantee_check(name, trace, factor, optimum_value):
    """achieved >= factor * optimum - additive_gap, up to AUDIT_SLACK."""
    if trace.additive_gap is None:
        result = _skip_non_contracting(name, trace)
        result.rhs = None
        return result
    rhs = factor * optimum_value - trace.additive_gap
    result = CheckResult(name, trace.value >= rhs - AUDIT_SLACK,
                         margin=trace.value - rhs, detail=f"rhs={rhs:.6g}")
    result.rhs = rhs
    return result


def check_approx_bound(trace, optimum_value):
    """The headline additive guarantee against the exact optimum.

    When the additive gap exceeds the achievable value the right-hand
    side drops at or below zero and the inequality holds trivially; the
    result is then flagged vacuous so sweeps can tell the regimes apart.
    """
    result = _guarantee_check("approx_bound", trace, 1.0 - 1.0 / math.e,
                              optimum_value)
    result.vacuous = None if result.skipped else result.rhs <= 0.0
    if result.vacuous:
        result.detail += " (vacuous)"
    return result


def check_ratio_bound(trace, optimum_value, gammas):
    """Additive guarantee under approximate submodularity.

    `gammas` are the exact diminishing-returns ratios of the local
    functions; the guarantee uses their minimum and requires it to be
    positive, otherwise the check is skipped with a reason.
    """
    gammas = list(gammas)
    if not gammas:
        return CheckResult("ratio_bound", True, skipped=True,
                           detail="no ratios supplied")
    gamma_min = min(gammas)
    if gamma_min <= 0.0:
        return CheckResult("ratio_bound", True, skipped=True,
                           detail=f"minimum ratio {gamma_min} is not positive")
    result = _guarantee_check("ratio_bound", trace, 1.0 - math.exp(-gamma_min),
                              optimum_value)
    if result.skipped:
        return result
    result.detail = f"gamma_min={gamma_min:.6g}, {result.detail}"
    result.gamma_min = gamma_min
    return result


class BoundsReport:
    """Everything the bound machinery derives from one run."""

    def __init__(self, trace, optimum, approx_rhs, vacuous, gamma_min, ratio_rhs,
                 checks):
        self.achieved = trace.value
        self.epsilon_T = trace.epsilon_T
        self.psi = trace.psi
        self.psi_floor = trace.psi_floor
        self.additive_gap = trace.additive_gap
        self.optimum = optimum
        self.approx_rhs = approx_rhs
        self.vacuous = vacuous
        self.gamma_min = gamma_min
        self.ratio_rhs = ratio_rhs
        self.checks = checks

    @property
    def passed(self):
        return self.checks.passed

    def to_jsonable(self):
        return {
            "achieved": self.achieved,
            "epsilon_T": self.epsilon_T,
            "psi": self.psi,
            "psi_floor": self.psi_floor,
            "additive_gap": self.additive_gap,
            "optimum": self.optimum,
            "approx_rhs": self.approx_rhs,
            "vacuous": self.vacuous,
            "gamma_min": self.gamma_min,
            "ratio_rhs": self.ratio_rhs,
            "checks": {
                c.name: {"passed": c.passed, "margin": c.margin,
                         "detail": c.detail, "skipped": c.skipped}
                for c in self.checks
            },
        }


def exact_optimum(family, K):
    """The optimum value of the family's average function over the
    K-subsets, or None for an instance past the enumeration cap."""
    try:
        return brute_force_optimum(family.average(), K)[1]
    except CapExceededError:
        return None


def bounds_report(trace, family, optimum=None, gammas=None):
    """Assemble the audit plus the guarantee checks into one report.

    optimum may be the exact optimal value, or None to leave the
    guarantee checks out (for instances past the enumeration cap).
    """
    audit = audit_trace(trace, family)
    checks = list(audit)
    approx_rhs = vacuous = gamma_min = ratio_rhs = None
    if optimum is not None:
        approx = check_approx_bound(trace, optimum)
        checks.append(approx)
        approx_rhs, vacuous = approx.rhs, approx.vacuous
        if gammas is not None:
            ratio = check_ratio_bound(trace, optimum, gammas)
            checks.append(ratio)
            if not ratio.skipped:
                gamma_min, ratio_rhs = ratio.gamma_min, ratio.rhs
    return BoundsReport(trace, optimum, approx_rhs, vacuous, gamma_min,
                        ratio_rhs, AuditReport(checks))


class SweepRow:
    def __init__(self, trace, rhs, vacuous):
        self.T = trace.T
        self.psi = trace.psi
        self.epsilon = trace.epsilon_T
        self.additive_gap = trace.additive_gap
        self.achieved = trace.value
        self.rhs = rhs
        self.vacuous = vacuous


def tradeoff_sweep(config, T_values, psi="auto"):
    """Run the protocol across a range of averaging lengths T.

    With psi="auto" each point uses its own feasible floor, so the
    additive gap contracts by a factor mu per extra averaging step; with
    a fixed numeric psi the gap decays toward K * psi instead. The exact
    optimum (for the guarantee column) is enumerated once, since it does
    not depend on T.

    The points come from one protocol.sweep walk, not one run per T: the
    gains are evaluated once per distinct selection prefix, with at most
    max(T) averaging steps per prefix. The rows equal those of a run per
    T bit for bit.
    T_values must be strictly ascending, else protocol.sweep raises
    ConfigError, a ValueError (the CLI's `sweep --T` exits 2 on such a
    list).
    """
    traces = sweep(config, T_values, None if psi == "auto" else float(psi))
    optimum = exact_optimum(config.family, config.K)
    rows = []
    for trace in traces:
        if optimum is None:
            rhs = vac = None
        else:
            approx = check_approx_bound(trace, optimum)
            rhs, vac = approx.rhs, approx.vacuous
        rows.append(SweepRow(trace, rhs, vac))
    return rows
