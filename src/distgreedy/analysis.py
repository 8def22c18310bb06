"""Post-hoc audits of recorded runs and tradeoff sweeps.

audit_trace and bounds_report return one report type, AuditReport: the
trace, its checks in order, and the optimum that the guarantee checks
used. Each CheckResult carries its own numbers, and the bounds file
reads them and the trace directly. The closed-form bounds (epsilon(T),
the psi floor and the additive gap) come from protocol.bounds, held by
each RunTrace; only the per-step envelope calls epsilon(t). No audit
re-simulates, but round_gain evaluates the family's average function and
candidate_agreement rederives each round's remaining elements.
"""

import math

import numpy as np

from .baseline import brute_force_optimum, max_marginal
from .errors import CapExceededError
from .protocol import epsilon, sweep

AUDIT_SLACK = 1e-9
CONSERVATION_TOL = 1e-12


class CheckResult:
    """One named check. A guarantee check also carries its right side rhs
    (vacuous when at or below zero) and, for ratio_bound, gamma_min."""

    def __init__(self, name, passed, margin=None, detail="", skipped=False,
                 rhs=None, gamma_min=None):
        self.name = name
        self.passed = passed
        self.margin = margin
        self.detail = detail
        self.skipped = skipped
        self.rhs = rhs
        self.gamma_min = gamma_min

    @property
    def vacuous(self):
        return None if self.rhs is None else self.rhs <= 0.0

    def __repr__(self):
        state = "skipped" if self.skipped else ("pass" if self.passed else "FAIL")
        margin = "" if self.margin is None else f", margin={self.margin:.3g}"
        return f"CheckResult({self.name}: {state}{margin})"


_NOT_RUN = CheckResult("", True, skipped=True)  # a guarantee check left out


class AuditReport:
    """A trace, its checks in order, and the optimum that the guarantee
    checks used (None when they were left out)."""

    def __init__(self, trace, checks, optimum=None):
        self.trace = trace
        self.checks = list(checks)
        self.optimum = optimum

    @property
    def passed(self):
        return all(c.passed or c.skipped for c in self.checks)

    def __getitem__(self, name):
        return {c.name: c for c in self.checks}[name]

    def to_jsonable(self):
        checks = {c.name: c for c in self.checks}
        approx = checks.get("approx_bound", _NOT_RUN)
        ratio = checks.get("ratio_bound", _NOT_RUN)
        return {
            "achieved": self.trace.value,
            "epsilon_T": self.trace.epsilon_T,
            "psi": self.trace.psi,
            "psi_floor": self.trace.psi_floor,
            "additive_gap": self.trace.additive_gap,
            "optimum": self.optimum,
            "approx_rhs": approx.rhs,
            "vacuous": approx.vacuous,
            "gamma_min": ratio.gamma_min,
            "ratio_rhs": ratio.rhs,
            "checks": {
                name: {"passed": c.passed, "margin": c.margin,
                       "detail": c.detail, "skipped": c.skipped}
                for name, c in checks.items()
            },
        }


def _agreement_failure(rec, ground):
    """Why round rec's candidate sets broke their guarantee, or ''."""
    earlier = rec.selected_after[:-1]
    if rec.remaining != tuple(ground.remaining(ground.mask(earlier)).tolist()):
        return (f"round {rec.index}: remaining elements are not the ground "
                f"set minus the earlier picks {sorted(set(earlier))}")
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
    checks allow AUDIT_SLACK of round-off.
    """
    drift = max(float(rec.drifts.max()) for rec in trace.rounds)
    conservation = CheckResult("mean_conservation", drift <= CONSERVATION_TOL,
                               margin=CONSERVATION_TOL - drift,
                               detail=f"max drift {drift:.3g}")

    agreement_detail = next(filter(None, (_agreement_failure(rec, family.ground)
                                          for rec in trace.rounds)), "")
    candidate_agreement = CheckResult(
        "candidate_agreement", not agreement_detail, detail=agreement_detail)

    consensus_error, argmax_gap, round_gain = _epsilon_checks(trace, family)
    return AuditReport(trace, [conservation, consensus_error, argmax_gap,
                               candidate_agreement, round_gain])


def _slack_check(name, margin, detail):
    """Passes when the worst margin is at least -AUDIT_SLACK (round-off)."""
    margin = float(margin)
    return CheckResult(name, margin >= -AUDIT_SLACK, margin=margin, detail=detail)


def _epsilon_checks(trace, family):
    """The consensus_error, argmax_gap and round_gain checks, which
    measure the recorded run against epsilon(t)."""
    n, T, mu, cap, psi = trace.n, trace.T, trace.mu, trace.value_cap, trace.psi
    eps_T, floor = trace.epsilon_T, trace.psi_floor
    avg = family.average()

    envelope = np.array([epsilon(n, mu, t, cap) for t in range(1, T + 1)])
    dev_margin = min(float((envelope - rec.deviations[1:]).min())
                     for rec in trace.rounds)
    consensus_error = _slack_check("consensus_error", dev_margin,
                                   "deviation vs sqrt(n)*mu^t*cap envelope")

    worst = (X.max(axis=1) - X[:, X.argmax(axis=1)].min(axis=1)
             for X in (rec.x_final for rec in trace.rounds))
    gap_margin = min(float((floor - w).min()) for w in worst)
    argmax_gap = _slack_check("argmax_gap", gap_margin,
                              "cross-agent argmax undervaluation vs 4*epsilon(T)")

    gain_margin = np.inf
    before = ()
    for rec in trace.rounds:
        realized = avg.value(rec.selected_after) - avg.value(before)
        best = max_marginal(avg, before)
        gain_margin = min(gain_margin, realized - (best - psi - 2.0 * eps_T))
        before = rec.selected_after
    round_gain = _slack_check("round_gain", gain_margin,
                              "realized gain vs best gain - psi - 2*epsilon(T)")

    return consensus_error, argmax_gap, round_gain


def _guarantee_check(name, trace, factor, optimum_value, gamma_min=None):
    """achieved >= factor * optimum - additive_gap, up to AUDIT_SLACK."""
    rhs = factor * optimum_value - trace.additive_gap
    ratio = "" if gamma_min is None else f"gamma_min={gamma_min:.6g}, "
    return CheckResult(name, trace.value >= rhs - AUDIT_SLACK,
                       margin=trace.value - rhs, detail=f"{ratio}rhs={rhs:.6g}",
                       rhs=rhs, gamma_min=gamma_min)


def check_approx_bound(trace, optimum_value):
    """The headline additive guarantee against the exact optimum. Its
    detail marks it vacuous when the additive gap drops the right-hand
    side to zero or below, where the inequality holds trivially."""
    result = _guarantee_check("approx_bound", trace, 1.0 - 1.0 / math.e,
                              optimum_value)
    if result.vacuous:
        result.detail += " (vacuous)"
    return result


def check_ratio_bound(trace, optimum_value, gammas):
    """Additive guarantee under approximate submodularity.

    `gammas` are the exact diminishing-returns ratios of the local
    functions; the guarantee uses their minimum and requires it to be
    positive, otherwise the check is skipped with a reason.
    """
    gamma_min = min(gammas, default=None)
    if gamma_min is None or gamma_min <= 0.0:
        return CheckResult("ratio_bound", True, skipped=True, detail=(
            "no ratios supplied" if gamma_min is None
            else f"minimum ratio {gamma_min} is not positive"))
    return _guarantee_check("ratio_bound", trace, 1.0 - math.exp(-gamma_min),
                            optimum_value, gamma_min)


def exact_optimum(family, K):
    """The optimum value of the family's average function over the
    K-subsets, or None for an instance past the enumeration cap."""
    try:
        return brute_force_optimum(family.average(), K)[1]
    except CapExceededError:
        return None


def bounds_report(trace, family, optimum=None, gammas=None):
    """The audit plus the guarantee checks, as one AuditReport.

    optimum may be the exact optimal value, or None to leave the
    guarantee checks out (for instances past the enumeration cap).
    With a ratio below 1 among `gammas` the (1 - 1/e) factor is not
    guaranteed, so an approx_bound that fails is skipped, margin kept.
    """
    checks = audit_trace(trace, family).checks
    if optimum is not None:
        approx = check_approx_bound(trace, optimum)
        gamma_min = min(gammas or [1.0])
        if not approx.passed and gamma_min < 1.0:
            approx.skipped = True
            approx.detail = (f"gamma_min={gamma_min:.6g} < 1: no (1 - 1/e) "
                             f"guarantee, {approx.detail}")
        checks.append(approx)
        if gammas is not None:
            checks.append(check_ratio_bound(trace, optimum, gammas))
    return AuditReport(trace, checks, optimum)


class SweepRow:
    """A sweep point: its trace's bounds and its approx_bound check, if any."""

    def __init__(self, trace, approx):
        approx = approx or _NOT_RUN
        self.T = trace.T
        self.psi = trace.psi
        self.epsilon = trace.epsilon_T
        self.additive_gap = trace.additive_gap
        self.achieved = trace.value
        self.rhs = approx.rhs
        self.vacuous = approx.vacuous


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
    return [SweepRow(trace, None if optimum is None
                     else check_approx_bound(trace, optimum))
            for trace in traces]
