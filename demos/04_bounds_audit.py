"""Audit a recorded run against every guarantee it is supposed to meet.

The audit needs nothing but the trace and the local functions: mean
conservation, the consensus-error envelope, the argmax gap, candidate
agreement, the per-round gain, and finally the additive approximation
bound against the brute-force optimum.
"""

from distgreedy import (
    RunConfig,
    brute_force_optimum,
    bounds_report,
    generate,
    local_family,
    metropolis_weights,
    run,
)

G = generate("grid", 6)
family = local_family(6, "facility_location",
                      params={"size": 6, "universe": 5}, seed=12)
config = RunConfig(G, metropolis_weights(G), family, K=3, T=5)
trace = run(config)

_, optimum = brute_force_optimum(family.average(), config.K)
report = bounds_report(trace, family, optimum=optimum)

approx = report["approx_bound"]
print(f"achieved {trace.value:.4f} vs optimum {report.optimum:.4f}")
print(f"psi={trace.psi:.4f} (floor {trace.psi_floor:.4f}), "
      f"epsilon(T)={trace.epsilon_T:.4f}, additive gap={trace.additive_gap:.4f}")
print(f"guarantee right side: {approx.rhs:.4f}"
      + (" [vacuous]" if approx.vacuous else ""))
print()
for check in report.checks:
    state = "skip" if check.skipped else ("pass" if check.passed else "FAIL")
    margin = "" if check.margin is None else f"  margin {check.margin:+.3e}"
    print(f"  [{state}] {check.name}{margin}")
print("\nall checks passed:", report.passed)
