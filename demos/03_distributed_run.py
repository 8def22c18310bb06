"""One full distributed selection, round by round.

Five agents on a ring, each holding its own coverage function, pick
three elements that are good for the network average. Watch the
deviation from the true mean shrink during the averaging phase, the
candidate sets collapse during the intersection phase, and the final
set land on the centralized greedy answer.
"""

import numpy as np

from distgreedy import (
    RunConfig,
    brute_force_optimum,
    centralized_greedy,
    generate,
    local_family,
    metropolis_weights,
    run,
)

n, K, T = 5, 3, 6
G = generate("cycle", n)
family = local_family(n, "coverage", params={"size": 7, "universe": 9}, seed=4)
config = RunConfig(G, metropolis_weights(G), family, K=K, T=T)

print(f"{n} agents on a ring, |V|={family.ground.size}, budget K={K}, "
      f"T={T} averaging steps per round")
psi = config.trace_parameters(T, None)["psi"]
print(f"threshold width resolved to psi={psi:.4f} "
      f"(mu={config.mu:.4f}, cap={config.value_cap})\n")

trace = run(config)
for rec in trace.rounds:
    devs = " ".join(f"{d:.3f}" for d in rec.deviations)
    sizes = [len(step[0]) for step in rec.candidate_steps]
    print(f"round {rec.index}: deviation per step [{devs}]")
    print(f"         agent-1 candidate set size per intersection step {sizes}"
          f" -> picked element {rec.chosen}")

avg = family.average()
greedy = centralized_greedy(avg, K)
best_set, best_val = brute_force_optimum(avg, K)
print(f"\ndistributed : {list(trace.selected)}  value {trace.value:.4f}")
print(f"centralized : {list(greedy.selected)}  value {greedy.value:.4f}")
print(f"optimum     : {list(best_set)}  value {best_val:.4f}")
