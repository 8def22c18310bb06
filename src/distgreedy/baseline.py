"""Centralized baselines: exact greedy, slack-tolerant greedy, brute force.

The perturbed variant deliberately randomizes among all elements whose
gain is within tau of the best, rather than always taking the best;
always taking the maximum would make its additive guarantee trivially
tight and the associated tests vacuous. Every greedy step and
max_marginal read their gains from SetFunction.gains.
"""

import math
from itertools import chain, combinations

import numpy as np

from .errors import CapExceededError
from .setfn import BATCH_BYTES

OPTIMUM_CAP = 10 ** 6
# Size of the (C, K) element array of one brute-force chunk: an eighth of
# the evaluator budget, so that the chunk, its values and their
# evaluation stay within 2 * BATCH_BYTES.
CHUNK_BYTES = BATCH_BYTES // 8


class GreedyResult:
    """Selection order with the per-step values, gains and best gains."""

    def __init__(self, selected, values, gains, best_gains):
        self.selected = selected      # elements in pick order
        self.values = values          # f after each pick, nondecreasing
        self.gains = gains            # realized increment per pick
        self.best_gains = best_gains  # maximal available increment per pick

    @property
    def value(self):
        return self.values[-1] if self.values else 0.0

    def __repr__(self):
        return f"GreedyResult(selected={self.selected}, value={self.value:.6g})"


def _greedy(f, K, pick):
    """K greedy steps; at each, pick(gains) returns the index of the chosen
    element among f.gains, the gains of the unselected elements."""
    mask = 0
    selected, values, gains, best_gains = [], [], [], []
    for _ in range(K):
        step = f.gains(mask)
        j = pick(step)
        v = int(f.ground.remaining(mask)[j])
        selected.append(v)
        gains.append(float(step[j]))
        best_gains.append(float(step.max()))
        mask |= 1 << (v - 1)
        values.append(f.value_mask(mask))
    return GreedyResult(tuple(selected), tuple(values), tuple(gains),
                        tuple(best_gains))


def centralized_greedy(f, K):
    """Plain greedy: best marginal gain each step, ties to the lowest index."""
    # np.argmax takes the first maximum: ties go to the lowest index
    return _greedy(f, min(K, f.ground.size), np.argmax)


def perturbed_greedy(f, K, taus, seed=0):
    """Greedy with a per-step slack tau_j.

    At step j an element is drawn uniformly among those whose gain is at
    least the best gain minus tau_j, so the realized gain is certified
    to be within tau_j of optimal. tau_j >= 0 keeps the eligible set
    nonempty (the argmax always qualifies).
    """
    m = f.ground.size
    if K > m:
        raise ValueError(f"budget {K} exceeds the {m} available elements")
    if len(taus) != K:
        raise ValueError(f"need {K} slack values, got {len(taus)}")
    if any(t < 0 for t in taus):
        raise ValueError("slack values must be nonnegative")
    rng = np.random.default_rng(seed)
    slack = iter(taus)

    def draw(step):
        eligible = np.flatnonzero(step >= step.max() - next(slack))  # ascending
        return eligible[int(rng.integers(len(eligible)))]

    return _greedy(f, K, draw)


def brute_force_optimum(f, K):
    """Exact maximizer over all subsets of size at most K.

    For a monotone function the maximum is attained at full size, so
    only size-K subsets are enumerated, in lexicographic order; ties
    keep the first (lexicographically smallest) maximizer. The subsets
    are streamed, in chunks of consecutive combinations, straight into
    (C, K) arrays, one batched call per chunk.
    """
    m = f.ground.size
    K = min(K, m)
    count = math.comb(m, K)
    if count > OPTIMUM_CAP:
        raise CapExceededError(
            f"C({m},{K}) = {count} subsets exceeds the enumeration cap "
            f"{OPTIMUM_CAP}")
    if K == 0:
        return (), f.value_mask(0)
    elements = chain.from_iterable(combinations(range(1, m + 1), K))
    chunk = max(1, CHUNK_BYTES // (8 * K))
    best_set = None
    best_val = -np.inf
    for start in range(0, count, chunk):
        size = min(chunk, count - start)
        rows = np.fromiter(elements, dtype=np.intp, count=size * K).reshape(size, K)
        values = f.extend_values(0, rows)
        j = int(np.argmax(values))
        if values[j] > best_val:  # strict: an earlier chunk keeps a tie
            best_val = float(values[j])
            best_set = tuple(rows[j].tolist())
    return best_set, best_val


def max_marginal(f, selected):
    """Largest available gain given the current selection."""
    return float(f.gains(f.ground.mask(selected)).max())


def gap_recurrence_margins(result, optimum_value, gamma):
    """Margins of the per-step contraction of the gap to the optimum.

    For a greedy run whose step-j gain is within tau_j of the best
    available gain, the remaining gap D_j = optimum - value_so_far obeys

        D_{j+1} <= (1 - gamma/K) * D_j + tau_j,

    where gamma is the diminishing-returns ratio of the objective and
    tau_j = best_gains[j] - gains[j] is the realized slack. Returns the
    slack of that inequality at every step; all entries are nonnegative
    up to float noise when the guarantee holds.
    """
    K = len(result.selected)
    deltas = [optimum_value] + [optimum_value - v for v in result.values]
    margins = []
    for j in range(K):
        tau = result.best_gains[j] - result.gains[j]
        margins.append((1.0 - gamma / K) * deltas[j] + tau - deltas[j + 1])
    return margins
