"""Set functions over a shared ground set.

Everything downstream (greedy baselines, the distributed protocol, the
bound audits) evaluates functions built here. Elements are the integers
1..m and are labeled identically everywhere, so index j always refers to
the same element no matter which agent holds the function. Subsets are
passed around as iterables of indices and handled internally as bitmasks,
which one decoder, _members, reads: a mask holding an element outside
1..m, as a negative one does, is a ValueError wherever a mask is read.

The module also houses the exact structure checker: monotonicity,
diminishing returns and the diminishing-returns ratio (1 for every
submodular function, below 1 for every monotone one that is not), all
read off one table of single-element gains.

Each SetFunction has one evaluator, `batch(base, rows)`: f(base | row)
for every row of a (C, j) array of elements, one numpy pass per block of
rows for the corpus kinds. Every value goes through it, by way of
`extend_values`: the gains of a selection's remaining elements (`gains`,
which rounds, greedy baselines and the audit read), brute-force chunks,
single masks (`value_mask`, a scan of one empty row) and full tables
(`table`, one scan of padded rows). A custom function given as a scalar
map from one bitmask to a value enters through `SetFunction.from_scalar`.

The four coverage kinds (coverage, weighted_coverage, modular and
pair_supermodular) OR-fold their covers on 64-bit words. With integer
weights totalling below 2^53, counts and every generated weight among
them, a value is a sum of per-byte table entries, exact in any order;
any other weight is summed item by item, in ascending order from 0.0.

A LocalFamily holds one function per agent and the gain cap max f_i(V);
family_from_config builds one from a functions spec that config.py checked
against the keys that KIND_KEYS says each kind reads.
"""

import operator
from functools import lru_cache

import numpy as np

from .errors import CapExceededError, ConfigError

STRUCTURE_CAP = 10
# Working memory of one batched evaluator call, sized to stay in cache:
# extend_values splits a request into blocks of BATCH_BYTES // row_bytes
# rows, row_bytes being the function's working set per row.
BATCH_BYTES = 1 << 18
_EMPTY_ROW = np.empty((1, 0), dtype=np.intp)  # value_mask's one row

# Each kind's keys of a functions spec, besides kind and seed: those it
# reads, and those of them that are explicit data, any of which gives
# every agent the one function that the data defines.
KIND_KEYS = {
    "coverage": (("sets", "size", "universe"), ("sets",)),
    "weighted_coverage": (("sets", "size", "universe", "weights"), ("sets", "weights")),
    "facility_location": (("weights", "size", "universe"), ("weights",)),
    "pair_supermodular": (("size", "g", "pair"), ("pair",)),
    "modular": (("weights", "size"), ("weights",)),
}
FUNCTION_KINDS = tuple(KIND_KEYS)


def _members(mask, size):
    """(size,) bool: whether bitmask `mask` holds each element 1..size;
    the one decoder of a mask. A mask holding any other element, as a
    negative one does, is a ValueError."""
    mask = operator.index(mask)
    if mask < 0 or mask.bit_length() > size:
        held = "negative mask" if mask < 0 else f"element {mask.bit_length()} of mask"
        raise ValueError(f"{held} outside ground set 1..{size}")
    raw = mask.to_bytes((size + 7) // 8, "little")
    return np.unpackbits(np.frombuffer(raw, np.uint8), count=size,
                         bitorder="little").view(bool)


class GroundSet:
    """The shared element universe: indices 1..size, order is global."""

    def __init__(self, size):
        if size < 1:
            raise ConfigError("ground set needs at least one element", field="size")
        self.size = int(size)

    @lru_cache(maxsize=1)  # every agent's function asks once a round
    def remaining(self, mask):
        """The elements outside bitmask `mask`, ascending, as a read-only
        intp array; equal ground sets share the last one decoded."""
        free = np.flatnonzero(~_members(mask, self.size)) + 1
        free.flags.writeable = False
        return free

    def mask(self, subset):
        m = 0
        for v in map(operator.index, subset):
            if not 1 <= v <= self.size:
                raise ValueError(f"element {v} outside ground set 1..{self.size}")
            m |= 1 << (v - 1)
        return m

    def unmask(self, mask):
        return frozenset((np.flatnonzero(_members(mask, self.size)) + 1).tolist())

    def __eq__(self, other):
        return isinstance(other, GroundSet) and other.size == self.size

    def __hash__(self):
        return hash(("GroundSet", self.size))

    def __repr__(self):
        return f"GroundSet(size={self.size})"


class SetFunction:
    """Nonnegative set function over a ground set, evaluated in batches.

    `batch(base, rows)` maps a bitmask and a (C, j) int array of elements
    to the (C,) values f(base | row). `row_bytes` is its working memory
    per row in the dtype of its tables, every temporary and the value
    included but not the rows, which are the caller's; extend_values
    runs it on blocks of BATCH_BYTES // row_bytes rows, the only bound
    on its memory, and caches the two scans that repeat. It is the only
    evaluator: value_mask and table are scans. Evaluation is pure; the
    cache is a plain dict, whose item writes are atomic, so concurrent
    readers at worst recompute a value. It costs about 8 B per (agent,
    round, remaining element) of a run.
    """

    def __init__(self, ground, batch, label="", row_bytes=8):
        self.ground = ground
        self.label = label
        self._batch = batch
        self._ratio = None  # set by a kind whose ratio has a closed form
        # the audit rereads each init_round scan: mid row 0.010 s, not 0.23-0.31
        self._scans = {}
        self._rows_per_block = max(1, BATCH_BYTES // row_bytes)

    @property
    def submodularity_ratio(self):
        """check_structure's ratio where the kind has a closed form, else None."""
        return self._ratio

    @classmethod
    def from_scalar(cls, ground, raw, label=""):
        """A SetFunction whose batch evaluator calls `raw`, a map from one
        bitmask to a value, once per row."""
        def batch(base, rows):
            return np.fromiter((raw(base | ground.mask(row)) for row in rows.tolist()),
                               dtype=float, count=len(rows))
        return cls(ground, batch, label)

    def value_mask(self, mask):
        return float(self.extend_values(mask, _EMPTY_ROW)[0])

    def gains(self, mask):
        """f(mask | v) - f(mask) for each element v outside bitmask `mask`,
        ascending, read-only; the scan cache answers a repeated mask."""
        free = self.ground.remaining(mask)
        gains = self.extend_values(mask, free[:, None]) - self.value_mask(mask)
        gains.flags.writeable = False
        return gains

    def extend_values(self, base, rows):
        """f(base | row) for each row of a (C, j) int array of elements.

        `base` is a bitmask; a row may repeat elements or hold members of
        base. Returns a read-only (C,) float64 array. Two scans are cached
        per (base, width): value_mask's one empty row and gains' column of
        base's remaining elements; any other request is evaluated afresh.
        """
        base = operator.index(base)
        free = self.ground.remaining(base)  # a base outside the ground set fails here
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 2:
            raise ValueError(f"rows must be a (C, j) array, got shape {rows.shape}")
        key = (base, rows.shape[1]) if rows.shape == (1, 0) or (
            rows.shape == free.shape + (1,) and rows.tobytes() == free.tobytes()) else None
        values = self._scans.get(key)  # value_mask's empty row or gains' column
        if values is not None:
            return values
        if rows.size and (rows.min() < 1 or rows.max() > self.ground.size):
            raise ValueError(f"row element outside ground set 1..{self.ground.size}")
        values = np.empty(len(rows))
        step = self._rows_per_block
        for s in range(0, len(rows), step):
            values[s:s + step] = self._batch(base, rows[s:s + step])
        values.flags.writeable = False
        if key is not None:
            self._scans[key] = values
        return values

    def value(self, subset):
        return self.value_mask(self.ground.mask(subset))

    def __call__(self, subset):
        return self.value(subset)

    def table(self):
        """All 2^m values as an array indexed by bitmask.

        One scan: the row of each nonempty mask lists its elements,
        padded by repeating its lowest element.
        """
        m = self.ground.size
        bits = np.arange(1, 1 << m)[:, None] >> np.arange(m) & 1
        rows = np.where(bits, np.arange(1, m + 1), bits.argmax(axis=1)[:, None] + 1)
        return np.concatenate([[self.value_mask(0)], self.extend_values(0, rows)])

    def __repr__(self):
        return f"SetFunction({self.label or 'anonymous'}, m={self.ground.size})"


class StructureReport:
    """Outcome of the exhaustive structure check.

    For a monotone function on exactly-represented values, is_submodular
    and the ratio agree: the ratio equals 1 precisely when no
    diminishing-returns violation exists. A nonmonotone function can have
    ratio 1 and still violate diminishing returns, since pairs with a
    nonpositive increment constrain nothing.
    """

    def __init__(self, is_monotone, is_submodular, ratio, ratio_witness):
        self.is_monotone = is_monotone
        self.is_submodular = is_submodular
        self.submodularity_ratio = ratio
        self.ratio_witness = ratio_witness      # (D, B) pair attaining the minimal quotient

    def __repr__(self):
        return (f"StructureReport(monotone={self.is_monotone}, "
                f"submodular={self.is_submodular}, "
                f"ratio={self.submodularity_ratio})")


def marginal_gain(f, v, subset):
    """Value increment from adding element v to `subset`.

    v must not already be in the subset. Nonnegative for monotone f.
    """
    mask = f.ground.mask(subset)
    v = operator.index(v)
    if not 1 <= v <= f.ground.size:
        raise ValueError(f"element {v} outside ground set 1..{f.ground.size}")
    bit = 1 << (v - 1)
    if mask & bit:
        raise ValueError(f"element {v} already in the subset")
    return f.value_mask(mask | bit) - f.value_mask(mask)


def check_structure(f):
    """Exhaustively classify a set function.

    Everything is read off one (m, 2^m) table of single-element gains,
    gains[v, S] = f(S + v) - f(S), which is 0 for v in S. Monotonicity
    (f(A) <= f(B) for A subset of B) holds iff every gain is >= 0, and
    diminishing returns (gain of v at A >= gain of v at B, for A subset
    of B and v outside B) iff gains[v, S] >= gains[v, S + w] for every
    w != v: a violating pair A subset of B has a violating step on a
    chain from A to B, each step compares the same table entries, and
    <= is transitive. The diminishing-returns ratio is the largest g
    such that for all pairs (D, B)

        sum over x in D minus B of [f({x} u B) - f(B)]  >=  g * [f(D u B) - f(B)].

    Pairs whose right side increment is <= 0 constrain nothing and are
    skipped; with no constraining pair at all the ratio is 1. The result
    is clamped to [0, 1]. Every numerator is built in one pass over the
    elements, adding the gains in ascending element order. A pair with D
    meeting B repeats the quotient of (D minus B, B), as the gains of
    members are 0, so ratio_witness, the first minimizer in ascending
    (B, D) order, has D and B disjoint. Memory is about 26 MB at m = 10.
    """
    m = f.ground.size
    if m > STRUCTURE_CAP:
        raise CapExceededError(
            f"structure check is exhaustive; |V|={m} exceeds cap {STRUCTURE_CAP}")
    vals = f.table()
    masks = np.arange(1 << m)
    steps = masks | (1 << np.arange(m))[:, None]  # steps[v, S] = S + v
    gains = vals[steps] - vals
    is_monotone = bool((gains >= 0).all())
    later = gains[:, steps]                       # later[v, w, S] = gains[v, S + w]
    is_submodular = bool((gains[:, None] >= later)[~np.eye(m, dtype=bool)].all())

    num = np.zeros((1 << m, 1))                   # num[B, D]
    for gain in gains:
        num = np.concatenate([num, num + gain[:, None]], axis=1)
    denom = vals[masks[:, None] | masks]
    denom -= vals[:, None]
    constrains = denom > 0.0
    np.divide(num, denom, out=num, where=constrains)
    num[~constrains] = np.inf
    b, d = divmod(int(num.argmin()), 1 << m)
    ratio = float(min(1.0, max(0.0, num[b, d])))
    ratio_witness = None if ratio >= 1.0 else (f.ground.unmask(d), f.ground.unmask(b))
    return StructureReport(is_monotone, is_submodular, ratio, ratio_witness)


# ---------------------------------------------------------------------------
# Test-function corpus


def _fold(table, op, base, rows):
    """op-reduction of the table rows of the elements of base | rows[c],
    one result row per c.

    `table` has one row per element and nonnegative entries, so 0 is
    neutral for np.bitwise_or and np.maximum: the fold starts from the
    reduction of base's rows, which _members selects, from 0. The rows
    are folded in one column of `rows` at a time, so the working set
    stays two (C, ...) arrays whatever the row width.
    """
    start = op.reduce(table[_members(base, len(table))], axis=0, initial=0)
    acc = np.repeat(start[None], len(rows), axis=0)
    for col in rows.T:
        op(acc, table[col - 1], out=acc)
    return acc


def _covered(words, universe, base, rows):
    """(C, universe) bool matrix: the items covered by base | rows[c]."""
    return np.unpackbits(_fold(words, np.bitwise_or, base, rows).view(np.uint8),
                         axis=1, count=universe, bitorder="little").view(bool)


def _byte_table(weights, nbytes):
    """(nbytes, 256) float64: entry [p, b] sums the weights of the items
    of byte p whose bits b sets, items past the weights weighing 0. Built
    by doubling: entries 2^j .. 2^(j+1)-1 are entries 0 .. 2^j-1 plus
    bit j's weight."""
    w = np.zeros(8 * nbytes)
    w[:len(weights)] = weights
    w = w.reshape(nbytes, 8)
    table = np.zeros((nbytes, 256))
    for j in range(8):
        np.add(table[:, :1 << j], w[:, j, None], out=table[:, 1 << j:2 << j])
    return table


_POPCOUNT = _byte_table(np.ones(8), 1)[0]  # the set bits of each byte value


def _coverage_function(packed, universe, label, weights=None, levels=None):
    """A SetFunction whose value at a set is the total weight of the items
    its elements cover, element i covering the items of row i of the
    packed table; weights None counts the items, and `levels` maps that
    count to levels[count].

    The covers are OR-folded on 64-bit words. When every weight is an
    integer and their total is below 2^53, as counts and every generated
    weight are, each partial sum in any order is an exact integer: the
    value is read as a sum over the folded bytes of table[position,
    byte], the weight of the items that byte covers, which the ascending
    loop from 0.0 matches bit for bit. Any other weight sums the covered
    items in ascending order through _masked_sum.
    """
    padded = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
    padded[:, :packed.shape[1]] = packed
    words, nbytes = padded.view(np.uint64), padded.shape[1]
    ground = GroundSet(len(packed))
    with np.errstate(over="ignore"):  # a total that overflows is not below 2^53
        exact = weights is None or (
            (weights == np.floor(weights)).all() and weights.sum() < 2.0 ** 53)
    if not exact:
        return SetFunction(
            ground,
            lambda base, rows: _masked_sum(weights, _covered(words, universe, base, rows)),
            # the folded words and a table gather, the covered items, and
            # _masked_sum's two float64 temporaries, then the value
            label=label, row_bytes=17 * universe + 2 * nbytes + 16)
    table, offsets = _POPCOUNT, 0  # one table serves every byte of a count
    if weights is not None:
        table = _byte_table(weights, nbytes).ravel()
        offsets = np.arange(0, table.size, 256)

    def batch(base, rows):
        octets = _fold(words, np.bitwise_or, base, rows).view(np.uint8)
        total = table[octets + offsets].sum(axis=1)
        return total if levels is None else levels[total.astype(np.intp)]

    # the folded bytes, their shifted copy, its intp index and the float64
    # gather, then the value
    return SetFunction(ground, batch, label=label, row_bytes=18 * nbytes + 8)


def _masked_sum(weights, mask):
    """Sum of the weights where the (C, U) bool `mask` holds, lowest index
    first in each row, as a loop from 0.0 adds them (adding 0.0 leaves a
    float unchanged): the coverage value for weights the byte tables
    cannot sum exactly. Its two (C, U) float64 temporaries are counted in
    the row_bytes of _coverage_function's item-by-item path."""
    return np.where(mask, weights, 0.0).cumsum(axis=1)[:, -1]


def _checked_weights(weights, what, shape):
    """`weights` as a float array of the named shape, a "list" or else a
    matrix, each entry finite and nonnegative, -0.0 read as 0.0."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != (1 if shape == "list" else 2) or not w.size:
        raise ConfigError(f"{what} must be a nonempty {shape}", field="weights")
    bad = np.argwhere(~(np.isfinite(w) & (w >= 0)))
    if len(bad):
        at = "".join(f"[{i}]" for i in bad[0])
        raise ConfigError(f"{what} must be finite and nonnegative: weights{at} = "
                          f"{w[tuple(bad[0])]}", field="weights")
    return w + 0.0


def _coverage_table(kind, params, rng):
    """The covering sets of a coverage kind as a (sets, bytes) uint8
    table, row i the little-endian bitmask of set i's items, and the
    universe size.

    Without explicit sets, `size` sets are drawn from `rng`, each a
    random nonempty subset of 1..universe; without a universe, it is
    the largest covered item. Explicit items must lie in 1..universe.
    """
    universe = int(params.get("universe", 0) or 0)
    sets = params.get("sets")
    if sets is None:
        size = int(params.get("size", 0) or 0)
        if size < 1 or universe < 1:
            raise ConfigError(
                f"random {kind} needs 'size' and 'universe'", field="functions")
        columns = [rng.choice(universe, size=int(rng.integers(1, universe + 1)),
                              replace=False)
                   for _ in range(size)]
    else:
        if not sets:
            raise ConfigError(f"{kind} needs at least one set", field="sets")
        if universe < 1:
            universe = max(max(s) for s in sets if s) if any(sets) else 1
        columns = []
        for i, s in enumerate(sets):
            items = [int(u) for u in s]
            bad = [u for u in items if not 1 <= u <= universe]
            if bad:
                raise ConfigError(f"covered item {bad[0]} outside universe "
                                  f"1..{universe}", field=f"sets[{i}]")
            columns.append(np.array(items, dtype=np.intp) - 1)
    covered = np.zeros((len(columns), universe), dtype=bool)
    covered[np.repeat(np.arange(len(columns)), [len(c) for c in columns]),
            np.concatenate(columns)] = True
    return np.packbits(covered, axis=1, bitorder="little"), universe


def build_test_function(kind, params=None, seed=0):
    """Construct one function of the named kind.

    Parameters not supplied are drawn from `seed`. All kinds are
    normalized (empty set maps to 0) and monotone; coverage, weighted
    coverage, facility location and modular kinds are submodular, while
    pair_supermodular has increasing increments on a designated pair and
    a ratio strictly below 1. Generated weights are small integers so
    every value is exactly representable and comparisons need no
    tolerance.
    """
    params = dict(params or {})
    rng = np.random.default_rng(seed)

    if kind == "coverage":
        return _coverage_function(*_coverage_table(kind, params, rng), kind)

    if kind == "weighted_coverage":
        packed, universe = _coverage_table(kind, params, rng)
        weights = params.get("weights")
        if weights is None:
            weights = [int(w) for w in rng.integers(1, 10, size=universe)]
        if len(weights) != universe:
            raise ConfigError(
                f"need {universe} item weights, got {len(weights)}", field="weights")
        w = _checked_weights(weights, "item weights", "list")
        return _coverage_function(packed, universe, kind, w)

    if kind == "facility_location":
        weights = params.get("weights")
        if weights is None:
            size = int(params.get("size", 0) or 0)
            universe = int(params.get("universe", 0) or 0)
            if size < 1 or universe < 1:
                raise ConfigError(
                    "random facility_location needs 'size' and 'universe'",
                    field="functions")
            weights = rng.integers(0, 10, size=(universe, size))
        mat = _checked_weights(weights, "facility weights", "customers x sites matrix")
        # One row per element; the only copy kept. Integers 0..255 fit in
        # uint8, and their float64 row sums are exact in any order.
        small = ((mat <= 255) & (mat == np.floor(mat))).all()
        sites = np.ascontiguousarray(mat.T, dtype=np.uint8 if small else float)
        return SetFunction(
            GroundSet(len(sites)),
            lambda base, rows: _fold(sites, np.maximum, base, rows).sum(axis=1, dtype=float),
            label=kind, row_bytes=2 * sites.itemsize * mat.shape[0] + 8)

    if kind == "modular":
        weights = params.get("weights")
        if weights is None:
            size = int(params.get("size", 0) or 0)
            if size < 1:
                raise ConfigError("random modular needs 'size'", field="functions")
            weights = [int(w) for w in rng.integers(1, 10, size=size)]
        w = _checked_weights(weights, "modular weights", "list")
        # weighted coverage in which element i covers item i alone
        eye = np.packbits(np.eye(len(w), dtype=bool), axis=1, bitorder="little")
        return _coverage_function(eye, len(w), kind, w)

    if kind == "pair_supermodular":
        size = int(params.get("size", 3))
        if size < 2:
            raise ConfigError("pair_supermodular needs at least two elements",
                              field="size")
        levels = tuple(float(g) for g in params.get("g", (0.0, 1.0, 3.0)))
        if len(levels) != 3 or levels[0] != 0.0 or not levels[0] <= levels[1] <= levels[2]:
            raise ConfigError(
                "'g' must be three nondecreasing values starting at 0", field="g")
        pair = params.get("pair")
        if pair is None:
            pair = tuple(sorted(rng.choice(size, size=2, replace=False) + 1))
        pair = tuple(int(v) for v in pair)
        if len(pair) != 2 or pair[0] == pair[1] or not all(1 <= v <= size for v in pair):
            raise ConfigError(f"invalid designated pair {pair}", field="pair")
        # a 2-item coverage in which only the pair's elements cover anything
        covers = np.zeros((size, 1), dtype=np.uint8)
        covers[[pair[0] - 1, pair[1] - 1], 0] = [1, 2]
        f = _coverage_function(covers, 2, f"pair_supermodular{pair}",
                               levels=np.array(levels))
        # the pair over the empty set binds: gains g1 + g1 against g2
        _, g1, g2 = levels
        f._ratio = 1.0 if g2 == 0.0 else min(1.0, 2.0 * g1 / g2)
        return f

    raise ConfigError(f"unknown function kind {kind!r}; expected one of "
                      f"{', '.join(FUNCTION_KINDS)}", field="kind")


class LocalFamily:
    """One function per agent, all over the ground set of the first.

    max_total is the largest full-set value across agents, the gain cap:
    every marginal gain of every member is bounded by it. It must be
    finite, and so must n times max_total, which bounds the sum that the
    average divides.
    """

    def __init__(self, functions):
        self.functions = list(functions)
        if not self.functions:
            raise ConfigError("family needs at least one function", field="functions")
        self.ground = self.functions[0].ground
        if any(f.ground != self.ground for f in self.functions):
            raise ConfigError("local functions must share the ground set",
                              field="functions")
        full = (1 << self.ground.size) - 1
        with np.errstate(over="ignore"):
            self.max_total = max(f.value_mask(full) for f in self.functions)
        total = self.n * self.max_total
        if not np.isfinite([self.max_total, total]).all():
            raise ConfigError(
                f"function values overflow: max f_i(V) = {self.max_total}, "
                f"n * max f_i(V) = {total}", field="functions")

    @property
    def n(self):
        return len(self.functions)

    def average(self):
        return average_function(self.functions)


def average_function(functions):
    """Pointwise mean of a family, as a SetFunction of its own."""
    if not functions:
        raise ValueError("need at least one function")
    ground = functions[0].ground
    for f in functions[1:]:
        if f.ground != ground:
            raise ValueError("functions live on different ground sets")
    members = list(functions)

    def batch(base, rows):
        total = 0.0
        for f in members:
            total = total + f.extend_values(base, rows)
        return total / len(members)

    return SetFunction(ground, batch, label="average", row_bytes=24)


def local_family(n, kind, seed=0, params=None):
    """Build n local functions sharing one ground set.

    With explicit data of the kind in `params` (KIND_KEYS) every
    agent holds the same function. Otherwise each agent draws its own
    from an independent stream derived from `seed`.
    """
    if n < 1:
        raise ConfigError("need at least one agent", field="n")
    params = dict(params or {})
    if any(k in params for k in KIND_KEYS.get(kind, ((), ()))[1]):
        proto = build_test_function(kind, params, seed)
        return LocalFamily([proto] * n)

    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    streams = seed.spawn(n)
    functions = []
    for i, stream in enumerate(streams):
        f = build_test_function(kind, params, stream)
        f.label = f"{f.label}#{i + 1}"
        functions.append(f)
    return LocalFamily(functions)


def family_from_config(spec, n):
    """n agents' LocalFamily from a functions spec that config.py checked:
    kind, seed and the keys that the kind reads, and no other."""
    params = {k: v for k, v in spec.items() if k not in ("kind", "seed")}
    return local_family(n, spec["kind"], seed=spec.get("seed", 0), params=params)
