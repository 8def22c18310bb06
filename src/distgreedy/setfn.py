"""Set functions over a shared ground set.

Everything downstream (greedy baselines, the distributed protocol, the
bound audits) evaluates functions built here. Elements are the integers
1..m and are labeled identically everywhere, so index j always refers to
the same element no matter which agent holds the function. Subsets are
passed around as iterables of indices and handled internally as bitmasks.

The module also houses the exact structure checkers: monotonicity and
diminishing returns by full enumeration, and the diminishing-returns
ratio (1 exactly for submodular functions, smaller otherwise) by
minimizing the defining quotient over all subset pairs.

Each SetFunction has one evaluator, `batch(base, rows)`: f(base | row)
for every row of a (C, j) array of elements, one numpy pass per block of
rows for the corpus kinds. Every value goes through it, by way of
`extend_values`: round gains, greedy scans and brute-force chunks, but
also single masks (`value_mask`, a scan of one empty row) and full
tables (`table`, one scan of padded rows). A custom function given as a
scalar map from one bitmask to a value enters through
`SetFunction.from_scalar`.
"""

import operator

import numpy as np

from .errors import CapExceededError, ConfigError

STRUCTURE_CAP = 10
# Working memory of one batched evaluator call, sized to stay in cache:
# extend_values splits a request into blocks of BATCH_BYTES // row_bytes
# rows, row_bytes being the function's working set per row.
BATCH_BYTES = 1 << 18
_EMPTY_ROW = np.empty((1, 0), dtype=np.intp)  # value_mask's one row

FUNCTION_KINDS = (
    "coverage",
    "weighted_coverage",
    "facility_location",
    "pair_supermodular",
    "modular",
)


class GroundSet:
    """The shared element universe: indices 1..size, order is global."""

    def __init__(self, size):
        if size < 1:
            raise ConfigError("ground set needs at least one element", field="size")
        self.size = int(size)

    @property
    def elements(self):
        return range(1, self.size + 1)

    @property
    def full_mask(self):
        return (1 << self.size) - 1

    def mask(self, subset):
        m = 0
        for v in map(operator.index, subset):
            if not 1 <= v <= self.size:
                raise ValueError(f"element {v} outside ground set 1..{self.size}")
            m |= 1 << (v - 1)
        return m

    def unmask(self, mask):
        return frozenset(v for v in self.elements if mask >> (v - 1) & 1)

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
    per row in the dtype of its tables, temporaries and the value
    included but not the rows, which are the caller's; extend_values
    runs it on blocks of BATCH_BYTES // row_bytes rows, and caches small
    scans. It is the only evaluator: value_mask and table are scans.
    Evaluation is pure; the cache is a plain dict, whose item writes are
    atomic, so concurrent readers at worst recompute a value.
    """

    def __init__(self, ground, batch, label="", row_bytes=8):
        self.ground = ground
        self.label = label
        self._batch = batch
        self._scans = {}
        self._rows_per_block = max(1, BATCH_BYTES // row_bytes)

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

    def extend_values(self, base, rows):
        """f(base | row) for each row of a (C, j) int array of elements.

        `base` is a bitmask; a row may repeat elements or hold members of
        base. Returns a read-only (C,) float64 array. A scan of at most m
        elements (a round's gains, or one mask's value) is cached per
        (base, rows); larger requests are evaluated afresh each time.
        """
        base = operator.index(base)
        rows = np.asarray(rows, dtype=np.intp)
        if rows.ndim != 2:
            raise ValueError(f"rows must be a (C, j) array, got shape {rows.shape}")
        key = None
        if rows.size <= self.ground.size:
            key = (base, len(rows), rows.tobytes())  # the bytes fix the width
            values = self._scans.get(key)
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

    is_submodular and ratio agree by construction on exactly-represented
    functions: the ratio equals 1 precisely when no diminishing-returns
    violation exists.
    """

    def __init__(self, is_monotone, is_submodular, ratio,
                 witness=None, ratio_witness=None, monotone_witness=None):
        self.is_monotone = is_monotone
        self.is_submodular = is_submodular
        self.submodularity_ratio = ratio
        self.witness = witness                  # (A, B, v) with gain(v|A) < gain(v|B), A subset of B
        self.ratio_witness = ratio_witness      # (A, B) pair attaining the minimal quotient
        self.monotone_witness = monotone_witness

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


def _iter_submasks(mask):
    """All submasks of `mask`, ascending, including 0 and `mask`.

    Ascending order makes the first violation or minimum found the
    lexicographically smallest witness.
    """
    sub = 0
    while True:
        yield sub
        sub = (sub - mask) & mask
        if sub == 0:
            return


def check_structure(f, cap=STRUCTURE_CAP):
    """Exhaustively classify a set function.

    Checks monotonicity over every nested pair A subset of B, diminishing
    returns over every (A, B, v) with A subset of B and v outside B, and
    computes the diminishing-returns ratio: the largest g such that for
    all pairs (A, B)

        sum over a in A minus B of [f({a} u B) - f(B)]  >=  g * [f(A u B) - f(B)].

    Pairs whose right side increment is <= 0 constrain nothing and are
    skipped; with no constraining pair at all the ratio is 1. The result
    is clamped to [0, 1]. Since the constraint depends on (A, B) only
    through B and A minus B, disjoint pairs (D, B) are enumerated instead
    of all 4^m pairs; the minimum is identical.
    """
    m = f.ground.size
    if m > cap:
        raise CapExceededError(
            f"structure check is exhaustive; |V|={m} exceeds cap {cap}")
    vals = f.table()
    full = f.ground.full_mask
    unmask = f.ground.unmask

    is_monotone = True
    monotone_witness = None
    for b in range(full + 1):
        vb = vals[b]
        for a in _iter_submasks(b):
            if vals[a] > vb:
                is_monotone = False
                monotone_witness = (unmask(a), unmask(b))
                break
        if not is_monotone:
            break

    is_submodular = True
    witness = None
    for v in range(m):
        bit = 1 << v
        rest = full & ~bit
        for b in _iter_submasks(rest):
            gain_b = vals[b | bit] - vals[b]
            for a in _iter_submasks(b):
                if vals[a | bit] - vals[a] < gain_b:
                    is_submodular = False
                    witness = (unmask(a), unmask(b), v + 1)
                    break
            if not is_submodular:
                break
        if not is_submodular:
            break

    min_quotient = np.inf
    ratio_witness = None
    for b in range(full + 1):
        vb = vals[b]
        rest = full & ~b
        for d in _iter_submasks(rest):
            if d == 0:
                continue
            denom = vals[b | d] - vb
            if denom <= 0.0:
                continue
            num = 0.0
            dd = d
            while dd:
                low = dd & -dd
                num += vals[b | low] - vb
                dd ^= low
            q = num / denom
            if q < min_quotient:
                min_quotient = q
                ratio_witness = (unmask(d), unmask(b))
    ratio = float(min(1.0, max(0.0, min_quotient)))
    if ratio >= 1.0:
        ratio_witness = None

    return StructureReport(is_monotone, is_submodular, ratio,
                           witness=witness, ratio_witness=ratio_witness,
                           monotone_witness=monotone_witness)


# ---------------------------------------------------------------------------
# Test-function corpus


def _bits(mask):
    """Indices of the set bits of `mask`, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _selection(size, base, rows):
    """(C, size) bool matrix: row c marks the elements of base | rows[c],
    marked a column of `rows` at a time so that the temporaries are (C,)."""
    sel = np.zeros((len(rows), size), dtype=bool)
    sel[:, _bits(base)] = True
    every = np.arange(len(rows))
    for col in rows.T:
        sel[every, col - 1] = True
    return sel


def _fold(table, op, base, rows):
    """op-reduction of the table rows of the elements of base | rows[c],
    one result row per c.

    `table` has one row per element and nonnegative entries, so a zero
    start is neutral for np.bitwise_or and np.maximum. The rows are
    folded in one column of `rows` at a time, so the working set stays
    two (C, ...) arrays whatever the row width.
    """
    acc = np.zeros((len(rows),) + table.shape[1:], dtype=table.dtype)
    bits = _bits(base)
    if bits:
        acc[:] = op.reduce(table[bits], axis=0)
    for col in rows.T:
        op(acc, table[col - 1], out=acc)
    return acc


def _covered(packed, universe, base, rows):
    """(C, universe) bool matrix: the items covered by base | rows[c]."""
    return np.unpackbits(_fold(packed, np.bitwise_or, base, rows), axis=1,
                         count=universe, bitorder="little").view(bool)


def _masked_sum(weights, mask):
    """Sum of the weights where the (C, U) bool `mask` holds, lowest index
    first in each row, as a loop from 0.0 adds them (adding 0.0 leaves a
    float unchanged). The rows go in slices whose two (rows, U) float
    temporaries fit in BATCH_BYTES // 2, a fixed cost outside row_bytes."""
    step = max(1, BATCH_BYTES // (32 * mask.shape[1]))
    total = np.empty(len(mask))
    for s in range(0, len(mask), step):
        part = np.where(mask[s:s + step], weights, 0.0)
        total[s:s + step] = part.cumsum(axis=1)[:, -1]
    return total


def _checked_weights(weights, what, shape):
    """`weights` as a float array of the named shape, a "list" or else a
    matrix, each entry finite and nonnegative."""
    w = np.asarray(weights, dtype=float)
    if w.ndim != (1 if shape == "list" else 2) or not w.size:
        raise ConfigError(f"{what} must be a nonempty {shape}", field="weights")
    bad = np.argwhere(~(np.isfinite(w) & (w >= 0)))
    if len(bad):
        at = "".join(f"[{i}]" for i in bad[0])
        raise ConfigError(f"{what} must be finite and nonnegative: weights{at} = "
                          f"{w[tuple(bad[0])]}", field="weights")
    return w


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
        packed, universe = _coverage_table(kind, params, rng)
        ground = GroundSet(len(packed))
        return SetFunction(
            ground, lambda base, rows: _covered(packed, universe, base, rows).sum(
                axis=1).astype(float),
            label="coverage", row_bytes=universe + 2 * packed.shape[1] + 16)

    if kind == "weighted_coverage":
        packed, universe = _coverage_table(kind, params, rng)
        weights = params.get("weights")
        if weights is None:
            weights = [int(w) for w in rng.integers(1, 10, size=universe)]
        if len(weights) != universe:
            raise ConfigError(
                f"need {universe} item weights, got {len(weights)}", field="weights")
        w = _checked_weights(weights, "item weights", "list")
        ground = GroundSet(len(packed))
        return SetFunction(
            ground, lambda base, rows: _masked_sum(
                w, _covered(packed, universe, base, rows)),
            label="weighted_coverage", row_bytes=universe + 2 * packed.shape[1] + 16)

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
        ground = GroundSet(mat.shape[1])
        # One row per element; the only copy kept. Integers 0..255 fit in
        # uint8, and their float64 row sums are exact in any order.
        small = ((mat <= 255) & (mat == np.floor(mat))).all()
        sites = np.ascontiguousarray(mat.T, dtype=np.uint8 if small else float)
        return SetFunction(
            ground, lambda base, rows: _fold(sites, np.maximum, base, rows).sum(
                axis=1, dtype=float),
            label="facility_location", row_bytes=2 * sites.itemsize * mat.shape[0] + 8)

    if kind == "modular":
        weights = params.get("weights")
        if weights is None:
            size = int(params.get("size", 0) or 0)
            if size < 1:
                raise ConfigError("random modular needs 'size'", field="functions")
            weights = [int(w) for w in rng.integers(1, 10, size=size)]
        w = _checked_weights(weights, "modular weights", "list")
        ground = GroundSet(len(w))
        return SetFunction(
            ground, lambda base, rows: _masked_sum(w, _selection(len(w), base, rows)),
            label="modular", row_bytes=len(w) + 24)

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
        pair_cols = [pair[0] - 1, pair[1] - 1]
        level_array = np.array(levels)
        ground = GroundSet(size)
        return SetFunction(
            ground, lambda base, rows: level_array[
                _selection(size, base, rows)[:, pair_cols].sum(axis=1)],
            label=f"pair_supermodular{pair}", row_bytes=size + 24)

    raise ConfigError(f"unknown function kind {kind!r}; expected one of "
                      f"{', '.join(FUNCTION_KINDS)}", field="kind")


class LocalFamily:
    """One function per agent, all over the same ground set.

    max_total is the largest full-set value across agents; every marginal
    gain of every member is bounded by it. max_singleton is the largest
    single-element value, a tighter gain bound valid for functions with
    diminishing returns. Both caps must be finite, and so must n times
    max_total, which bounds the sum that the average divides.
    """

    def __init__(self, ground, functions, kind):
        self.ground = ground
        self.functions = list(functions)
        self.kind = kind
        if any(f.ground != ground for f in self.functions):
            raise ConfigError("local functions must share the ground set",
                              field="functions")
        everything = np.arange(1, ground.size + 1)[None, :]
        with np.errstate(over="ignore"):
            self.max_total = max(float(f.extend_values(0, everything)[0])
                                 for f in self.functions)
            self.max_singleton = max(float(f.extend_values(0, everything.T).max())
                                     for f in self.functions)
        total = self.n * self.max_total
        if not np.isfinite([self.max_total, self.max_singleton, total]).all():
            raise ConfigError(
                f"function values overflow: max f_i(V) = {self.max_total}, "
                f"max f_i({{v}}) = {self.max_singleton}, n * max f_i(V) = "
                f"{total}", field="functions")

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


def family_from_functions(functions, kind="custom"):
    """Wrap explicit per-agent functions, which must share one ground set."""
    if not functions:
        raise ConfigError("family needs at least one function", field="functions")
    return LocalFamily(functions[0].ground, functions, kind)


def local_family(n, kind, seed=0, params=None, identical=False):
    """Build n local functions sharing one ground set.

    With explicit data in `params` (sets / weights / pair) every agent
    holds the same function. Otherwise each agent draws its own from an
    independent stream derived from `seed`; pass identical=True to draw
    once and share.
    """
    if n < 1:
        raise ConfigError("need at least one agent", field="n")
    params = dict(params or {})
    explicit = any(k in params for k in ("sets", "weights", "pair"))
    if explicit or identical:
        proto = build_test_function(kind, params, seed)
        functions = [proto] * n
        return LocalFamily(proto.ground, functions, kind)

    if not isinstance(seed, np.random.SeedSequence):
        seed = np.random.SeedSequence(seed)
    streams = seed.spawn(n)
    functions = []
    for i, stream in enumerate(streams):
        f = build_test_function(kind, params, stream)
        f.label = f"{f.label}#{i + 1}"
        functions.append(f)
    return LocalFamily(functions[0].ground, functions, kind)


def family_from_config(cfg, n):
    """Build a LocalFamily from its JSON description.

    Recognized keys: kind (required), universe, sets, weights, size,
    pair, g, seed, identical.
    """
    if not isinstance(cfg, dict):
        raise ConfigError("functions spec must be an object", field="functions")
    known = {"kind", "universe", "sets", "weights", "size", "pair", "g",
             "seed", "identical"}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in functions spec",
                              field=f"functions.{key}")
    if "kind" not in cfg:
        raise ConfigError("functions spec needs 'kind'", field="functions.kind")
    identical = cfg.get("identical", False)
    if not isinstance(identical, bool):
        raise ConfigError("identical must be a boolean", field="functions.identical")
    params = {k: v for k, v in cfg.items() if k not in ("kind", "seed", "identical")}
    return local_family(n, cfg["kind"], seed=cfg.get("seed", 0), params=params,
                        identical=identical)
