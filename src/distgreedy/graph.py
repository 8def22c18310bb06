"""Undirected connected communication graphs.

Nodes are the agents 1..n, and a graph is one read-only (n, n) bool
adjacency array. The one structure derived from it is the padded
closed-neighbourhood index of `intersection_sources`, along which the
protocol intersects candidate sets. Connectivity and the diameter run
that same recurrence with OR for AND, growing reach sets one hop at a
time until none grows. Every generated graph is connected. `generate`
takes the graph spec's values as arguments; config.py reads and checks
the spec itself.
"""

from functools import cached_property

import numpy as np

from .errors import ConfigError, DisconnectedGraphError, GraphGenerationError

GRAPH_KINDS = ("path", "cycle", "complete", "grid", "erdos_renyi")

ER_MAX_TRIES = 1000


class Network:
    """Immutable undirected graph on nodes 1..n, given as (i, j) pairs:
    an iterable of pairs or an (E, 2) array."""

    def __init__(self, n, edges):
        self.n = int(n)
        e = edges if isinstance(edges, np.ndarray) else np.array(list(edges), dtype=object)
        if e.size and (e.ndim != 2 or e.shape[1] != 2):
            raise ConfigError("edges must be (i, j) pairs of node ids")
        if e.dtype.kind not in "iu":  # an id of any size, but an int
            for v in e.ravel().tolist():
                if not isinstance(v, (int, np.integer)):
                    raise ConfigError(f"node id {v!r} is not an integer")
        i, j = e.reshape(-1, 2).T
        bad = (i == j) | (i < 1) | (j < 1) | (i > self.n) | (j > self.n)
        if bad.any():
            i, j = int(i[bad][0]), int(j[bad][0])
            if i == j:
                raise ConfigError(f"self-loop on node {i}")
            raise ConfigError(f"edge ({i},{j}) outside nodes 1..{self.n}")
        i, j = i.astype(np.intp), j.astype(np.intp)
        self.adjacency = np.zeros((self.n, self.n), dtype=bool)
        self.adjacency[i - 1, j - 1] = self.adjacency[j - 1, i - 1] = True
        self.adjacency.flags.writeable = False

    @cached_property
    def edges(self):
        """frozenset of the (i, j) edges with i < j."""
        i, j = np.nonzero(np.triu(self.adjacency))
        return frozenset(zip((i + 1).tolist(), (j + 1).tolist()))

    def neighbors(self, i):
        if not 1 <= i <= self.n:
            raise KeyError(i)
        return tuple((np.flatnonzero(self.adjacency[i - 1]) + 1).tolist())

    def degree(self, i):
        return len(self.neighbors(i))

    def is_connected(self):
        """Whether node 1 reaches every node."""
        reached, _ = _spread(np.arange(self.n) == 0, intersection_sources(self))
        return self.n > 0 and bool(reached.all())

    def __repr__(self):
        return f"Network(n={self.n}, edges={len(self.edges)})"


def make_network(n, edges):
    """Validated constructor: rejects disconnected graphs."""
    G = Network(n, edges)
    if not G.is_connected():
        raise DisconnectedGraphError(f"graph on {n} nodes is not connected")
    return G


def generate(kind, n, seed=0, p=0.5):
    """Generate a connected graph of the requested kind.

    erdos_renyi draws edges independently with probability p and
    resamples until connected (up to ER_MAX_TRIES draws), which keeps
    the model's degree distribution instead of grafting a spanning tree.
    A grid uses the most nearly square factorization of n, degenerating
    to a path when n is prime.
    """
    if n < 1:
        raise ConfigError("graph needs at least one node", field="n")

    if kind in ("path", "cycle", "grid"):
        rows = 1 if kind != "grid" else max(
            r for r in range(1, int(np.sqrt(n)) + 1) if n % r == 0)
        ids = np.arange(1, n + 1).reshape(rows, -1)  # a path is one row
        edges = [np.column_stack([a[:, :-1].ravel(), a[:, 1:].ravel()])
                 for a in (ids, ids.T)]  # along the rows, then the columns
        if kind == "cycle" and n >= 3:
            edges.append([(1, n)])
        return make_network(n, np.vstack(edges))
    # every pair (i, j) with i < j, ordered by i, then j
    pairs = np.column_stack(np.triu_indices(n, 1)) + 1
    if kind == "complete":
        return make_network(n, pairs)
    if kind == "erdos_renyi":
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"edge probability {p} outside (0, 1]", field="p")
        rng = np.random.default_rng(seed)
        for _ in range(ER_MAX_TRIES):
            G = Network(n, pairs[rng.random(len(pairs)) < p])
            if G.is_connected():
                return G
        raise GraphGenerationError(
            f"no connected draw in {ER_MAX_TRIES} tries (n={n}, p={p})")

    raise ConfigError(f"unknown graph kind {kind!r}; expected one of "
                      f"{', '.join(GRAPH_KINDS)}", field="kind")


def intersection_sources(network):
    """(n, w) index whose row i lists agent i+1's closed neighbourhood,
    0-based: the agent itself, then its neighbours in ascending order,
    then the agent again up to the widest row, which leaves an
    intersection, or a union, unchanged."""
    adjacency = network.adjacency
    n = len(adjacency)
    degree = adjacency.sum(axis=1)
    width = degree.max(initial=0)
    sources = np.tile(np.arange(n)[:, None], 1 + width)
    # the neighbours fill each row's first degree slots, row by row
    sources[:, 1:][np.arange(width) < degree[:, None]] = np.flatnonzero(adjacency) % n
    return sources


def _spread(reach, sources):
    """Grow reach, one row per node, a hop at a time until no row grows:
    a hop ORs the rows of each closed neighbourhood. Returns the fixed
    point and the number of hops that grew it."""
    hops, sources = 0, sources.T  # OR w whole arrays, not n rows of w
    while True:
        grown = np.bitwise_or.reduce(reach[sources], axis=0)
        if np.array_equal(grown, reach):
            return reach, hops
        reach, hops = grown, hops + 1


def diameter(G):
    """Longest shortest-path distance: the hops after which no node's
    reach set, a packed bit row started from the node alone, grows."""
    reach, hops = _spread(np.packbits(np.eye(G.n, dtype=bool), axis=1),
                          intersection_sources(G))
    if not (reach == np.packbits(np.ones(G.n, dtype=bool))).all():
        # no node of a disconnected graph reaches every node
        raise DisconnectedGraphError(
            "distances undefined: node 1 cannot reach every node")
    return hops
