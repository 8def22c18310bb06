"""Undirected connected communication graphs.

Nodes are the agents 1..n, and a graph is one read-only (n, n) bool
adjacency array. Connectivity hooks labels along it; the diameter counts
the hops of bit-row reach sets. Every generated graph is connected.
`generate` takes the graph spec's values as arguments; config.py reads
and checks the spec itself.
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
        edges = edges if isinstance(edges, np.ndarray) else list(edges)
        try:
            e = np.asarray(edges, dtype=np.intp)
        except OverflowError:  # a node id beyond intp: outside 1..n below
            e = np.asarray(edges, dtype=object)
        if e.size and (e.ndim != 2 or e.shape[1] != 2):
            raise ConfigError("edges must be (i, j) pairs of node ids")
        i, j = e.reshape(-1, 2).T
        bad = (i == j) | (i < 1) | (j < 1) | (i > self.n) | (j > self.n)
        if bad.any():
            i, j = int(i[bad][0]), int(j[bad][0])
            if i == j:
                raise ConfigError(f"self-loop on node {i}")
            raise ConfigError(f"edge ({i},{j}) outside nodes 1..{self.n}")
        self.adjacency = np.zeros((self.n, self.n), dtype=bool)
        self.adjacency[i - 1, j - 1] = self.adjacency[j - 1, i - 1] = True
        self.adjacency.flags.writeable = False

    @cached_property
    def edges(self):
        """frozenset of the (i, j) edges with i < j."""
        i, j = _arcs(self.adjacency)
        up = i < j
        return frozenset(zip((i[up] + 1).tolist(), (j[up] + 1).tolist()))

    def neighbors(self, i):
        if not 1 <= i <= self.n:
            raise KeyError(i)
        return tuple((np.flatnonzero(self.adjacency[i - 1]) + 1).tolist())

    def degree(self, i):
        return len(self.neighbors(i))

    def is_connected(self):
        """Whether all nodes join node 1's tree: each round hooks every root
        onto the least label next to its tree, then points nodes at roots."""
        i, j = _arcs(self.adjacency)
        label = np.arange(self.n)
        while True:
            low = label.copy()
            np.minimum.at(low, label[i], label[j])
            while (low[low] != low).any():
                low = low[low]
            if (low == label).all():
                return self.n > 0 and not label.any()
            label = low

    def __repr__(self):
        return f"Network(n={self.n}, edges={len(self.edges)})"


def _arcs(adjacency):
    """The (i, j) entries set in a square bool array, ordered by i, j."""
    return np.divmod(np.flatnonzero(adjacency), max(len(adjacency), 1))


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


def diameter(G):
    """Longest shortest-path distance: the hops after which no node's
    reach set, a bit row, grows. A hop ORs the rows of each closed
    neighbourhood, for all nodes of one degree at once (the nodes sorted
    by degree), so it reads every edge once in a few calls per degree."""
    closed = G.adjacency | np.eye(G.n, dtype=bool)
    size = closed.sum(axis=1)
    order = np.argsort(size)
    closed = closed[np.ix_(order, order)]
    nbrs, classes, row, arc = _arcs(closed)[1], [], 0, 0
    counts = np.bincount(size)
    for d in np.flatnonzero(counts):
        rows, arcs = slice(row, row + counts[d]), slice(arc, arc + d * counts[d])
        classes.append((rows, nbrs[arcs].reshape(-1, d)))
        row, arc = rows.stop, arcs.stop
    reach = np.packbits(closed, axis=1)
    grown, hops = np.empty_like(reach), int(G.n > 1)
    while True:
        for rows, table in classes:
            np.bitwise_or.reduce(reach[table], axis=1, out=grown[rows])
        if (grown == reach).all():
            break
        reach, grown, hops = grown, reach, hops + 1
    if not (reach == np.packbits(np.ones(G.n, dtype=bool))).all():
        # no node of a disconnected graph reaches every node
        raise DisconnectedGraphError(
            "distances undefined: node 1 cannot reach every node")
    return hops

