"""Undirected connected communication graphs.

Nodes are the agents 1..n. Only connectivity-preserving constructions
are exposed; every generated graph is checked by BFS before it is
returned.
"""

from functools import cached_property

import numpy as np

from .errors import ConfigError, DisconnectedGraphError, GraphGenerationError

GRAPH_KINDS = ("path", "cycle", "complete", "grid", "erdos_renyi")

ER_MAX_TRIES = 1000


class Network:
    """Immutable undirected graph on nodes 1..n."""

    def __init__(self, n, edges):
        self.n = int(n)
        canon = set()
        for i, j in edges:
            i, j = int(i), int(j)
            if i == j:
                raise ConfigError(f"self-loop on node {i}")
            if not (1 <= i <= self.n and 1 <= j <= self.n):
                raise ConfigError(f"edge ({i},{j}) outside nodes 1..{self.n}")
            canon.add((min(i, j), max(i, j)))
        self.edges = frozenset(canon)

    @cached_property
    def adjacency(self):
        adj = {i: [] for i in range(1, self.n + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        return {i: tuple(sorted(nbrs)) for i, nbrs in adj.items()}

    def neighbors(self, i):
        return self.adjacency[i]

    def degree(self, i):
        return len(self.adjacency[i])

    def is_connected(self):
        return len(_bfs_depths(self, 1)) == self.n

    def __repr__(self):
        return f"Network(n={self.n}, edges={len(self.edges)})"


def _bfs_depths(G, source):
    depth = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for v in G.neighbors(u):
                if v not in depth:
                    depth[v] = depth[u] + 1
                    nxt.append(v)
        frontier = nxt
    return depth


def make_network(n, edges):
    """Validated constructor: rejects disconnected graphs."""
    G = Network(n, edges)
    if not G.is_connected():
        raise DisconnectedGraphError(f"graph on {n} nodes is not connected")
    return G


def _grid_shape(n):
    rows = 1
    for r in range(int(np.sqrt(n)), 0, -1):
        if n % r == 0:
            rows = r
            break
    return rows, n // rows


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

    if kind == "path":
        return make_network(n, [(i, i + 1) for i in range(1, n)])
    if kind == "cycle":
        edges = [(i, i + 1) for i in range(1, n)]
        if n >= 3:
            edges.append((1, n))
        return make_network(n, edges)
    if kind == "complete":
        return make_network(n, [(i, j) for i in range(1, n + 1)
                                for j in range(i + 1, n + 1)])
    if kind == "grid":
        rows, cols = _grid_shape(n)
        edges = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c + 1
                if c + 1 < cols:
                    edges.append((node, node + 1))
                if r + 1 < rows:
                    edges.append((node, node + cols))
        return make_network(n, edges)
    if kind == "erdos_renyi":
        if not 0.0 < p <= 1.0:
            raise ConfigError(f"edge probability {p} outside (0, 1]", field="p")
        rng = np.random.default_rng(seed)
        for _ in range(ER_MAX_TRIES):
            edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                     if rng.random() < p]
            G = Network(n, edges)
            if G.is_connected():
                return G
        raise GraphGenerationError(
            f"no connected draw in {ER_MAX_TRIES} tries (n={n}, p={p})")

    raise ConfigError(f"unknown graph kind {kind!r}; expected one of "
                      f"{', '.join(GRAPH_KINDS)}", field="kind")


def diameter(G):
    """Longest shortest-path distance, by BFS from every node."""
    best = 0
    for source in range(1, G.n + 1):
        depth = _bfs_depths(G, source)
        if len(depth) != G.n:
            raise DisconnectedGraphError(
                f"distances undefined: node {source} cannot reach every node")
        best = max(best, max(depth.values()))
    return best


def graph_from_config(cfg):
    """Build a Network from its JSON description: kind, n, p, seed."""
    if not isinstance(cfg, dict):
        raise ConfigError("graph spec must be an object", field="graph")
    known = {"kind", "n", "p", "seed"}
    for key in cfg:
        if key not in known:
            raise ConfigError(f"unknown key {key!r} in graph spec",
                              field=f"graph.{key}")
    if "kind" not in cfg or "n" not in cfg:
        raise ConfigError("graph spec needs 'kind' and 'n'", field="graph")
    return generate(cfg["kind"], int(cfg["n"]), seed=cfg.get("seed", 0),
                    p=float(cfg.get("p", 0.5)))

