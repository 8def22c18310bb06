"""The adjacency-array graph layer against an edge-set reference.

The reference keeps the graph as a set of canonical (i, j) edges and a
dict of neighbour tuples, walks it by breadth-first search from every
node, and builds the mixing weights edge by edge. Every graph query, the
diameter, the Erdős–Rényi draw, the intersection sources and the
metropolis and lazy max-degree matrices must equal it exactly.
"""

import re

import numpy as np
import pytest

from distgreedy import Network, diameter, generate
from distgreedy.errors import ConfigError, DisconnectedGraphError
from distgreedy.graph import GRAPH_KINDS
from distgreedy.mixing import lazy_max_degree_weights, metropolis_weights
from distgreedy.protocol import intersection_sources


class RefGraph:
    def __init__(self, n, edges):
        self.n = n
        self.edges = frozenset((min(i, j), max(i, j)) for i, j in edges)
        adj = {i: [] for i in range(1, n + 1)}
        for i, j in self.edges:
            adj[i].append(j)
            adj[j].append(i)
        self.adj = {i: tuple(sorted(v)) for i, v in adj.items()}

    def degree(self, i):
        return len(self.adj[i])

    def depths(self, source):
        depth = {source: 0}
        frontier = [source]
        while frontier:
            nxt = []
            for u in frontier:
                for v in self.adj[u]:
                    if v not in depth:
                        depth[v] = depth[u] + 1
                        nxt.append(v)
            frontier = nxt
        return depth

    def is_connected(self):
        return len(self.depths(1)) == self.n

    def diameter(self):
        best = 0
        for source in range(1, self.n + 1):
            depth = self.depths(source)
            if len(depth) != self.n:
                raise DisconnectedGraphError(
                    f"distances undefined: node {source} cannot reach every node")
            best = max(best, max(depth.values()))
        return best

    def metropolis(self):
        W = np.zeros((self.n, self.n))
        for i, j in self.edges:
            w = 1.0 / (1.0 + max(self.degree(i), self.degree(j)))
            W[i - 1, j - 1] = W[j - 1, i - 1] = w
        for i in range(self.n):
            W[i, i] = 1.0 - W[i].sum()
        return W

    def lazy_max_degree(self):
        dmax = max(self.degree(i) for i in range(1, self.n + 1))
        W = np.zeros((self.n, self.n))
        for i, j in self.edges:
            W[i - 1, j - 1] = W[j - 1, i - 1] = 1.0 / dmax
        for i in range(self.n):
            W[i, i] = 1.0 - W[i].sum()
        return (np.eye(self.n) + W) / 2.0

    def sources(self):
        rows = [(i,) + self.adj[i] for i in range(1, self.n + 1)]
        width = max(map(len, rows))
        return np.array([[v - 1 for v in row + row[:1] * (width - len(row))]
                         for row in rows], dtype=np.intp)


def ref_erdos_renyi(n, seed, p):
    rng = np.random.default_rng(seed)
    while True:
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                 if rng.random() < p]
        R = RefGraph(n, edges)
        if R.is_connected():
            return R


def ref_generate(kind, n, seed, p):
    if kind == "erdos_renyi":
        return ref_erdos_renyi(n, seed, p)
    if kind == "path":
        edges = [(i, i + 1) for i in range(1, n)]
    elif kind == "cycle":
        edges = [(i, i + 1) for i in range(1, n)] + ([(1, n)] if n >= 3 else [])
    elif kind == "complete":
        edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    else:  # grid: rows the largest divisor of n up to its square root
        rows = next(r for r in range(int(np.sqrt(n)), 0, -1) if n % r == 0)
        cols = n // rows
        edges = []
        for r in range(rows):
            for c in range(cols):
                node = r * cols + c + 1
                if c + 1 < cols:
                    edges.append((node, node + 1))
                if r + 1 < rows:
                    edges.append((node, node + cols))
    return RefGraph(n, edges)


def assert_matches(G, R):
    assert G.edges == R.edges
    for i in range(1, R.n + 1):
        assert G.degree(i) == R.degree(i)
        assert G.neighbors(i) == R.adj[i]
    assert G.is_connected() == R.is_connected()
    if not R.is_connected():
        with pytest.raises(DisconnectedGraphError) as got:
            diameter(G)
        with pytest.raises(DisconnectedGraphError) as want:
            R.diameter()
        assert str(got.value) == str(want.value)
        return
    assert diameter(G) == R.diameter()
    assert metropolis_weights(G).W.tobytes() == R.metropolis().tobytes()
    assert lazy_max_degree_weights(G).W.tobytes() == R.lazy_max_degree().tobytes()
    assert np.array_equal(intersection_sources(G), R.sources())


@pytest.mark.parametrize("kind", GRAPH_KINDS)
def test_generated_graphs_match_the_reference(kind):
    rng = np.random.default_rng(11)
    for n in range(1, 31):
        p = float(rng.uniform(0.2, 0.9))
        assert_matches(generate(kind, n, seed=n, p=p), ref_generate(kind, n, n, p))


def test_random_edge_lists_match_the_reference():
    # repeated and reversed pairs, and disconnected graphs, included
    rng = np.random.default_rng(3)
    for n in range(1, 31):
        for _ in range(3):
            k = int(rng.integers(0, 2 * n + 1))
            pairs = [(int(i), int(j)) for i, j in rng.integers(1, n + 1, size=(k, 2))
                     if i != j]
            assert_matches(Network(n, pairs), RefGraph(n, pairs))


def test_random_trees_match_the_reference():
    # long diameters and uneven degrees, with the nodes shuffled
    rng = np.random.default_rng(5)
    for n in range(1, 61):
        label = rng.permutation(n) + 1
        pairs = [(int(label[k]), int(label[rng.integers(0, k)])) for k in range(1, n)]
        assert_matches(Network(n, pairs), RefGraph(n, pairs))


def test_erdos_renyi_draws_the_reference_edges():
    for seed in range(50):
        rng = np.random.default_rng(100 + seed)
        n = int(rng.integers(1, 31))
        p = float(rng.uniform(0.15, 0.8))
        assert generate("erdos_renyi", n, seed=seed, p=p).edges == \
            ref_erdos_renyi(n, seed, p).edges


@pytest.mark.parametrize("n, seed, p", [(50, 1, 0.08), (200, 0, 0.03)])
def test_sparse_erdos_renyi_graphs_match_the_reference(n, seed, p):
    # many nodes of uneven degree, from 1 up to 14
    assert_matches(generate("erdos_renyi", n, seed=seed, p=p), ref_erdos_renyi(n, seed, p))


def test_a_resampled_erdos_renyi_draw_is_the_reference_draw():
    n, seed, p = 50, 1, 0.08
    rng = np.random.default_rng(seed)
    first = RefGraph(n, [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)
                         if rng.random() < p])
    assert not first.is_connected()  # so generate draws at least twice
    assert generate("erdos_renyi", n, seed=seed, p=p).edges == \
        ref_erdos_renyi(n, seed, p).edges


@pytest.mark.parametrize("joined", [True, False], ids=["connected", "disconnected"])
def test_a_hub_beside_a_path_matches_the_reference(joined):
    # the widest closed neighbourhood (node 8, degree 14) and the
    # narrowest (the path's ends) in one graph
    hub = [(8, j) for j in range(1, 16) if j != 8]
    path = [(j, j + 1) for j in range(16, 30)]
    pairs = hub + path + ([(15, 16)] if joined else [])
    assert_matches(Network(30, pairs), RefGraph(30, pairs))


@pytest.mark.parametrize("edge", [(0, 2), (2, 4), (-1, 1), (4, 1), (1, 10**30),
                                  (-10**30, 2)])
def test_edge_outside_the_nodes_is_a_config_error(edge):
    with pytest.raises(ConfigError, match=r"outside nodes 1\.\.3"):
        Network(3, [(1, 2), edge])


@pytest.mark.parametrize("edges, node", [
    ([(1.5, 2), (2, 3.9)], "1.5"), ([("1", 2)], "'1'"), ([(1, 2), (2, None)], "None"),
    (np.array([[1.0, 2.0]]), "1.0")])
def test_a_node_id_that_is_not_an_integer_is_a_config_error(edges, node):
    # a cast to intp once built edge (1,2) from (1.5, 2) and from ("1", 2)
    with pytest.raises(ConfigError, match=rf"^node id {re.escape(node)} is not an integer$"):
        Network(3, edges)


@pytest.mark.parametrize("edges", [[(1, 2, 3), (4, 1, 2)], [1, 2], np.array([[1, 2, 3]]),
                                   [(1, 2), (3,)]])
def test_edges_that_are_not_pairs_are_a_config_error(edges):
    with pytest.raises(ConfigError, match="edges must be"):
        Network(4, edges)


def test_edges_may_be_any_iterable_of_pairs():
    want = frozenset({(1, 2), (2, 3)})
    assert Network(3, {(2, 1), (2, 3)}).edges == want
    assert Network(3, ((i, i + 1) for i in (1, 2))).edges == want
    assert Network(3, []).edges == frozenset()


@pytest.mark.parametrize("node", [0, 4, -1])
def test_node_outside_the_graph_is_a_key_error(node):
    G = generate("path", 3)
    with pytest.raises(KeyError):
        G.neighbors(node)
    with pytest.raises(KeyError):
        G.degree(node)


def test_adjacency_is_read_only():
    G = generate("path", 3)
    with pytest.raises(ValueError):
        G.adjacency[0, 2] = True
