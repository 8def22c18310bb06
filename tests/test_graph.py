"""Graph generators and exact diameters."""

import numpy as np
import pytest

from distgreedy import Network, diameter, generate
from distgreedy.errors import ConfigError, DisconnectedGraphError, GraphGenerationError
from distgreedy.graph import intersection_sources, make_network


def test_complete_graph_edge_count():
    G = generate("complete", 4)
    assert len(G.edges) == 6


def test_path_edges_exact():
    G = generate("path", 4)
    assert G.edges == frozenset({(1, 2), (2, 3), (3, 4)})


def test_cycle_all_degrees_two():
    G = generate("cycle", 6)
    assert all(G.degree(i) == 2 for i in range(1, 7))


def test_diameter_complete():
    for n in (2, 3, 5, 8):
        assert diameter(generate("complete", n)) == 1


def test_diameter_path():
    for n in (2, 4, 7):
        assert diameter(generate("path", n)) == n - 1


def test_diameter_cycle_six():
    assert diameter(generate("cycle", 6)) == 3


def test_diameter_single_node():
    assert diameter(generate("path", 1)) == 0


def test_no_nodes_is_not_connected_and_has_diameter_zero():
    G = Network(0, [])
    assert G.is_connected() is False
    assert diameter(G) == 0


def test_one_node_is_connected_and_is_its_own_source():
    G = Network(1, [])
    assert G.is_connected() is True
    assert diameter(G) == 0
    assert intersection_sources(G).tolist() == [[0]]


def test_diameter_invariant_under_relabeling():
    rng = np.random.default_rng(5)
    G = generate("erdos_renyi", 9, seed=2, p=0.35)
    perm = {i + 1: int(p) + 1 for i, p in enumerate(rng.permutation(9))}
    H = make_network(9, [(perm[i], perm[j]) for i, j in G.edges])
    assert diameter(H) == diameter(G)


def test_grid_four_nodes_is_square():
    G = generate("grid", 4)
    assert len(G.edges) == 4
    assert diameter(G) == 2


def test_grid_prime_degenerates_to_path():
    G = generate("grid", 7)
    assert diameter(G) == 6


def test_every_generated_graph_is_connected():
    rng = np.random.default_rng(1)
    for kind in ("path", "cycle", "complete", "grid"):
        for n in (1, 2, 3, 8, 12):
            assert generate(kind, n).is_connected()
    for _ in range(20):
        G = generate("erdos_renyi", int(rng.integers(2, 13)),
                     seed=rng.integers(2 ** 31), p=0.4)
        assert G.is_connected()


def test_erdos_renyi_deterministic_per_seed():
    a = generate("erdos_renyi", 10, seed=33, p=0.3)
    b = generate("erdos_renyi", 10, seed=33, p=0.3)
    assert a.edges == b.edges


def test_erdos_renyi_retry_budget():
    with pytest.raises(GraphGenerationError):
        generate("erdos_renyi", 10, seed=0, p=1e-9)


def test_diameter_rejects_disconnected():
    G = Network(4, [(1, 2), (3, 4)])
    with pytest.raises(DisconnectedGraphError):
        diameter(G)


def test_make_network_rejects_disconnected():
    with pytest.raises(DisconnectedGraphError):
        make_network(3, [(1, 2)])


def test_self_loops_rejected():
    with pytest.raises(ConfigError):
        Network(3, [(1, 1), (1, 2), (2, 3)])


def test_unknown_kind_rejected():
    with pytest.raises(ConfigError):
        generate("torus", 4)
