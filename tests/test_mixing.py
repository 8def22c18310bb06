"""Mixing-matrix constructions, spectra and the contraction envelope."""

import re

import numpy as np
import pytest

from distgreedy import (
    contraction_bound_check,
    generate,
    lazy,
    lazy_max_degree_weights,
    metropolis_weights,
    power_iteration_mu,
    spectral_mu,
    uniform_complete_weights,
    validate_mixing,
)
from distgreedy.errors import ConfigError
from distgreedy.mixing import (
    STRUCT_TOL,
    MixingMatrix,
    mixing_from_config,
    read_matrix_csv,
)


def p3_metropolis():
    return metropolis_weights(generate("path", 3))


# --- constructions ----------------------------------------------------------

def test_metropolis_path3_matrix():
    W = p3_metropolis().W
    expected = np.array([[2 / 3, 1 / 3, 0.0],
                         [1 / 3, 1 / 3, 1 / 3],
                         [0.0, 1 / 3, 2 / 3]])
    assert np.abs(W - expected).max() < 1e-15


def test_metropolis_two_nodes():
    W = metropolis_weights(generate("complete", 2)).W
    assert np.array_equal(W, np.array([[0.5, 0.5], [0.5, 0.5]]))


def test_metropolis_single_node():
    M = metropolis_weights(generate("path", 1))
    assert np.array_equal(M.W, np.ones((1, 1)))
    assert M.mu == 0.0
    with pytest.raises(ValueError):
        spectral_mu(M.W)


def test_lazy_max_degree_single_node():
    M = lazy_max_degree_weights(generate("path", 1))
    assert np.array_equal(M.W, np.ones((1, 1)))
    assert M.mu == 0.0
    assert M.construction == "lazy_max_degree"


def test_validate_mixing_single_node():
    report = validate_mixing(np.ones((1, 1)), generate("path", 1))
    assert report.passed
    assert report.mu == 0.0


def test_uniform_complete_entries_and_mu():
    M = uniform_complete_weights(3)
    assert np.all(M.W == 1 / 3)
    assert M.mu == 0.0
    assert spectral_mu(M.W) < 1e-12


def test_uniform_averages_in_one_step():
    rng = np.random.default_rng(2)
    for n in (2, 4, 5):
        M = uniform_complete_weights(n)
        x = rng.normal(size=n)
        y = M.W @ x
        assert np.abs(y - x.mean()).max() < 1e-12


def test_uniform_k2_spectrum():
    lam = np.sort(np.linalg.eigvalsh(uniform_complete_weights(2).W))
    assert np.abs(lam - np.array([0.0, 1.0])).max() < 1e-12


def test_constructions_validate_on_random_graphs():
    rng = np.random.default_rng(9)
    for _ in range(25):
        n = int(rng.integers(2, 13))
        kind = ["path", "cycle", "complete", "grid", "erdos_renyi"][int(rng.integers(5))]
        G = generate(kind, n, seed=rng.integers(2 ** 31), p=0.45)
        for M in (metropolis_weights(G), lazy_max_degree_weights(G)):
            assert validate_mixing(M.W, G).passed, (kind, n, M.construction)


# --- validation -------------------------------------------------------------

def test_identity_fails_contraction_only():
    G = generate("path", 3)
    report = validate_mixing(np.eye(3), G)
    assert report.nonnegative and report.supported
    assert report.stochastic and report.symmetric
    assert report.mu == pytest.approx(1.0)
    assert not report.contractive
    assert not report.passed


def test_negative_entry_fails_nonnegativity():
    G = generate("complete", 2)
    W = np.array([[1.5, -0.5], [-0.5, 1.5]])
    report = validate_mixing(W, G)
    assert not report.nonnegative
    assert not report.passed


def test_off_graph_weight_fails_support():
    G = generate("path", 3)
    W = np.full((3, 3), 1 / 3)
    report = validate_mixing(W, G)
    assert not report.supported


def _supported_by_pairs(W, G):
    """The support check pair by pair: no entry off the graph and the
    diagonal exceeds STRUCT_TOL in magnitude (so NaN reads as supported)."""
    return not any(abs(W[i - 1, j - 1]) > STRUCT_TOL
                   for i in range(1, G.n + 1) for j in range(1, G.n + 1)
                   if i != j and (min(i, j), max(i, j)) not in G.edges)


def test_support_check_matches_a_pairwise_scan():
    rng = np.random.default_rng(5)
    for trial in range(60):
        n = int(rng.integers(1, 7))
        G = generate(("path", "cycle", "complete", "grid", "erdos_renyi")[trial % 5],
                     n, seed=trial, p=0.6)
        W = metropolis_weights(G).W.copy()
        for _ in range(int(rng.integers(0, 3))):
            i, j = rng.integers(0, n, size=2)
            W[i, j] = rng.choice([np.nan, np.inf, 1e-13, 0.3, -0.3])
        with np.errstate(invalid="ignore"):  # inf - inf in the symmetry check
            report = validate_mixing(W, G)
        assert report.supported is _supported_by_pairs(W, G), (trial, W)
    nan_off_graph = np.eye(3)
    nan_off_graph[0, 2] = np.nan
    assert validate_mixing(nan_off_graph, generate("path", 3)).supported


def test_metropolis_passes_everywhere():
    report = validate_mixing(p3_metropolis().W, generate("path", 3))
    assert report.passed


def test_validate_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        validate_mixing(np.eye(4), generate("path", 3))


# --- spectra ----------------------------------------------------------------

def test_spectral_mu_path3_exact():
    M = p3_metropolis()
    assert abs(M.mu - 2 / 3) < 1e-10
    lam = np.sort(np.linalg.eigvalsh(M.W))[::-1]
    assert np.abs(lam - np.array([1.0, 2 / 3, 0.0])).max() < 1e-10


def test_lazy_path3_spectrum():
    L = lazy(p3_metropolis())
    assert abs(L.mu - 5 / 6) < 1e-12
    lam = np.sort(np.linalg.eigvalsh(L.W))[::-1]
    assert np.abs(lam - np.array([1.0, 5 / 6, 0.5])).max() < 1e-12


def test_spectral_mu_rejects_asymmetric():
    with pytest.raises(ValueError):
        spectral_mu(np.array([[0.5, 0.5], [0.2, 0.8]]))


def test_spectral_mu_rejects_single_node():
    with pytest.raises(ValueError):
        spectral_mu(np.ones((1, 1)))


def test_power_iteration_matches_eigensolver():
    rng = np.random.default_rng(17)
    for _ in range(40):
        n = int(rng.integers(2, 13))
        G = generate("erdos_renyi", n, seed=rng.integers(2 ** 31), p=0.5)
        M = metropolis_weights(G)
        assert abs(power_iteration_mu(M.W) - M.mu) < 1e-8


def test_power_iteration_handles_negative_dominant_eigenvalue():
    # periodic two-node chain: eigenvalues 1 and -1
    W = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert abs(power_iteration_mu(W) - 1.0) < 1e-10
    assert abs(spectral_mu(W) - 1.0) < 1e-12


# --- contraction of powers --------------------------------------------------

def test_contraction_uniform_is_exact():
    report = contraction_bound_check(uniform_complete_weights(4), 10)
    assert report.passed
    for _, measured, bound, _ in report.rows:
        assert measured <= 1e-15
        assert bound == 0.0


def test_contraction_path3_first_step_value():
    report = contraction_bound_check(p3_metropolis(), 1)
    t, measured, bound, ok = report.rows[0]
    assert t == 1 and ok
    assert measured == pytest.approx(2 / 3, abs=1e-12)
    assert bound == pytest.approx(np.sqrt(3) * 2 / 3, abs=1e-12)


def test_contraction_path3_twenty_steps():
    report = contraction_bound_check(p3_metropolis(), 20)
    assert report.passed
    _, measured, bound, _ = report.rows[-1]
    assert bound == pytest.approx(np.sqrt(3) * (2 / 3) ** 20, rel=1e-12)
    assert measured <= bound + 1e-9


def test_powers_stay_doubly_stochastic():
    M = metropolis_weights(generate("cycle", 6))
    P = M.W.copy()
    for _ in range(100):
        P = P @ M.W
    assert np.abs(P.sum(axis=1) - 1.0).max() < 1e-9
    assert np.abs(P.sum(axis=0) - 1.0).max() < 1e-9


def test_lazy_mu_halves_gap_on_path3():
    # checked only on this instance, where the spectrum is known directly
    M = p3_metropolis()
    assert lazy(M).mu == pytest.approx((1 + M.mu) / 2, abs=1e-12)


# --- io and config ----------------------------------------------------------

def test_matrix_csv_round_trip(tmp_path):
    M = metropolis_weights(generate("cycle", 5))
    path = tmp_path / "w.csv"
    np.savetxt(path, M.W, fmt="%.17g", delimiter=",")
    back = read_matrix_csv(path)
    assert np.array_equal(back, M.W)


@pytest.mark.parametrize("text, cell", [("inf,0.5\n0.5,inf\n", "(1,1) is inf"),
                                        ("0.5,0.5\n0.5,nan\n", "(2,2) is nan"),
                                        ("0.5,-inf\n0.5,0.5\n", "(1,2) is -inf")])
def test_non_finite_matrix_csv_entry_is_named(tmp_path, text, cell):
    path = tmp_path / "w.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match=rf"entry {re.escape(cell)}, not a finite"):
        read_matrix_csv(path)


def test_mixing_from_config_names(tmp_path):
    G = generate("complete", 3)
    assert mixing_from_config("metropolis", G).construction == "metropolis"
    assert mixing_from_config("lazy", G).construction == "lazy_max_degree"
    assert mixing_from_config("uniform", G).construction == "uniform_complete"
    path = tmp_path / "w.csv"
    np.savetxt(path, uniform_complete_weights(3).W, fmt="%.17g", delimiter=",")
    custom = mixing_from_config({"custom_csv": str(path)}, G)
    assert custom.construction == "custom"
    assert custom.mu < 1e-12


def test_uniform_requires_complete_graph():
    with pytest.raises(ConfigError):
        mixing_from_config("uniform", generate("path", 3))


def test_custom_matrix_must_be_structurally_valid(tmp_path):
    G = generate("path", 3)
    path = tmp_path / "w.csv"
    np.savetxt(path, np.full((3, 3), 1 / 3), fmt="%.17g", delimiter=",")
    with pytest.raises(ConfigError):
        mixing_from_config({"custom_csv": str(path)}, G)


def test_custom_periodic_chain_is_loadable(tmp_path):
    # mu = 1 is allowed through for adversarial experiments
    G = generate("path", 2)
    path = tmp_path / "w.csv"
    np.savetxt(path, np.array([[0.0, 1.0], [1.0, 0.0]]), fmt="%.17g", delimiter=",")
    M = mixing_from_config({"custom_csv": str(path)}, G)
    assert M.mu == pytest.approx(1.0)


def test_mixing_matrix_is_frozen():
    M = uniform_complete_weights(3)
    with pytest.raises(ValueError):
        M.W[0, 0] = 9.0
