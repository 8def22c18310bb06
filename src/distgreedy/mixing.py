"""Mixing matrices for gossip averaging.

A valid weight matrix is nonnegative, supported on the graph (plus the
diagonal), doubly stochastic, symmetric, and contractive: its second
largest eigenvalue magnitude mu is below 1. mu governs how fast repeated
averaging pulls every agent's vector toward the global mean, so it is
the single number the protocol's error bounds depend on.

Two independent spectral routes are provided: a dense symmetric
eigensolver and a power iteration on the mean-deflated matrix. They
agree to high accuracy on valid inputs and cross-check each other in the
test suite.
"""

import csv
import os

import numpy as np

from .errors import ConfigError

STRUCT_TOL = 1e-12


class MixingMatrix:
    """Validated weight matrix with its contraction rate mu."""

    def __init__(self, W, mu, construction="custom"):
        W = np.array(W, dtype=float)
        W.flags.writeable = False
        self.W = W
        self.mu = float(mu)
        self.construction = construction

    @property
    def n(self):
        return self.W.shape[0]

    def __repr__(self):
        return f"MixingMatrix({self.construction}, n={self.n}, mu={self.mu:.6g})"


class MixingReport:
    """Per-condition outcome of validate_mixing."""

    def __init__(self, nonnegative, supported, stochastic, symmetric,
                 contractive, mu):
        self.nonnegative = nonnegative    # entries >= 0, zero off the graph
        self.supported = supported
        self.stochastic = stochastic      # rows sum to 1
        self.symmetric = symmetric
        self.contractive = contractive    # mu < 1
        self.mu = mu

    @property
    def passed(self):
        return (self.nonnegative and self.supported and self.stochastic
                and self.symmetric and self.contractive)

    def __repr__(self):
        flags = {"nonnegative": self.nonnegative, "supported": self.supported,
                 "stochastic": self.stochastic, "symmetric": self.symmetric,
                 "contractive": self.contractive}
        return f"MixingReport(passed={self.passed}, mu={self.mu}, {flags})"


def spectral_mu(W):
    """max of the second eigenvalue and the negated smallest one.

    Eigenvalues come from the dense symmetric solver and are sorted
    descending; for a doubly stochastic symmetric W the leading one is 1
    and mu < 1 exactly when averaging contracts.
    """
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {W.shape}")
    n = W.shape[0]
    if n < 2:
        raise ValueError("contraction rate undefined for a single node")
    if not np.allclose(W, W.T, rtol=0.0, atol=STRUCT_TOL):
        raise ValueError("matrix is not symmetric")
    lam = np.linalg.eigvalsh(W)[::-1]
    return float(max(lam[1], -lam[-1]))


def power_iteration_mu(W):
    """Contraction rate via power iteration on the deflated matrix.

    Deflating the known leading eigenpair (eigenvalue 1 on the all-ones
    direction) leaves a matrix whose spectral radius is mu. The
    iteration squares the deflated matrix so that a +/-mu eigenvalue
    pair, which would make plain power iteration oscillate, becomes a
    single dominant eigenvalue mu^2. Seed-0 start; at most 200000 steps.
    """
    W = np.asarray(W, dtype=float)
    n = W.shape[0]
    if n < 2:
        raise ValueError("contraction rate undefined for a single node")
    B = W - np.full((n, n), 1.0 / n)
    x = np.random.default_rng(0).normal(size=n)
    x /= np.linalg.norm(x)
    rho = 0.0
    for _ in range(200_000):
        y = B @ (B @ x)
        norm = np.linalg.norm(y)
        if norm == 0.0:
            return 0.0
        rho_new = float(x @ y)
        x = y / norm
        if abs(rho_new - rho) <= 1e-13 * max(1.0, abs(rho_new)):
            rho = rho_new
            break
        rho = rho_new
    return float(np.sqrt(max(rho, 0.0)))


def validate_mixing(W, G):
    """Check all weight-matrix conditions, to STRUCT_TOL, against a graph.

    Returns a report rather than raising: adversarial matrices (for
    instance periodic chains with mu = 1) are legitimate test inputs.
    """
    W = np.asarray(W, dtype=float)
    n = G.n
    if W.shape != (n, n):
        raise ValueError(f"matrix shape {W.shape} does not match n={n}")
    nonnegative = bool((W >= -STRUCT_TOL).all())
    allowed = G.adjacency | np.eye(n, dtype=bool)
    supported = not (np.abs(W[~allowed]) > STRUCT_TOL).any()
    stochastic = bool(np.abs(W.sum(axis=1) - 1.0).max() <= STRUCT_TOL)
    symmetric = bool(np.abs(W - W.T).max() <= STRUCT_TOL)
    mu = _rate(W) if symmetric else float("nan")
    contractive = bool(mu < 1.0)
    return MixingReport(nonnegative, supported, stochastic, symmetric,
                        contractive, mu)


def _rate(W):
    """spectral_mu of a symmetric W, and 0 on a single node, where
    averaging is the identity and the error bound is 0."""
    return 0.0 if W.shape[0] == 1 else spectral_mu(W)


def _fill_diagonal(W):
    """W, whose diagonal is 0, with each row's remainder to 1 put on it."""
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W


def metropolis_weights(G):
    """Edge weight 1/(1+max degree of the endpoints), remainder on the
    diagonal. Valid on every connected graph."""
    d = G.adjacency.sum(axis=1)
    W = _fill_diagonal(np.where(G.adjacency, 1.0 / (1.0 + np.maximum.outer(d, d)), 0.0))
    return MixingMatrix(W, _rate(W), "metropolis")


def lazy_max_degree_weights(G):
    """Half-lazy version of the uniform 1/max-degree rule.

    The plain max-degree chain can be periodic (mu = 1 on regular
    bipartite graphs); averaging it with the identity shifts every
    eigenvalue into [0, 1) and restores contraction.
    """
    # a single node has maximum degree 0 and no edge to weight
    dmax = max(int(G.adjacency.sum(axis=1).max()), 1)
    W = (np.eye(G.n) + _fill_diagonal(G.adjacency / dmax)) / 2.0
    return MixingMatrix(W, _rate(W), "lazy_max_degree")


def uniform_complete_weights(n):
    """All weights 1/n: exact averaging in one step on a complete graph.

    The contraction rate is exactly 0 by construction, so it is set
    analytically rather than through the eigensolver.
    """
    if n < 2:
        raise ConfigError("uniform weights need at least two nodes", field="mixing")
    W = np.full((n, n), 1.0 / n)
    return MixingMatrix(W, 0.0, "uniform_complete")


def lazy(mix):
    """Average a mixing matrix with the identity: halves the gap to 1."""
    n = mix.n
    W = (np.eye(n) + mix.W) / 2.0
    return MixingMatrix(W, _rate(W), "custom")


class ContractionReport:
    """Row-deviation of matrix powers against the geometric envelope."""

    def __init__(self, rows, passed):
        self.rows = rows        # (t, measured, bound, ok) per power
        self.passed = passed


def contraction_bound_check(mix, t_max):
    """Check that powers of W approach the averaging matrix geometrically.

    For each power t up to t_max, the worst row deviation
    max_i sum_j |(W^t)_ij - 1/n| is computed by repeated multiplication
    and compared against sqrt(n) * mu^t plus a 1e-9 slack.
    """
    W = mix.W
    n = W.shape[0]
    mu = mix.mu
    rows = []
    passed = True
    P = W.copy()
    for t in range(1, t_max + 1):
        measured = float(np.abs(P - 1.0 / n).sum(axis=1).max())
        bound = float(np.sqrt(n) * mu ** t)
        ok = measured <= bound + 1e-9
        passed = passed and ok
        rows.append((t, measured, bound, ok))
        P = P @ W
    return ContractionReport(rows, passed)


def read_matrix_csv(path):
    """The square matrix of finite numbers in a CSV file; a file that does
    not hold one is a ConfigError at mixing.custom_csv, where configs name
    the file."""
    try:
        # fspath: an integer would open a file descriptor, not a file
        with open(os.fspath(path), newline="") as fh:
            W = np.array([[float(x) for x in row]
                          for row in csv.reader(fh) if row], dtype=float)
    except (OSError, TypeError, ValueError) as exc:
        raise ConfigError(f"cannot read matrix CSV {path}: {exc}",
                          field="mixing.custom_csv") from None
    if W.ndim != 2 or W.shape[0] != W.shape[1]:
        raise ConfigError(f"matrix CSV is not square: shape {W.shape}",
                          field="mixing.custom_csv")
    bad = np.argwhere(~np.isfinite(W))
    if len(bad):
        i, j = bad[0]
        raise ConfigError(f"matrix CSV entry ({i + 1},{j + 1}) is {W[i, j]}, "
                          "not a finite number", field="mixing.custom_csv")
    return W


def mixing_from_config(spec, G):
    """Build a MixingMatrix from its JSON description.

    Accepts "metropolis", "lazy" (lazy max-degree), "uniform" (complete
    graphs only), or {"custom_csv": path}. Custom matrices must satisfy
    the structural conditions; contraction is reported but not enforced,
    so deliberately slow or periodic chains can be loaded for
    experiments. epsilon(T) holds for them too: at mu = 1 it is
    sqrt(n) * value_cap, vacuous, and psi 'auto' is refused.
    """
    if spec == "metropolis":
        return metropolis_weights(G)
    if spec == "lazy":
        return lazy_max_degree_weights(G)
    if spec == "uniform":
        if G.adjacency.sum() != G.n * (G.n - 1):
            raise ConfigError("uniform weights require a complete graph",
                              field="mixing")
        return uniform_complete_weights(G.n)
    if isinstance(spec, dict) and set(spec) == {"custom_csv"}:
        W = read_matrix_csv(spec["custom_csv"])
        if W.shape[0] != G.n:
            raise ConfigError(
                f"custom matrix is {W.shape[0]}x{W.shape[0]} but the graph has "
                f"{G.n} nodes", field="mixing.custom_csv")
        report = validate_mixing(W, G)
        if not (report.nonnegative and report.supported and report.stochastic
                and report.symmetric):
            raise ConfigError(
                f"custom matrix violates structural conditions: {report!r}",
                field="mixing.custom_csv")
        return MixingMatrix(W, report.mu, "custom")
    raise ConfigError(f"unrecognized mixing spec {spec!r}", field="mixing")
