"""Weighted SMACOF multidimensional scaling.

SMACOF (Scaling by MAjorizing a COmplicated Function) minimises the
weighted stress::

    S(X) = sum_{i<j} w_ij (delta_ij - ||x_i - x_j||)^2

by iteratively minimising a convex majorising function — the Guttman
transform ``X <- V^+ B(X) X`` — which converges monotonically and, per
the paper, faster and more accurately than steepest descent on the raw
stress. Missing links are handled by zero weights (paper section 2.1.2).

The *normalised stress* reported here is ``sqrt(S / n_links)``, which
has units of metres (RMS per-link distance residual) and is the
statistic Algorithm 1 thresholds at 1.5 m.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import LocalizationError
from repro.geometry.topology import full_weight_matrix


@dataclass(frozen=True)
class SmacofResult:
    """Output of a SMACOF run.

    Attributes
    ----------
    positions:
        (N, dim) embedding.
    stress:
        Final raw stress value.
    normalized_stress:
        ``sqrt(stress / n_links)`` in metres.
    n_iter:
        Iterations executed.
    converged:
        Whether the relative stress change dropped below tolerance.
    """

    positions: np.ndarray
    stress: float
    normalized_stress: float
    n_iter: int
    converged: bool


def _validate_inputs(distances: np.ndarray, weights: np.ndarray) -> None:
    if distances.ndim != 2 or distances.shape[0] != distances.shape[1]:
        raise ValueError("distances must be a square matrix")
    if weights.shape != distances.shape:
        raise ValueError("weights must match distances in shape")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    if not np.allclose(weights, weights.T):
        raise ValueError("weights must be symmetric")
    active = weights > 0
    if np.any(~np.isfinite(distances[active])):
        raise ValueError("active links must have finite distances")
    if np.any(distances[active] < 0):
        raise ValueError("distances must be non-negative")


def _pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """(N, N) Euclidean distances between the rows of ``positions``."""
    return np.linalg.norm(positions[:, None, :] - positions[None, :, :], axis=-1)


def _masked_stress(
    dist: np.ndarray, distances: np.ndarray, mask: np.ndarray, masked_weights: np.ndarray
) -> float:
    """Raw stress from a precomputed embedding distance matrix.

    ``mask`` selects the upper-triangle links and ``masked_weights`` is
    ``weights`` zeroed outside it; the sum runs over the full matrix.
    """
    resid = np.where(mask, distances - dist, 0.0)
    return float(np.sum(masked_weights * resid**2))


def stress_value(positions: np.ndarray, distances: np.ndarray, weights: np.ndarray) -> float:
    """Weighted raw stress of an embedding."""
    mask = np.triu(weights, k=1) > 0
    return _masked_stress(
        _pairwise_distances(positions), distances, mask, np.where(mask, weights, 0.0)
    )


def normalized_stress(stress: float, weights: np.ndarray) -> float:
    """RMS per-link residual in metres: ``sqrt(stress / n_links)``."""
    n_links = int(np.count_nonzero(np.triu(weights, k=1)))
    if n_links == 0:
        raise LocalizationError("no links in the network")
    return float(np.sqrt(stress / n_links))


def _graph_complete_distances(distances: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fill missing entries with shortest-path distances for MDS init."""
    import networkx as nx

    n = distances.shape[0]
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    for i in range(n):
        for j in range(i + 1, n):
            if weights[i, j] > 0:
                graph.add_edge(i, j, weight=float(distances[i, j]))
    if not nx.is_connected(graph):
        raise LocalizationError("measurement graph is disconnected")
    completed = np.array(distances, dtype=float, copy=True)
    lengths = dict(nx.all_pairs_dijkstra_path_length(graph))
    for i in range(n):
        for j in range(n):
            if i != j and weights[i, j] == 0:
                completed[i, j] = lengths[i][j]
    np.fill_diagonal(completed, 0.0)
    return completed


def classical_mds(distances: np.ndarray, dim: int = 2) -> np.ndarray:
    """Torgerson classical MDS embedding of a complete distance matrix.

    Used as the SMACOF initialiser. Eigenvalues below zero (from
    measurement noise / non-euclidean input) are clamped.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim != 2 or d.shape[0] != d.shape[1]:
        raise ValueError("distances must be square")
    n = d.shape[0]
    if dim >= n:
        raise ValueError("dim must be smaller than the number of points")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d**2) @ j
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1][:dim]
    vals = np.clip(eigvals[order], 0.0, None)
    return eigvecs[:, order] * np.sqrt(vals)


def smacof(
    distances: np.ndarray,
    weights: np.ndarray | None = None,
    dim: int = 2,
    init: np.ndarray | None = None,
    max_iter: int = 300,
    tol: float = 1e-7,
    rng: np.random.Generator | None = None,
) -> SmacofResult:
    """Minimise weighted stress with the Guttman transform.

    Parameters
    ----------
    distances:
        Target dissimilarities (metres). Entries with zero weight are
        ignored (may be NaN).
    weights:
        Symmetric non-negative weight matrix; defaults to fully
        connected. Zero marks a missing link.
    dim:
        Embedding dimension (2 for this system).
    init:
        Optional initial configuration; defaults to classical MDS on the
        shortest-path-completed matrix (plus a tiny jitter to escape
        collinear degeneracies).
    max_iter / tol:
        Iteration controls; ``tol`` is the relative stress decrease that
        counts as convergence.
    """
    d = np.asarray(distances, dtype=float)
    w = full_weight_matrix(d.shape[0]) if weights is None else np.asarray(weights, dtype=float)
    _validate_inputs(d, w)
    n = d.shape[0]
    if n < 3:
        raise LocalizationError("need at least 3 nodes to embed in 2D")
    rng = rng or np.random.default_rng(0)

    if init is None:
        completed = _graph_complete_distances(d, w)
        x = classical_mds(completed, dim=dim)
        x = x + rng.normal(0.0, 1e-6, size=x.shape)
    else:
        x = np.array(init, dtype=float, copy=True)
        if x.shape != (n, dim):
            raise ValueError(f"init must be ({n}, {dim})")

    # Guttman transform machinery. V, the link mask and the masked
    # weights depend only on the weights, so they are built once per
    # solve. Each step computes one distance matrix, which serves both
    # the stress of the new configuration and the next B(X).
    diag = slice(None, None, n + 1)  # the diagonal, in flat (C-order) indexing
    v = -np.array(w, dtype=float, copy=True)
    v.flat[diag] = 0.0
    v.flat[diag] = -v.sum(axis=1)
    v_pinv = np.linalg.pinv(v)
    neg_w = -w
    mask = np.triu(w, k=1) > 0
    masked_w = np.where(mask, w, 0.0)

    d_clean = np.where(w > 0, np.nan_to_num(d, nan=0.0), 0.0)

    dist = _pairwise_distances(x)
    prev_stress = _masked_stress(dist, d_clean, mask, masked_w)
    converged = False
    iteration = 0
    with np.errstate(divide="ignore", invalid="ignore"):
        for iteration in range(1, max_iter + 1):
            ratio = np.where(dist > 1e-12, d_clean / dist, 0.0)
            b = neg_w * ratio
            b.flat[diag] = 0.0
            b.flat[diag] = -b.sum(axis=1)
            x = v_pinv @ (b @ x)
            dist = _pairwise_distances(x)
            stress = _masked_stress(dist, d_clean, mask, masked_w)
            if prev_stress > 0 and (prev_stress - stress) / max(prev_stress, 1e-15) < tol:
                prev_stress = stress
                converged = True
                break
            prev_stress = stress

    return SmacofResult(
        positions=x,
        stress=prev_stress,
        normalized_stress=normalized_stress(prev_stress, w),
        n_iter=iteration,
        converged=converged,
    )
