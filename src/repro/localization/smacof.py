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
from typing import List, Tuple

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
    """Check one (N, N) problem, or a stack of them on the leading axes."""
    if distances.ndim < 2 or distances.shape[-1] != distances.shape[-2]:
        raise ValueError("distances must be a square matrix")
    if weights.shape != distances.shape:
        raise ValueError("weights must match distances in shape")
    if np.any(weights < 0):
        raise ValueError("weights must be non-negative")
    transposed = np.swapaxes(weights, -1, -2)
    if not ((weights == transposed).all() or np.allclose(weights, transposed)):
        raise ValueError("weights must be symmetric")
    active = weights > 0
    if np.any(~np.isfinite(distances[active])):
        raise ValueError("active links must have finite distances")
    if np.any(distances[active] < 0):
        raise ValueError("distances must be non-negative")


def _pairwise_distances(positions: np.ndarray) -> np.ndarray:
    """(..., N, N) Euclidean distances between the rows of ``positions``.

    One (..., N, N) plane per coordinate, squared and added in
    coordinate order (``dx*dx + dy*dy`` in 2D): the bits of
    ``np.linalg.norm(diff, axis=-1)``, whose reduction over a short
    axis adds in that order, without its per-call dispatch.
    """
    total = None
    for c in range(positions.shape[-1]):
        col = positions[..., c]
        sq = col[..., :, None] - col[..., None, :]
        sq *= sq
        total = sq if total is None else np.add(total, sq, out=total)
    return np.sqrt(total, out=total)


def _masked_stress(
    dist: np.ndarray, distances: np.ndarray, masked_weights: np.ndarray
) -> np.ndarray:
    """Raw stress from precomputed embedding distance matrices.

    ``masked_weights`` is ``weights`` zeroed outside the upper-triangle
    links and ``distances`` is finite, so every term outside the links
    is ``+0.0``, as a residual masked to ``0.0`` gives. Each problem's
    sum runs over its full (N, N) matrix as one flat pairwise sum, so a
    stacked call gives every problem the bits of its own ``np.sum``.
    """
    terms = distances - dist
    terms *= terms
    terms *= masked_weights
    return np.add.reduce(terms.reshape(terms.shape[:-2] + (-1,)), axis=-1)


def stress_value(positions: np.ndarray, distances: np.ndarray, weights: np.ndarray) -> float:
    """Weighted raw stress of an embedding."""
    mask = np.triu(weights, k=1) > 0
    return float(
        _masked_stress(
            _pairwise_distances(positions),
            np.where(mask, distances, 0.0),
            np.where(mask, weights, 0.0),
        )
    )


def normalized_stress(stress: float, weights: np.ndarray) -> float:
    """RMS per-link residual in metres: ``sqrt(stress / n_links)``."""
    n_links = int(np.count_nonzero(np.triu(weights, k=1)))
    if n_links == 0:
        raise LocalizationError("no links in the network")
    return float(np.sqrt(stress / n_links))


def _graph_complete_distances(distances: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """Fill missing entries with shortest-path distances for MDS init.

    The graph has one edge of length ``distances[i, j]`` per upper-
    triangle link. Dijkstra runs from every source at once: each of
    the N steps finalizes, per row, the nearest unvisited node ``u``
    and relaxes ``dist[r, u] + adj[u]``. Every value is the float sum
    of edge lengths taken from the source outward along a path, the
    smallest such sum, so the result equals a per-source heap Dijkstra
    bit for bit, ties and zero-length links included. Works on one
    (N, N) problem or a stack of them.

    When every off-diagonal weight of the stack is positive, the
    completion is read only on its diagonal, where Dijkstra's value is
    the source's ``+0.0`` (validated lengths are non-negative), so the
    N steps are skipped.
    """
    n = weights.shape[-1]
    eye = np.eye(n, dtype=bool)
    if ((weights > 0) | eye).all():
        return np.where(eye, 0.0, np.broadcast_to(distances, weights.shape))
    upper = np.triu(weights, k=1) > 0
    tri = np.where(upper, distances, np.inf)
    adj = np.minimum(tri, np.swapaxes(tri, -1, -2))
    dist = np.broadcast_to(np.where(eye, 0.0, np.inf), adj.shape)
    unvisited = np.ones(adj.shape, dtype=bool)
    for _ in range(n):
        u = np.argmin(np.where(unvisited, dist, np.inf), axis=-1)[..., None]
        np.put_along_axis(unvisited, u, False, axis=-1)
        reach = np.take_along_axis(dist, u, axis=-1)
        dist = np.minimum(dist, reach + np.take_along_axis(adj, u, axis=-2))
    if np.isinf(dist).any():
        raise LocalizationError("measurement graph is disconnected")
    return np.where((weights == 0) | eye, dist, distances)


def classical_mds(distances: np.ndarray, dim: int = 2) -> np.ndarray:
    """Torgerson classical MDS embedding of a complete distance matrix.

    Used as the SMACOF initialiser. Eigenvalues below zero (from
    measurement noise / non-euclidean input) are clamped. A (K, N, N)
    stack gives the (K, N, dim) embeddings of its matrices.
    """
    d = np.asarray(distances, dtype=float)
    if d.ndim < 2 or d.shape[-1] != d.shape[-2]:
        raise ValueError("distances must be square")
    n = d.shape[-1]
    if dim >= n:
        raise ValueError("dim must be smaller than the number of points")
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d**2) @ j
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals, axis=-1)[..., ::-1][..., :dim]
    vals = np.clip(np.take_along_axis(eigvals, order, axis=-1), 0.0, None)
    return np.take_along_axis(eigvecs, order[..., None, :], axis=-1) * np.sqrt(vals)[..., None, :]


def mds_init(distances: np.ndarray, weights: np.ndarray, dim: int = 2) -> np.ndarray:
    """The default inits of a (K, N, N) stack, before their jitter.

    Classical MDS of each shortest-path-completed distance matrix;
    raises ``LocalizationError`` on a disconnected graph.
    """
    return classical_mds(_graph_complete_distances(distances, weights), dim=dim)


def init_jitter(k: int, n: int, dim: int, rng: np.random.Generator) -> np.ndarray:
    """The (K, N, dim) jitter added to K default (MDS) inits.

    One ``rng.normal`` block in problem order, so problem k gets the
    values K sequential one-problem draws would give it.
    """
    return rng.normal(0.0, 1e-6, size=(k, n, dim))


def _connected(weights: np.ndarray) -> bool:
    """Whether the links of one (N, N) weight matrix join all N nodes."""
    upper = np.triu(weights, k=1) > 0
    neighbours = (upper | upper.T).tolist()
    reached = {0}
    frontier = [0]
    while frontier:
        node = frontier.pop()
        for other, linked in enumerate(neighbours[node]):
            if linked and other not in reached:
                reached.add(other)
                frontier.append(other)
    return len(reached) == len(neighbours)


def check_problem(distances: np.ndarray, weights: np.ndarray) -> None:
    """Raise what :func:`smacof` raises on one (N, N) problem before its
    first random draw, in the same order.

    The graph completion of the default init raises on an unreachable
    node, which :func:`_connected` finds without the completion:
    validated link lengths are finite, so a connected graph's path sums
    stay finite.
    """
    d, w = distances[None], weights[None]
    _validate_inputs(d, w)
    if d.shape[-1] < 3:
        raise LocalizationError("need at least 3 nodes to embed in 2D")
    if not _connected(weights):
        raise LocalizationError("measurement graph is disconnected")


def _guttman(
    x: np.ndarray,
    v_pinv: np.ndarray,
    neg_w: np.ndarray,
    masked_w: np.ndarray,
    d_clean: np.ndarray,
    max_iter: int,
    tol: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Guttman iterations on K stacked problems of one size.

    ``x`` is (K, N, dim); the other arrays are (K, N, N), ``neg_w``
    being ``-weights`` with a ``+0.0`` diagonal. Each step computes one
    distance matrix per problem, which serves both the stress of the
    new configuration and the next B(X). Every problem applies its own
    ``tol`` test; a converged problem's positions, stress and iteration
    count are written out and it leaves the live set, so the rest keep
    iterating on smaller stacks. Returns the positions, stresses,
    iteration counts and convergence flags.
    """
    k, n, _ = x.shape
    diag = slice(None, None, n + 1)  # the diagonal, in flat (C-order) indexing
    positions = np.empty_like(x)
    stress_out = np.empty(k)
    n_iter = np.full(k, max_iter)
    converged = np.zeros(k, dtype=bool)
    live = np.arange(k)
    dist = _pairwise_distances(x)
    prev = _masked_stress(dist, d_clean, masked_w).tolist()
    with np.errstate(divide="ignore", invalid="ignore"):
        for iteration in range(1, max_iter + 1):
            # B(X): -w * d / dist off the diagonal, -0.0 where the
            # points coincide; the diagonal (+0.0 so far) then gets
            # minus its row sum.
            b = d_clean / dist
            np.copyto(b, 0.0, where=~(dist > 1e-12))
            b *= neg_w
            b.reshape(live.size, n * n)[:, diag] = -np.add.reduce(b, axis=-1)
            x = v_pinv @ (b @ x)
            dist = _pairwise_distances(x)
            stress = _masked_stress(dist, d_clean, masked_w)
            values = stress.tolist()
            done = [
                p > 0 and (p - s) / (p if p > 1e-15 else 1e-15) < tol
                for p, s in zip(prev, values)
            ]
            prev = values
            if not any(done):
                continue
            finished = np.array(done)
            out = live[finished]
            positions[out] = x[finished]
            stress_out[out] = stress[finished]
            n_iter[out] = iteration
            converged[out] = True
            keep = ~finished
            live = live[keep]
            if live.size == 0:
                break
            x, dist = x[keep], dist[keep]
            prev = [p for p, f in zip(prev, done) if not f]
            v_pinv, neg_w = v_pinv[keep], neg_w[keep]
            d_clean, masked_w = d_clean[keep], masked_w[keep]
    if live.size:
        positions[live] = x
        stress_out[live] = prev
    return positions, stress_out, n_iter, converged


def smacof_batch(
    distances: np.ndarray,
    weights: np.ndarray,
    dim: int = 2,
    init: np.ndarray | None = None,
    max_iter: int = 300,
    tol: float = 1e-7,
    rng: np.random.Generator | None = None,
) -> List[SmacofResult]:
    """:func:`smacof` on K problems of one size, solved as one stack.

    ``weights`` is a (K, N, N) stack; ``distances`` is one (N, N)
    matrix shared by all problems or a (K, N, N) stack; ``init`` is
    ``None`` or a (K, N, dim) stack. Result ``k`` equals
    ``smacof(distances[k], weights[k], dim, init[k], max_iter, tol,
    rng)`` bit for bit, and the default inits draw their jitter from
    ``rng`` in problem order, so ``rng`` ends where K sequential
    calls leave it.
    """
    w = np.asarray(weights, dtype=float)
    if w.ndim != 3:
        raise ValueError("weights must be a (K, N, N) stack")
    d = np.asarray(distances, dtype=float)
    if d.shape == w.shape[1:]:
        d = np.broadcast_to(d, w.shape)
    _validate_inputs(d, w)
    k, n, _ = w.shape
    if n < 3:
        raise LocalizationError("need at least 3 nodes to embed in 2D")
    rng = rng or np.random.default_rng(0)

    if init is None:
        x = mds_init(d, w, dim) + init_jitter(k, n, dim, rng)
    else:
        x = np.array(init, dtype=float, copy=True)
        if x.shape != (k, n, dim):
            raise ValueError(f"init must be ({k}, {n}, {dim})")
    return _solve_stack(d, w, x, max_iter, tol)


def _solve_stack(
    d: np.ndarray, w: np.ndarray, x: np.ndarray, max_iter: int = 300, tol: float = 1e-7
) -> List[SmacofResult]:
    """The solve of :func:`smacof_batch` from its (K, N, dim) inits ``x``.

    ``d`` and ``w`` are (K, N, N) stacks that already passed the checks
    :func:`smacof_batch` makes (for a staged trial, :func:`check_problem`).
    """
    k, n, _ = w.shape
    # -W with a +0.0 diagonal, V, the link mask and the masked weights
    # depend only on the weights, so they are built once per solve.
    diag = slice(None, None, n + 1)
    neg_w = -w
    neg_w.reshape(k, n * n)[:, diag] = 0.0
    v = neg_w.copy()
    v.reshape(k, n * n)[:, diag] = -v.sum(axis=-1)
    mask = np.triu(w, k=1) > 0
    positions, stress, n_iter, converged = _guttman(
        x,
        np.linalg.pinv(v),
        neg_w,
        np.where(mask, w, 0.0),
        np.where(w > 0, np.nan_to_num(d, nan=0.0), 0.0),
        max_iter,
        tol,
    )
    return [
        SmacofResult(
            positions=positions[i],
            stress=float(stress[i]),
            normalized_stress=normalized_stress(float(stress[i]), w[i]),
            n_iter=int(n_iter[i]),
            converged=bool(converged[i]),
        )
        for i in range(k)
    ]


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
    if init is not None:
        init = np.asarray(init, dtype=float)
        if init.shape != (d.shape[0], dim):
            raise ValueError(f"init must be ({d.shape[0]}, {dim})")
        init = init[None]
    return smacof_batch(d, w[None], dim, init, max_iter, tol, rng)[0]
