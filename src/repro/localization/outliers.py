"""Iterative outlier-link detection (paper Algorithm 1).

Occluded links produce distance estimates that are too long (a
reflection masquerades as the direct path) but usually not long enough
to violate the triangle inequality, so triangle tests miss them. The
paper's insight: without outliers, the *normalised* SMACOF stress stays
below a threshold (1.5 m). When it does not, the algorithm searches
subsets of links to drop (weights set to 0), accepting a subset when it
reduces the stress by at least 90% — but only trying subsets whose
removal keeps the graph uniquely realizable, and never dropping more
than 3 links.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import List, Tuple

import numpy as np

from repro.constants import (
    MAX_OUTLIER_LINKS,
    OUTLIER_IMPROVEMENT_RATIO,
    OUTLIER_STRESS_THRESHOLD_M,
)
from repro.localization.rigidity import edges_from_weights, is_uniquely_realizable
from repro.localization.smacof import SmacofResult, smacof, smacof_batch

Edge = Tuple[int, int]


@dataclass(frozen=True)
class OutlierResult:
    """Output of Algorithm 1.

    Attributes
    ----------
    positions:
        Final 2D embedding.
    normalized_stress:
        Normalised stress of the accepted solution (metres).
    dropped_links:
        Links identified as outliers (empty when none were needed).
    outliers_suspected:
        True when the initial stress exceeded the threshold.
    weights:
        The final weight matrix actually used.
    """

    positions: np.ndarray
    normalized_stress: float
    dropped_links: Tuple[Edge, ...] = ()
    outliers_suspected: bool = False
    weights: np.ndarray = field(default_factory=lambda: np.zeros((0, 0)))


def detect_outliers(
    distances: np.ndarray,
    weights: np.ndarray | None = None,
    stress_threshold: float = OUTLIER_STRESS_THRESHOLD_M,
    improvement_ratio: float = OUTLIER_IMPROVEMENT_RATIO,
    max_outliers: int = MAX_OUTLIER_LINKS,
    dim: int = 2,
    rng: np.random.Generator | None = None,
) -> OutlierResult:
    """Run Algorithm 1: SMACOF with iterative outlier-link dropping.

    Parameters
    ----------
    distances:
        (N, N) projected 2D distance matrix.
    weights:
        Symmetric weight matrix; zero marks missing links. Defaults to
        fully connected.
    stress_threshold:
        Normalised stress (m) below which a solution is accepted.
    improvement_ratio:
        Required relative stress reduction (paper: 0.9, i.e. the new
        stress must be at least 90% lower).
    max_outliers:
        Maximum total number of dropped links, summed over the levels:
        a level that would take the total above it is not searched.
    """
    d = np.asarray(distances, dtype=float)
    n = d.shape[0]
    if weights is None:
        w0 = np.ones((n, n))
        np.fill_diagonal(w0, 0.0)
    else:
        w0 = np.array(weights, dtype=float, copy=True)
    rng = rng or np.random.default_rng(0)
    base = smacof(d, w0, dim=dim, rng=rng)
    return search_outliers(
        d, w0, base, stress_threshold, improvement_ratio, max_outliers, dim, rng
    )


def search_outliers(
    distances: np.ndarray,
    weights: np.ndarray,
    base: SmacofResult,
    stress_threshold: float = OUTLIER_STRESS_THRESHOLD_M,
    improvement_ratio: float = OUTLIER_IMPROVEMENT_RATIO,
    max_outliers: int = MAX_OUTLIER_LINKS,
    dim: int = 2,
    rng: np.random.Generator | None = None,
) -> OutlierResult:
    """Algorithm 1 after its base solve: the link-dropping levels.

    ``base`` is the SMACOF solution of ``(distances, weights)``. Below
    ``stress_threshold`` it is accepted as is and ``rng`` is not
    touched; otherwise each level's subset solves draw their init
    jitter from ``rng``, as :func:`detect_outliers` does.
    """
    d, w0 = distances, weights
    n = d.shape[0]
    if base.normalized_stress < stress_threshold:
        return OutlierResult(
            positions=base.positions,
            normalized_stress=base.normalized_stress,
            dropped_links=(),
            outliers_suspected=False,
            weights=w0,
        )
    rng = rng or np.random.default_rng(0)

    links = edges_from_weights(w0)
    current_raw = base.stress
    current_stress = base.normalized_stress
    current_positions = base.positions
    current_weights = w0
    dropped_total: List[Edge] = []

    for n_drop in range(1, max_outliers + 1):
        if len(dropped_total) + n_drop > max_outliers:
            # ``max_outliers`` caps the total; later levels drop more.
            break
        # One batched solve per level: the candidate subsets (in
        # ``combinations`` order) share one stacked Guttman loop, and
        # their default inits draw jitter from ``rng`` in that order.
        subsets: List[Tuple[Edge, ...]] = []
        trial_weights: List[np.ndarray] = []
        for subset in combinations(links, n_drop):
            if any(e in dropped_total for e in subset):
                continue
            trial_w = np.array(current_weights, copy=True)
            for i, j in subset:
                trial_w[i, j] = 0.0
                trial_w[j, i] = 0.0
            remaining = edges_from_weights(trial_w)
            if not is_uniquely_realizable(n, remaining):
                continue
            subsets.append(subset)
            trial_weights.append(trial_w)
        trials = smacof_batch(d, np.stack(trial_weights), dim=dim, rng=rng) if subsets else []
        best_raw = current_raw
        best_stress = current_stress
        best_positions = current_positions
        best_weights = current_weights
        best_drop: Tuple[Edge, ...] = ()
        for subset, trial_w, trial in zip(subsets, trial_weights, trials):
            # The paper's acceptance test: dropping the subset must cut
            # the (raw) stress-function output by at least 90%.
            significant = current_raw - trial.stress > improvement_ratio * current_raw
            if significant and trial.stress < best_raw:
                best_raw = trial.stress
                best_stress = trial.normalized_stress
                best_positions = trial.positions
                best_weights = trial_w
                best_drop = subset
        if not best_drop:
            # No subset of this size achieved a significant reduction.
            break
        dropped_total.extend(best_drop)
        current_raw = best_raw
        current_stress = best_stress
        current_positions = best_positions
        current_weights = best_weights
        if current_stress < stress_threshold:
            break

    return OutlierResult(
        positions=current_positions,
        normalized_stress=current_stress,
        dropped_links=tuple(dropped_total),
        outliers_suspected=True,
        weights=current_weights,
    )
