"""End-to-end localization pipeline: distances + depths -> 3D positions.

Combines the stages of section 2.1: depth projection, outlier-aware
weighted SMACOF, rotation pinning and flip disambiguation, then lifts
the 2D solution back to 3D with the measured depths. Positions are
expressed in the leader's frame: leader at the origin, x-y the
horizontal plane, z depth.

:func:`localize` runs one trial. :func:`localize_many` runs a sequence
of trials that share one random stream, as a Monte-Carlo loop does,
with their base SMACOF solves stacked into one call and the same
results, bit for bit (DESIGN.md section 13).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple, TypeVar

import numpy as np

from repro.constants import OUTLIER_STRESS_THRESHOLD_M
from repro.errors import LocalizationError
from repro.localization.ambiguity import resolve_flipping, resolve_rotation
from repro.localization.outliers import OutlierResult, detect_outliers, search_outliers
from repro.localization.projection import project_distances
from repro.localization.smacof import (
    SmacofResult,
    _solve_stack,
    check_problem,
    init_jitter,
    mds_init,
)

Edge = Tuple[int, int]
P = TypeVar("P")
R = TypeVar("R")


@dataclass(frozen=True)
class LocalizationResult:
    """Full output of one localization run.

    Attributes
    ----------
    positions3d:
        (N, 3) array in the leader frame (leader at origin; z = measured
        depth *relative to the leader's depth*).
    positions2d:
        (N, 2) horizontal positions after ambiguity resolution.
    normalized_stress:
        Normalised SMACOF stress of the accepted embedding (m).
    dropped_links:
        Outlier links removed by Algorithm 1.
    outliers_suspected:
        Whether the stress threshold tripped.
    flip_votes:
        ``(vote_original, vote_mirror)`` from the dual-mic vote; equal
        values mean no flip information was available.
    """

    positions3d: np.ndarray
    positions2d: np.ndarray
    normalized_stress: float
    dropped_links: Tuple[Edge, ...]
    outliers_suspected: bool
    flip_votes: Tuple[float, float]


@dataclass(frozen=True)
class LocalizationInputs:
    """The arguments of one :func:`localize` call, less its ``rng``."""

    distances: np.ndarray
    depths: np.ndarray
    pointing_azimuth_rad: float = 0.0
    arrival_signs: Optional[Dict[int, int]] = None
    weights: np.ndarray | None = None
    stress_threshold: float | None = None


def _project(
    distances: np.ndarray, depths: np.ndarray, weights: np.ndarray | None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Checked depths, projected 2D distances and their weights."""
    d = np.asarray(distances, dtype=float)
    h = np.asarray(depths, dtype=float)
    n = d.shape[0]
    if n < 3:
        raise LocalizationError(
            "localization needs at least 3 devices; with 2 only ranging is possible"
        )
    if h.shape != (n,):
        raise ValueError("depths must have one entry per device")
    projected, w = project_distances(d, h, weights)
    return h, projected, w


def _orient(
    outlier_result: OutlierResult,
    h: np.ndarray,
    pointing_azimuth_rad: float,
    arrival_signs: Optional[Dict[int, int]],
) -> LocalizationResult:
    """Pin rotation and flipping, then lift the embedding to 3D."""
    oriented = resolve_rotation(outlier_result.positions, pointing_azimuth_rad)
    if arrival_signs:
        final2d, v_orig, v_mirr = resolve_flipping(oriented, arrival_signs)
    else:
        final2d, v_orig, v_mirr = oriented, 0.0, 0.0

    positions3d = np.column_stack([final2d, h - h[0]])
    return LocalizationResult(
        positions3d=positions3d,
        positions2d=final2d,
        normalized_stress=outlier_result.normalized_stress,
        dropped_links=outlier_result.dropped_links,
        outliers_suspected=outlier_result.outliers_suspected,
        flip_votes=(v_orig, v_mirr),
    )


def localize(
    distances: np.ndarray,
    depths: np.ndarray,
    pointing_azimuth_rad: float = 0.0,
    arrival_signs: Optional[Dict[int, int]] = None,
    weights: np.ndarray | None = None,
    stress_threshold: float | None = None,
    rng: np.random.Generator | None = None,
) -> LocalizationResult:
    """Localize all devices relative to the leader.

    Parameters
    ----------
    distances:
        (N, N) measured 3D distance matrix (device 0 = leader, device 1
        = the diver the leader points at).
    depths:
        Length-N measured depths (m).
    pointing_azimuth_rad:
        World-frame azimuth the leader faces (resolves rotation).
    arrival_signs:
        Dual-mic arrival-order signs per diver index >= 2 (resolves
        flipping); ``None`` or empty keeps the SMACOF handedness.
    weights:
        Link weight matrix; zero entries are missing links.
    stress_threshold:
        Override for the outlier-detection threshold.
    rng:
        Randomness source for SMACOF initialisation jitter.

    Raises
    ------
    LocalizationError
        If fewer than 3 devices are given (with two divers the system
        can only do ranging, as the paper notes).
    """
    h, projected, w = _project(distances, depths, weights)
    kwargs = {}
    if stress_threshold is not None:
        kwargs["stress_threshold"] = stress_threshold
    outlier_result = detect_outliers(projected, w, rng=rng, **kwargs)
    return _orient(outlier_result, h, pointing_azimuth_rad, arrival_signs)


@dataclass(frozen=True)
class _Staged:
    """One drawn trial, up to and including its base jitter draw."""

    index: int
    payload: Any
    inputs: LocalizationInputs
    depths: np.ndarray
    projected: np.ndarray
    weights: np.ndarray
    jitter: np.ndarray
    #: ``rng.bit_generator.state`` right after the base jitter draw.
    snapshot: Dict[str, Any]

    @property
    def threshold(self) -> float:
        chosen = self.inputs.stress_threshold
        return OUTLIER_STRESS_THRESHOLD_M if chosen is None else chosen

    def conclude(self, base: SmacofResult, rng: np.random.Generator) -> LocalizationResult:
        """What :func:`localize` does after the base solve."""
        outliers = search_outliers(self.projected, self.weights, base, self.threshold, rng=rng)
        return _orient(
            outliers, self.depths, self.inputs.pointing_azimuth_rad, self.inputs.arrival_signs
        )


def _stage(
    index: int, inputs: LocalizationInputs, payload: Any, rng: np.random.Generator
) -> _Staged:
    """Run :func:`localize` on ``inputs`` up to its base solve.

    Raises what :func:`localize` raises before that solve, and draws
    what it draws: the base init's jitter.
    """
    h, projected, w = _project(inputs.distances, inputs.depths, inputs.weights)
    check_problem(projected, w)
    jitter = init_jitter(1, projected.shape[0], 2, rng)
    return _Staged(index, payload, inputs, h, projected, w, jitter, rng.bit_generator.state)


def _solve_bases(window: List[_Staged]) -> List[SmacofResult]:
    """The base SMACOF solve of every staged trial: one stack per size.

    Staging ran :func:`check_problem` on each trial, so the stacks go
    straight to the solver without a second validation.
    """
    bases: List[Optional[SmacofResult]] = [None] * len(window)
    by_size: Dict[int, List[int]] = {}
    for i, staged in enumerate(window):
        by_size.setdefault(staged.projected.shape[0], []).append(i)
    for members in by_size.values():
        group = [window[i] for i in members]
        d = np.stack([s.projected for s in group])
        w = np.stack([s.weights for s in group])
        init = mds_init(d, w) + np.concatenate([s.jitter for s in group])
        solved = _solve_stack(d, w, init)
        for i, result in zip(members, solved):
            bases[i] = result
    return bases


def localize_many(
    draw: Callable[[int], Tuple[LocalizationInputs, P]],
    finish: Callable[[P, LocalizationResult], R],
    count: int,
    rng: np.random.Generator,
    skip_failures: bool = False,
) -> List[R]:
    """Run ``count`` trials that share ``rng``, base solves stacked.

    ``draw(i)`` takes trial ``i``'s inputs from ``rng`` and returns
    them with a payload for ``finish(payload, result)``. The result
    list, the exception raised and the state ``rng`` is left in are
    those of the sequential loop::

        for i in range(count):
            inputs, payload = draw(i)
            result = localize(**vars(inputs), rng=rng)
            results.append(finish(payload, result))

    with each trial that raises ``LocalizationError`` skipped when
    ``skip_failures`` is set (any other exception always propagates).

    The trials are staged in order: draw, projection, checks and base
    jitter, with the generator's state saved after the jitter. Their
    base problems are solved as one stack, and trials are concluded in
    order. A suspected trial's Algorithm 1 levels draw from the stream
    right after its base jitter, so the driver restores that trial's
    snapshot, runs its levels, and stages every later trial again.
    Staging stops at a trial that raises, since an earlier suspected
    trial may redraw it.
    """
    results: List[R] = []
    start = consumed = windows = 0
    while start < count:
        first = start
        # The first window holds every trial; later ones twice the mean
        # number of trials a window has consumed, so a stream where most
        # trials are suspected does not restage all the rest each time.
        size = 2 * consumed // windows if windows else count
        window: List[_Staged] = []
        failure: Optional[Exception] = None
        for index in range(start, min(count, start + size)):
            try:
                inputs, payload = draw(index)
                window.append(_stage(index, inputs, payload, rng))
            except Exception as exc:
                failure = exc
                break
        start = index + 1
        for staged, base in zip(window, _solve_bases(window)):
            suspected = not base.normalized_stress < staged.threshold
            if suspected:
                rng.bit_generator.state = staged.snapshot
            try:
                results.append(finish(staged.payload, staged.conclude(base, rng)))
            except Exception as exc:
                if not suspected:
                    rng.bit_generator.state = staged.snapshot
                failure, start = exc, staged.index + 1
                break
            if suspected:
                failure, start = None, staged.index + 1
                break
        if failure is not None and not (
            skip_failures and isinstance(failure, LocalizationError)
        ):
            raise failure
        consumed += start - first
        windows += 1
    return results
