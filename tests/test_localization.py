"""Tests for projection, outlier detection, ambiguity, and the pipeline."""

from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.constants import (
    MAX_OUTLIER_LINKS,
    OUTLIER_IMPROVEMENT_RATIO,
    OUTLIER_STRESS_THRESHOLD_M,
)
from repro.errors import LocalizationError
from repro.geometry.topology import pairwise_distance_matrix
from repro.geometry.transforms import angle_of
from repro.localization.ambiguity import (
    flip_candidates,
    flipping_vote,
    mic_arrival_sign,
    resolve_flipping,
    resolve_rotation,
)
from repro.localization.outliers import OutlierResult, detect_outliers
from repro.localization.pipeline import localize
from repro.localization.projection import project_distances
from repro.localization.rigidity import edges_from_weights, is_uniquely_realizable
from repro.localization.smacof import smacof


def _positions3d():
    return np.array(
        [
            [0.0, 0.0, 1.0],
            [6.0, 0.0, 2.0],
            [3.0, 8.0, 1.5],
            [10.0, 5.0, 2.5],
            [-4.0, 6.0, 1.0],
        ]
    )


class TestProjection:
    def test_projection_formula(self):
        pts = _positions3d()
        d3 = pairwise_distance_matrix(pts)
        proj, w = project_distances(d3, pts[:, 2])
        d2 = pairwise_distance_matrix(pts[:, :2])
        assert np.allclose(proj, d2, atol=1e-9)
        assert np.all(w[np.triu_indices(5, 1)] == 1.0)

    def test_small_violation_clamped(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        depths = np.array([0.0, 1.0])  # |dh| = 1 > d = 0.5, violation 0.5
        proj, w = project_distances(d, depths, violation_tolerance_m=1.0)
        assert proj[0, 1] == 0.0
        assert w[0, 1] == 1.0

    def test_large_violation_marks_missing(self):
        d = np.array([[0.0, 0.5], [0.5, 0.0]])
        depths = np.array([0.0, 3.0])
        proj, w = project_distances(d, depths, violation_tolerance_m=1.0)
        assert w[0, 1] == 0.0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            project_distances(np.zeros((2, 3)), np.zeros(2))
        with pytest.raises(ValueError):
            project_distances(np.zeros((2, 2)), np.zeros(3))


def _frozen_detect_outliers(
    d,
    weights=None,
    stress_threshold=OUTLIER_STRESS_THRESHOLD_M,
    improvement_ratio=OUTLIER_IMPROVEMENT_RATIO,
    max_outliers=MAX_OUTLIER_LINKS,
    dim=2,
    rng=None,
):
    """A frozen copy of the sequential Algorithm 1, one solve per subset.

    The parity oracle for the level-batched :func:`detect_outliers`;
    its per-subset :func:`smacof` calls are pinned bit for bit to the
    frozen Guttman loop in ``tests/test_smacof.py``.
    """
    n = d.shape[0]
    if weights is None:
        w0 = np.ones((n, n))
        np.fill_diagonal(w0, 0.0)
    else:
        w0 = np.array(weights, dtype=float, copy=True)
    rng = rng or np.random.default_rng(0)
    base = smacof(d, w0, dim=dim, rng=rng)
    if base.normalized_stress < stress_threshold:
        return OutlierResult(base.positions, base.normalized_stress, (), False, w0)
    links = edges_from_weights(w0)
    current_raw = base.stress
    current_stress = base.normalized_stress
    current_positions = base.positions
    current_weights = w0
    dropped_total = []
    for n_drop in range(1, max_outliers + 1):
        if len(dropped_total) + n_drop > max_outliers:
            break
        best_raw = current_raw
        best_stress = current_stress
        best_positions = current_positions
        best_weights = current_weights
        best_drop = ()
        for subset in combinations(links, n_drop):
            if any(e in dropped_total for e in subset):
                continue
            trial_w = np.array(current_weights, copy=True)
            for i, j in subset:
                trial_w[i, j] = 0.0
                trial_w[j, i] = 0.0
            if not is_uniquely_realizable(n, edges_from_weights(trial_w)):
                continue
            trial = smacof(d, trial_w, dim=dim, rng=rng)
            significant = current_raw - trial.stress > improvement_ratio * current_raw
            if significant and trial.stress < best_raw:
                best_raw = trial.stress
                best_stress = trial.normalized_stress
                best_positions = trial.positions
                best_weights = trial_w
                best_drop = subset
        if not best_drop:
            break
        dropped_total.extend(best_drop)
        current_raw = best_raw
        current_stress = best_stress
        current_positions = best_positions
        current_weights = best_weights
        if current_stress < stress_threshold:
            break
    return OutlierResult(
        current_positions, current_stress, tuple(dropped_total), True, current_weights
    )


class TestOutlierDetection:
    def _clean_case(self):
        pts = _positions3d()[:, :2]
        return pts, pairwise_distance_matrix(pts)

    def test_clean_network_untouched(self):
        _pts, d = self._clean_case()
        result = detect_outliers(d)
        assert not result.outliers_suspected
        assert result.dropped_links == ()
        assert result.normalized_stress < 0.1

    def test_single_outlier_dropped(self):
        pts, d = self._clean_case()
        corrupted = d.copy()
        # Occlusion-grade outlier: the first audible reflection adds
        # several metres of path.
        corrupted[1, 3] += 6.0
        corrupted[3, 1] += 6.0
        result = detect_outliers(corrupted)
        assert result.outliers_suspected
        assert (1, 3) in result.dropped_links
        assert result.normalized_stress < 0.5

    def test_positions_accurate_after_drop(self):
        from repro.geometry.procrustes import procrustes_error

        pts, d = self._clean_case()
        corrupted = d.copy()
        corrupted[0, 2] += 5.0
        corrupted[2, 0] += 5.0
        result = detect_outliers(corrupted)
        assert procrustes_error(result.positions, pts).max() < 0.5

    def test_never_breaks_realizability(self):
        pts, d = self._clean_case()
        corrupted = d.copy()
        corrupted[1, 2] += 8.0
        corrupted[2, 1] += 8.0
        result = detect_outliers(corrupted)
        edges = edges_from_weights(result.weights)
        assert is_uniquely_realizable(5, edges)

    def test_respects_max_outliers(self):
        pts, d = self._clean_case()
        corrupted = d + 3.0
        np.fill_diagonal(corrupted, 0.0)
        result = detect_outliers(corrupted, max_outliers=2)
        assert len(result.dropped_links) <= 2

    def test_link_cap_is_a_total_across_levels(self):
        # Six biased links on 8 nodes with greedy knobs: levels 1 and 2
        # each find a drop, and a third level would take the total to 6.
        rng = np.random.default_rng(0)
        d = pairwise_distance_matrix(rng.uniform(-15.0, 15.0, (8, 2)))
        pairs = list(zip(*np.triu_indices(8, 1)))
        for k in rng.choice(len(pairs), size=6, replace=False):
            i, j = pairs[k]
            d[i, j] = d[j, i] = d[i, j] + 6.0
        result = detect_outliers(
            d, rng=np.random.default_rng(0), stress_threshold=0.0, improvement_ratio=0.0
        )
        assert len(result.dropped_links) == MAX_OUTLIER_LINKS

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(5, 8),
        n_bad=st.integers(0, 6),
        bias=st.floats(2.0, 12.0),
        greedy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_never_drops_more_than_max_links(self, n, n_bad, bias, greedy, seed):
        # However many links are corrupted, Algorithm 1 stops at
        # MAX_OUTLIER_LINKS dropped links. The greedy draws accept any
        # improvement and never reach the stress threshold, so the
        # search always runs into the cap.
        rng = np.random.default_rng(seed)
        d = pairwise_distance_matrix(rng.uniform(-15.0, 15.0, (n, 2)))
        pairs = list(zip(*np.triu_indices(n, 1)))
        for k in rng.choice(len(pairs), size=n_bad, replace=False):
            i, j = pairs[k]
            d[i, j] = d[j, i] = d[i, j] + bias
        knobs = {"stress_threshold": 0.0, "improvement_ratio": 0.0} if greedy else {}
        result = detect_outliers(d, rng=np.random.default_rng(seed), **knobs)
        assert len(result.dropped_links) <= MAX_OUTLIER_LINKS
        assert len(set(result.dropped_links)) == len(result.dropped_links)

    @settings(max_examples=20, deadline=None)
    @given(
        n=st.integers(5, 6),
        n_bad=st.integers(0, 5),
        bias=st.floats(2.0, 12.0),
        noise=st.sampled_from([0.0, 0.3]),
        missing=st.integers(0, 3),
        greedy=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_level_batching_matches_sequential_search(
        self, n, n_bad, bias, noise, missing, greedy, seed
    ):
        # Same result fields, and the shared rng ends where the
        # one-solve-per-subset search leaves it.
        rng = np.random.default_rng(seed)
        d = pairwise_distance_matrix(rng.uniform(-15.0, 15.0, (n, 2)))
        jitter = np.triu(rng.normal(0.0, noise, (n, n)), 1)
        d = np.abs(d + jitter + jitter.T)
        pairs = list(zip(*np.triu_indices(n, 1)))
        for k in rng.choice(len(pairs), size=n_bad, replace=False):
            i, j = pairs[k]
            d[i, j] = d[j, i] = d[i, j] + bias
        w = np.ones((n, n))
        np.fill_diagonal(w, 0.0)
        for k in rng.choice(len(pairs), size=missing, replace=False):
            i, j = pairs[k]
            w[i, j] = w[j, i] = 0.0
        if not is_uniquely_realizable(n, edges_from_weights(w)):
            w = None
        knobs = {"stress_threshold": 0.0, "improvement_ratio": 0.0} if greedy else {}
        got_rng = np.random.default_rng(seed)
        ref_rng = np.random.default_rng(seed)
        got = detect_outliers(d, w, rng=got_rng, **knobs)
        ref = _frozen_detect_outliers(d, w, rng=ref_rng, **knobs)
        assert np.array_equal(got.positions, ref.positions)
        assert got.normalized_stress == ref.normalized_stress
        assert got.dropped_links == ref.dropped_links
        assert got.outliers_suspected == ref.outliers_suspected
        assert np.array_equal(got.weights, ref.weights)
        assert got_rng.random() == ref_rng.random()

    def test_disabled_with_infinite_threshold(self):
        pts, d = self._clean_case()
        corrupted = d.copy()
        corrupted[1, 3] += 6.0
        corrupted[3, 1] += 6.0
        result = detect_outliers(corrupted, stress_threshold=np.inf)
        assert result.dropped_links == ()


class TestAmbiguity:
    def test_rotation_puts_user1_on_pointing_ray(self):
        pts = _positions3d()[:, :2]
        rotated = resolve_rotation(pts, pointing_azimuth_rad=np.pi / 3)
        assert np.allclose(rotated[0], 0.0)
        assert angle_of(rotated[1]) == pytest.approx(np.pi / 3)
        # Rigid: pairwise distances preserved.
        assert np.allclose(
            pairwise_distance_matrix(rotated), pairwise_distance_matrix(pts)
        )

    def test_flip_candidates_mirror(self):
        pts = _positions3d()[:, :2]
        original, mirrored = flip_candidates(pts)
        assert np.allclose(original, pts)
        # Leader and user1 are on the flip axis -> fixed points.
        assert np.allclose(mirrored[0], pts[0])
        assert np.allclose(mirrored[1], pts[1])
        assert not np.allclose(mirrored[2], pts[2])
        assert np.allclose(
            pairwise_distance_matrix(mirrored), pairwise_distance_matrix(pts)
        )

    def test_mic_arrival_sign_geometry(self):
        # Leader at origin pointing +x; left mic at +y.
        left = np.array([0.0, 0.08, 1.0])
        right = np.array([0.0, -0.08, 1.0])
        assert mic_arrival_sign(left, right, np.array([5.0, 5.0, 1.0])) == -1
        assert mic_arrival_sign(left, right, np.array([5.0, -5.0, 1.0])) == 1
        assert mic_arrival_sign(left, right, np.array([5.0, 0.0, 1.0])) == 0

    def test_vote_side_signs(self):
        # Leader at origin, user 1 along +x: the +y side is the left,
        # where the left mic hears first (arrival sign -1).
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [1.0, -1.0], [5.0, 0.0]])
        assert flipping_vote(pts, {2: -1}) == 1.0
        assert flipping_vote(pts, {3: 1}) == 1.0
        assert flipping_vote(pts, {2: 1}) == -1.0
        # A diver on the leader/user-1 line cannot vote.
        assert flipping_vote(pts, {4: 1}) == 0.0

    def test_vote_selects_true_configuration(self):
        pts = _positions3d()
        pts2d = pts[:, :2]
        left = pts[0] + np.array([0.0, 0.08, 0.0])
        right = pts[0] - np.array([0.0, 0.08, 0.0])
        # Leader points at user 1 (along +x), so lateral mics are +-y.
        signs = {i: mic_arrival_sign(left, right, pts[i]) for i in range(2, 5)}
        winner, v_orig, v_mirr = resolve_flipping(pts2d, signs)
        assert np.allclose(winner, pts2d)
        assert v_orig > v_mirr

    def test_majority_vote_overrides_one_bad_sign(self):
        pts = _positions3d()
        pts2d = pts[:, :2]
        left = pts[0] + np.array([0.0, 0.08, 0.0])
        right = pts[0] - np.array([0.0, 0.08, 0.0])
        signs = {i: mic_arrival_sign(left, right, pts[i]) for i in range(2, 5)}
        corrupted = dict(signs)
        corrupted[2] = -corrupted[2]
        winner, _v1, _v2 = resolve_flipping(pts2d, corrupted)
        assert np.allclose(winner, pts2d)

    def test_empty_votes_keep_original(self):
        pts = _positions3d()[:, :2]
        winner, v1, v2 = resolve_flipping(pts, {})
        assert np.allclose(winner, pts)
        assert v1 == v2 == 0.0

    def test_vote_index_validation(self):
        pts = _positions3d()[:, :2]
        with pytest.raises(ValueError):
            flipping_vote(pts, {0: 1})

    def test_degenerate_flip_axis_rejected(self):
        pts = np.zeros((3, 2))
        with pytest.raises(ValueError):
            flip_candidates(pts)


class TestPipeline:
    def _run(self, noise=0.0, seed=0):
        rng = np.random.default_rng(seed)
        pts = _positions3d()
        d = pairwise_distance_matrix(pts)
        if noise:
            d = d + rng.uniform(-noise, noise, d.shape)
            d = np.triu(d, 1)
            d = d + d.T
        azimuth = angle_of(pts[1, :2] - pts[0, :2])
        left = pts[0] + np.array([0.0, 0.08, 0.0])
        right = pts[0] - np.array([0.0, 0.08, 0.0])
        signs = {i: mic_arrival_sign(left, right, pts[i]) for i in range(2, 5)}
        result = localize(d, pts[:, 2], azimuth, signs, rng=rng)
        truth = pts - pts[0]
        return result, truth

    def test_exact_inputs_recovered(self):
        result, truth = self._run()
        assert np.allclose(result.positions3d, truth, atol=1e-3)

    def test_noisy_inputs_reasonable(self):
        result, truth = self._run(noise=0.3, seed=1)
        errors = np.linalg.norm(result.positions2d - truth[:, :2], axis=1)
        assert np.median(errors[1:]) < 1.0

    def test_depth_attached_to_output(self):
        result, truth = self._run()
        assert np.allclose(result.positions3d[:, 2], truth[:, 2], atol=1e-9)

    def test_too_few_devices_rejected(self):
        with pytest.raises(LocalizationError):
            localize(np.zeros((2, 2)), np.zeros(2))

    def test_depth_shape_validated(self):
        with pytest.raises(ValueError):
            localize(np.zeros((4, 4)), np.zeros(3))

    @settings(max_examples=10, deadline=None)
    @given(seed=st.integers(0, 1_000))
    def test_random_geometries_recovered_exactly(self, seed):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-15, 15, (5, 3))
        pts[:, 2] = rng.uniform(0.5, 3.0, 5)
        # Reject near-collinear horizontal layouts (legit degenerate case).
        spread = np.linalg.svd(pts[:, :2] - pts[:, :2].mean(0), compute_uv=False)
        if spread[-1] < 3.0 or np.linalg.norm(pts[1, :2] - pts[0, :2]) < 1.0:
            return
        d = pairwise_distance_matrix(pts)
        azimuth = angle_of(pts[1, :2] - pts[0, :2])
        perp = np.array([-np.sin(azimuth), np.cos(azimuth), 0.0])
        left = pts[0] + 0.08 * perp
        right = pts[0] - 0.08 * perp
        signs = {
            i: s
            for i in range(2, 5)
            if (s := mic_arrival_sign(left, right, pts[i])) != 0
        }
        result = localize(d, pts[:, 2], azimuth, signs, rng=rng)
        truth = pts - pts[0]
        errors = np.linalg.norm(result.positions2d - truth[:, :2], axis=1)
        assert errors.max() < 0.1
