"""Tests for geometry utilities: transforms, Procrustes, topology."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.procrustes import procrustes_align, procrustes_error
from repro.geometry.topology import (
    drop_links,
    full_weight_matrix,
    pairwise_distance_matrix,
    random_scenario_positions,
)
from repro.geometry.transforms import (
    angle_of,
    reflect_across_line_2d,
    rotate_2d,
    rotation_matrix_2d,
)


class TestTransforms:
    def test_rotation_matrix_orthonormal(self):
        rot = rotation_matrix_2d(0.7)
        assert np.allclose(rot @ rot.T, np.eye(2))
        assert np.linalg.det(rot) == pytest.approx(1.0)

    def test_rotate_quarter_turn(self):
        pts = np.array([[1.0, 0.0]])
        out = rotate_2d(pts, np.pi / 2)
        assert np.allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_rotate_about_center(self):
        pts = np.array([[2.0, 1.0]])
        out = rotate_2d(pts, np.pi, center=[1.0, 1.0])
        assert np.allclose(out, [[0.0, 1.0]], atol=1e-12)

    def test_angle_of(self):
        assert angle_of([1.0, 0.0]) == pytest.approx(0.0)
        assert angle_of([0.0, 2.0]) == pytest.approx(np.pi / 2)
        with pytest.raises(ValueError):
            angle_of([0.0, 0.0])

    def test_reflection_fixes_line_points(self):
        pts = np.array([[0.0, 0.0], [2.0, 2.0], [1.0, 0.0]])
        out = reflect_across_line_2d(pts, [0.0, 0.0], [1.0, 1.0])
        assert np.allclose(out[0], pts[0])
        assert np.allclose(out[1], pts[1])
        assert np.allclose(out[2], [0.0, 1.0])

    def test_reflection_involution(self):
        rng = np.random.default_rng(0)
        pts = rng.uniform(-5, 5, (6, 2))
        once = reflect_across_line_2d(pts, [1.0, 2.0], [3.0, -1.0])
        twice = reflect_across_line_2d(once, [1.0, 2.0], [3.0, -1.0])
        assert np.allclose(twice, pts)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            reflect_across_line_2d(np.zeros((2, 2)), [0, 0], [0, 0])


class TestProcrustes:
    def test_alignment_removes_rigid_transform(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-10, 10, (6, 2))
        moved = rotate_2d(pts, 1.1) + np.array([3.0, -2.0])
        aligned = procrustes_align(moved, pts)
        assert np.allclose(aligned, pts, atol=1e-9)

    def test_reflection_toggle(self):
        pts = np.array([[0.0, 0.0], [4.0, 0.0], [0.0, 3.0]])
        mirrored = pts * np.array([1.0, -1.0])
        err_with = procrustes_error(mirrored, pts, allow_reflection=True)
        err_without = procrustes_error(mirrored, pts, allow_reflection=False)
        assert err_with.max() < 1e-9
        assert err_without.max() > 0.1

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            procrustes_align(np.zeros((3, 2)), np.zeros((4, 2)))

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), angle=st.floats(-3.0, 3.0))
    def test_error_invariant_to_rigid_motion(self, seed, angle):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-5, 5, (5, 2))
        noisy = pts + rng.normal(0, 0.1, pts.shape)
        base_err = procrustes_error(noisy, pts)
        moved = rotate_2d(noisy, angle) + np.array([1.0, -4.0])
        moved_err = procrustes_error(moved, pts)
        assert np.allclose(np.sort(base_err), np.sort(moved_err), atol=1e-6)


class TestTopology:
    def test_distance_matrix_symmetric_zero_diag(self):
        rng = np.random.default_rng(2)
        pts = rng.uniform(-10, 10, (5, 3))
        d = pairwise_distance_matrix(pts)
        assert np.allclose(d, d.T)
        assert np.all(np.diag(d) == 0)

    def test_full_weight_matrix(self):
        w = full_weight_matrix(4)
        assert np.all(np.diag(w) == 0)
        assert w.sum() == 12

    def test_random_scenario_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            pts = random_scenario_positions(6, rng)
            assert pts.shape == (6, 3)
            assert np.all(np.abs(pts[:, :2]) <= 30.0)
            assert np.all((pts[:, 2] >= 0) & (pts[:, 2] <= 10.0))
            # Leader centred; user 1 at 4-9 m.
            assert np.allclose(pts[0, :2], 0.0)
            r1 = np.linalg.norm(pts[1] - pts[0])
            assert 3.9 <= r1 <= 9.1

    def test_scenario_needs_three_devices(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ValueError):
            random_scenario_positions(2, rng)

    def test_drop_links_protects_anchor(self):
        rng = np.random.default_rng(5)
        w = full_weight_matrix(5)
        for _ in range(10):
            new_w, dropped = drop_links(w, 3, rng)
            assert (0, 1) not in dropped
            assert new_w[0, 1] == 1.0
            assert len(dropped) == 3
            for i, j in dropped:
                assert new_w[i, j] == 0.0
                assert new_w[j, i] == 0.0

    def test_drop_links_too_many_rejected(self):
        rng = np.random.default_rng(6)
        w = full_weight_matrix(3)
        with pytest.raises(ValueError):
            drop_links(w, 5, rng)

    def test_drop_zero_links_noop(self):
        rng = np.random.default_rng(7)
        w = full_weight_matrix(4)
        new_w, dropped = drop_links(w, 0, rng)
        assert dropped == []
        assert np.allclose(new_w, w)
