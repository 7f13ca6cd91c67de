"""Tests for weighted SMACOF and classical MDS."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import LocalizationError
from repro.geometry.procrustes import procrustes_error
from repro.geometry.topology import full_weight_matrix, pairwise_distance_matrix
from repro.localization.smacof import (
    _graph_complete_distances,
    _validate_inputs,
    classical_mds,
    normalized_stress,
    smacof,
    smacof_batch,
    stress_value,
)


def _frozen_stress_value(positions, distances, weights):
    # The stress formula before the Guttman loop was restructured.
    diff = positions[:, None, :] - positions[None, :, :]
    d = np.linalg.norm(diff, axis=-1)
    mask = np.triu(weights, k=1) > 0
    resid = np.where(mask, distances - d, 0.0)
    w = np.where(mask, weights, 0.0)
    return float(np.sum(w * resid**2))


def _frozen_complete_distances(distances, weights):
    # The networkx completion the SMACOF init used before the dense
    # all-sources Dijkstra replaced it.
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


def _frozen_classical_mds(d, dim=2):
    # The single-matrix classical MDS before it accepted stacks.
    n = d.shape[0]
    j = np.eye(n) - np.ones((n, n)) / n
    b = -0.5 * j @ (d**2) @ j
    eigvals, eigvecs = np.linalg.eigh(b)
    order = np.argsort(eigvals)[::-1][:dim]
    vals = np.clip(eigvals[order], 0.0, None)
    return eigvecs[:, order] * np.sqrt(vals)


def _frozen_smacof(distances, weights, dim=2, init=None, max_iter=300, tol=1e-7, rng=None):
    """A frozen copy of the original SMACOF loop, the bit-parity oracle.

    It recomputes the distance matrix twice per step, rebuilds the masks
    inside every stress evaluation, fills the diagonal of B with
    ``np.fill_diagonal`` and initialises from the networkx completion;
    :func:`smacof` and every problem of :func:`smacof_batch` must
    reproduce it bit for bit.
    """
    d = np.asarray(distances, dtype=float)
    w = np.asarray(weights, dtype=float)
    _validate_inputs(d, w)
    rng = rng or np.random.default_rng(0)
    if init is None:
        x = _frozen_classical_mds(_frozen_complete_distances(d, w), dim=dim)
        x = x + rng.normal(0.0, 1e-6, size=x.shape)
    else:
        x = np.array(init, dtype=float, copy=True)
    v = -np.array(w, dtype=float, copy=True)
    np.fill_diagonal(v, 0.0)
    np.fill_diagonal(v, -v.sum(axis=1))
    v_pinv = np.linalg.pinv(v)
    d_clean = np.where(w > 0, np.nan_to_num(d, nan=0.0), 0.0)
    prev_stress = _frozen_stress_value(x, d_clean, w)
    converged = False
    iteration = 0
    for iteration in range(1, max_iter + 1):
        diff = x[:, None, :] - x[None, :, :]
        dist = np.linalg.norm(diff, axis=-1)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(dist > 1e-12, d_clean / dist, 0.0)
        b = -w * ratio
        np.fill_diagonal(b, 0.0)
        np.fill_diagonal(b, -b.sum(axis=1))
        x = v_pinv @ (b @ x)
        stress = _frozen_stress_value(x, d_clean, w)
        if prev_stress > 0 and (prev_stress - stress) / max(prev_stress, 1e-15) < tol:
            prev_stress = stress
            converged = True
            break
        prev_stress = stress
    return x, prev_stress, iteration, converged


def _bits(value):
    """The bytes of a float array or scalar: unlike ``==`` and
    ``np.array_equal``, they tell ``-0.0`` from ``0.0``."""
    return np.asarray(value, dtype=float).tobytes()


@st.composite
def _measured_networks(draw, n_min=4, n_max=10):
    """Noisy distances on a random layout with connected missing links."""
    n = draw(st.integers(n_min, n_max))
    return _network(draw, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def _network(draw, n, rng):
    pts = rng.uniform(-20.0, 20.0, (n, 2))
    d = pairwise_distance_matrix(pts)
    noise = np.triu(rng.normal(0.0, draw(st.sampled_from([0.0, 0.3, 2.0])), (n, n)), 1)
    d = np.abs(d + noise + noise.T)
    np.fill_diagonal(d, 0.0)
    w = full_weight_matrix(n)
    drop_prob = draw(st.sampled_from([0.0, 0.2, 0.4]))
    for i, j in zip(*np.triu_indices(n, 1)):
        if rng.random() >= drop_prob:
            continue
        w[i, j] = w[j, i] = 0.0
        if not _connected(w):
            w[i, j] = w[j, i] = 1.0
    d[w == 0] = np.nan
    np.fill_diagonal(d, 0.0)
    return d, w, rng


@st.composite
def _network_stacks(draw, k_max=12, k_min=1):
    """``k_min``-``k_max`` measured networks that share one node count."""
    n = draw(st.integers(4, 10))
    nets = [
        _network(draw, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
        for _ in range(draw(st.integers(k_min, k_max)))
    ]
    d = np.stack([net[0] for net in nets])
    w = np.stack([net[1] for net in nets])
    return d, w, nets[-1][2]


def _connected(w):
    seen, stack = {0}, [0]
    while stack:
        for j in np.flatnonzero(w[stack.pop()] > 0):
            if int(j) not in seen:
                seen.add(int(j))
                stack.append(int(j))
    return len(seen) == w.shape[0]


def _square():
    return np.array([[0.0, 0.0], [10.0, 0.0], [10.0, 10.0], [0.0, 10.0]])


def _pentagon():
    angles = np.linspace(0, 2 * np.pi, 6)[:-1]
    return 8.0 * np.column_stack([np.cos(angles), np.sin(angles)])


class TestClassicalMds:
    def test_exact_recovery(self):
        pts = _pentagon()
        d = pairwise_distance_matrix(pts)
        embedding = classical_mds(d)
        assert procrustes_error(embedding, pts).max() < 1e-8

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            classical_mds(np.zeros((3, 3)), dim=3)
        with pytest.raises(ValueError):
            classical_mds(np.zeros((3, 4)))


class TestSmacof:
    def test_exact_distances_recovered(self):
        pts = _square()
        d = pairwise_distance_matrix(pts)
        result = smacof(d)
        assert result.normalized_stress < 1e-4
        assert procrustes_error(result.positions, pts).max() < 1e-3

    def test_missing_link_still_recovered(self):
        pts = _pentagon()
        d = pairwise_distance_matrix(pts)
        w = full_weight_matrix(5)
        w[0, 2] = w[2, 0] = 0.0
        result = smacof(d, w)
        assert procrustes_error(result.positions, pts).max() < 1e-2

    def test_weights_ignore_bogus_entries(self):
        pts = _square()
        d = pairwise_distance_matrix(pts)
        w = full_weight_matrix(4)
        d_corrupt = d.copy()
        d_corrupt[0, 2] = d_corrupt[2, 0] = np.nan  # missing -> NaN ok
        w[0, 2] = w[2, 0] = 0.0
        result = smacof(d_corrupt, w)
        assert procrustes_error(result.positions, pts).max() < 1e-2

    def test_noisy_distances_reasonable(self):
        rng = np.random.default_rng(0)
        pts = _pentagon()
        d = pairwise_distance_matrix(pts) + rng.normal(0, 0.2, (5, 5))
        d = np.abs(np.triu(d, 1))
        d = d + d.T
        result = smacof(d)
        assert procrustes_error(result.positions, pts).max() < 1.0

    def test_stress_monotone_through_iterations(self):
        # Run with explicit init and verify reported stress <= init stress.
        rng = np.random.default_rng(1)
        pts = _pentagon()
        d = pairwise_distance_matrix(pts)
        init = rng.uniform(-10, 10, (5, 2))
        w = full_weight_matrix(5)
        init_stress = stress_value(init, d, w)
        result = smacof(d, init=init)
        assert result.stress <= init_stress

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            smacof(np.zeros((3, 4)))
        d = pairwise_distance_matrix(_square())
        with pytest.raises(ValueError):
            smacof(d, weights=-np.ones((4, 4)))
        with pytest.raises(LocalizationError):
            smacof(np.zeros((2, 2)))

    def test_disconnected_graph_rejected(self):
        d = pairwise_distance_matrix(_square())
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(LocalizationError):
            smacof(d, w)

    def test_normalized_stress_units(self):
        # Uniform residual of r metres on every link -> normalised
        # stress ~ r.
        pts = _square()
        d = pairwise_distance_matrix(pts) + 0.5
        np.fill_diagonal(d, 0.0)
        w = full_weight_matrix(4)
        s = stress_value(pts, d, w)
        assert normalized_stress(s, w) == pytest.approx(0.5)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(4, 8))
    def test_random_configs_recovered(self, seed, n):
        rng = np.random.default_rng(seed)
        pts = rng.uniform(-20, 20, (n, 2))
        # Skip nearly-degenerate (collinear) draws.
        spread = np.linalg.svd(pts - pts.mean(0), compute_uv=False)
        if spread[-1] < 2.0:
            return
        d = pairwise_distance_matrix(pts)
        result = smacof(d)
        assert procrustes_error(result.positions, pts).max() < 0.05

    def test_convergence_flag(self):
        d = pairwise_distance_matrix(_square())
        result = smacof(d, max_iter=300)
        assert result.converged
        assert result.n_iter <= 300


class TestGuttmanLoopParity:
    """The restructured loop is bit-identical to the original one."""

    @settings(max_examples=60, deadline=None)
    @given(
        net=_measured_networks(),
        explicit_init=st.booleans(),
        rng_seed=st.integers(0, 2**32 - 1),
        max_iter=st.sampled_from([1, 7, 300]),
    )
    def test_bit_identical_to_frozen_loop(self, net, explicit_init, rng_seed, max_iter):
        d, w, draw_rng = net
        init = draw_rng.uniform(-20.0, 20.0, (d.shape[0], 2)) if explicit_init else None
        x_ref, stress_ref, n_iter_ref, conv_ref = _frozen_smacof(
            d, w, init=init, max_iter=max_iter, rng=np.random.default_rng(rng_seed)
        )
        got = smacof(d, w, init=init, max_iter=max_iter, rng=np.random.default_rng(rng_seed))
        assert _bits(got.positions) == _bits(x_ref)
        assert _bits(got.stress) == _bits(stress_ref)
        assert got.n_iter == n_iter_ref
        assert got.converged == conv_ref

    @settings(max_examples=30, deadline=None)
    @given(net=_measured_networks())
    def test_stress_value_matches_frozen_formula(self, net):
        d, w, draw_rng = net
        x = draw_rng.uniform(-20.0, 20.0, (d.shape[0], 2))
        d_clean = np.where(w > 0, np.nan_to_num(d, nan=0.0), 0.0)
        assert _bits(stress_value(x, d_clean, w)) == _bits(_frozen_stress_value(x, d_clean, w))
        # Entries off the links are never read, NaN included.
        assert _bits(stress_value(x, d, w)) == _bits(_frozen_stress_value(x, d_clean, w))


def _assert_batch_matches_frozen(d, w, init, max_iter, rng_seed, tol=1e-7):
    """Each problem of one batched solve equals its own frozen solve."""
    batch_rng = np.random.default_rng(rng_seed)
    ref_rng = np.random.default_rng(rng_seed)
    got = smacof_batch(d, w, init=init, max_iter=max_iter, tol=tol, rng=batch_rng)
    assert len(got) == w.shape[0]
    for k, result in enumerate(got):
        x_ref, stress_ref, n_iter_ref, conv_ref = _frozen_smacof(
            d[k],
            w[k],
            init=None if init is None else init[k],
            max_iter=max_iter,
            tol=tol,
            rng=ref_rng,
        )
        assert _bits(result.positions) == _bits(x_ref)
        assert _bits(result.stress) == _bits(stress_ref)
        assert _bits(result.normalized_stress) == _bits(normalized_stress(stress_ref, w[k]))
        assert result.n_iter == n_iter_ref
        assert result.converged == conv_ref
    # The default inits drew their jitter in problem order.
    assert batch_rng.random() == ref_rng.random()
    return got


class TestBatchParity:
    """A stacked solve is K independent solves, bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(
        stack=_network_stacks(),
        explicit_init=st.booleans(),
        rng_seed=st.integers(0, 2**32 - 1),
        max_iter=st.sampled_from([1, 7, 300]),
    )
    def test_each_problem_bit_identical_to_frozen_loop(
        self, stack, explicit_init, rng_seed, max_iter
    ):
        d, w, draw_rng = stack
        init = draw_rng.uniform(-20.0, 20.0, (w.shape[0], w.shape[1], 2)) if explicit_init else None
        _assert_batch_matches_frozen(d, w, init, max_iter, rng_seed)

    @settings(max_examples=40, deadline=None)
    @given(
        stack=_network_stacks(k_max=6),
        rng_seed=st.integers(0, 2**32 - 1),
        max_iter=st.sampled_from([1, 7, 300]),
        data=st.data(),
    )
    def test_coincident_init_points(self, stack, rng_seed, max_iter, data):
        # Inits with repeated rows put B(X)'s ``dist <= 1e-12`` branch
        # (-0.0 entries) in play off the diagonal.
        d, w, draw_rng = stack
        k, n = w.shape[:2]
        init = draw_rng.uniform(-20.0, 20.0, (k, n, 2))
        for p in range(k):
            rows = data.draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=n))
            init[p, rows] = init[p, rows[0]]
        _assert_batch_matches_frozen(d, w, init, max_iter, rng_seed)

    @settings(max_examples=25, deadline=None)
    @given(
        stack=_network_stacks(k_max=8, k_min=2),
        max_iter=st.sampled_from([3, 5, 9]),
        data=st.data(),
    )
    def test_step_one_convergence_beside_capped_problems(self, stack, max_iter, data):
        # Problems started from their own converged solution converge
        # at step 1; problems from a random init run into the cap.
        d, w, draw_rng = stack
        k, n = w.shape[:2]
        settled = data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
        settled[0], settled[-1] = True, False
        init = draw_rng.uniform(-20.0, 20.0, (k, n, 2))
        for p in np.flatnonzero(settled):
            init[p] = smacof(d[p], w[p], init=init[p], max_iter=3000, tol=0.0).positions
        got = _assert_batch_matches_frozen(d, w, init, max_iter, 0)
        assert got[0].n_iter == 1 and got[0].converged
        assert any(r.n_iter == max_iter and not r.converged for r in got)

    def test_converged_and_capped_problems_share_a_stack(self):
        # Problems freeze at different iterations, and seed 106 runs
        # into the 300-iteration cap without converging.
        nets = []
        for seed in (0, 106, 1, 2, 3):
            rng = np.random.default_rng(seed)
            pts = rng.uniform(-20.0, 20.0, (6, 2))
            noise = np.triu(rng.normal(0.0, 2.0, (6, 6)), 1)
            d = np.abs(pairwise_distance_matrix(pts) + noise + noise.T)
            np.fill_diagonal(d, 0.0)
            nets.append((d, rng.uniform(-20.0, 20.0, (6, 2))))
        d = np.stack([net[0] for net in nets])
        init = np.stack([net[1] for net in nets])
        w = np.stack([full_weight_matrix(6)] * len(nets))
        got = _assert_batch_matches_frozen(d, w, init, 300, 0)
        assert [r.converged for r in got] == [True, False, True, True, True]
        assert got[1].n_iter == 300
        assert len({r.n_iter for r in got}) == 4

    def test_shared_distances_broadcast_over_the_stack(self):
        d = pairwise_distance_matrix(_pentagon())
        w = np.stack([full_weight_matrix(5)] * 3)
        w[1, 0, 2] = w[1, 2, 0] = 0.0
        w[2, 1, 3] = w[2, 3, 1] = 0.0
        rng = np.random.default_rng(5)
        got = smacof_batch(d, w, rng=rng)
        ref_rng = np.random.default_rng(5)
        for k in range(3):
            ref = smacof(d, w[k], rng=ref_rng)
            assert _bits(got[k].positions) == _bits(ref.positions)
            assert _bits(got[k].stress) == _bits(ref.stress)

    def test_invalid_stacks(self):
        d = pairwise_distance_matrix(_square())
        with pytest.raises(ValueError):
            smacof_batch(d, full_weight_matrix(4))
        with pytest.raises(ValueError):
            smacof_batch(d, -np.ones((2, 4, 4)))
        with pytest.raises(ValueError):
            smacof_batch(d, np.stack([full_weight_matrix(4)] * 2), init=np.zeros((2, 4, 3)))
        w = np.stack([full_weight_matrix(4)] * 2)
        w[1, 0, 1] = w[1, 1, 0] = 0.0
        w[1, 0, 2] = w[1, 2, 0] = 0.0
        w[1, 0, 3] = w[1, 3, 0] = 0.0
        with pytest.raises(LocalizationError):
            smacof_batch(d, w)


@st.composite
def _link_graphs(draw):
    """Graphs with missing links, tied path lengths and zero-length links."""
    n = draw(st.integers(3, 11))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = rng.uniform(0.0, 30.0, (n, n))
    if draw(st.booleans()):
        d = np.round(d)  # integer lengths: many equal-length paths
    d[rng.random((n, n)) < draw(st.sampled_from([0.0, 0.1, 0.3]))] = 0.0
    d = np.triu(d, 1)
    d = d + d.T
    w = (rng.random((n, n)) >= draw(st.sampled_from([0.0, 0.3, 0.6]))).astype(float)
    w = np.triu(w, 1)
    w = w + w.T
    d[w == 0] = np.nan
    np.fill_diagonal(d, 0.0)
    return d, w


class TestDenseDijkstra:
    """The dense all-sources Dijkstra equals the networkx completion."""

    @settings(max_examples=300, deadline=None)
    @given(graph=_link_graphs())
    def test_bit_identical_to_networkx(self, graph):
        d, w = graph
        try:
            expected = _frozen_complete_distances(d, w)
        except LocalizationError:
            with pytest.raises(LocalizationError):
                _graph_complete_distances(d, w)
            return
        assert _bits(_graph_complete_distances(d, w)) == _bits(expected)

    @settings(max_examples=100, deadline=None)
    @given(
        n=st.integers(3, 9),
        kinds=st.lists(st.sampled_from(["complete", "incomplete"]), min_size=1, max_size=6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_complete_incomplete_and_mixed_stacks(self, n, kinds, seed):
        # An all-complete stack takes the shortcut, any other stack the
        # N Dijkstra steps; both give each matrix its frozen completion.
        rng = np.random.default_rng(seed)
        ds, ws = [], []
        for kind in kinds:
            d = np.round(rng.uniform(0.0, 30.0, (n, n)))
            d[rng.random((n, n)) < 0.1] = 0.0
            d = np.triu(d, 1)
            d = d + d.T
            w = np.triu(np.ones((n, n)), 1)
            if kind == "incomplete":
                i, j = sorted(rng.choice(n, size=2, replace=False))
                w[i, j] = 0.0
            w = w + w.T
            d[w == 0] = np.nan
            np.fill_diagonal(d, 0.0)
            ds.append(d)
            ws.append(w)
        got = _graph_complete_distances(np.stack(ds), np.stack(ws))
        for k in range(len(kinds)):
            assert _bits(got[k]) == _bits(_frozen_complete_distances(ds[k], ws[k]))

    def test_complete_stack_with_shared_distances(self):
        d = pairwise_distance_matrix(_pentagon())
        w = np.stack([full_weight_matrix(5)] * 3)
        got = _graph_complete_distances(d, w)
        assert got.shape == (3, 5, 5)
        for k in range(3):
            assert _bits(got[k]) == _bits(_frozen_complete_distances(d, w[k]))

    def test_ties_and_zero_length_links(self):
        # Two equal-length routes 0-1-3 and 0-2-3, a zero-length link
        # 3-4 and a path of two zero-length links 4-5-6.
        d = np.full((7, 7), np.nan)
        w = np.zeros((7, 7))
        links = [
            (0, 1, 1.5),
            (1, 3, 2.5),
            (0, 2, 2.5),
            (2, 3, 1.5),
            (3, 4, 0.0),
            (4, 5, 0.0),
            (5, 6, 0.0),
        ]
        for i, j, length in links:
            d[i, j] = d[j, i] = length
            w[i, j] = w[j, i] = 1.0
        np.fill_diagonal(d, 0.0)
        got = _graph_complete_distances(d, w)
        assert np.array_equal(got, _frozen_complete_distances(d, w))
        assert got[0, 3] == got[0, 6] == 4.0
        assert got[4, 6] == 0.0

    def test_stack_equals_each_matrix(self):
        d = pairwise_distance_matrix(_pentagon())
        w = np.stack([full_weight_matrix(5)] * 3)
        w[1, 0, 2] = w[1, 2, 0] = 0.0
        w[2, 1, 3] = w[2, 3, 1] = w[2, 0, 3] = w[2, 3, 0] = 0.0
        got = _graph_complete_distances(d, w)
        for k in range(3):
            assert np.array_equal(got[k], _frozen_complete_distances(d, w[k]))

    def test_disconnected_graph_raises(self):
        d = pairwise_distance_matrix(_square())
        w = np.zeros((4, 4))
        w[0, 1] = w[1, 0] = 1.0
        w[2, 3] = w[3, 2] = 1.0
        with pytest.raises(LocalizationError):
            _frozen_complete_distances(d, w)
        with pytest.raises(LocalizationError):
            _graph_complete_distances(d, w)


class TestMajorization:
    @settings(max_examples=25, deadline=None)
    @given(net=_measured_networks())
    def test_stress_never_increases_with_more_iterations(self, net):
        # The Guttman transform minimises a majorizer of the stress, so
        # each step can only lower it: with a fixed init, the stress
        # after k steps is non-increasing in k. Once the iterates stop
        # moving, rounding may still wobble it: each residual carries
        # an absolute error of about eps * max distance, which bounds
        # the error of the stress sum (slack: 100x that bound).
        d, w, draw_rng = net
        init = draw_rng.uniform(-20.0, 20.0, (d.shape[0], 2))
        d_clean = np.where(w > 0, np.nan_to_num(d, nan=0.0), 0.0)
        ulp = np.finfo(float).eps * d_clean.max()
        n_links = np.count_nonzero(np.triu(w, 1))
        prev = stress_value(init, d_clean, w)
        for k in range(1, 41):
            stress = smacof(d, w, init=init, max_iter=k, tol=0.0).stress
            slack = 100.0 * (2.0 * ulp * np.sqrt(n_links * prev) + n_links * ulp**2)
            assert stress <= prev + slack
            prev = stress
