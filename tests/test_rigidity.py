"""Tests for the pebble game, rigidity and unique realizability."""

import itertools

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.localization.rigidity import (
    _three_connected,
    edges_from_weights,
    independent_edge_count,
    is_redundantly_rigid,
    is_rigid,
    is_uniquely_realizable,
    laman_satisfied,
)


def complete_graph_edges(n):
    return list(itertools.combinations(range(n), 2))


class TestRigidity:
    def test_triangle_rigid(self):
        assert is_rigid(3, [(0, 1), (1, 2), (0, 2)])

    def test_path_not_rigid(self):
        assert not is_rigid(3, [(0, 1), (1, 2)])

    def test_square_not_rigid(self):
        # The 4-cycle deforms into a rhombus (paper Fig. 4a).
        assert not is_rigid(4, [(0, 1), (1, 2), (2, 3), (3, 0)])

    def test_square_with_diagonal_rigid(self):
        assert is_rigid(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])

    def test_complete_graphs_rigid(self):
        for n in range(2, 8):
            assert is_rigid(n, complete_graph_edges(n))

    def test_two_triangles_sharing_vertex_not_rigid(self):
        # Hinge at the shared vertex.
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)]
        assert not is_rigid(5, edges)

    def test_single_node_trivially_rigid(self):
        assert is_rigid(1, [])
        assert is_rigid(2, [(0, 1)])
        assert not is_rigid(2, [])

    def test_double_banana_analogue_counts(self):
        # Laman counting: K4 has 6 edges but rank 2*4-3 = 5.
        assert independent_edge_count(4, complete_graph_edges(4)) == 5

    def test_laman_satisfied_minimally_rigid(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]  # 2*4-3 = 5 edges
        assert laman_satisfied(4, edges)
        assert not laman_satisfied(4, complete_graph_edges(4))  # 6 edges

    def test_overconstrained_subgraph_rejected(self):
        # K4 plus an isolated-ish path: total 2n-3 edges but K4 part has
        # more than 2n'-3 -> not Laman.
        edges = complete_graph_edges(4) + [(3, 4), (4, 5), (3, 5)]
        n = 6
        assert len(edges) == 2 * n - 3
        assert not laman_satisfied(n, edges)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            is_rigid(3, [(0, 0)])

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            independent_edge_count(3, [(0, 5)])


class TestRedundantRigidity:
    def test_k4_redundantly_rigid(self):
        assert is_redundantly_rigid(4, complete_graph_edges(4))

    def test_minimally_rigid_not_redundant(self):
        edges = [(0, 1), (1, 2), (0, 2), (2, 3), (1, 3)]
        assert is_rigid(4, edges)
        assert not is_redundantly_rigid(4, edges)

    def test_triangle_not_redundant(self):
        assert not is_redundantly_rigid(3, [(0, 1), (1, 2), (0, 2)])


def _jackson_jordan(n, edges):
    """The uncached composition the memoized predicate must reproduce."""
    if n <= 3:
        return len(set(map(frozenset, edges))) == n * (n - 1) // 2
    graph = nx.Graph()
    graph.add_nodes_from(range(n))
    graph.add_edges_from(edges)
    return (
        nx.is_connected(graph)
        and nx.node_connectivity(graph) >= 3
        and is_redundantly_rigid(n, edges)
    )


class TestUniqueRealizability:
    def test_small_complete_graphs(self):
        assert is_uniquely_realizable(2, [(0, 1)])
        assert is_uniquely_realizable(3, complete_graph_edges(3))
        assert not is_uniquely_realizable(3, [(0, 1), (1, 2)])

    def test_k4_and_k5(self):
        assert is_uniquely_realizable(4, complete_graph_edges(4))
        assert is_uniquely_realizable(5, complete_graph_edges(5))

    def test_k5_minus_edge(self):
        edges = [e for e in complete_graph_edges(5) if e != (0, 1)]
        assert is_uniquely_realizable(5, edges)

    def test_partial_reflection_graph_rejected(self):
        # Two triangles sharing an edge: rigid but a node can reflect
        # across the shared edge (paper Fig. 4b); 2-connected only.
        edges = [(0, 1), (0, 2), (1, 2), (0, 3), (1, 3)]
        assert is_rigid(4, edges)
        assert not is_uniquely_realizable(4, edges)

    def test_disconnected_rejected(self):
        edges = complete_graph_edges(3) + [(4, 5)]
        assert not is_uniquely_realizable(6, edges)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 5_000))
    def test_agrees_with_definition_on_random_graphs(self, seed):
        # Cross-check 3-connectivity + redundant rigidity composition.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 7))
        edges = [e for e in complete_graph_edges(n) if rng.random() < 0.8]
        assert is_uniquely_realizable(n, edges) == _jackson_jordan(n, edges)


class TestThreeConnectivity:
    """The stdlib deletion test against networkx's max-flow connectivity."""

    @settings(max_examples=300, deadline=None)
    @given(
        n=st.integers(4, 12),
        density=st.floats(0.3, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_networkx_node_connectivity(self, n, density, seed):
        rng = np.random.default_rng(seed)
        edges = [e for e in complete_graph_edges(n) if rng.random() < density]
        graph = nx.Graph()
        graph.add_nodes_from(range(n))
        graph.add_edges_from(edges)
        assert _three_connected(n, edges) == (nx.node_connectivity(graph) >= 3)


class TestMemoizedRealizability:
    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(2, 8),
        keep=st.sampled_from([0.5, 0.7, 0.85, 1.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_edge_order_never_changes_the_answer(self, n, keep, seed):
        # Like Algorithm 1, ask about a graph and about every one-link
        # drop from it: same-size edge sets with different answers.
        rng = np.random.default_rng(seed)
        edges = [e for e in complete_graph_edges(n) if rng.random() < keep]
        subsets = [edges] + [edges[:k] + edges[k + 1 :] for k in range(len(edges))]
        for subset in subsets:
            expected = _jackson_jordan(n, subset)
            shuffled = [subset[i] for i in rng.permutation(len(subset))]
            flipped = [(v, u) for u, v in shuffled]
            for order in (subset, shuffled, subset[::-1], flipped):
                assert is_uniquely_realizable(n, order) == expected

    def test_self_loop_raises_on_every_call(self):
        edges = complete_graph_edges(5)
        assert is_uniquely_realizable(5, edges)
        for _ in range(2):
            with pytest.raises(ValueError, match="self-loop"):
                is_uniquely_realizable(5, edges + [(2, 2)])
        assert is_uniquely_realizable(5, edges)

    def test_unknown_node_raises_on_every_call(self):
        edges = complete_graph_edges(4)
        assert is_uniquely_realizable(4, edges)
        for _ in range(2):
            with pytest.raises(ValueError, match="unknown node"):
                is_uniquely_realizable(4, edges + [(0, 4)])


class TestEdgesFromWeights:
    def test_extracts_upper_triangle(self):
        w = np.zeros((3, 3))
        w[0, 1] = w[1, 0] = 1.0
        w[1, 2] = w[2, 1] = 1.0
        assert edges_from_weights(w) == [(0, 1), (1, 2)]
