"""Graph rigidity and unique realizability in two dimensions.

Three nested properties matter for localizability (paper section 2.1.2):

* **Rigid** — no continuous deformation besides rotation, translation
  and reflection. Laman's theorem: a graph with ``2n - 3`` edges is
  rigid iff no subgraph on ``n'`` nodes has more than ``2n' - 3`` edges.
  We test rigidity with the Lee-Streinu (2,3) pebble game, which runs
  Laman's condition in polynomial time.
* **Redundantly rigid** — remains rigid after removing any single edge.
* **Uniquely realizable** (globally rigid) — Jackson-Jordan: for
  ``n >= 4``, redundantly rigid *and* 3-connected; for ``n <= 3``,
  exactly the complete graphs.

Algorithm 1 (outlier detection) consults these predicates before
dropping link subsets: a drop that destroys unique realizability cannot
be evaluated meaningfully.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations
from typing import Dict, FrozenSet, Iterable, List, Set, Tuple

import numpy as np

Edge = Tuple[int, int]


def _normalise_edges(edges: Iterable[Edge]) -> List[Edge]:
    out: List[Edge] = []
    seen: Set[Edge] = set()
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop on node {u}")
        e = (min(u, v), max(u, v))
        if e not in seen:
            seen.add(e)
            out.append(e)
    return out


def _check_nodes(num_nodes: int, edges: List[Edge]) -> None:
    for u, v in edges:
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise ValueError(f"edge ({u}, {v}) references unknown node")


def edges_from_weights(weights: np.ndarray) -> List[Edge]:
    """Edge list of the links with positive weight."""
    w = np.asarray(weights)
    n = w.shape[0]
    return [(i, j) for i in range(n) for j in range(i + 1, n) if w[i, j] > 0]


class _PebbleGame:
    """The (2,3) pebble game of Lee and Streinu.

    Each vertex starts with 2 pebbles. To insert an edge, 4 pebbles must
    be gathered on its endpoints; accepted edges are independent rows of
    the rigidity matroid. A graph on ``n`` nodes is rigid iff the game
    accepts ``2n - 3`` edges.
    """

    def __init__(self, num_nodes: int):
        self.n = num_nodes
        self.pebbles: Dict[int, int] = {v: 2 for v in range(num_nodes)}
        self.out: Dict[int, Set[int]] = {v: set() for v in range(num_nodes)}

    def _find_pebble(self, root: int, blocked: Set[int]) -> bool:
        """Move a free pebble to ``root`` along reversed search paths."""
        parent: Dict[int, int] = {root: root}
        stack = [root]
        target = None
        while stack:
            node = stack.pop()
            for nxt in self.out[node]:
                if nxt in parent:
                    continue
                parent[nxt] = node
                if nxt not in blocked and self.pebbles[nxt] > 0:
                    target = nxt
                    stack.clear()
                    break
                stack.append(nxt)
        if target is None:
            return False
        # Reverse edges on the path target -> root and move the pebble.
        self.pebbles[target] -= 1
        node = target
        while node != root:
            prev = parent[node]
            self.out[prev].discard(node)
            self.out[node].add(prev)
            node = prev
        self.pebbles[root] += 1
        return True

    def try_insert(self, u: int, v: int) -> bool:
        """Insert edge ``(u, v)`` if independent; return acceptance."""
        blocked = {u, v}
        while self.pebbles[u] + self.pebbles[v] < 4:
            moved = self._find_pebble(u, blocked) or self._find_pebble(v, blocked)
            if not moved:
                return False
        # Accept: orient from u, consuming one of u's pebbles.
        if self.pebbles[u] == 0:
            u, v = v, u
        self.pebbles[u] -= 1
        self.out[u].add(v)
        return True


def independent_edge_count(num_nodes: int, edges: Iterable[Edge]) -> int:
    """Rank of the edge set in the 2D generic rigidity matroid."""
    edge_list = _normalise_edges(edges)
    _check_nodes(num_nodes, edge_list)
    game = _PebbleGame(num_nodes)
    count = 0
    for u, v in edge_list:
        if game.try_insert(u, v):
            count += 1
    return count


def laman_satisfied(num_nodes: int, edges: Iterable[Edge]) -> bool:
    """True when the edge set itself is independent and of size 2n-3.

    This is the literal Laman condition for a minimally rigid graph.
    """
    edge_list = _normalise_edges(edges)
    if len(edge_list) != 2 * num_nodes - 3:
        return False
    return independent_edge_count(num_nodes, edge_list) == len(edge_list)


def is_rigid(num_nodes: int, edges: Iterable[Edge]) -> bool:
    """Generic rigidity in 2D via the pebble game."""
    if num_nodes <= 1:
        return True
    edge_list = _normalise_edges(edges)
    if num_nodes == 2:
        return len(edge_list) >= 1
    return independent_edge_count(num_nodes, edge_list) == 2 * num_nodes - 3


def is_redundantly_rigid(num_nodes: int, edges: Iterable[Edge]) -> bool:
    """Rigid, and stays rigid after removing any single edge."""
    edge_list = _normalise_edges(edges)
    if not is_rigid(num_nodes, edge_list):
        return False
    if num_nodes <= 1:
        return True
    for skip in range(len(edge_list)):
        reduced = edge_list[:skip] + edge_list[skip + 1 :]
        if not is_rigid(num_nodes, reduced):
            return False
    return True


def is_uniquely_realizable(num_nodes: int, edges: Iterable[Edge]) -> bool:
    """Global rigidity in 2D (Jackson-Jordan characterisation).

    ``n <= 3``: complete graphs only. ``n >= 4``: redundantly rigid and
    3-connected. The predicate depends only on the edge *set*, so results
    are memoized per ``(num_nodes, frozenset(edges))``; Algorithm 1 asks
    about the same subsets again across its drop levels. Edges are
    validated on every call, so invalid input always raises.
    """
    edge_list = _normalise_edges(edges)
    _check_nodes(num_nodes, edge_list)
    return _globally_rigid(num_nodes, frozenset(edge_list))


@lru_cache(maxsize=1024)
def _globally_rigid(num_nodes: int, edge_set: FrozenSet[Edge]) -> bool:
    """Jackson-Jordan test on a validated, normalised edge set."""
    edge_list = sorted(edge_set)
    if num_nodes <= 1:
        return True
    if num_nodes == 2:
        return len(edge_list) == 1
    if num_nodes == 3:
        return len(edge_list) == 3
    return _three_connected(num_nodes, edge_list) and is_redundantly_rigid(num_nodes, edge_list)


def _three_connected(num_nodes: int, edge_list: List[Edge]) -> bool:
    """Vertex connectivity >= 3 for ``num_nodes >= 4``.

    By Menger's theorem that holds iff the graph stays connected after
    deleting any zero, one or two vertices: ``1 + n + C(n, 2)`` graph
    searches, cheap at Algorithm 1's sizes (``n`` up to about 12).
    """
    adjacency: List[Set[int]] = [set() for _ in range(num_nodes)]
    for u, v in edge_list:
        adjacency[u].add(v)
        adjacency[v].add(u)

    def connected_without(removed: Tuple[int, ...]) -> bool:
        start = next(v for v in range(num_nodes) if v not in removed)
        seen = {start, *removed}
        stack = [start]
        while stack:
            for w in adjacency[stack.pop()] - seen:
                seen.add(w)
                stack.append(w)
        return len(seen) == num_nodes

    return all(
        connected_without(removed)
        for k in range(3)
        for removed in combinations(range(num_nodes), k)
    )
