from __future__ import annotations

import re
from collections import Counter

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import spanning_trees
from tempex.core import SpanningTree, canonical_edge
from tempex.tour import DfsTour, arc_mask, build_dfs_tour


def arc_members(i: int, j: int, n: int) -> set[int]:
    """Reference definition: indices moving forward from i to j, inclusive."""
    if i <= j:
        return set(range(i, j + 1))
    return set(range(i, n + 1)) | set(range(1, j + 1))


def reference_dfs_tour(tree: SpanningTree) -> tuple[int, ...]:
    """Reference tour: an iterator-stack DFS from 0 over an adjacency built
    from the edge set, children in ascending vertex id."""
    adj: dict[int, list[int]] = {v: [] for v in range(tree.n)}
    for u, v in tree.edges:
        adj[u].append(v)
        adj[v].append(u)
    seq = [0]
    visited = {0}
    stack = [(0, iter(sorted(adj[0])))]
    while stack:
        _, neighbours = stack[-1]
        advanced = False
        for w in neighbours:
            if w in visited:
                continue
            visited.add(w)
            seq.append(w)
            stack.append((w, iter(sorted(adj[w]))))
            advanced = True
            break
        if not advanced:
            stack.pop()
            if stack:
                seq.append(stack[-1][0])
    return tuple(seq[:-1])


def positions(mask: int) -> set[int]:
    """Tour positions (1-indexed) whose bits are set in mask."""
    return {i + 1 for i in range(mask.bit_length()) if mask >> i & 1}


class TestCircularInterval:
    """Circular intervals of tour positions, as `arc_mask` bitmasks."""

    @given(st.integers(2, 16), st.data())
    def test_membership_matches_reference(self, n, data):
        i = data.draw(st.integers(1, n))
        j = data.draw(st.integers(1, n))
        length = (j - i) % n + 1
        assert positions(arc_mask(i, length, n)) == arc_members(i, j, n)
        extra = data.draw(st.integers(0, n))
        assert positions(arc_mask(i, n + extra, n)) == set(range(1, n + 1))

    def test_complement_partitions_cycle_exhaustively(self):
        for n in range(2, 33):
            full = (1 << n) - 1
            for i in range(1, n + 1):
                for length in range(n + 1):
                    arc = arc_mask(i, length, n)
                    rest = arc_mask((i - 1 + length) % n + 1, n - length, n)
                    assert arc & rest == 0
                    assert arc | rest == full

    def test_half_open_excludes_end(self):
        assert positions(arc_mask(2, 2, 5)) == {2, 3}
        assert positions(arc_mask(5, 2, 5)) == {5, 1}

    def test_half_open_same_endpoint_is_empty(self):
        assert arc_mask(3, 0, 5) == 0

    def test_full_and_empty_are_complements(self):
        for start in range(1, 7):
            assert arc_mask(start, 6, 6) == (1 << 6) - 1
            assert arc_mask(start, 0, 6) == 0

    def test_wraparound_closed_interval_is_full(self):
        assert arc_mask(4, 6, 6) == (1 << 6) - 1  # from 4 round to 3


class TestBuildTour:
    def test_path_tree(self):
        tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
        tour = build_dfs_tour(tree)
        assert tour.vertices == (0, 1, 2, 1)
        assert tour.n_positions == 4

    def test_star_tree(self):
        tree = SpanningTree(4, frozenset({(0, 1), (0, 2), (0, 3)}))
        tour = build_dfs_tour(tree)
        assert tour.vertices == (0, 1, 0, 2, 0, 3)
        assert tour.n_positions == 6

    def test_single_edge(self):
        tree = SpanningTree(2, frozenset({(0, 1)}))
        tour = build_dfs_tour(tree)
        assert tour.vertices == (0, 1)
        assert tour.n_positions == 2

    def test_single_vertex_has_no_tour(self):
        with pytest.raises(ValueError):
            build_dfs_tour(SpanningTree(1, frozenset()))

    @pytest.mark.parametrize("vertices, message", [
        ((0, 1), "tour length must be 2(n-1)"),
        ((1, 2, 1, 0), "tour must start at the root"),
        ((0, 1, 1, 2), "self-loop at vertex 1"),
        ((0, 2, 2, 1), "tour step (0, 2) is not a tree edge"),  # before the later self-loop
        ((0, 1, 0, 1), "each tree edge must appear exactly twice in the tour"),
    ])
    def test_malformed_tour_rejected(self, vertices, message):
        tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError, match=re.escape(message)):
            DfsTour(tree, vertices)

    @given(spanning_trees(max_n=10))
    def test_tour_covers_all_vertices_and_edges_twice(self, tree):
        tour = build_dfs_tour(tree)
        assert set(tour.vertices) == set(range(tree.n))
        assert tour.n_positions == 2 * (tree.n - 1)
        counts = Counter(tour.tour_edge(i) for i in range(1, tour.n_positions + 1))
        assert counts == {e: 2 for e in tree.edges}
        for i in range(1, tour.n_positions + 1):
            assert canonical_edge(tour.vertex(i), tour.vertex(i % tour.n_positions + 1)) in tree.edges

    @given(spanning_trees(max_n=10))
    def test_tour_is_deterministic(self, tree):
        assert build_dfs_tour(tree) == build_dfs_tour(tree)

    @given(spanning_trees(max_n=14), st.data())
    def test_matches_iterator_dfs_reference(self, tree, data):
        perm = data.draw(st.permutations(range(tree.n)))
        tree = SpanningTree(tree.n, frozenset(canonical_edge(perm[u], perm[v]) for u, v in tree.edges))
        assert build_dfs_tour(tree).vertices == reference_dfs_tour(tree)
