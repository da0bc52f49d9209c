from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import checked_roundabout
from strategies import spanning_trees
from tempex.core import (
    SpanningTree,
    TemporalGraph,
    canonical_edge,
    deficiency_count,
    serialize_temporal_graph,
    verify_delta_connectivity,
)
from tempex.gen import GenSpec, _sides, gen_blocking_front, gen_random_deficient
from tempex.roundabout import run_roundabout
from tempex.scheduler import rho_for, step_budget
from tempex.tour import build_dfs_tour


def snapshot_is_connected(n: int, edges) -> bool:
    adj = {v: [] for v in range(n)}
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = [0]
    while queue:
        u = queue.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def bfs_components(tree, removed):
    """Reference component labels of the tree minus `removed`: one BFS from
    each unlabelled vertex, in vertex order, over an adjacency built from the
    edge set."""
    n = tree.n
    adjacency = {v: [] for v in range(n)}
    for u, v in tree.edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    label = [-1] * n
    comp = 0
    for v0 in range(n):
        if label[v0] != -1:
            continue
        queue = [v0]
        label[v0] = comp
        while queue:
            u = queue.pop()
            for w in adjacency[u]:
                if label[w] == -1 and canonical_edge(u, w) not in removed:
                    label[w] = comp
                    queue.append(w)
        comp += 1
    return label


def assert_sides_match_bfs(tree, removed):
    label = bfs_components(tree, removed)
    members = {}
    for v, c in enumerate(label):
        members.setdefault(c, []).append(v)
    sides = list(_sides(tree, removed))
    assert [e for e, _, _ in sides] == sorted(removed)
    for e, left, right in sides:
        assert left == members[label[e[0]]]
        assert right == members[label[e[1]]]


@st.composite
def relabelled_trees_and_cuts(draw):
    """(tree, removed): a random tree with its vertices permuted, so that its
    preorder from 0 is not in vertex order, and any subset of its edges."""
    tree = draw(spanning_trees(min_n=1, max_n=12))
    perm = draw(st.permutations(range(tree.n)))
    edges = frozenset(canonical_edge(perm[u], perm[v]) for u, v in tree.edges)
    removed = draw(st.sets(st.sampled_from(sorted(edges)))) if edges else set()
    return SpanningTree(tree.n, edges), removed


class TestComponents:
    @pytest.mark.parametrize("edges", [
        [(i, i + 1) for i in range(6)],  # path: every pair of cuts is nested
        [(0, i) for i in range(1, 7)],  # star: no cut is nested
        [(0, 3), (1, 3), (2, 5), (3, 6), (4, 6), (5, 6)],  # root 0 is a leaf
    ], ids=["path", "star", "mixed"])
    def test_every_cut_set_matches_bfs(self, edges):
        tree = SpanningTree(7, frozenset(edges))
        for k in range(len(edges) + 1):
            for removed in combinations(edges, k):
                assert_sides_match_bfs(tree, set(removed))

    @given(relabelled_trees_and_cuts())
    def test_random_trees_match_bfs(self, drawn):
        assert_sides_match_bfs(*drawn)


class TestGenSpec:
    def test_rejects_bad_k(self):
        with pytest.raises(ValueError):
            GenSpec(n=3, lifetime=5, k=3, seed=0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            GenSpec(n=3, lifetime=5, k=1, seed=0, extra_edge_rate=1.5)

    def test_delta_only_needs_delta(self):
        with pytest.raises(ValueError):
            GenSpec(n=4, lifetime=10, k=1, seed=0, connectivity="delta-only")
        with pytest.raises(ValueError):
            GenSpec(n=4, lifetime=10, k=1, seed=0, connectivity="delta-only", delta=2)


class TestRandomDeficient:
    def test_deterministic(self):
        spec = GenSpec(n=6, lifetime=40, k=1, seed=7, tree_shape="path",
                       connectivity="per-snapshot", extra_edge_rate=0.1)
        a = gen_random_deficient(spec)
        b = gen_random_deficient(spec)
        assert serialize_temporal_graph(a.graph) == serialize_temporal_graph(b.graph)
        assert a.tree == b.tree
        assert a.fallbacks == b.fallbacks

    @pytest.mark.parametrize("shape", ["path", "star", "random"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_every_snapshot_is_deficient_wrt_witness(self, shape, seed):
        spec = GenSpec(n=8, lifetime=30, k=2, seed=seed, tree_shape=shape,
                       connectivity="per-snapshot", extra_edge_rate=0.15)
        result = gen_random_deficient(spec)
        for t in range(1, result.graph.lifetime + 1):
            assert deficiency_count(result.graph.edge_set(t), result.tree) <= 2

    def test_witness_tree_spans_underlying_graph(self):
        spec = GenSpec(n=7, lifetime=25, k=2, seed=5, tree_shape="random")
        result = gen_random_deficient(spec)
        assert result.tree.edges.issubset(result.graph.underlying())

    def test_tree_edges_missing_everywhere_go_into_last_snapshot(self):
        # with this seed both snapshots drop both tree edges before the top-up
        spec = GenSpec(n=3, lifetime=2, k=2, seed=19, connectivity="none")
        result = gen_random_deficient(spec)
        assert tuple(result.graph.snapshots) == (frozenset(), result.tree.edges)

    @pytest.mark.parametrize("seed", range(3))
    def test_per_snapshot_mode_connects_every_snapshot(self, seed):
        spec = GenSpec(n=9, lifetime=30, k=3, seed=seed, tree_shape="star",
                       connectivity="per-snapshot", extra_edge_rate=0.05)
        result = gen_random_deficient(spec)
        for snap in result.graph.snapshots:
            assert snapshot_is_connected(9, snap)

    def test_two_vertex_fallback_keeps_edge_present(self):
        spec = GenSpec(n=2, lifetime=20, k=1, seed=0, connectivity="per-snapshot")
        result = gen_random_deficient(spec)
        assert all(snap == frozenset({(0, 1)}) for snap in result.graph.snapshots)
        assert result.fallbacks > 0

    def test_delta_only_mode_is_delta_connected(self):
        spec = GenSpec(n=5, lifetime=30, k=1, seed=3, connectivity="delta-only",
                       delta=8)
        result = gen_random_deficient(spec)
        assert verify_delta_connectivity(result.graph, 8).ok

    def test_none_mode_skips_bridging(self):
        spec = GenSpec(n=6, lifetime=30, k=2, seed=1, connectivity="none")
        result = gen_random_deficient(spec)
        disconnected = sum(
            1 for snap in result.graph.snapshots if not snapshot_is_connected(6, snap)
        )
        assert disconnected > 0


@pytest.mark.parametrize("make", [
    lambda: gen_random_deficient(GenSpec(n=9, lifetime=30, k=3, seed=2, tree_shape="random",
                                         extra_edge_rate=0.1)),
    lambda: gen_random_deficient(GenSpec(n=6, lifetime=40, k=2, seed=5, connectivity="delta-only",
                                         delta=8)),
    lambda: gen_random_deficient(GenSpec(n=3, lifetime=2, k=2, seed=19, connectivity="none")),
    lambda: gen_blocking_front(10, 2, 30, 3),
], ids=["random", "delta-only", "top-up", "blocking-front"])
def test_delta_form_equals_build_of_the_same_snapshots(make):
    graph = make().graph
    assert TemporalGraph.build(graph.n, graph.snapshots) == graph


PREFIX_LIFETIME = 40


@pytest.mark.parametrize("make", [
    lambda L: gen_random_deficient(GenSpec(n=12, lifetime=L, k=2, seed=5, tree_shape="random")),
    lambda L: gen_random_deficient(GenSpec(n=10, lifetime=L, k=3, seed=8, tree_shape="random",
                                           connectivity="none")),
    lambda L: gen_random_deficient(GenSpec(n=9, lifetime=L, k=2, seed=3, tree_shape="star",
                                           extra_edge_rate=0.2)),
    lambda L: gen_blocking_front(10, 2, L, 3),
    # both snapshots of the 2-step instance lack both tree edges
    lambda L: gen_random_deficient(GenSpec(n=3, lifetime=L, k=2, seed=19, connectivity="none")),
], ids=["per-snapshot", "none", "extra-edges", "blocking-front", "patched-at-step-2"])
@pytest.mark.parametrize("P", [1, 2, 17, PREFIX_LIFETIME - 1])
def test_a_shorter_instance_is_a_prefix_of_a_longer_one(make, P):
    # each step draws from its own stream, so a P-step instance is the first P
    # snapshots of a longer one, except for the tree edges the last-step patch
    # of _delta_graph adds back to snapshot P
    prefix, full = make(P), make(PREFIX_LIFETIME)
    assert prefix.tree == full.tree
    for t in range(1, P):
        assert prefix.graph.edge_set(t) == full.graph.edge_set(t)
    last, full_last = prefix.graph.edge_set(P), full.graph.edge_set(P)
    assert full_last <= last
    assert last - full_last <= full.tree.edges
    assert prefix.fallbacks <= full.fallbacks


class TestBlockingFront:
    def test_blocks_most_steps(self):
        n, k = 8, 1
        result = gen_blocking_front(n, k, 60, 0)
        tour = build_dfs_tour(result.tree)
        budget = (n - 1) // k
        trace = checked_roundabout(result.graph, tour, range(1, budget + 1), k)
        blocked_steps = 0
        for t, before in zip(trace.times, trace.history):
            # the lead agents, in the order gen_blocking_front ranks them
            lead = sorted(
                range(len(before.agents)),
                key=lambda i: (-before.arc_length(i), before.agents[i]),
            )[:k]
            snapshot = result.graph.edge_set(t)
            blocked_steps += all(tour.tour_edge(before.states[i]) not in snapshot for i in lead)
        assert blocked_steps / len(trace.times) >= 0.8

    @pytest.mark.parametrize("n, k, lifetime, seed", [
        (8, 2, 60, 0),
        (12, 3, 60, 0),
        (25, 2, rho_for(2) * (24 + step_budget(25, 2)), 17),
    ])
    def test_fallbacks_bound_the_unblocked_steps(self, n, k, lifetime, seed):
        # a lead agent goes unblocked only at a step where a removed tree
        # edge had no bridging chord and was kept
        result = gen_blocking_front(n, k, lifetime, seed)
        tour = build_dfs_tour(result.tree)
        budget = step_budget(n, k)
        trace = run_roundabout(result.graph, tour, range(1, budget + 1))
        blocked_steps = 0
        for t, before in zip(trace.times, trace.history):
            lead = sorted(
                range(len(before.agents)),
                key=lambda i: (-before.arc_length(i), before.agents[i]),
            )[:k]
            blocked = all(not result.graph.has_edge(t, tour.tour_edge(before.states[i])) for i in lead)
            assert blocked or deficiency_count(result.graph.edge_set(t), result.tree) < k
            blocked_steps += blocked
        assert blocked_steps >= budget - result.fallbacks

    def test_k_zero_is_static_path(self):
        result = gen_blocking_front(5, 0, 10, 4)
        assert all(snap == result.tree.edges for snap in result.graph.snapshots)

    def test_rejects_empty_graph_before_k(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            gen_blocking_front(0, 0, 10, 0)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_deficiency_by_construction(self, k):
        result = gen_blocking_front(9, k, 40, 1)
        for t in range(1, 41):
            assert deficiency_count(result.graph.edge_set(t), result.tree) <= k

    def test_every_snapshot_connected(self):
        result = gen_blocking_front(7, 2, 30, 2)
        for snap in result.graph.snapshots:
            assert snapshot_is_connected(7, snap)

    def test_deterministic(self):
        a = gen_blocking_front(6, 1, 25, 9)
        b = gen_blocking_front(6, 1, 25, 9)
        assert serialize_temporal_graph(a.graph) == serialize_temporal_graph(b.graph)
