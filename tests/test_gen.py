from __future__ import annotations

import tracemalloc
from collections import Counter
from itertools import chain, combinations

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from reference import checked_roundabout, lacking_run, snapshot_is_connected
from strategies import spanning_trees
from tempex.core import (
    SpanningTree,
    TemporalGraph,
    canonical_edge,
    deficiency_count,
    parse_temporal_graph,
    serialize_temporal_graph,
    verify_delta_connectivity,
    _spans,
    _uncertified,
)
from tempex import gen
from tempex.gen import GenSpec, _reconnect, gen_blocking_front, gen_random_deficient
from tempex.rng import SplitMix64
from tempex.scheduler import rho_for, step_budget
from tempex.tour import build_dfs_tour


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


def assert_cut_matches_bfs(tree, removed):
    """The tree's cut splits the vertices as a BFS does, into pieces 0..r,
    and lists each piece's vertices in preorder."""
    label = bfs_components(tree, removed)
    cut = tree.cut(removed)
    piece = [cut.piece(v) for v in range(tree.n)]
    assert len(cut) == len(removed) + 1
    assert sorted(set(piece)) == list(range(len(cut)))
    assert all((piece[u] == piece[v]) == (label[u] == label[v]) for u in range(tree.n) for v in range(u))
    for i in range(len(cut)):
        assert cut.members(i) == tuple(v for v in tree.preorder if piece[v] == i)


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
                assert_cut_matches_bfs(tree, set(removed))

    @given(relabelled_trees_and_cuts())
    def test_random_trees_match_bfs(self, drawn):
        assert_cut_matches_bfs(*drawn)


class TestReconnect:
    @pytest.mark.parametrize("retries", [gen._BRIDGE_RETRIES, 0], ids=["drawn", "scanned"])
    @given(drawn=relabelled_trees_and_cuts(), seed=st.integers(min_value=0, max_value=2**64 - 1))
    def test_bridges_join_the_pieces_of_each_removed_edge(self, retries, drawn, seed):
        """Each removed edge is kept exactly when both of its pieces are one
        vertex; every other bridge is a new edge between the same two
        pieces; and the bridged snapshot spans the tree's vertices. With no
        retries every bridge comes from the exhaustive scan."""
        tree, removed = drawn
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(gen, "_BRIDGE_RETRIES", retries)
            added, fallbacks = _reconnect(tree, removed, SplitMix64(seed))
        cut = tree.cut(removed)
        kept = 0
        for (u, v), bridge in zip(sorted(removed), added):
            pu, pv = cut.piece(u), cut.piece(v)
            if len(cut.members(pu)) == len(cut.members(pv)) == 1:
                assert bridge == (u, v)
                kept += 1
            else:
                assert bridge not in removed
                assert {cut.piece(w) for w in bridge} == {pu, pv}
        assert len(added) == len(removed) and fallbacks == kept
        assert _spans(tree.n, chain(tree.edges - removed, added))


@st.composite
def delta_only_specs(draw):
    """A delta-only spec with delta from n-1 (stride 1) to 3n and a lifetime
    of at least delta that often ends inside a run."""
    n = draw(st.integers(min_value=2, max_value=10))
    delta = draw(st.integers(min_value=n - 1, max_value=3 * n))
    return GenSpec(
        n=n,
        lifetime=delta + draw(st.integers(min_value=0, max_value=2 * delta)),
        k=draw(st.integers(min_value=0, max_value=n - 1)),
        seed=draw(st.integers(min_value=0, max_value=2**32)),
        tree_shape=draw(st.sampled_from(["path", "star", "random"])),
        connectivity="delta-only",
        delta=delta,
    )


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

    @pytest.mark.parametrize("connectivity", ["per-snapshot", "none"])
    def test_delta_outside_delta_only_is_rejected(self, connectivity):
        with pytest.raises(ValueError, match=f"delta applies only to delta-only connectivity, not {connectivity}"):
            GenSpec(n=6, lifetime=40, k=1, seed=0, connectivity=connectivity, delta=7)


class TestRandomDeficient:
    def test_peak_memory_stays_near_the_graph(self):
        """Each step is reduced to its diff tuples as it is drawn; no per-step
        sets outlive the step."""
        spec = GenSpec(n=40, lifetime=3000, k=1, seed=5, tree_shape="random")
        gen_random_deficient(GenSpec(n=3, lifetime=2, k=1, seed=0))  # first-call allocations
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            result = gen_random_deficient(spec)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.graph.lifetime == spec.lifetime
        assert peak - before < 2 * (retained - before)

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

    def test_each_non_tree_pair_is_an_extra_edge_at_the_rate(self):
        # extra edges are drawn by geometric skips over the non-tree pairs;
        # over 4 000 steps each of the 45 pairs should appear at about the rate
        spec = GenSpec(n=11, lifetime=4000, k=0, seed=5, tree_shape="random", connectivity="none",
                       extra_edge_rate=0.2)
        graph = gen_random_deficient(spec).graph
        counts = Counter(chain.from_iterable(graph.added))
        assert len(counts) == 45
        assert 0.16 < min(counts.values()) / 4000 and max(counts.values()) / 4000 < 0.24

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

    @given(delta_only_specs())
    @example(GenSpec(n=5, lifetime=30, k=1, seed=3, connectivity="delta-only", delta=8))
    @example(GenSpec(n=5, lifetime=28, k=2, seed=3, tree_shape="random", connectivity="delta-only", delta=8))
    @example(GenSpec(n=6, lifetime=23, k=3, seed=0, tree_shape="random", connectivity="delta-only", delta=5))
    def test_delta_only_mode_is_delta_connected(self, spec):
        result = gen_random_deficient(spec)
        assert verify_delta_connectivity(result.graph, spec.delta).ok
        # every window holds one whole run of n-1 bridged steps, which
        # certifies it, so the check leaves no window to sweep, on the
        # generator's tree base and on the parsed text's first-snapshot base
        starts = list(range(1, spec.lifetime - spec.delta + 2))
        parsed = parse_temporal_graph(serialize_temporal_graph(result.graph))
        for graph in (result.graph, parsed):
            assert _uncertified(graph, starts, spec.delta) == []

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
    lambda: gen_blocking_front(GenSpec(10, 30, 2, 3)),
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
    lambda L: gen_blocking_front(GenSpec(10, L, 2, 3)),
    # both snapshots of the 2-step instance lack both tree edges
    lambda L: gen_random_deficient(GenSpec(n=3, lifetime=L, k=2, seed=19, connectivity="none")),
    # runs of n-1 = 29 bridged steps every 12 steps, cut off at any lifetime
    lambda L: gen_random_deficient(GenSpec(n=30, lifetime=L, k=2, seed=11, tree_shape="random",
                                           connectivity="delta-only", delta=40)),
], ids=["per-snapshot", "none", "extra-edges", "blocking-front", "patched-at-step-2", "delta-only"])
@pytest.mark.parametrize("P", [1, 2, 17, PREFIX_LIFETIME - 1])
def test_a_shorter_instance_is_a_prefix_of_a_longer_one(make, P):
    # each step draws from its own stream, so a P-step instance is the first P
    # snapshots of a longer one, except for the tree edges that _generate
    # puts back into snapshot P because no snapshot of the shorter one has them
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
        result = gen_blocking_front(GenSpec(n, 60, k, 0))
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
        result = gen_blocking_front(GenSpec(n, lifetime, k, seed))
        tour = build_dfs_tour(result.tree)
        budget = step_budget(n, k)
        trace = lacking_run(result.graph, tour, range(1, budget + 1))
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
        result = gen_blocking_front(GenSpec(5, 10, 0, 4))
        assert all(snap == result.tree.edges for snap in result.graph.snapshots)

    def test_rejects_empty_graph_before_k(self):
        with pytest.raises(ValueError, match="n must be at least 1"):
            gen_blocking_front(GenSpec(0, 10, 0, 0))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_deficiency_by_construction(self, k):
        result = gen_blocking_front(GenSpec(9, 40, k, 1))
        for t in range(1, 41):
            assert deficiency_count(result.graph.edge_set(t), result.tree) <= k

    def test_honours_every_spec_field(self):
        spec = GenSpec(n=10, lifetime=60, k=2, seed=3, tree_shape="random", connectivity="delta-only",
                       delta=24, extra_edge_rate=0.3)
        result = gen_blocking_front(spec)
        assert result.tree == gen_random_deficient(spec).tree
        assert result.graph.underlying() > result.tree.edges  # extra and bridging edges
        for t in range(1, spec.lifetime + 1):
            assert deficiency_count(result.graph.edge_set(t), result.tree) <= spec.k
        assert verify_delta_connectivity(result.graph, spec.delta).ok

    def test_every_snapshot_connected(self):
        result = gen_blocking_front(GenSpec(7, 30, 2, 2))
        for snap in result.graph.snapshots:
            assert snapshot_is_connected(7, snap)

    def test_deterministic(self):
        a = gen_blocking_front(GenSpec(6, 25, 1, 9))
        b = gen_blocking_front(GenSpec(6, 25, 1, 9))
        assert serialize_temporal_graph(a.graph) == serialize_temporal_graph(b.graph)
