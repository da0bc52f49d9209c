from __future__ import annotations

import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from strategies import spanning_trees, temporal_graphs
from tempex import core, gen
from tempex.core import (
    ParseError,
    SpanningTree,
    TemporalGraph,
    canonical_edge,
    deficiency_count,
    parse_temporal_graph,
    serialize_temporal_graph,
    _tg1_chunks,
)
from tempex.gen import GenSpec, gen_random_deficient
from tempex.scheduler import recovery_prefix
from tempex.treefind import (
    DisconnectedGraph,
    absence_weights,
    find_good_tree,
    minimum_weight_spanning_tree,
    tree_stats,
)


@pytest.fixture
def triangle():
    return TemporalGraph.build(3, [[(0, 1), (0, 2)], [(0, 1), (1, 2)]])


def prefix_absences(graph: TemporalGraph, prefix: int) -> dict:
    """Per underlying edge, how many of the first `prefix` snapshots lack it."""
    return {e: sum(e not in graph.edge_set(t) for t in range(1, prefix + 1)) for e in graph.underlying()}


def rotating_missing_edge_instance(n: int, lifetime: int) -> tuple[TemporalGraph, SpanningTree]:
    """Path instance where snapshot i drops tree edge (i mod (n-1)) plus a chord."""
    tree_edges = [(i, i + 1) for i in range(n - 1)]
    snapshots = []
    for i in range(lifetime):
        drop = tree_edges[i % (n - 1)]
        edges = [e for e in tree_edges if e != drop]
        lo, hi = drop
        chord = (lo - 1, hi) if lo > 0 else (lo, hi + 1)
        edges.append(canonical_edge(*chord))
        snapshots.append(edges)
    return TemporalGraph.build(n, snapshots), SpanningTree(n, frozenset(tree_edges))


class TestAbsenceWeights:
    def test_triangle_counts(self, triangle):
        ew = absence_weights(triangle, 2)
        assert ew.weights == {(0, 1): 0, (0, 2): 1, (1, 2): 1}

    def test_always_present_edge(self, triangle):
        assert absence_weights(triangle, 2).weights[(0, 1)] == 0

    def test_edge_only_after_prefix(self):
        # an edge only later snapshots have is absent from the whole prefix,
        # and is not counted
        g = TemporalGraph.build(3, [[(0, 1), (1, 2)], [(0, 1), (1, 2)], [(0, 2)]])
        ew = absence_weights(g, 2)
        assert ew.weights == {(0, 1): 0, (1, 2): 0}

    def test_prefix_beyond_lifetime(self, triangle):
        with pytest.raises(ValueError):
            absence_weights(triangle, 3)

    @given(temporal_graphs(min_n=2, max_n=7, max_lifetime=8), st.data())
    def test_matches_per_edge_probe(self, graph, data):
        prefix = data.draw(st.integers(1, graph.lifetime))
        prefix_edges = graph.base.union(*map(graph.edge_set, range(1, prefix + 1)))
        probe = {
            e: sum(e not in graph.edge_set(t) for t in range(1, prefix + 1))
            for e in prefix_edges
        }
        assert absence_weights(graph, prefix).weights == probe


class TestFindGoodTree:
    def test_triangle_lexicographic_tie_break(self, triangle):
        tree = find_good_tree(triangle, 1)
        stats = tree_stats(triangle, tree, 1, 1)
        assert tree.edges == frozenset({(0, 1), (0, 2)})
        assert stats.deficiencies == (0, 1)
        assert stats.good_count == 2  # both snapshots are at most 2-deficient

    def test_zero_weight_tree_is_returned(self):
        spec = GenSpec(n=6, lifetime=10, k=0, seed=3, tree_shape="random",
                       extra_edge_rate=0.3)
        result = gen_random_deficient(spec)
        tree = find_good_tree(result.graph, 5)
        stats = tree_stats(result.graph, tree, 1, 5)
        assert stats.total_weight == 0
        assert all(d == 0 for d in stats.deficiencies)
        assert tree.edges == result.tree.edges

    def test_rotating_missing_edge_counting(self):
        graph, witness = rotating_missing_edge_instance(6, 6)
        stats = tree_stats(graph, find_good_tree(graph, 3), 1, 3)
        assert sum(stats.deficiencies) <= 2 * 3 * 1
        assert stats.good_count >= 3

    def test_disconnected_rejected(self):
        g = TemporalGraph.build(4, [[(0, 1), (2, 3)]])
        with pytest.raises(DisconnectedGraph):
            minimum_weight_spanning_tree(4, {(0, 1): 0, (2, 3): 0})
        with pytest.raises(ValueError):
            find_good_tree(g, 1)

    def test_negative_k_rejected(self, triangle):
        with pytest.raises(ValueError, match="k must be non-negative"):
            tree_stats(triangle, find_good_tree(triangle, 1), -1, 1)

    @pytest.mark.parametrize("seed", range(10))
    def test_q_of_2q_guarantee_on_deficient_instances(self, seed):
        n = 5 + seed % 4
        k = 1 + seed % 2
        q = 4 + seed
        spec = GenSpec(n=n, lifetime=2 * q, k=k, seed=seed, tree_shape="random",
                       connectivity="per-snapshot", extra_edge_rate=0.25)
        result = gen_random_deficient(spec)
        stats = tree_stats(result.graph, find_good_tree(result.graph, q), k, q)
        assert stats.good_count >= q

    @given(temporal_graphs(min_n=3, max_n=7, min_lifetime=2, max_lifetime=8))
    def test_minimality_against_exhaustive_enumeration(self, graph):
        prefix = graph.lifetime - graph.lifetime % 2
        weights = prefix_absences(graph, prefix)
        totals = [
            sum(weights[e] for e in combo)
            for combo in itertools.combinations(sorted(graph.underlying()), graph.n - 1)
            if _is_spanning_tree(graph.n, combo)
        ]
        if not totals:  # the underlying graph is disconnected
            with pytest.raises(DisconnectedGraph):
                find_good_tree(graph, prefix // 2)
            return
        tree = find_good_tree(graph, prefix // 2)
        assert sum(weights[e] for e in tree.edges) == min(totals)

    @given(temporal_graphs(min_n=2, max_n=7, min_lifetime=2, max_lifetime=12), st.integers(1, 4), st.data())
    def test_tree_is_kruskals_over_every_underlying_edge(self, graph, chunk, data):
        # Kruskal over the prefix's edges first, and over every underlying
        # edge only when those do not connect, gives the same tree; chunks
        # of 1-4 steps put the early checks inside these small prefixes
        q = data.draw(st.integers(1, graph.lifetime // 2))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", chunk)
            lazy = parse_temporal_graph(serialize_temporal_graph(graph))
            try:
                want = minimum_weight_spanning_tree(graph.n, prefix_absences(graph, 2 * q))
            except DisconnectedGraph:
                for g in (graph, lazy):
                    with pytest.raises(DisconnectedGraph):
                        find_good_tree(g, q)
                return
            assert find_good_tree(graph, q) == find_good_tree(lazy, q) == want

    def test_prefix_edges_that_do_not_connect_fall_back_to_every_edge(self):
        # the prefix has only (0, 1) and (2, 3); each later edge is absent
        # from the whole prefix, and the tie among them goes to the smallest
        g = TemporalGraph.build(4, [[(0, 1), (2, 3)], [(0, 1)], [(1, 3), (0, 2)], [(1, 2)]])
        assert absence_weights(g, 2).weights == {(0, 1): 0, (2, 3): 1}
        assert find_good_tree(g, 1).edges == {(0, 1), (2, 3), (0, 2)}

    @given(
        family=st.sampled_from(sorted(gen.FAMILIES)),
        n=st.integers(2, 8),
        k=st.sampled_from((1, 2)),
        q=st.integers(1, 16),
        seed=st.integers(0, 2**16),
        chunk=st.integers(1, 4),
        tree_shape=st.sampled_from(("path", "star", "random")),
        extra_edge_rate=st.sampled_from((0.0, 0.3)),
    )
    def test_a_lazily_read_graph_reads_only_the_prefix(self, family, n, k, q, seed, chunk, tree_shape, extra_edge_rate):
        # each snapshot is connected, so the prefix's edges are; any step
        # read past the prefix, rounded up to whole chunks, is garbage; the
        # tree, certified early or not, is Kruskal's over the whole prefix
        read = -(-2 * q // chunk) * chunk
        spec = GenSpec(n=n, lifetime=read + 1, k=min(k, n - 1), seed=seed, tree_shape=tree_shape,
                       extra_edge_rate=extra_edge_rate)
        graph = gen.FAMILIES[family](spec).graph
        want = minimum_weight_spanning_tree(n, prefix_absences(graph, 2 * q))
        text = "".join(next(_tg1_chunks(graph, read))) + "garbage\n"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", chunk)
            lazy = parse_temporal_graph(text)
            assert find_good_tree(lazy, q) == find_good_tree(graph, q) == want
            with pytest.raises(ParseError, match="got 'garbage'"):
                lazy.read_all()

    @pytest.mark.parametrize("absent_from, tree", [
        (2, {(0, 2), (1, 2)}),  # gap 1 at step 3: certified there, step 4 is never read
        (1, {(0, 1), (1, 2)}),  # gap 0: step 4 is read, and it ties (0, 1) with (0, 2)
    ])
    def test_a_check_certifies_only_a_gap_of_at_least_one(self, absent_from, tree):
        # q = 2 and one-step chunks put the only check at step 3, with slack 1;
        # (0, 2) and (1, 2) are in steps 1-3, (0, 1) is absent from `absent_from`
        # of them, and step 4 drops (0, 2) for (0, 1)
        first = [[(0, 1), (0, 2), (1, 2)]] * (3 - absent_from) + [[(0, 2), (1, 2)]] * absent_from
        graph = TemporalGraph.build(3, first + [[(0, 1), (1, 2)]])
        assert minimum_weight_spanning_tree(3, prefix_absences(graph, 4)).edges == tree
        text = "".join(next(_tg1_chunks(graph, 3))) + "garbage\n"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", 1)
            assert find_good_tree(graph, 2).edges == tree
            lazy = parse_temporal_graph(text)
            if absent_from == 2:
                assert find_good_tree(lazy, 2).edges == tree
            else:
                with pytest.raises(ParseError, match="got 'garbage'"):
                    find_good_tree(lazy, 2)

    def test_lightest_edges_that_close_a_cycle_are_not_certified(self):
        # at the check at step 3 the triangle on 0, 1, 2 is the 3 lightest
        # edges with gap 1, but no tree; step 4 is read
        triangle = [(0, 1), (0, 2), (1, 2)]
        graph = TemporalGraph.build(4, [triangle + [(2, 3)], triangle, triangle, triangle + [(2, 3)]])
        text = "".join(next(_tg1_chunks(graph, 3))) + "garbage\n"
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", 1)
            assert find_good_tree(graph, 2).edges == {(0, 1), (0, 2), (2, 3)}
            with pytest.raises(ParseError, match="got 'garbage'"):
                find_good_tree(parse_temporal_graph(text), 2)

    def test_a_certified_tree_reads_no_step_after_its_check(self):
        # tempex gen --n 12 --L 3060 --k 1: the tree is certified at step 1664
        # of the 2q = 3060 prefix, so garbage after it goes unread
        q = recovery_prefix(12, 1, 11)
        graph = gen_random_deficient(GenSpec(n=12, lifetime=2 * q, k=1, seed=0)).graph
        want = minimum_weight_spanning_tree(12, graph.absences(2 * q))
        text = "".join(next(_tg1_chunks(graph, 1664))) + "garbage\n"
        lazy = parse_temporal_graph(text)
        assert find_good_tree(lazy, q) == want
        with pytest.raises(ParseError, match="got 'garbage'"):
            lazy.read_all()

    @pytest.mark.parametrize("seed", range(5))
    def test_double_counting_identity(self, seed):
        spec = GenSpec(n=7, lifetime=12, k=2, seed=seed, tree_shape="star",
                       connectivity="per-snapshot", extra_edge_rate=0.2)
        result = gen_random_deficient(spec)
        tree = find_good_tree(result.graph, 6)
        stats = tree_stats(result.graph, tree, 2, 6)
        weights = absence_weights(result.graph, 12).weights
        assert sum(stats.deficiencies) == sum(weights[e] for e in tree.edges)
        assert stats.deficiencies == tuple(
            deficiency_count(result.graph.edge_set(t), tree) for t in range(1, 13)
        )

    @given(temporal_graphs(min_n=2, max_n=7, min_lifetime=2, max_lifetime=8), st.data())
    def test_tree_stats_are_each_snapshots_deficiency(self, graph, data):
        # any spanning tree on the graph's vertices, also one with edges in no snapshot
        tree = data.draw(spanning_trees(min_n=graph.n, max_n=graph.n))
        q = data.draw(st.integers(1, graph.lifetime // 2))
        k = data.draw(st.integers(0, 3))
        stats = tree_stats(graph, tree, k, q)
        assert (stats.q, stats.threshold) == (q, 2 * k)
        assert stats.deficiencies == tuple(
            deficiency_count(graph.edge_set(t), tree) for t in range(1, 2 * q + 1)
        )

    @given(
        n=st.integers(2, 9),
        k=st.sampled_from((1, 2)),
        q=st.integers(1, 6),
        seed=st.integers(0, 2**16),
        tree_shape=st.sampled_from(("path", "star", "random")),
        extra_edge_rate=st.sampled_from((0.0, 0.3)),
    )
    def test_tree_weight_is_the_sum_of_deficiencies(self, n, k, q, seed, tree_shape, extra_edge_rate):
        # sum over e in T of w(e) = sum over t of |T - G_t|: both sides count
        # each (tree edge, snapshot) absence once, per edge through
        # TemporalGraph.absences and per snapshot through TemporalGraph.missing
        k = min(k, n - 1)
        spec = GenSpec(n=n, lifetime=2 * q + seed % 3, k=k, seed=seed, tree_shape=tree_shape,
                       extra_edge_rate=extra_edge_rate)
        result = gen_random_deficient(spec)
        weights = result.graph.absences(2 * q)
        tree = find_good_tree(result.graph, q)
        stats = tree_stats(result.graph, tree, k, q)
        assert stats.total_weight == sum(weights[e] for e in tree.edges)
        if result.tree.edges <= weights.keys():  # else a witness edge is in no snapshot
            lacked = result.graph.missing(result.tree.edges, range(1, 2 * q + 1))
            assert sum(map(len, lacked)) == sum(weights[e] for e in result.tree.edges)


def _is_spanning_tree(n: int, edges) -> bool:
    if len(edges) != n - 1:
        return False
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[rv] = ru
    return True
