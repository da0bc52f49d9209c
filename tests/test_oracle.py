from __future__ import annotations

import pytest

from reference import foremost_arrival_oracle
from tempex.core import TemporalGraph, foremost_walk
from tempex.gen import GenSpec, gen_random_deficient
from tempex.oracle import optimal_exploration_time
from tempex.rng import SplitMix64


def chance(rng: SplitMix64, rate: float) -> bool:
    """True with probability `rate` in (0, 1), from one draw of `rng`."""
    return rng.next_u64() < int(rate * 2.0**64)


class TestOptimalExploration:
    def test_path_needs_three_moves_from_middle(self):
        g = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * 4)
        result = optimal_exploration_time(g, 1)
        assert result.feasible
        assert result.length == 3
        assert result.completion_time == 3

    def test_single_vertex(self):
        g = TemporalGraph.build(1, [[]])
        result = optimal_exploration_time(g, 0)
        assert (result.feasible, result.length) == (True, 0)

    def test_unreachable_vertex_infeasible(self):
        g = TemporalGraph.build(3, [[(0, 1)]] * 4)
        result = optimal_exploration_time(g, 1)
        assert not result.feasible
        assert result.length is None

    def test_waiting_for_an_edge(self):
        # edge {1,2} only appears at time 3; two moves still suffice
        g = TemporalGraph.build(3, [[(0, 1)], [(0, 1)], [(1, 2)]])
        result = optimal_exploration_time(g, 0)
        assert result.length == 2
        assert result.completion_time == 3

    def test_vertex_cap_is_hard(self):
        g = TemporalGraph.build(3, [[(0, 1), (1, 2)]])
        with pytest.raises(ValueError):
            optimal_exploration_time(g, 0, cap=2)

    def test_lifetime_cap_is_hard(self):
        g = TemporalGraph.build(2, [[(0, 1)]] * 65)
        with pytest.raises(ValueError):
            optimal_exploration_time(g, 0)
        assert optimal_exploration_time(g, 0, lifetime_cap=65).length == 1

    @pytest.mark.parametrize("seed", range(8))
    def test_monotone_under_edge_addition(self, seed):
        rng = SplitMix64(seed)
        n = 4 + rng.below(3)
        lifetime = 4 + rng.below(6)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        base = [
            [p for p in pairs if chance(rng, 0.3)] for _ in range(lifetime)
        ]
        richer = [
            snap + [p for p in pairs if p not in snap and chance(rng, 0.3)]
            for snap in base
        ]
        g1 = TemporalGraph.build(n, base)
        g2 = TemporalGraph.build(n, richer)
        r1 = optimal_exploration_time(g1, 0)
        r2 = optimal_exploration_time(g2, 0)
        if r1.feasible:
            assert r2.feasible
            assert r2.length <= r1.length


class TestForemostOracle:
    def test_matches_core_example(self):
        g = TemporalGraph.build(3, [[(0, 1)], [(1, 2)]])
        assert foremost_arrival_oracle(g, (1, 2), 0) == (0, 1, 2)

    def test_isolated_source(self):
        g = TemporalGraph.build(3, [[(1, 2)]] * 3)
        assert foremost_arrival_oracle(g, (1, 3), 0) == (0, None, None)

    def test_full_window_on_connected_instance(self):
        spec = GenSpec(n=6, lifetime=10, k=1, seed=9, connectivity="per-snapshot")
        graph = gen_random_deficient(spec).graph
        arrivals = foremost_arrival_oracle(graph, (1, graph.lifetime), 2)
        assert all(a is not None for a in arrivals)

    def test_agrees_with_sweep_on_random_triples(self):
        rng = SplitMix64(2024)
        checked = 0
        while checked < 1000:
            n = 2 + rng.below(5)
            lifetime = 1 + rng.below(10)
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            snapshots = [
                [p for p in pairs if chance(rng, 0.4)] for _ in range(lifetime)
            ]
            graph = TemporalGraph.build(n, snapshots)
            t0 = 1 + rng.below(lifetime)
            t1 = t0 + rng.below(lifetime - t0 + 1)
            source = rng.below(n)
            sweep = foremost_walk(graph, (t0, t1), source)
            assert sweep.arrival == foremost_arrival_oracle(graph, (t0, t1), source)
            checked += 1
