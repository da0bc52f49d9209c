from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from reference import InvariantViolation, check_state_invariants, checked_roundabout
from tempex.core import SpanningTree, TemporalGraph
from tempex.gen import GenSpec, gen_blocking_front, gen_random_deficient
from tempex.roundabout import RoundaboutState, eliminate_redundant, movement_step, run_roundabout
from tempex.tour import build_dfs_tour


@pytest.fixture
def path3_tour(path3_tree):
    return build_dfs_tour(path3_tree)


def make_state(n_positions: int, agents_moves: dict[int, int], step: int = 1) -> RoundaboutState:
    """State with the given active agents and per-agent move counts."""
    agents = tuple(sorted(agents_moves))
    moves = tuple(agents_moves[a] for a in agents)
    return RoundaboutState(n_positions, step, agents, moves)


def arc_positions(state: RoundaboutState, idx: int) -> set[int]:
    """Tour positions agents[idx] has visited, as a plain set."""
    n = state.n_positions
    return {(state.agents[idx] - 1 + off) % n + 1 for off in range(state.arc_length(idx))}


def assert_chains_along_tour(moves, agent: int, tour) -> None:
    """Each move crosses the next tour edge, starting from the agent's start vertex."""
    p = agent
    for _, (u, v) in moves:
        assert (u, v) == (tour.vertex(p), tour.vertex(p % tour.n_positions + 1))
        p = p % tour.n_positions + 1


def restart_scan_eliminate(state: RoundaboutState) -> RoundaboutState:
    """Literal fixpoint: remove the first redundant agent (ascending), restart."""
    keep = list(range(len(state.agents)))
    changed = True
    while changed:
        changed = False
        for pos, i in enumerate(keep):
            others = set().union(*(arc_positions(state, j) for j in keep if j != i))
            if arc_positions(state, i) <= others:
                keep.pop(pos)
                changed = True
                break
    return RoundaboutState(
        state.n_positions,
        state.step,
        tuple(state.agents[i] for i in keep),
        tuple(state.moves[i] for i in keep),
    )


class TestMovement:
    def test_all_edges_present(self, path3_tour):
        state = movement_step(RoundaboutState.initial(4), (), path3_tour)
        assert state.states == (2, 3, 4, 1)
        assert state.step == 1

    def test_missing_tree_edge_blocks(self, path3_tour):
        blocked = ((1, 2),)  # tour edges e_2, e_3 use {1,2}
        state = movement_step(RoundaboutState.initial(4), blocked, path3_tour)
        assert state.states == (2, 2, 3, 1)

    def test_empty_active_set(self, path3_tour):
        empty = RoundaboutState(4, 0, (), ())
        after = movement_step(empty, ((1, 2),), path3_tour)
        assert after.agents == ()
        assert after.step == 1


class TestElimination:
    def test_fixpoint_keeps_alternating_agents(self):
        state = make_state(4, {1: 1, 2: 1, 3: 1, 4: 1})
        after = eliminate_redundant(state)
        assert after.agents == (2, 4)

    def test_nested_interval_removed(self):
        state = make_state(4, {1: 1, 2: 0, 3: 0, 4: 0})
        after = eliminate_redundant(state)
        assert after.agents == (1, 3, 4)

    def test_single_agent_never_redundant(self):
        state = make_state(4, {2: 1})
        assert eliminate_redundant(state) == state

    @given(st.integers(2, 12), st.data())
    def test_matches_restart_scan_reference(self, n, data):
        agents = data.draw(
            st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
        )
        moves = {a: data.draw(st.integers(0, n + 1)) for a in agents}
        state = make_state(n, moves)
        assert eliminate_redundant(state) == restart_scan_eliminate(state)


class TestRunRoundabout:
    def test_path3_two_steps(self, path3_full, path3_tour):
        trace = checked_roundabout(path3_full, path3_tour, [1, 2], 1)
        assert trace.final.agents == (2, 4)
        assert trace.final.states == (4, 2)
        assert trace.final.arc_masks() == [0b1110, 0b1011]

    def test_zero_budget_returns_initial(self, path3_full, path3_tour):
        trace = run_roundabout(path3_full, path3_tour, [])
        assert trace.final == RoundaboutState.initial(4)
        assert trace.times == ()
        assert trace.history == (trace.final,)
        assert trace.final.arc_masks() == [1 << (a - 1) for a in trace.final.agents]

    def test_six_k_bound_trivial_for_small_tour(self, path3_full, path3_tour):
        trace = checked_roundabout(path3_full, path3_tour, [1, 2], 1)
        assert len(trace.final.agents) <= 6

    def test_rejects_non_deficient_snapshot_in_check_mode(self, path3_tour):
        graph = TemporalGraph.build(3, [[]])
        with pytest.raises(InvariantViolation, match="snapshot 1 is not 1-deficient"):
            checked_roundabout(graph, path3_tour, [1], 1)

    def test_trace_format(self, path3_full, path3_tour):
        trace = run_roundabout(path3_full, path3_tour, [1, 2])
        lines = trace.format_lines()
        assert lines[0] == "1 1 |A|=2 states=3,1"
        assert lines[1] == "2 2 |A|=2 states=4,2"

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_hold_on_random_instances(self, seed):
        n = 8 + 3 * seed
        k = 1 + seed % 3
        budget = (n - 1) // k
        spec = GenSpec(n=n, lifetime=budget, k=k, seed=seed, tree_shape="random",
                       connectivity="per-snapshot", extra_edge_rate=0.1)
        result = gen_random_deficient(spec)
        tour = build_dfs_tour(result.tree)
        trace = checked_roundabout(result.graph, tour, range(1, budget + 1), k)
        assert len(trace.final.agents) <= 6 * k

    @pytest.mark.parametrize("seed", range(4))
    def test_replay_reproduces_final_state(self, seed):
        # re-derive every logged state from its predecessor and the tree
        # edges the snapshot lacks
        result = gen_blocking_front(7, 2, 20, seed)
        tour = build_dfs_tour(result.tree)
        trace = run_roundabout(result.graph, tour, range(1, 4))
        assert trace.times == (1, 2, 3)
        assert trace.history[0] == RoundaboutState.initial(tour.n_positions)
        for i in range(1, len(trace.history)):
            blocked = result.tree.edges - result.graph.edge_set(trace.times[i - 1])
            step = eliminate_redundant(movement_step(trace.history[i - 1], blocked, tour))
            assert trace.history[i] == step

    def test_builds_no_snapshot(self, monkeypatch):
        # the roundabout and the blocking-front generator read only the tree
        # edges each step lacks, never a whole snapshot
        result = gen_random_deficient(GenSpec(n=12, lifetime=10, k=2, seed=4, tree_shape="random",
                                              extra_edge_rate=0.2))
        tour = build_dfs_tour(result.tree)
        expected = checked_roundabout(result.graph, tour, range(1, 6), 2)
        front = gen_blocking_front(7, 2, 20, 0)

        def no_snapshot(self, t):
            raise AssertionError(f"snapshot {t} built")

        monkeypatch.setattr(TemporalGraph, "edge_set", no_snapshot)
        assert checked_roundabout(result.graph, tour, range(1, 6), 2) == expected
        assert gen_blocking_front(7, 2, 20, 0) == front

    def test_moves_of_final_agent_spans_all_steps(self, path3_full, path3_tour):
        # every tour edge is present, so each agent crosses one per step
        trace = run_roundabout(path3_full, path3_tour, [1, 2])
        for agent in trace.final.agents:
            moves = trace.moves_of(agent, path3_tour)
            assert [t for t, _ in moves] == [1, 2]
            assert_chains_along_tour(moves, agent, path3_tour)

    def test_moves_of_reports_blocked_step(self, path3_tour):
        # snapshot 1 lacks tree edge {1,2}: agent 3 (at position 3) is blocked
        graph = TemporalGraph.build(3, [[(0, 1)], [(0, 1), (1, 2)]])
        trace = run_roundabout(graph, path3_tour, [1, 2])
        assert trace.final.agents == (3, 4)
        assert trace.moves_of(3, path3_tour) == ((2, (2, 1)),)
        assert trace.moves_of(4, path3_tour) == ((1, (1, 0)), (2, (0, 1)))
        for agent in (3, 4):
            assert_chains_along_tour(trace.moves_of(agent, path3_tour), agent, path3_tour)


class TestInvariantChecker:
    def test_detects_shared_state(self):
        # agents 1 and 2 both sit at position 2; the tour is still covered
        bad = RoundaboutState(4, 1, (1, 2, 3), (1, 0, 1))
        with pytest.raises(InvariantViolation, match="share a state"):
            check_state_invariants(bad)

    def test_detects_coverage_gap(self):
        bad = RoundaboutState(4, 1, (1,), (1,))
        with pytest.raises(InvariantViolation, match="position 3 not covered"):
            check_state_invariants(bad)

    def test_detects_triple_cover(self):
        bad = make_state(4, {1: 2, 2: 1, 3: 0, 4: 0})  # position 3 lies in three arcs
        with pytest.raises(InvariantViolation, match="three"):
            check_state_invariants(bad)

    def test_accepts_valid_state(self):
        state = make_state(4, {2: 2, 4: 2})
        check_state_invariants(state, k=1)
