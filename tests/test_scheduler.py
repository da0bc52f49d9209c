from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from reference import (
    assert_cut_of_full_plan,
    checked_roundabout,
    exhaustive_covering_fraction,
    full_plan_schedule,
    is_covering_tuple,
    run_epoch_traces,
)
from test_golden import CASES
from tempex import scheduler
from tempex.cli import main
from tempex.core import (
    ParseError,
    SpanningTree,
    TemporalGraph,
    serialize_spanning_tree,
    serialize_temporal_graph,
)
from tempex.gen import GenSpec, gen_blocking_front, gen_random_deficient
from tempex.rng import SplitMix64
from tempex.scheduler import (
    Epoch,
    EpochPlan,
    InsufficientSnapshots,
    LasVegas,
    RepositionFailed,
    Schedule,
    TupleSearchExhausted,
    assemble_schedule,
    explore,
    explore_detailed,
    find_covering_tuple,
    paper_budget,
    parse_schedule,
    partition_epochs,
    recovery_prefix,
    rho_for,
    serialize_schedule,
    step_budget,
    verify_schedule,
)
from tempex.tour import build_dfs_tour


@pytest.fixture
def path3_tour(path3_tree):
    return build_dfs_tour(path3_tree)


@pytest.fixture
def two_epoch_run(path3_full, path3_tree, path3_tour):
    plan = partition_epochs(path3_full, path3_tree, 1, 2, 2, 2)
    traces = run_epoch_traces(path3_full, path3_tour, plan)
    return plan, traces


def replaying(choice):
    """assemble_schedule's `choose` for a fixed tuple: entry j in epoch j."""
    return lambda j, trace: choice[j]


@pytest.fixture
def zero_first_draws(monkeypatch):
    """Arm with a count: that many next SplitMix64.below draws return 0, later
    ones the generator's own (the generator advances on every draw)."""
    original = SplitMix64.below

    def arm(count):
        calls = iter(range(count))

        def below(self, bound):
            draw = original(self, bound)
            return 0 if next(calls, None) is not None else draw

        monkeypatch.setattr(SplitMix64, "below", below)

    return arm


def chord_path():
    """Path 0-1-2 whose every step lacks (1,2) and has the chord (0,2).

    Each epoch of the plan for k=1, delta=2 ends with survivors 3 (arc:
    position 3) and 4 (positions 4, 1, 2). Zeroed first draws pick agent 3
    in every epoch, whose start vertex 2 the explorer reaches over the
    chord: vertex 1 stays unvisited.
    """
    tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
    return tree, TemporalGraph.build(3, [[(0, 1), (0, 2)]] * (rho_for(1) * 4))


class TestParameters:
    def test_rho_values(self):
        assert rho_for(1) == 33
        assert rho_for(2) == 90
        assert rho_for(4) == 229

    def test_step_budget(self):
        assert step_budget(3, 1) == 2
        assert step_budget(100, 1) == 99
        assert step_budget(3, 4) == 0

    def test_paper_budget(self):
        assert paper_budget(100, 2, 99) == 13_320
        assert paper_budget(100, 1, 99) == 6_534


class TestPartition:
    def test_greedy_layout(self, path3_full, path3_tree):
        plan = partition_epochs(path3_full, path3_tree, 1, 2, 2, 2)
        spans = [(e.start, e.reposition_end, e.end, e.roundabout_times) for e in plan.epochs]
        assert spans == [(1, 2, 4, (3, 4)), (5, 6, 8, (7, 8))]

    def test_full_rho_for_smallest_path(self, path3_tree):
        rho = rho_for(1)
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * (rho * 4))
        plan = partition_epochs(graph, path3_tree, 1, 2, rho, 2)
        assert len(plan.epochs) == 33
        assert all(e.end - e.start + 1 == 4 for e in plan.epochs)

    def test_timeline_shorter_than_window(self, path3_tree):
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]])
        with pytest.raises(InsufficientSnapshots) as exc:
            partition_epochs(graph, path3_tree, 1, 2, 1, 2)
        assert exc.value.epoch == 1
        assert (exc.value.found, exc.value.needed, exc.value.last_step) == (0, 2, 1)
        assert exc.value.deficit == 2
        assert str(exc.value) == "epoch 1: found 0 of 2 k-deficient snapshots by step 1 (timeline ends)"

    def test_runs_out_mid_plan(self, path3_tree):
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * 7)
        with pytest.raises(InsufficientSnapshots) as exc:
            partition_epochs(graph, path3_tree, 1, 2, 2, 2)
        assert exc.value.epoch == 2
        assert exc.value.deficit == 1
        assert (exc.value.found, exc.value.needed, exc.value.last_step) == (1, 2, 7)
        assert str(exc.value) == "epoch 2: found 1 of 2 k-deficient snapshots by step 7 (timeline ends)"

    def test_skips_non_deficient_snapshots(self, path3_tree):
        full = [(0, 1), (1, 2)]
        snaps = [full, full, [], full, [], full]  # empty snapshots are 2-deficient
        graph = TemporalGraph.build(3, snaps)
        plan = partition_epochs(graph, path3_tree, 1, 2, 1, 2)
        assert plan.epochs[0].roundabout_times == (4, 6)
        assert plan.epochs[0].end == 6

    def test_zero_budget_epochs_are_windows_only(self, path3_full, path3_tree):
        plan = partition_epochs(path3_full, path3_tree, 4, 2, 3, 0)
        assert [(e.start, e.end) for e in plan.epochs] == [(1, 2), (3, 4), (5, 6)]

    @pytest.mark.parametrize("budget", [0, 2])
    def test_reads_only_the_steps_it_lays_out(self, monkeypatch, path3_tree, budget):
        # no step of a repositioning window, and none after the last epoch,
        # is asked for its missing tree edges
        full = [(0, 1), (1, 2)]
        graph = TemporalGraph.build(3, [full, full, [], full, full, full, [], [], full] + [full] * 6)
        read: list[int] = []
        original = TemporalGraph.missing

        def missing(self, tree_edges, steps):
            def recorded():
                for t in steps:
                    read.append(t)
                    yield t

            return original(self, tree_edges, recorded())

        monkeypatch.setattr(TemporalGraph, "missing", missing)
        plan = partition_epochs(graph, path3_tree, 1, 2, 2, budget)
        windows = {t for e in plan.epochs for t in range(e.start, e.reposition_end + 1)}
        assert windows.isdisjoint(read)
        assert read == [t for e in plan.epochs for t in range(e.reposition_end + 1, e.end + 1)]
        if budget:
            assert [e.roundabout_times for e in plan.epochs] == [(4, 5), (9, 10)]


class TestCoveringTuples:
    def test_covering_and_missing(self, two_epoch_run):
        _, traces = two_epoch_run
        assert is_covering_tuple((2, 4), traces, 4)
        assert is_covering_tuple((4, 2), traces, 4)
        assert not is_covering_tuple((2, 2), traces, 4)
        assert not is_covering_tuple((4, 4), traces, 4)

    def test_unknown_start_rejected(self, two_epoch_run):
        _, traces = two_epoch_run
        with pytest.raises(ValueError):
            is_covering_tuple((1, 4), traces, 4)

    def test_las_vegas_finds_quickly(self, two_epoch_run):
        _, traces = two_epoch_run
        choice, attempts = find_covering_tuple(traces, 4, LasVegas(seed=1))
        assert is_covering_tuple(choice, traces, 4)
        assert attempts <= 100

    def test_las_vegas_deterministic(self, two_epoch_run):
        _, traces = two_epoch_run
        first = find_covering_tuple(traces, 4, LasVegas(seed=9))
        second = find_covering_tuple(traces, 4, LasVegas(seed=9))
        assert first == second

    def test_las_vegas_exhaustion_is_loud(self, two_epoch_run, monkeypatch):
        _, traces = two_epoch_run
        _, attempts = find_covering_tuple(traces, 4, LasVegas(seed=3))
        assert attempts == 3
        monkeypatch.setattr(scheduler, "MAX_ATTEMPTS", attempts - 1)
        with pytest.raises(TupleSearchExhausted):
            find_covering_tuple(traces, 4, LasVegas(seed=3))

    def test_single_epoch_full_coverage_agent(self):
        # one epoch whose survivor visited the whole tour covers by itself
        graph = TemporalGraph.build(2, [[(0, 1)], [(0, 1)]])
        tree = SpanningTree(2, frozenset({(0, 1)}))
        plan = partition_epochs(graph, tree, 1, 1, 1, 1)
        traces = run_epoch_traces(graph, build_dfs_tour(tree), plan)
        assert traces[0].final.arc_masks()[0] == 0b11
        assert is_covering_tuple(traces[0].final.agents[:1], traces, 2)

    def test_first_sample_accepted_when_everything_covers(self):
        graph = TemporalGraph.build(2, [[(0, 1)]] * 6)
        tree = SpanningTree(2, frozenset({(0, 1)}))
        plan = partition_epochs(graph, tree, 1, 1, 3, 1)
        traces = run_epoch_traces(graph, build_dfs_tour(tree), plan)
        _, attempts = find_covering_tuple(traces, 2, LasVegas(seed=0))
        assert attempts == 1

    def test_fraction_matches_product_brute_force(self, two_epoch_run):
        _, traces = two_epoch_run
        fraction = exhaustive_covering_fraction(traces, 4)
        starts = [t.final.agents for t in traces]
        covering = sum(
            1 for tup in itertools.product(*starts) if is_covering_tuple(tup, traces, 4)
        )
        total = 1
        for s in starts:
            total *= len(s)
        assert fraction == Fraction(covering, total) == Fraction(1, 2)
        assert fraction >= Fraction(1, 12)


class TestAssembleAndVerify:
    def test_end_to_end_small_path(self, path3_full, path3_tree, path3_tour, two_epoch_run):
        plan, traces = two_epoch_run
        schedule, choice, _ = assemble_schedule(
            path3_full, path3_tour, plan, list(traces), replaying((4, 2)), 0
        )
        assert (schedule.span, choice) == (8, (4, 2))
        report = verify_schedule(path3_full, 0, schedule)
        assert report.ok, report.describe()

    def test_runs_only_the_roundabouts_the_traces_lack(self, path3_full, path3_tour, two_epoch_run):
        plan, traces = two_epoch_run
        held = traces[:1]
        assemble_schedule(path3_full, path3_tour, plan, held, replaying((4, 2)), 0)
        assert held[0] is traces[0]
        assert held == traces
        # a run that stops at cover runs no roundabout past its last epoch
        held = []
        assemble_schedule(path3_full, path3_tour, plan, held, replaying((2, 4)), 0)
        assert held == traces[:1]

    def test_reposition_failure_is_typed(self, path3_tree, path3_tour):
        full = [(0, 1), (1, 2)]
        graph = TemporalGraph.build(3, [[], [], full, full])
        plan = EpochPlan((Epoch(1, 2, 4, (3, 4)),), 1, 1)
        with pytest.raises(RepositionFailed) as exc:
            assemble_schedule(graph, path3_tour, plan, [], replaying((2,)), 2)
        assert exc.value.epoch == 1

    def test_forged_move_rejected(self, path3_full):
        schedule = Schedule(0, 1, ((0, 2),))
        report = verify_schedule(path3_full, 0, schedule)
        assert not report.ok
        assert report.step == 1

    def test_absent_edge_rejected(self, path3_tree):
        graph = TemporalGraph.build(3, [[(0, 1)], [(0, 1)]])
        schedule = Schedule(0, 1, ((0, 1), (1, 2)))
        report = verify_schedule(graph, 0, schedule)
        assert not report.ok
        assert report.step == 2
        assert "absent" in report.reason

    def test_incomplete_walk_rejected(self, path3_full):
        schedule = Schedule(0, 1, ((0, 1), None))
        report = verify_schedule(path3_full, 0, schedule)
        assert not report.ok
        assert report.unvisited == (2,)

    def test_discontinuous_walk_rejected(self, path3_full):
        schedule = Schedule(0, 1, ((0, 1), (0, 1)))
        report = verify_schedule(path3_full, 0, schedule)
        assert not report.ok

    def test_step_outside_lifetime_rejected(self, path3_tree):
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]])
        schedule = Schedule(0, 1, ((0, 1), (1, 2)))
        report = verify_schedule(graph, 0, schedule)
        assert not report.ok
        assert report.step == 2

    def test_start_mismatch_rejected(self, path3_full):
        schedule = Schedule(1, 1, ())
        report = verify_schedule(path3_full, 0, schedule)
        assert not report.ok


class TestCoverStep:
    # the step at which assemble_schedule's explorer enters its last unvisited vertex
    def test_step_of_the_last_new_vertex(self, path3_full, path3_tour, two_epoch_run):
        # from 0: 0 -> 1 repositions, agent 2 replays 1 -> 2 at step 3 and
        # 2 -> 1 at step 4; the run stops at the end of epoch 1
        plan, _ = two_epoch_run
        schedule, choice, cover = assemble_schedule(
            path3_full, path3_tour, plan, [], replaying((2, 4)), 0
        )
        assert schedule.actions == ((0, 1), None, (1, 2), (2, 1))
        assert (choice, cover) == ((2,), 3)

    def test_counts_from_the_first_step(self, path3_full, path3_tour, two_epoch_run):
        # from 1, agent 4 returns to 1 in epoch 1 and agent 2 enters 2 at
        # step 7: a timeline step, not an offset into epoch 2 (steps 5-8)
        plan, _ = two_epoch_run
        schedule, choice, cover = assemble_schedule(
            path3_full, path3_tour, plan, [], replaying((4, 2)), 1
        )
        assert (schedule.span, choice, cover) == (8, (4, 2), 7)

    def test_lone_start_covers_at_zero(self):
        _, stats = explore(TemporalGraph.build(1, [[]]), 1, 1, 0)
        assert stats.cover_step == stats.to_json_dict()["coverStep"] == 0

    def test_never_covering(self, path3_full, path3_tour, two_epoch_run):
        # agent 2 in both epochs never enters vertex 0: every epoch runs
        plan, _ = two_epoch_run
        schedule, choice, cover = assemble_schedule(
            path3_full, path3_tour, plan, [], replaying((2, 2)), 1
        )
        assert (schedule.span, choice, cover) == (8, (2, 2), None)


class TestScheduleWireFormat:
    def test_round_trip(self, path3_full, path3_tree, path3_tour, two_epoch_run):
        plan, traces = two_epoch_run
        schedule, _, _ = assemble_schedule(
            path3_full, path3_tour, plan, list(traces), replaying((4, 2)), 0
        )
        text = serialize_schedule(schedule)
        parsed = parse_schedule(text)
        assert parsed.start == schedule.start
        assert parsed.actions == schedule.actions
        assert serialize_schedule(parsed) == text

    def test_parse_rejects_gap_in_steps(self):
        with pytest.raises(ParseError, match="expected step 2, got 3") as err:
            parse_schedule("start 0\n1 wait\n3 wait\n")
        assert err.value.line == 3

    def test_parse_rejects_garbage(self):
        with pytest.raises(ParseError, match="bad schedule line") as err:
            parse_schedule("start 0\n1 jump 0 1\n")
        assert err.value.line == 2

    def test_comments_and_blank_lines_between_steps(self):
        text = "# a schedule\nstart 0\n\n1 move 0 1\n  # stays put\n\n2 wait\n"
        parsed = parse_schedule(text)
        assert parsed == Schedule(0, 1, ((0, 1), None))
        assert parse_schedule(serialize_schedule(parsed)) == parsed
        with pytest.raises(ParseError, match="expected step 2, got 3") as err:
            parse_schedule(text.replace("2 wait", "3 wait"))
        assert err.value.line == 7


class TestExplore:
    def test_with_witness_tree_tight_span(self):
        # every snapshot is deficient, so each epoch is exactly delta + t steps
        # and the run ends at the end of its last epoch, inside the paper's budget
        n, k = 8, 1
        delta = n - 1
        budget = step_budget(n, k)
        lifetime = rho_for(k) * (delta + budget)
        spec = GenSpec(n=n, lifetime=lifetime, k=k, seed=3, tree_shape="path",
                       connectivity="per-snapshot", extra_edge_rate=0.1)
        result = gen_random_deficient(spec)
        strategy = LasVegas(seed=5)
        run = explore_detailed(result.graph, k, delta, 0, tree=result.tree, strategy=strategy)
        stats = run.stats
        assert verify_schedule(result.graph, 0, run.schedule).ok
        assert stats.span == stats.epoch_count * (delta + budget) == run.plan.epochs[-1].end
        assert stats.span <= stats.paper_budget == rho_for(k) * (delta + budget)
        assert stats.rho == 33
        assert all(c <= 6 * k for c in stats.active_counts)
        assert_cut_of_full_plan(result.graph, run, delta, 0, strategy)

    def test_every_epoch_of_a_witness_plan_keeps_the_invariants(self):
        # the pipeline runs its epochs unchecked and stops at cover; run every
        # one of the plan's rho epochs with each per-step property and the 6k
        # survivor bound asserted, and match those the pipeline ran
        n, k = 20, 2
        delta = n - 1
        spec = GenSpec(n=n, lifetime=rho_for(k) * (delta + step_budget(n, k)), k=k, seed=3,
                       tree_shape="random")
        result = gen_random_deficient(spec)
        tree = result.tree
        plan = partition_epochs(result.graph, tree, k, delta, rho_for(k), step_budget(n, k))
        tour = build_dfs_tour(tree)
        assert len(plan.epochs) == rho_for(k)
        checked = [
            checked_roundabout(result.graph, tour, epoch.roundabout_times, k)
            for epoch in plan.epochs
        ]
        run = explore_detailed(result.graph, k, delta, 0, tree=tree)
        assert 1 <= len(run.traces) < rho_for(k)
        assert list(run.traces) == checked[: len(run.traces)]

    @pytest.mark.parametrize("name", sorted(CASES))
    def test_every_replayed_epoch_of_a_golden_case_keeps_the_invariants(self, name):
        # rerun each epoch the pipeline replayed with every per-step property
        # and the 6k survivor bound asserted, at the deficiency it ran at (2k
        # on the recovery cases), and match the trace it recorded
        build, k, delta, start, with_tree, strategy = CASES[name]
        result = build()
        run = explore_detailed(result.graph, k, delta, start, result.tree if with_tree else None, strategy)
        tour = build_dfs_tour(run.tree)
        checked = [
            checked_roundabout(result.graph, tour, epoch.roundabout_times, run.plan.k)
            for epoch in run.plan.epochs
        ]
        assert checked == list(run.traces)

    def test_without_tree_uses_doubled_deficiency(self):
        n, k = 6, 1
        delta = n - 1
        q = recovery_prefix(n, k, delta)
        spec = GenSpec(n=n, lifetime=2 * q, k=k, seed=11, tree_shape="random",
                       connectivity="per-snapshot", extra_edge_rate=0.15)
        result = gen_random_deficient(spec)
        schedule, stats = explore(result.graph, k, delta, 2, strategy=LasVegas(seed=7))
        assert stats.rho == rho_for(2 * k) == 90
        assert stats.budget == step_budget(n, 2 * k)
        assert stats.span <= stats.paper_budget == paper_budget(n, 2 * k, delta)
        assert stats.paper_budget == rho_for(2 * k) * (delta + step_budget(n, 2 * k))
        assert verify_schedule(result.graph, 2, schedule).ok

    def test_deterministic_output(self):
        spec = GenSpec(n=7, lifetime=rho_for(2) * (6 + 3), k=2, seed=1,
                       connectivity="per-snapshot", extra_edge_rate=0.2)
        result = gen_random_deficient(spec)
        runs = [
            explore(result.graph, 2, 6, 1, tree=result.tree, strategy=LasVegas(seed=4))
            for _ in range(2)
        ]
        assert serialize_schedule(runs[0][0]) == serialize_schedule(runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_single_vertex(self):
        graph = TemporalGraph.build(1, [[]])
        schedule, stats = explore(graph, 1, 1, 0)
        assert schedule.actions == ()
        assert verify_schedule(graph, 0, schedule).ok
        assert stats.span == 0
        parsed = parse_schedule(serialize_schedule(schedule))
        assert parsed.actions == ()
        assert parsed.start == 0

    def test_zero_budget_pipeline_still_explores(self):
        # k exceeds n-1, so agents never move and repositioning does the work
        n, k, delta = 3, 4, 2
        lifetime = rho_for(k) * delta
        spec = GenSpec(n=n, lifetime=lifetime, k=n - 1, seed=2,
                       connectivity="per-snapshot")
        result = gen_random_deficient(spec)
        schedule, stats = explore(result.graph, k, delta, 0, tree=result.tree,
                                  strategy=LasVegas(seed=3))
        assert stats.budget == 0
        assert verify_schedule(result.graph, 0, schedule).ok

    def test_k_zero_remapped_with_warning(self, path3_tree):
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * (rho_for(1) * 4))
        with pytest.warns(UserWarning):
            schedule, stats = explore(graph, 0, 2, 0, tree=path3_tree)
        assert stats.rho == rho_for(1)
        assert verify_schedule(graph, 0, schedule).ok

    def test_tree_of_other_size_rejected(self):
        graph = TemporalGraph.build(4, [[(0, 1), (1, 2), (2, 3)]] * (rho_for(1) * 6))
        tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
        with pytest.raises(ValueError, match="tree has 3 vertices, graph has 4"):
            explore(graph, 1, 3, 0, tree=tree)

    def test_short_lifetime_fails_typed_without_tree(self, path3_full):
        with pytest.raises(InsufficientSnapshots) as exc:
            explore(path3_full, 1, 2, 0)
        needed = 2 * recovery_prefix(3, 1, 2)
        assert (exc.value.epoch, exc.value.found, exc.value.needed) == (0, 8, needed)
        assert (exc.value.last_step, exc.value.deficit) == (8, needed - 8)
        assert str(exc.value) == (
            f"epoch 0: found 8 of {needed} snapshots for tree recovery by step 8 (timeline ends)"
        )

    def test_short_lifetime_fails_typed_with_tree(self, path3_tree):
        # path3_full covers at step 7, in epoch 2; one step fewer cannot hold epoch 2
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * 7)
        with pytest.raises(InsufficientSnapshots) as exc:
            explore(graph, 1, 2, 0, tree=path3_tree)
        assert (exc.value.epoch, exc.value.found, exc.value.needed, exc.value.last_step) == (2, 1, 2, 7)
        assert str(exc.value) == "epoch 2: found 1 of 2 k-deficient snapshots by step 7 (timeline ends)"

    def test_two_vertices_first_draw_covers(self):
        # two vertices: every epoch ends with one survivor whose arc covers
        # the tour, so the first draw covers
        graph = TemporalGraph.build(2, [[(0, 1)]] * (rho_for(1) * 2))
        tree = SpanningTree(2, frozenset({(0, 1)}))
        schedule, stats = explore(graph, 1, 1, 0, tree=tree, strategy=LasVegas())
        assert verify_schedule(graph, 0, schedule).ok
        assert stats.attempts == 1

    def test_span_bound_for_large_path(self):
        # n=100, k=1, delta=99: schedule must fit in 33 * (99 + 100) steps
        n, k, delta = 100, 1, 99
        budget = step_budget(n, k)
        lifetime = rho_for(k) * (delta + budget)
        spec = GenSpec(n=n, lifetime=lifetime, k=k, seed=0, tree_shape="path",
                       connectivity="per-snapshot")
        result = gen_random_deficient(spec)
        schedule, stats = explore(result.graph, k, delta, 0, tree=result.tree,
                                  strategy=LasVegas(seed=1))
        assert verify_schedule(result.graph, 0, schedule).ok
        assert stats.span <= 33 * (99 + 100) == 6567

    def test_refinement_size_bound(self):
        spec = GenSpec(n=9, lifetime=rho_for(1) * (8 + 8), k=1, seed=5,
                       connectivity="per-snapshot", extra_edge_rate=0.1)
        result = gen_random_deficient(spec)
        run = explore_detailed(result.graph, 1, 8, 0, tree=result.tree,
                               strategy=LasVegas(seed=2))
        starts = [t.final.agents for t in run.traces]
        assert len(set().union(*starts)) <= 6 * 1 * rho_for(1)

    def test_non_deficient_snapshots_are_skipped_end_to_end(self):
        # connected junk snapshots (stars) interleave with tree snapshots;
        # epochs must collect only the deficient ones and the explorer must
        # wait through the junk steps
        n, k = 7, 1
        tree_edges = [(i, i + 1) for i in range(n - 1)]
        tree = SpanningTree(n, frozenset(tree_edges))
        delta = n - 1
        budget = step_budget(n, k)
        lifetime = rho_for(k) * (delta + 2 * budget + 2)
        star = [(0, v) for v in range(1, n)]
        snaps = [star if t % 2 == 0 else tree_edges for t in range(lifetime)]
        graph = TemporalGraph.build(n, snaps)
        strategy = LasVegas(seed=6)
        run = explore_detailed(graph, k, delta, 4, tree=tree, strategy=strategy)
        assert verify_schedule(graph, 4, run.schedule).ok
        # junk stretches every epoch to delta + 2t steps
        assert run.stats.span == run.stats.epoch_count * (delta + 2 * budget)
        assert run.stats.span <= run.stats.paper_budget
        assert_cut_of_full_plan(graph, run, delta, 4, strategy)

    def test_delta_only_instance_with_disconnected_snapshots(self):
        # the connectivity promise holds per window even though individual
        # snapshots are disconnected; repositioning must still succeed
        n, k = 5, 1
        delta = n + 3
        budget = step_budget(n, k)
        lifetime = rho_for(k) * (delta + budget)
        spec = GenSpec(n=n, lifetime=lifetime, k=k, seed=21, tree_shape="path",
                       connectivity="delta-only", delta=delta)
        result = gen_random_deficient(spec)
        from tempex.core import verify_delta_connectivity

        assert verify_delta_connectivity(result.graph, delta, mode="sampled", seed=1).ok
        strategy = LasVegas(seed=2)
        run = explore_detailed(result.graph, k, delta, 3, tree=result.tree, strategy=strategy)
        assert verify_schedule(result.graph, 3, run.schedule).ok
        assert run.stats.span == run.stats.epoch_count * (delta + budget)
        assert run.stats.span <= run.stats.paper_budget == rho_for(k) * (delta + budget)
        assert_cut_of_full_plan(result.graph, run, delta, 3, strategy)

    def test_stats_json_keys(self, path3_full, path3_tree):
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * (rho_for(1) * 4))
        _, stats = explore(graph, 1, 2, 0, tree=path3_tree)
        assert set(stats.to_json_dict()) == {
            "rho", "t", "epochs", "activeCounts", "attempts", "scheduleSpan", "scheduleLength",
            "paperBudget", "coverStep",
        }
        assert stats.to_json_dict()["paperBudget"] == rho_for(1) * (2 + step_budget(3, 1))


class TestStopAtCover:
    @given(
        family=st.sampled_from(["random", "blocking-front"]),
        k=st.integers(1, 2),
        n=st.integers(3, 11),
        seed=st.integers(0, 10_000),
        strategy_seed=st.integers(0, 10_000),
        start=st.integers(0, 10),
    )
    def test_schedule_is_the_full_plan_schedule_cut_at_an_epoch_end(
        self, family, k, n, seed, strategy_seed, start
    ):
        delta = n - 1
        start %= n
        lifetime = rho_for(k) * (delta + step_budget(n, k))
        if family == "random":
            spec = GenSpec(n=n, lifetime=lifetime, k=k, seed=seed, tree_shape="random")
            result = gen_random_deficient(spec)
        else:
            result = gen_blocking_front(n, k, lifetime, seed)
        graph, strategy = result.graph, LasVegas(seed=strategy_seed)
        _, _, attempts = full_plan_schedule(graph, result.tree, k, delta, start, strategy)
        assume(attempts == 1)
        run = explore_detailed(graph, k, delta, start, tree=result.tree, strategy=strategy)
        assert_cut_of_full_plan(graph, run, delta, start, strategy)
        assert verify_schedule(graph, start, run.schedule).ok
        assert len(run.plan.epochs) == len(run.traces) == len(run.choice) <= run.stats.rho
        assert run.stats.epoch_count == len(run.plan.epochs)
        # every vertex is visited by coverStep, and coverStep lies in the last epoch run
        step = run.stats.cover_step
        assert verify_schedule(graph, start, replace(run.schedule, actions=run.schedule.actions[:step])).ok
        assert not verify_schedule(
            graph, start, replace(run.schedule, actions=run.schedule.actions[: step - 1])
        ).ok
        ends = [0] + [e.end for e in run.plan.epochs]
        assert ends[-2] < step <= ends[-1]

    def test_uncovered_after_rho_epochs_falls_back_to_the_search(self, zero_first_draws):
        # the epochs run and the search's first attempt both draw agent 3
        # throughout; the search's covering tuple is replayed until the visit
        # completes, through the same loop
        rho = rho_for(1)
        tree, graph = chord_path()
        strategy = LasVegas(seed=4)
        zero_first_draws(2 * rho)
        run = explore_detailed(graph, 1, 2, 0, tree=tree, strategy=strategy)
        assert run.stats.attempts >= 2
        zero_first_draws(rho)
        full = assert_cut_of_full_plan(graph, run, 2, 0, strategy)
        assert len(run.plan.epochs) == len(run.traces) == len(run.choice) < rho
        assert run.stats.epoch_count == len(run.plan.epochs)
        assert {trace.final.agents for trace in run.traces} == {(3, 4)}
        assert 4 in run.choice
        assert verify_schedule(graph, 0, run.schedule).ok
        # the cut is at the first epoch end by which every vertex is visited
        ends = [0] + [e.end for e in run.plan.epochs]
        assert ends[-2] < run.stats.cover_step <= ends[-1]
        assert not verify_schedule(graph, 0, replace(full, actions=full.actions[: ends[-2]])).ok

    def test_exhausted_fallback_fails_typed_end_to_end(self, zero_first_draws, tmp_path, capsys, monkeypatch):
        rho = rho_for(1)
        tree, graph = chord_path()
        monkeypatch.setattr(scheduler, "MAX_ATTEMPTS", 1)
        zero_first_draws(2 * rho)
        with pytest.raises(TupleSearchExhausted) as exc:
            explore_detailed(graph, 1, 2, 0, tree=tree, strategy=LasVegas(seed=4))
        assert exc.value.attempts == 1
        graph_file, tree_file = tmp_path / "chord.tg", tmp_path / "chord.tree"
        graph_file.write_text(serialize_temporal_graph(graph))
        tree_file.write_text(serialize_spanning_tree(tree))
        zero_first_draws(2 * rho)
        code = main([
            "explore", "--graph", str(graph_file), "--k", "1", "--delta", "2", "--start", "0",
            "--tree", str(tree_file), "--seed", "4",
        ])
        out, err = capsys.readouterr()
        assert code == 1
        assert out == ""
        assert err == "failed: no covering tuple found after 1 sampling attempts\n"

    def test_repositioning_failure_after_the_cover_is_not_reached(self):
        # Path 0-1-2 whose steps lack (1,2) from step 9 on: no repositioning
        # window after that reaches vertex 2. The full plan draws vertex 2 as a
        # start in epoch 4; the run has covered the tour by the end of epoch 2.
        tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * 8 + [[(0, 1)]] * (rho_for(1) * 4 - 8))
        strategy = LasVegas(seed=0)
        with pytest.raises(RepositionFailed) as exc:
            full_plan_schedule(graph, tree, 1, 2, 0, strategy)
        assert exc.value.epoch == 4
        run = explore_detailed(graph, 1, 2, 0, tree=tree, strategy=strategy)
        assert (run.stats.epoch_count, run.stats.cover_step) == (2, 7)
        assert verify_schedule(graph, 0, run.schedule).ok

    def test_repositioning_failure_before_the_cover_still_raises(self):
        # same graph, a draw whose epoch 3 needs vertex 2 before the tour is covered
        tree = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * 8 + [[(0, 1)]] * (rho_for(1) * 4 - 8))
        with pytest.raises(RepositionFailed) as exc:
            explore_detailed(graph, 1, 2, 0, tree=tree, strategy=LasVegas(seed=1))
        assert (exc.value.epoch, exc.value.target) == (3, 2)

    def test_timeline_one_step_short_of_rho_epochs(self, path3_tree):
        # the first epoch already covers the path, so the run lays out no
        # other epoch and does not need the timeline to hold all rho of them
        rho = rho_for(1)
        short = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * (rho * 4 - 1))
        graph = TemporalGraph.build(3, [[(0, 1), (1, 2)]] * (rho * 4))
        run = explore_detailed(graph, 1, 2, 0, tree=path3_tree)
        assert len(run.plan.epochs) < rho
        assert explore_detailed(short, 1, 2, 0, tree=path3_tree).schedule == run.schedule

    def test_fallback_needs_all_rho_epochs_to_fit(self, zero_first_draws):
        # the first pass never covers, so it runs into epoch rho, which one
        # step fewer than rho epochs cannot hold
        rho = rho_for(1)
        tree, graph = chord_path()
        short = TemporalGraph.build(3, list(graph.snapshots)[:-1])
        zero_first_draws(rho)
        with pytest.raises(InsufficientSnapshots) as exc:
            explore_detailed(short, 1, 2, 0, tree=tree, strategy=LasVegas(seed=4))
        assert (exc.value.epoch, exc.value.found, exc.value.needed) == (rho, 1, 2)
        assert exc.value.last_step == rho * 4 - 1
