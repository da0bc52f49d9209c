"""The full-plan schedule: every one of the rho epochs, the tuple the Las Vegas
search returns, replayed over all of them. A pipeline run that stops at
cover must be this schedule cut at the end of its last epoch whenever it
replays that tuple: when the search's first draw covers the tour, and when
the run falls back to the search."""

from __future__ import annotations

from dataclasses import replace

from tempex.core import SpanningTree, TemporalGraph
from tempex.scheduler import (
    EpochPlan,
    LasVegas,
    PipelineRun,
    Schedule,
    _reposition_and_replay,
    find_covering_tuple,
    partition_epochs,
    rho_for,
    run_epoch_traces,
    step_budget,
)
from tempex.tour import build_dfs_tour


def full_plan_schedule(
    graph: TemporalGraph,
    tree: SpanningTree,
    k: int,
    delta: int,
    start: int,
    strategy: LasVegas,
) -> tuple[EpochPlan, Schedule, int]:
    """(plan, schedule, attempts) over all rho epochs at deficiency k."""
    plan = partition_epochs(graph, tree, k, delta, rho_for(k), step_budget(graph.n, k))
    tour = build_dfs_tour(tree)
    traces = run_epoch_traces(graph, tour, plan)
    choice, attempts = find_covering_tuple(traces, tour.n_positions, strategy)
    actions = [None] * plan.epochs[-1].end
    at = start
    for number, (epoch, trace, agent) in enumerate(zip(plan.epochs, traces, choice), start=1):
        route, at = _reposition_and_replay(graph, tour, number, epoch, trace, agent, at)
        for t, move in route:
            actions[t - 1] = move
    return plan, Schedule(start, 1, tuple(actions)), attempts


def assert_cut_of_full_plan(
    graph: TemporalGraph, run: PipelineRun, delta: int, start: int, strategy: LasVegas
) -> Schedule:
    """Assert that the run is the full-plan run cut after its last epoch; return
    the full-plan schedule. The run and the reference must make the same
    number of search attempts: one when the search's first draw covers."""
    plan, full, attempts = full_plan_schedule(graph, run.tree, run.plan.k, delta, start, strategy)
    assert attempts == run.stats.attempts
    j = len(run.plan.epochs)
    assert 1 <= j <= plan.rho == run.stats.rho
    assert run.plan.epochs == plan.epochs[:j]
    end = run.plan.epochs[-1].end
    assert run.schedule == replace(full, actions=full.actions[:end])
    assert run.stats.span == end
    return full
