"""Reference code the pipeline does not run, for tests to compare against.

The full-plan schedule: every one of the rho epochs, the tuple the Las Vegas
search returns, replayed over all of them. A pipeline run that stops at
cover must be this schedule cut at the end of its last epoch whenever it
replays that tuple: when the search's first draw covers the tour, and when
the run falls back to the search.

The covering-tuple oracles: whether one tuple covers the tour, and the exact
fraction of tuples that do (the paper's bound is at least 1/12).
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Sequence

from tempex.core import SpanningTree, TemporalGraph
from tempex.roundabout import RoundaboutTrace, run_roundabout
from tempex.scheduler import (
    EpochPlan,
    LasVegas,
    PipelineRun,
    Schedule,
    _reposition_and_replay,
    find_covering_tuple,
    partition_epochs,
    rho_for,
    step_budget,
)
from tempex.tour import DfsTour, build_dfs_tour


def run_epoch_traces(graph: TemporalGraph, tour: DfsTour, plan: EpochPlan) -> list[RoundaboutTrace]:
    """The roundabout run of every epoch of the plan."""
    return [run_roundabout(graph, tour, epoch.roundabout_times, plan.budget) for epoch in plan.epochs]


def _final_arc_masks(trace: RoundaboutTrace) -> list[tuple[int, int]]:
    """(agent, visited-arc mask) of each survivor, in ascending agent order."""
    return list(zip(trace.final.agents, trace.final.arc_masks()))


def is_covering_tuple(
    choice: Sequence[int], traces: Sequence[RoundaboutTrace], n_positions: int
) -> bool:
    """True iff the chosen agents' visited arcs jointly cover every tour position."""
    if len(choice) != len(traces):
        raise ValueError("one choice per epoch required")
    union = 0
    for s, trace in zip(choice, traces):
        masks = dict(_final_arc_masks(trace))
        if s not in masks:
            raise ValueError(f"{s} is not a surviving start position of its epoch")
        union |= masks[s]
    return union == (1 << n_positions) - 1


def exhaustive_covering_fraction(
    traces: Sequence[RoundaboutTrace], n_positions: int
) -> Fraction:
    """Exact fraction of covering tuples, by dynamic programming over unions."""
    full = (1 << n_positions) - 1
    per_epoch = [_final_arc_masks(t) for t in traces]
    total = 1
    for options in per_epoch:
        total *= len(options)
    suffix_sizes = [1] * (len(per_epoch) + 1)
    for j in range(len(per_epoch) - 1, -1, -1):
        suffix_sizes[j] = suffix_sizes[j + 1] * len(per_epoch[j])
    covering = 0
    level: dict[int, int] = {0: 1}
    for j, options in enumerate(per_epoch):
        nxt: dict[int, int] = {}
        for union, count in level.items():
            for _, mask in options:
                u2 = union | mask
                if u2 == full:
                    covering += count * suffix_sizes[j + 1]
                else:
                    nxt[u2] = nxt.get(u2, 0) + count
        level = nxt
    return Fraction(covering, total)


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
