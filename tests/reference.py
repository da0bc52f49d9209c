"""Reference code the pipeline does not run, for tests to compare against.

The full-plan schedule: every one of the rho epochs, the tuple the Las Vegas
search returns, replayed over all of them. A pipeline run that stops at
cover must be this schedule cut at the end of its last epoch whenever it
replays that tuple: when the search's first draw covers the tour, and when
the run falls back to the search.

The covering-tuple oracles: whether one tuple covers the tour, and the exact
fraction of tuples that do (the paper's bound is at least 1/12).

The roundabout's per-step properties and its 6k survivor bound, asserted
on a recorded trace rather than inside the pipeline's step loop.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction
from typing import Optional, Sequence

from tempex.core import SpanningTree, TemporalGraph
from tempex.roundabout import RoundaboutState, RoundaboutTrace, run_roundabout
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


class InvariantViolation(AssertionError):
    """A runtime-checkable property of the process failed."""


def check_state_invariants(state: RoundaboutState, k: Optional[int] = None) -> None:
    """Assert the per-step properties of the process on a post-elimination state.

    Checks: full coverage of the tour, pairwise distinct states, no position
    in three arcs, total arc mass <= 2N - |A|, consecutive-start arc cover,
    and (when k is given) the shrinkage bound on the step count.
    """
    n = state.n_positions
    m = len(state.agents)
    if m == 0:
        raise InvariantViolation("no active agents")
    once = twice = thrice = 0  # positions in at least one, two, three arcs
    for mask in state.arc_masks():
        thrice |= twice & mask
        twice |= once & mask
        once |= mask
    gap = ((1 << n) - 1) & ~once
    if gap:
        raise InvariantViolation(f"position {(gap & -gap).bit_length()} not covered")
    if thrice:
        raise InvariantViolation("a position is covered by three active agents")
    if len(set(state.states)) != m:
        raise InvariantViolation("two active agents share a state")
    mass = sum(state.arc_length(i) for i in range(m))
    if mass > 2 * n - m:
        raise InvariantViolation(f"arc mass {mass} exceeds {2 * n - m}")
    for i in range(m):
        p = state.agents[i]
        q = state.agents[(i + 1) % m]
        gap = (q - p) % n
        if gap and gap - 1 > state.arc_length(i) - 1:
            raise InvariantViolation(f"agent {p} does not cover up to next start {q}")
    if k is not None and m >= 2 * k + 1 and state.step > 0:
        bound = (2 * n - m) / (m - 2 * k)
        if state.step > bound:
            raise InvariantViolation(f"{m} agents active after {state.step} steps (max {bound:.2f})")


def checked_roundabout(
    graph: TemporalGraph, tour: DfsTour, times: Sequence[int], k: int
) -> RoundaboutTrace:
    """`run_roundabout`, then the paper's properties asserted on its trace:
    every snapshot k-deficient, the per-step invariants on every state after
    step 0, and at most 6k survivors when the run takes N // 2k steps."""
    trace = run_roundabout(graph, tour, times)
    for t, blocked in zip(trace.times, graph.missing(tour.tree.edges, trace.times)):
        if len(blocked) > k:
            raise InvariantViolation(f"snapshot {t} is not {k}-deficient")
    for state in trace.history[1:]:
        check_state_invariants(state, k)
    if len(trace.times) == tour.n_positions // (2 * k) and len(trace.final.agents) > 6 * k:
        raise InvariantViolation(f"{len(trace.final.agents)} agents survive, bound is {6 * k}")
    return trace


def run_epoch_traces(graph: TemporalGraph, tour: DfsTour, plan: EpochPlan) -> list[RoundaboutTrace]:
    """The roundabout run of every epoch of the plan."""
    return [run_roundabout(graph, tour, epoch.roundabout_times) for epoch in plan.epochs]


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
