"""Reference code the pipeline does not run, for tests to compare against.

The full-plan schedule: every one of the rho epochs, with the greedy
choice made over all of them, or the tuple the Las Vegas search returns
when the greedy tuple leaves a vertex unvisited, replayed over all of them.
The greedy choice of an epoch reads only the epochs before it, so a
pipeline run that stops at cover must be this schedule cut at the end of
its last epoch. The greedy choice itself, done the slow way: each
survivor's arc as an explicit set of tour positions.

The covering-tuple oracles: whether one tuple covers the tour, and the exact
fraction of tuples that do (the paper's bound is at least 1/12).

The roundabout's per-step properties and its 6k survivor bound, asserted
on a recorded trace rather than inside the pipeline's step loop.

The delta check done the slow way: one foremost walk per source in every
window, for the shared sweep of ``verify_delta_connectivity`` to equal, and
whether one snapshot is connected by a depth-first search, for the check's
per-step connected flag to equal.

Earliest arrivals done the slow way: a breadth-first search over an explicit
time-expanded graph, for ``foremost_walk``'s sweep to equal.

The TG1 parser done the slow way: the whole text split with
``str.splitlines`` and every snapshot built as a set, for the resumable
reader behind ``parse_temporal_graph`` to equal, graph or error.
"""

from __future__ import annotations

from collections import deque
from dataclasses import replace
from fractions import Fraction
from typing import Callable, Optional, Sequence

from tempex.core import (
    ConnectivityReport,
    Edge,
    ParseError,
    SpanningTree,
    TemporalGraph,
    _parse_edge_line,
    _parse_int,
    foremost_walk,
)
from tempex.rng import SplitMix64
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
    verify_schedule,
)
from tempex.tour import DfsTour, build_dfs_tour


class InvariantViolation(AssertionError):
    """A runtime-checkable property of the process failed."""


def check_state_invariants(state: RoundaboutState, k: Optional[int] = None, step: int = 0) -> None:
    """Assert the per-step properties of the process on a post-elimination state.

    Checks: full coverage of the tour, pairwise distinct states, no position
    in three arcs, total arc mass <= 2N - |A|, consecutive-start arc cover,
    and (when k is given) the shrinkage bound on `step`, the state's index in
    its run's history.
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
    if k is not None and m >= 2 * k + 1 and step > 0:
        bound = (2 * n - m) / (m - 2 * k)
        if step > bound:
            raise InvariantViolation(f"{m} agents active after {step} steps (max {bound:.2f})")


def checked_roundabout(
    graph: TemporalGraph, tour: DfsTour, times: Sequence[int], k: int
) -> RoundaboutTrace:
    """`run_roundabout` on the tree edges each snapshot lacks, then the
    paper's properties asserted: every snapshot k-deficient, the per-step
    invariants on every state after step 0, and at most 6k survivors when
    the run takes N // 2k steps."""
    lacked = list(graph.missing(tour.tree.edges, times))
    for t, blocked in zip(times, lacked):
        if len(blocked) > k:
            raise InvariantViolation(f"snapshot {t} is not {k}-deficient")
    trace = run_roundabout(tour, times, lacked)
    for step, state in enumerate(trace.history[1:], start=1):
        check_state_invariants(state, k, step)
    if len(trace.times) == tour.n_positions // (2 * k) and len(trace.final.agents) > 6 * k:
        raise InvariantViolation(f"{len(trace.final.agents)} agents survive, bound is {6 * k}")
    return trace


def run_epoch_traces(graph: TemporalGraph, tour: DfsTour, plan: EpochPlan) -> list[RoundaboutTrace]:
    """The roundabout run of every epoch of the plan."""
    return [lacking_run(graph, tour, epoch.roundabout_times) for epoch in plan.epochs]


def lacking_run(graph: TemporalGraph, tour: DfsTour, times: Sequence[int]) -> RoundaboutTrace:
    """`run_roundabout` over `times`, each step blocking the tree edges its snapshot lacks."""
    return run_roundabout(tour, times, graph.missing(tour.tree.edges, times))


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


def arc_positions(state: RoundaboutState, idx: int) -> frozenset[int]:
    """Tour positions agent `idx` of the state has visited: its start and
    the positions it has moved on to, counted one by one."""
    n, agent = state.n_positions, state.agents[idx]
    return frozenset((agent - 1 + i) % n + 1 for i in range(min(state.moves[idx] + 1, n)))


def greedy_reference(
    covered: frozenset[int], state: RoundaboutState
) -> tuple[int, frozenset[int]]:
    """The survivor adding the most positions outside `covered`, the
    smallest start among those, and `covered` grown by its arc."""
    arcs = [(state.agents[i], arc_positions(state, i)) for i in range(len(state.agents))]
    agent, arc = min(arcs, key=lambda option: (-len(option[1] - covered), option[0]))
    return agent, covered | arc


Pick = Callable[[frozenset[int], RoundaboutState], tuple[int, frozenset[int]]]


def full_plan_schedule(
    graph: TemporalGraph,
    tree: SpanningTree,
    k: int,
    delta: int,
    start: int,
    strategy: LasVegas,
    pick: Pick = greedy_reference,
) -> tuple[EpochPlan, Schedule, int]:
    """(plan, schedule, attempts) over all rho epochs at deficiency k.

    `pick` chooses each epoch's survivor from the positions covered so far
    (a set, empty at first). When the replay of its tuple leaves a vertex
    unvisited, the Las Vegas search's tuple is replayed instead, and
    attempts counts the search's draws after the pick's one tuple."""
    plan = partition_epochs(graph, tree, k, delta, rho_for(k), step_budget(graph.n, k))
    tour = build_dfs_tour(tree)
    traces = run_epoch_traces(graph, tour, plan)

    def replay(choice: Sequence[int]) -> Schedule:
        actions = [None] * plan.epochs[-1].end
        at = start
        for number, (epoch, trace, agent) in enumerate(zip(plan.epochs, traces, choice), start=1):
            route, at = _reposition_and_replay(graph, tour, number, epoch, trace, agent, at)
            for t, move in route:
                actions[t - 1] = move
        return Schedule(start, 1, tuple(actions))

    covered: frozenset[int] = frozenset()
    choice = []
    for trace in traces:
        agent, covered = pick(covered, trace.final)
        choice.append(agent)
    schedule = replay(choice)
    if not verify_schedule(graph, start, schedule).unvisited:
        return plan, schedule, 1
    choice, searched = find_covering_tuple(traces, tour.n_positions, strategy)
    return plan, replay(choice), 1 + searched


def assert_cut_of_full_plan(
    graph: TemporalGraph,
    run: PipelineRun,
    delta: int,
    start: int,
    strategy: LasVegas,
    pick: Pick = greedy_reference,
) -> Schedule:
    """Assert that the run is the full-plan run under `pick` cut after its
    last epoch; return the full-plan schedule. The run and the reference
    must count the same attempts: one when the picked tuple covers."""
    plan, full, attempts = full_plan_schedule(
        graph, run.tree, run.plan.k, delta, start, strategy, pick
    )
    assert attempts == run.stats.attempts
    j = len(run.plan.epochs)
    assert 1 <= j <= plan.rho == run.stats.rho
    assert run.plan.epochs == plan.epochs[:j]
    end = run.plan.epochs[-1].end
    assert run.schedule == replace(full, actions=full.actions[:end])
    assert run.stats.span == end
    return full


def snapshot_is_connected(n, edges):
    """Whether `edges` connect all n vertices: a depth-first search from 0."""
    neighbours = {v: [] for v in range(n)}
    for u, v in edges:
        neighbours[u].append(v)
        neighbours[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in neighbours[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def chosen_starts(lifetime, delta, mode, samples, seed):
    """Window starts the delta check covers, in increasing order."""
    starts = list(range(1, lifetime - delta + 2))
    if mode == "sampled" and len(starts) > samples:
        rng = SplitMix64(seed)
        chosen = set()
        while len(chosen) < samples:
            chosen.add(starts[rng.below(len(starts))])
        starts = sorted(chosen)
    return starts


def per_source_delta_check(graph, delta, mode, samples, seed):
    """Reference delta check: one foremost sweep per source in every window."""
    checked = 0
    for w in chosen_starts(graph.lifetime, delta, mode, samples, seed):
        checked += 1
        for source in range(graph.n):
            result = foremost_walk(graph, (w, w + delta - 1), source)
            for target in range(graph.n):
                if result.arrival[target] is None:
                    return ConnectivityReport(False, (w, (source, target)), checked, mode)
    return ConnectivityReport(True, None, checked, mode)


def foremost_arrival_oracle(
    graph: TemporalGraph, window: tuple[int, int], source: int
) -> tuple[Optional[int], ...]:
    """Earliest arrivals via an explicit time-expanded layered graph.

    Nodes are (vertex, time) for time in [t0-1, t1]; waiting arcs go to the
    next layer, and each snapshot edge contributes arcs between consecutive
    layers in both directions. Must agree exactly with the sweep in core.
    """
    t0, t1 = window
    if not (1 <= t0 <= t1 <= graph.lifetime):
        raise ValueError(f"window [{t0}, {t1}] outside lifetime {graph.lifetime}")
    if not (0 <= source < graph.n):
        raise ValueError(f"source {source} out of range")
    arcs: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for t in range(t0 - 1, t1 + 1):
        for v in range(graph.n):
            arcs[(v, t)] = []
    for t in range(t0 - 1, t1):
        for v in range(graph.n):
            arcs[(v, t)].append((v, t + 1))
    for t in range(t0, t1 + 1):
        for u, v in graph.edge_set(t):
            arcs[(u, t - 1)].append((v, t))
            arcs[(v, t - 1)].append((u, t))

    earliest: list[Optional[int]] = [None] * graph.n
    earliest[source] = t0 - 1
    seen = {(source, t0 - 1)}
    queue = deque([(source, t0 - 1)])
    while queue:
        node = queue.popleft()
        for nxt in arcs[node]:
            if nxt in seen:
                continue
            seen.add(nxt)
            v, t = nxt
            if earliest[v] is None or t < earliest[v]:
                earliest[v] = t
            queue.append(nxt)
    return tuple(earliest)


def parse_lines(text: str) -> TemporalGraph:
    """Line-by-line TG1 parser: tolerates comments and blank lines, and
    reports each error with its physical line number."""
    lines = (
        (lineno, stripped.split())
        for lineno, stripped in enumerate(map(str.strip, text.splitlines()), start=1)
        if stripped and not stripped.startswith("#")
    )
    try:
        lineno, parts = next(lines)
    except StopIteration:
        raise ParseError("malformed header: empty input", 1) from None
    if len(parts) != 2:
        raise ParseError(f"malformed header: expected 'n L', got {' '.join(parts)!r}", lineno)
    n = _parse_int(parts[0], lineno, "header n")
    lifetime = _parse_int(parts[1], lineno, "header L")
    if n < 1 or lifetime < 1:
        raise ParseError(f"malformed header: need n >= 1 and L >= 1, got n={n} L={lifetime}", lineno)

    snapshots: list[set[Edge]] = []
    last_line = lineno
    for _ in range(lifetime):
        try:
            lineno, parts = next(lines)
        except StopIteration:
            raise ParseError("unexpected end of input: missing snapshot edge count", last_line + 1) from None
        if len(parts) != 1:
            raise ParseError(f"expected edge count, got {' '.join(parts)!r}", lineno)
        m = _parse_int(parts[0], lineno, "edge count")
        if m < 0:
            raise ParseError(f"negative edge count {m}", lineno)
        seen: set[Edge] = set()
        last_line = lineno
        for _ in range(m):
            try:
                lineno, parts = next(lines)
            except StopIteration:
                raise ParseError("unexpected end of input: missing edge line", last_line + 1) from None
            _parse_edge_line(parts, lineno, n, seen)
            last_line = lineno
        snapshots.append(seen)
    for lineno, parts in lines:
        raise ParseError(f"unexpected trailing content {' '.join(parts)!r}", lineno)
    return TemporalGraph.build(n, snapshots)
