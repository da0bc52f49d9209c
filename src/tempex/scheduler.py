"""Epoch planning, covering-tuple selection, and single-explorer schedules.

The pipeline: lay out rho epochs left to right, each a delta-step
repositioning window followed by enough deficient snapshots to run the
roundabout for its step budget. A run makes them one stream: only when the
loop in `assemble_schedule` asks for the next epoch is it laid out, its
roundabout run on the tree edges the layout found its steps lack, and one
surviving agent picked. The loop repositions a single explorer to that
agent's start and replays its moves; it stops after the first epoch by whose
end every vertex has been visited, and reads no further from the stream.
The first pass is greedy: each epoch replays the survivor whose visited arc
adds the most tour positions not yet covered by the arcs replayed before it.
That choice reads only earlier epochs, so the schedule is the full-plan
schedule under the same choice cut at an epoch end. When a vertex is still
unvisited after epoch rho, the Las Vegas search picks a tuple whose visited
arcs jointly cover the whole tour, and the same loop replays the rho runs
it already made with that tuple, again stopping at cover.

Without a witness tree, the run first takes the minimum-absence tree of the
first chunk of steps and runs at the deficiency k' (at most 2k) those steps
show against it, reading no step past the paper's 2k budget. Only when that
run cannot finish does it fall back to the paper's path: the tree certified
over the 2q recovery prefix, at deficiency 2k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

from . import core
from .core import (
    Edge,
    ParseError,
    Route,
    SpanningTree,
    TemporalGraph,
    _content_lines,
    _parse_int,
    canonical_edge,
    foremost_walk,
)
from .rng import SplitMix64
from .roundabout import RoundaboutState, RoundaboutTrace, run_roundabout
from .tour import DfsTour, build_dfs_tour
from .treefind import DisconnectedGraph, find_good_tree, minimum_weight_spanning_tree

Action = Optional[tuple[int, int]]  # None = wait, (u, v) = traverse from u to v
MAX_ATTEMPTS = 10_000  # covering-tuple draws before the search gives up


class InsufficientSnapshots(Exception):
    """The run needed epoch `epoch` and the timeline ended before it fit.

    Epoch 0 is the tree-recovery prefix, which needs `needed` snapshots of
    any kind; epochs 1.. need `needed` k-deficient snapshots after their
    repositioning window, and are laid out only when the run reaches them, so
    a timeline too short for rho epochs fails only if the run gets that far.
    `last_step` is the last step the run may read: where the timeline ends,
    or, on a run with a tree from the first chunk, the paper's 2k budget
    (such a run falls back, and this never reaches a caller).
    """

    def __init__(self, epoch: int, found: int, needed: int, last_step: int) -> None:
        what = "k-deficient snapshots" if epoch else "snapshots for tree recovery"
        super().__init__(
            f"epoch {epoch}: found {found} of {needed} {what} by step {last_step} (timeline ends)"
        )
        self.epoch = epoch
        self.found = found
        self.needed = needed
        self.last_step = last_step
        self.deficit = needed - found


class RepositionFailed(Exception):
    """A repositioning walk could not reach its target within the window.

    `window` is the repositioning window (first step, last step), and
    `reached` counts the vertices the foremost walk from the explorer's
    vertex reached in it, that vertex included. The target is not among
    them, so this delta-step window is not temporally connected: the graph
    breaks the delta-connectivity the run was given.
    """

    def __init__(self, epoch: int, target: int, window: tuple[int, int], reached: int) -> None:
        super().__init__(
            f"epoch {epoch}: vertex {target} unreachable in repositioning window "
            f"[{window[0]}, {window[1]}]; the foremost walk reached {reached} vertices"
        )
        self.epoch = epoch
        self.target = target
        self.window = window
        self.reached = reached


class InvalidSchedule(Exception):
    """The pipeline's schedule failed verify_schedule; `report` says where."""

    def __init__(self, report: VerifyReport) -> None:
        super().__init__(f"computed schedule is {report.describe()}")
        self.report = report


class TupleSearchExhausted(Exception):
    def __init__(self, attempts: int) -> None:
        super().__init__(f"no covering tuple found after {attempts} sampling attempts")
        self.attempts = attempts


def rho_for(k: int) -> int:
    """Epoch count for deficiency parameter k: ceil(18 k ln(6k))."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return math.ceil(18 * k * math.log(6 * k))


def step_budget(n: int, k: int) -> int:
    """Roundabout step budget: floor(N / 2k) with N = 2(n-1)."""
    if k < 1:
        raise ValueError("k must be at least 1")
    return (n - 1) // k


def paper_budget(n: int, k: int, delta: int) -> int:
    """The paper's span bound rho*(delta+t): rho epochs, each a delta-step
    repositioning window and t roundabout steps."""
    return rho_for(k) * (delta + step_budget(n, k))


def recovery_prefix(n: int, k: int, delta: int) -> int:
    """Half-prefix q used to recover a tree when no witness is given.

    rho epochs at deficiency 2k, each delta steps plus ceil(n/2k).
    """
    kk = 2 * k
    return rho_for(kk) * (delta + -(-n // kk))


@dataclass(frozen=True)
class Epoch:
    start: int
    reposition_end: int
    end: int
    roundabout_times: tuple[int, ...]


@dataclass(frozen=True)
class EpochPlan:
    """Epochs of a plan of `rho` epochs at deficiency `k`, laid out left to
    right: all rho of them from `partition_epochs`, the ones a run replayed
    in `PipelineRun.plan`."""

    epochs: tuple[Epoch, ...]
    rho: int
    k: int


def _lay_out_epochs(
    graph: TemporalGraph,
    tree: SpanningTree,
    k: int,
    delta: int,
    rho: int,
    budget: int,
    last_step: int,
) -> Iterator[tuple[Epoch, tuple[tuple[Edge, ...], ...]]]:
    """Greedy left-to-right epoch layout, one epoch per step of the iteration.

    Each epoch reserves delta steps for repositioning, then extends until
    `budget` snapshots k-deficient with respect to the tree have accumulated;
    only the steps an epoch lays out after its window are read, and none
    after `last_step`. Yields each epoch with the tree edges each of those
    snapshots lacks. Raises InsufficientSnapshots when the next epoch does
    not fit by `last_step`. Greedy is prefix-optimal: it succeeds whenever
    any partition does.
    """
    if delta < 1 or rho < 1 or budget < 0 or k < 0 or not 1 <= last_step <= graph.lifetime:
        raise ValueError("bad epoch parameters")
    cursor = 1
    for e in range(1, rho + 1):
        reposition_end = cursor + delta - 1
        if reposition_end > last_step:
            raise InsufficientSnapshots(e, 0, budget, last_step)
        picked: dict[int, tuple[Edge, ...]] = {}  # each time taken, and the tree edges it lacks
        if budget:
            steps = range(reposition_end + 1, last_step + 1)
            for t, lacked in zip(steps, graph.missing(tree.edges, steps)):
                if len(lacked) <= k:
                    picked[t] = lacked
                    if len(picked) == budget:
                        break
        if len(picked) < budget:
            raise InsufficientSnapshots(e, len(picked), budget, last_step)
        end = max(picked, default=reposition_end)
        yield Epoch(cursor, reposition_end, end, tuple(picked)), tuple(picked.values())
        cursor = end + 1


def partition_epochs(
    graph: TemporalGraph,
    tree: SpanningTree,
    k: int,
    delta: int,
    rho: int,
    budget: int,
) -> EpochPlan:
    """All rho epochs of :func:`_lay_out_epochs` at once, over the whole timeline."""
    laid_out = _lay_out_epochs(graph, tree, k, delta, rho, budget, graph.lifetime)
    return EpochPlan(tuple(epoch for epoch, _ in laid_out), rho, k)


@dataclass(frozen=True)
class LasVegas:
    """The fallback search: sample uniformly (independent per epoch) until a
    covering tuple shows up. A run draws from it only when its greedy pass
    leaves a vertex unvisited after all rho epochs."""

    seed: int = 0


def greedy_pick(covered: int, state: RoundaboutState) -> tuple[int, int]:
    """The survivor whose visited arc adds the most tour positions outside
    the mask `covered`, ties going to the smallest start, and `covered`
    grown by that arc."""
    agent, mask = max(
        zip(state.agents, state.arc_masks()), key=lambda option: (option[1] & ~covered).bit_count()
    )
    return agent, covered | mask


def find_covering_tuple(
    traces: Sequence[RoundaboutTrace],
    n_positions: int,
    strategy: LasVegas,
) -> tuple[tuple[int, ...], int]:
    """Pick one surviving agent per epoch covering the whole tour.

    Returns (tuple, attempts). Each draw covers with probability at least
    1/12, so MAX_ATTEMPTS misses in a row have probability about e^-870: the
    cap is a failsafe, after which sampling fails loudly, not forever.
    """
    full = (1 << n_positions) - 1
    # (agent, visited-arc mask) of each survivor, in ascending agent order
    per_epoch = [list(zip(t.final.agents, t.final.arc_masks())) for t in traces]
    rng = SplitMix64(strategy.seed)
    for attempt in range(1, MAX_ATTEMPTS + 1):
        union = 0
        sel: list[int] = []
        for options in per_epoch:
            agent, mask = options[rng.below(len(options))]
            sel.append(agent)
            union |= mask
        if union == full:
            return tuple(sel), attempt
    raise TupleSearchExhausted(MAX_ATTEMPTS)


# --- schedules ----------------------------------------------------------------

@dataclass(frozen=True)
class Schedule:
    """Per-time-step actions for one explorer over a contiguous window."""

    start: int
    first_step: int
    actions: tuple[Action, ...]

    @property
    def span(self) -> int:
        return len(self.actions)

    @property
    def length(self) -> int:
        """Number of edge traversals (temporal-walk length)."""
        return sum(1 for a in self.actions if a is not None)


def serialize_schedule(schedule: Schedule) -> str:
    lines = [f"start {schedule.start}"]
    for off, action in enumerate(schedule.actions):
        t = schedule.first_step + off
        if action is None:
            lines.append(f"{t} wait")
        else:
            lines.append(f"{t} move {action[0]} {action[1]}")
    return "\n".join(lines) + "\n"


def parse_schedule(text: str) -> Schedule:
    """Parse the schedule format: 'start <v>', then one line per step,
    '<t> wait' or '<t> move <u> <v>' (comments allowed)."""
    lines = _content_lines(text)
    try:
        no, parts, _ = next(lines)
    except StopIteration:
        raise ParseError("empty schedule", 1) from None
    if len(parts) != 2 or parts[0] != "start":
        raise ParseError(f"expected 'start <v>', got {' '.join(parts)!r}", no)
    start = _parse_int(parts[1], no, "start vertex")
    actions: list[Action] = []
    first_step: Optional[int] = None
    for no, parts, _ in lines:
        t = _parse_int(parts[0], no, "step")
        if first_step is None:
            first_step = t
        if t != first_step + len(actions):
            raise ParseError(f"expected step {first_step + len(actions)}, got {t}", no)
        if len(parts) == 2 and parts[1] == "wait":
            actions.append(None)
        elif len(parts) == 4 and parts[1] == "move":
            u = _parse_int(parts[2], no, "move endpoint")
            v = _parse_int(parts[3], no, "move endpoint")
            actions.append((u, v))
        else:
            raise ParseError(f"bad schedule line {' '.join(parts)!r}", no)
    return Schedule(start, first_step if first_step is not None else 1, tuple(actions))


def _reposition_and_replay(
    graph: TemporalGraph,
    tour: DfsTour,
    number: int,
    epoch: Epoch,
    trace: RoundaboutTrace,
    agent: int,
    at: int,
) -> tuple[Route, int]:
    """The explorer's timed moves in epoch `number`, starting at vertex `at`:
    a foremost walk to the agent's start vertex inside the repositioning
    window, then the agent's moves from the trace. Also returns the vertex
    where the explorer ends the epoch."""
    target = tour.vertex(agent)
    window = (epoch.start, epoch.reposition_end)
    walk: Optional[Route] = ()
    if at != target:
        foremost = foremost_walk(graph, window, at)
        walk = foremost.walk_to(target)
        if walk is None:
            raise RepositionFailed(number, target, window, graph.n - foremost.arrival.count(None))
    route = (*walk, *trace.moves_of(agent, tour))
    return route, route[-1][1][1] if route else at


def assemble_schedule(
    graph: TemporalGraph,
    tour: DfsTour,
    runs: Iterable[tuple[Epoch, RoundaboutTrace, int]],
    start: int,
) -> tuple[Schedule, tuple[tuple[Epoch, RoundaboutTrace, int], ...], Optional[int]]:
    """Run epochs in order until the explorer has visited every vertex.

    `runs` yields each epoch with its roundabout run and the agent to
    replay, and is advanced no further than the epoch that completes the
    visit. In each epoch the explorer repositions to that agent's start and
    replays its moves. Returns the schedule through the end of the last
    epoch run, the (epoch, trace, agent) of each epoch replayed, and the step
    at which the last unvisited vertex is entered: None when a vertex is
    still unvisited after the last of `runs`.
    """
    actions: list[Action] = []
    replayed: list[tuple[Epoch, RoundaboutTrace, int]] = []
    at, seen = start, {start}
    cover: Optional[int] = None
    for number, (epoch, trace, agent) in enumerate(runs, start=1):
        route, at = _reposition_and_replay(graph, tour, number, epoch, trace, agent, at)
        replayed.append((epoch, trace, agent))
        actions.extend([None] * (epoch.end - len(actions)))
        for t, move in route:
            actions[t - 1] = move
            if move[1] not in seen:
                seen.add(move[1])
                if len(seen) == graph.n:
                    cover = t
        if cover is not None:
            break
    return Schedule(start, 1, tuple(actions)), tuple(replayed), cover


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    reason: Optional[str] = None
    step: Optional[int] = None
    unvisited: tuple[int, ...] = ()

    def describe(self) -> str:
        if self.ok:
            return "valid"
        where = f" at step {self.step}" if self.step is not None else ""
        return f"invalid: {self.reason}{where}"


def verify_schedule(graph: TemporalGraph, start: int, schedule: Schedule) -> VerifyReport:
    """Independent validation: continuity, edge presence, lifetime, coverage."""
    if not (0 <= start < graph.n):
        return VerifyReport(False, f"start vertex {start} out of range")
    if schedule.start != start:
        return VerifyReport(False, f"schedule declares start {schedule.start}, expected {start}")
    cur = start
    visited = {start}
    for off, action in enumerate(schedule.actions):
        t = schedule.first_step + off
        if not (1 <= t <= graph.lifetime):
            return VerifyReport(False, "time step outside lifetime", t)
        if action is None:
            continue
        u, v = action
        if u != cur:
            return VerifyReport(False, f"move from {u} but explorer is at {cur}", t)
        if not (0 <= v < graph.n) or u == v:
            return VerifyReport(False, f"bad move target {v}", t)
        if not graph.has_edge(t, canonical_edge(u, v)):
            return VerifyReport(False, f"edge ({u},{v}) absent from snapshot", t)
        cur = v
        visited.add(v)
    missing = tuple(sorted(set(range(graph.n)) - visited))
    if missing:
        return VerifyReport(False, f"unvisited vertices {list(missing)}", None, missing)
    return VerifyReport(True)


# --- top-level pipeline -------------------------------------------------------

@dataclass(frozen=True)
class ExploreStats:
    """What a run did. `rho` is the paper's epoch count and `paper_budget`
    its span bound rho*(delta+t), both at the deficiency the run used;
    `epoch_count` counts the epochs replayed, and `cover_step` is the step by
    which every vertex has been visited. `tree_source` says where the run's
    tree came from: "given" (a witness), "chunk" (the first chunk of steps)
    or "certified" (find_good_tree over the recovery prefix)."""

    rho: int
    budget: int
    active_counts: tuple[int, ...]
    attempts: int
    span: int
    length: int
    paper_budget: int
    cover_step: Optional[int]
    tree_source: str

    @property
    def epoch_count(self) -> int:
        return len(self.active_counts)

    def to_json_dict(self) -> dict:
        return {
            "rho": self.rho,
            "t": self.budget,
            "epochs": self.epoch_count,
            "activeCounts": list(self.active_counts),
            "attempts": self.attempts,
            "scheduleSpan": self.span,
            "scheduleLength": self.length,
            "paperBudget": self.paper_budget,
            "coverStep": self.cover_step,
            "treeSource": self.tree_source,
        }


@dataclass(frozen=True)
class PipelineRun:
    """Everything the pipeline produced, for diagnostics and the CLI.

    `plan` holds the epochs replayed, and `traces` and `choice` hold one
    entry per epoch replayed: its roundabout run and the agent replayed.
    """

    schedule: Schedule
    stats: ExploreStats
    tree: Optional[SpanningTree]
    plan: Optional[EpochPlan]
    traces: tuple[RoundaboutTrace, ...]
    choice: tuple[int, ...]


def explore_detailed(
    graph: TemporalGraph,
    k: int,
    delta: int,
    start: int,
    tree: Optional[SpanningTree] = None,
    strategy: Optional[LasVegas] = None,
) -> PipelineRun:
    """Compute an exploration schedule from `start`, keeping intermediates.

    With a witness tree the pipeline runs at deficiency k. Without one it
    first takes Kruskal's minimum-absence tree over the first `READ_CHUNK`
    steps and runs at k', the largest deficiency those steps show against
    it, at least 1 and at most 2k, reading no step past paper_budget(n, 2k,
    delta). If the chunk's edges do not connect the graph, or that run runs
    out of steps or exhausts its search, the run falls back to the paper's
    path: the tree find_good_tree certifies over the 2q recovery prefix, at
    deficiency 2k. The stats' `tree_source` names the tree used.

    Epochs are laid out and run one at a time until the explorer has visited
    every vertex (see assemble_schedule), each replaying the survivor that
    greedy_pick chooses, which needs no random draw; the run reads no step
    after its last epoch, and none after the first chunk before it, so on a
    graph that parse_temporal_graph reads on demand, the rest of the text is
    never read or checked. If a vertex is still unvisited after all rho
    epochs, the Las Vegas search (seeded by `strategy`) picks a covering
    tuple over them and the same loop replays it; the stats' `attempts` is 1
    for the greedy tuple plus the search's draws. Raises InsufficientSnapshots
    when the timeline ends before an epoch the run needs (every epoch up to
    rho, when the run falls back to the search), or, without a tree, before
    the 2q recovery prefix ends; RepositionFailed when an epoch run cannot
    reach its agent's start; and InvalidSchedule when the schedule fails
    verify_schedule, which every run calls on its schedule before it
    returns.
    """
    if not (0 <= start < graph.n):
        raise ValueError(f"start {start} out of range")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if tree is not None and tree.n != graph.n:
        raise ValueError(f"tree has {tree.n} vertices, graph has {graph.n}")
    if k < 1:
        raise ValueError("k must be at least 1")
    if strategy is None:
        strategy = LasVegas()
    if graph.n == 1:
        stats = ExploreStats(0, 0, (), 0, 0, 0, 0, 0, "chunk" if tree is None else "given")
        return PipelineRun(Schedule(start, 1, ()), stats, None, None, (), ())
    if tree is not None:
        return _run_with_tree(graph, tree, k, delta, start, strategy, graph.lifetime, "given")

    q = recovery_prefix(graph.n, k, delta)
    if 2 * q > graph.lifetime:
        raise InsufficientSnapshots(0, graph.lifetime, 2 * q, graph.lifetime)
    chunk = range(1, min(core.READ_CHUNK, 2 * q) + 1)
    try:
        tree = minimum_weight_spanning_tree(graph.n, graph.absences(len(chunk)))
        shown = max(map(len, graph.missing(tree.edges, chunk)))
        last_step = paper_budget(graph.n, 2 * k, delta)  # q - rho_for(2k), within the lifetime
        return _run_with_tree(
            graph, tree, min(2 * k, max(1, shown)), delta, start, strategy, last_step, "chunk"
        )
    except (DisconnectedGraph, InsufficientSnapshots, TupleSearchExhausted):
        pass
    tree = find_good_tree(graph, q)
    return _run_with_tree(graph, tree, 2 * k, delta, start, strategy, graph.lifetime, "certified")


def _run_with_tree(
    graph: TemporalGraph,
    tree: SpanningTree,
    k: int,
    delta: int,
    start: int,
    strategy: LasVegas,
    last_step: int,
    tree_source: str,
) -> PipelineRun:
    """explore_detailed's run with `tree` at deficiency k, reading no step
    after `last_step`."""
    rho = rho_for(k)
    budget = step_budget(graph.n, k)
    tour = build_dfs_tour(tree)

    def greedy() -> Iterator[tuple[Epoch, RoundaboutTrace, int]]:
        covered = 0
        for epoch, lacked in _lay_out_epochs(graph, tree, k, delta, rho, budget, last_step):
            trace = run_roundabout(tour, epoch.roundabout_times, lacked)
            agent, covered = greedy_pick(covered, trace.final)
            yield epoch, trace, agent

    schedule, replayed, cover = assemble_schedule(graph, tour, greedy(), start)
    attempts = 1
    if cover is None:
        # The greedy tuple over all rho epochs is attempt 1 and missed a
        # vertex; the search's draws are the attempts after it.
        epochs, traces, _ = zip(*replayed)
        covering, searched = find_covering_tuple(traces, tour.n_positions, strategy)
        attempts += searched
        schedule, replayed, cover = assemble_schedule(graph, tour, zip(epochs, traces, covering), start)
    report = verify_schedule(graph, start, schedule)
    if not report.ok:
        raise InvalidSchedule(report)
    epochs, traces, choice = zip(*replayed)
    stats = ExploreStats(
        rho,
        budget,
        tuple(len(t.final.agents) for t in traces),
        attempts,
        schedule.span,
        schedule.length,
        paper_budget(graph.n, k, delta),
        cover,
        tree_source,
    )
    return PipelineRun(schedule, stats, tree, EpochPlan(epochs, rho, k), traces, choice)


def explore(
    graph: TemporalGraph,
    k: int,
    delta: int,
    start: int,
    tree: Optional[SpanningTree] = None,
    strategy: Optional[LasVegas] = None,
) -> tuple[Schedule, ExploreStats]:
    """Compute an exploration schedule from `start`; see explore_detailed."""
    run = explore_detailed(graph, k, delta, start, tree, strategy)
    return run.schedule, run.stats
