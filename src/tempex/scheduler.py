"""Epoch planning, covering-tuple selection, and single-explorer schedules.

The pipeline: lay out rho epochs left to right (each a delta-step
repositioning window followed by enough deficient snapshots to run the
roundabout for its step budget), each one only when the run reaches it, and
run them one at a time in `assemble_schedule`. Each epoch picks one
surviving agent, and a single explorer repositions to that agent's start and
replays its moves; the run stops after the first epoch by whose end every
vertex has been visited. The first pass picks the draws of the first attempt
of the Las Vegas covering-tuple search, so when that attempt covers the tour
the schedule is the full-plan schedule cut at an epoch end. When a vertex is
still unvisited after epoch rho, the search picks a tuple whose visited arcs
jointly cover the whole tour, and the same loop replays it, again stopping
at cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import count
from typing import Callable, Iterator, Optional, Sequence, TypeVar

from .core import (
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
from .roundabout import RoundaboutTrace, run_roundabout
from .tour import DfsTour, build_dfs_tour
from .treefind import find_good_tree

Action = Optional[tuple[int, int]]  # None = wait, (u, v) = traverse from u to v
T = TypeVar("T")
MAX_ATTEMPTS = 10_000  # covering-tuple draws before the search gives up


class InsufficientSnapshots(Exception):
    """The run needed epoch `epoch` and the timeline ended before it fit.

    Epoch 0 is the tree-recovery prefix, which needs `needed` snapshots of
    any kind; epochs 1.. need `needed` k-deficient snapshots after their
    repositioning window, and are laid out only when the run reaches them, so
    a timeline too short for rho epochs fails only if the run gets that far.
    `last_step` is the step where the timeline ends.
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
    """A repositioning walk could not reach its target within the window."""

    def __init__(self, epoch: int, target: int) -> None:
        super().__init__(f"epoch {epoch}: vertex {target} unreachable in repositioning window")
        self.epoch = epoch
        self.target = target


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


@dataclass
class EpochPlan:
    """A plan of `rho` epochs at deficiency `k`, laid out left to right as a
    run reaches them.

    `epochs` holds the epochs laid out so far, and `rest` lays out the others
    in order; a plan made from its epochs alone has no others. Iterating the
    plan yields every epoch, laying each one out when the iteration reaches
    it, so a run that stops early reads no step after its last epoch.
    """

    epochs: tuple[Epoch, ...]
    rho: int
    k: int
    rest: Iterator[Epoch] = field(default=iter(()), repr=False, compare=False)

    def __iter__(self) -> Iterator[Epoch]:
        for j in count():
            if j == len(self.epochs):
                epoch = next(self.rest, None)
                if epoch is None:
                    return
                self.epochs += (epoch,)
            yield self.epochs[j]


def _lay_out_epochs(
    graph: TemporalGraph,
    tree: SpanningTree,
    k: int,
    delta: int,
    rho: int,
    budget: int,
) -> Iterator[Epoch]:
    """Greedy left-to-right epoch layout, one epoch per step of the iteration.

    Each epoch reserves delta steps for repositioning, then extends until
    `budget` snapshots k-deficient with respect to the tree have accumulated;
    only the steps an epoch lays out after its window are read. Raises
    InsufficientSnapshots when the timeline ends before the next epoch fits.
    Greedy is prefix-optimal: it succeeds whenever any partition does.
    """
    if delta < 1 or rho < 1 or budget < 0 or k < 0:
        raise ValueError("bad epoch parameters")
    cursor = 1
    for e in range(1, rho + 1):
        reposition_end = cursor + delta - 1
        if reposition_end > graph.lifetime:
            raise InsufficientSnapshots(e, 0, budget, graph.lifetime)
        times: list[int] = []
        if budget:
            steps = range(reposition_end + 1, graph.lifetime + 1)
            for t, lacked in zip(steps, graph.missing(tree.edges, steps)):
                if len(lacked) <= k:
                    times.append(t)
                    if len(times) == budget:
                        break
        if len(times) < budget:
            raise InsufficientSnapshots(e, len(times), budget, graph.lifetime)
        end = times[-1] if times else reposition_end
        yield Epoch(cursor, reposition_end, end, tuple(times))
        cursor = end + 1


def partition_epochs(
    graph: TemporalGraph,
    tree: SpanningTree,
    k: int,
    delta: int,
    rho: int,
    budget: int,
) -> EpochPlan:
    """All rho epochs of :func:`_lay_out_epochs` at once."""
    return EpochPlan(tuple(_lay_out_epochs(graph, tree, k, delta, rho, budget)), rho, k)


@dataclass(frozen=True)
class LasVegas:
    """Sample uniformly (independent per epoch) until a covering tuple shows up."""

    seed: int = 0


def _draw(rng: SplitMix64, survivors: Sequence[T]) -> T:
    """One uniform draw among an epoch's survivors, listed in ascending agent order."""
    return survivors[rng.below(len(survivors))]


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
            agent, mask = _draw(rng, options)
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
        no, parts = next(lines)
    except StopIteration:
        raise ParseError("empty schedule", 1) from None
    if len(parts) != 2 or parts[0] != "start":
        raise ParseError(f"expected 'start <v>', got {' '.join(parts)!r}", no)
    start = _parse_int(parts[1], no, "start vertex")
    actions: list[Action] = []
    first_step: Optional[int] = None
    for no, parts in lines:
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
    walk = () if at == target else foremost_walk(graph, window, at).walk_to(target)
    if walk is None:
        raise RepositionFailed(number, target)
    route = (*walk, *trace.moves_of(agent, tour))
    return route, route[-1][1][1] if route else at


def assemble_schedule(
    graph: TemporalGraph,
    tour: DfsTour,
    plan: EpochPlan,
    traces: list[RoundaboutTrace],
    choose: Callable[[int, RoundaboutTrace], int],
    start: int,
) -> tuple[Schedule, tuple[int, ...], Optional[int]]:
    """Run the plan's epochs in order until the explorer has visited every vertex.

    Epoch j (from 0) is laid out when the loop reaches it, unless the plan
    already holds it, and runs its roundabout unless `traces` already holds
    that run, appending the run otherwise; the explorer then repositions to
    the start of agent `choose(j, trace)` and replays its moves. Returns the
    schedule through the end of the last epoch run, the agents replayed, and
    the step at which the last unvisited vertex is entered: None when a
    vertex is still unvisited after the plan's last epoch.
    """
    actions: list[Action] = []
    choice: list[int] = []
    at, seen = start, {start}
    cover: Optional[int] = None
    for j, epoch in enumerate(plan):
        if j == len(traces):
            traces.append(run_roundabout(graph, tour, epoch.roundabout_times))
        agent = choose(j, traces[j])
        route, at = _reposition_and_replay(graph, tour, j + 1, epoch, traces[j], agent, at)
        choice.append(agent)
        actions.extend([None] * (epoch.end - len(actions)))
        for t, move in route:
            actions[t - 1] = move
            if move[1] not in seen:
                seen.add(move[1])
                if len(seen) == graph.n:
                    cover = t
        if cover is not None:
            break
    return Schedule(start, 1, tuple(actions)), tuple(choice), cover


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
    its span bound rho*(delta+t); `epoch_count` counts the epochs replayed, and
    `cover_step` is the step by which every vertex has been visited."""

    rho: int
    budget: int
    active_counts: tuple[int, ...]
    attempts: int
    span: int
    length: int
    paper_budget: int
    cover_step: Optional[int]

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

    With a witness tree the pipeline runs at deficiency k; without one it
    first recovers a tree from the absence counts of a timeline prefix and
    runs at deficiency 2k. Epochs are laid out and run one at a time until
    the explorer has visited every vertex (see assemble_schedule), each
    replaying the agent that attempt 1 of find_covering_tuple draws; the run
    reads no step after its last epoch, so on a graph that
    parse_temporal_graph reads on demand, the rest of the text is never
    read or checked. If a vertex is still unvisited after all rho epochs,
    the Las Vegas search picks a covering tuple over them and the same loop
    replays it. Raises InsufficientSnapshots when the timeline ends before an
    epoch the run needs (every epoch up to rho, when the run falls back to
    the search, and the whole tree-recovery prefix without a tree), and
    RepositionFailed when an epoch run cannot reach its agent's start.
    """
    if not (0 <= start < graph.n):
        raise ValueError(f"start {start} out of range")
    if delta < 1:
        raise ValueError("delta must be at least 1")
    if tree is not None and tree.n != graph.n:
        raise ValueError(f"tree has {tree.n} vertices, graph has {graph.n}")
    if k == 0:
        import warnings

        warnings.warn("k=0 remapped to k=1", stacklevel=2)
        k = 1
    if k < 0:
        raise ValueError("k must be non-negative")
    if strategy is None:
        strategy = LasVegas()
    if graph.n == 1:
        stats = ExploreStats(0, 0, (), 0, 0, 0, 0, 0)
        return PipelineRun(Schedule(start, 1, ()), stats, None, None, (), ())

    if tree is None:
        q = recovery_prefix(graph.n, k, delta)
        if 2 * q > graph.lifetime:
            raise InsufficientSnapshots(0, graph.lifetime, 2 * q, graph.lifetime)
        tree, _ = find_good_tree(graph, k, q)
        effective_k = 2 * k
    else:
        effective_k = k

    rho = rho_for(effective_k)
    budget = step_budget(graph.n, effective_k)
    tour = build_dfs_tour(tree)
    plan = EpochPlan((), rho, effective_k, _lay_out_epochs(graph, tree, effective_k, delta, rho, budget))
    traces: list[RoundaboutTrace] = []
    rng = SplitMix64(strategy.seed)
    schedule, choice, cover = assemble_schedule(
        graph, tour, plan, traces, lambda j, trace: _draw(rng, trace.final.agents), start
    )
    attempts = 1
    if cover is None:
        # The epochs ran attempt 1's draws and did not cover the tour; the
        # search draws attempt 1 again, rejects it and goes on.
        covering, attempts = find_covering_tuple(traces, tour.n_positions, strategy)
        schedule, choice, cover = assemble_schedule(
            graph, tour, plan, traces, lambda j, trace: covering[j], start
        )
        # the replay can cover before epoch rho: keep the epochs it replayed
        plan = EpochPlan(plan.epochs[: len(choice)], rho, effective_k)
        del traces[len(choice):]
    stats = ExploreStats(
        rho,
        budget,
        tuple(len(t.final.agents) for t in traces),
        attempts,
        schedule.span,
        schedule.length,
        paper_budget(graph.n, effective_k, delta),
        cover,
    )
    return PipelineRun(schedule, stats, tree, plan, tuple(traces), tuple(choice))


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
