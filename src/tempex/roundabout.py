"""Roundabout exploration: N virtual agents advancing along a DFS tour.

Agent a_i starts at tour position i. In each step every active agent at
position q advances to q+1 (cyclically) iff tour edge e_q is present in the
step's snapshot; afterwards agents whose visited arc is covered by the other
active agents' arcs are removed. The process is deterministic, so traces can
be replayed move for move by a single explorer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .core import Edge, TemporalGraph, deficiency_count
from .tour import DfsTour, arc_mask


class InvariantViolation(AssertionError):
    """A runtime-checkable property of the process failed."""


@dataclass(frozen=True)
class RoundaboutState:
    """Active agents after some number of (movement, elimination) steps.

    ``agents``, ``states`` and ``moves`` are parallel, sorted by agent index.
    Inactive agents are dropped entirely: nothing downstream needs them.
    """

    n_positions: int
    step: int
    agents: tuple[int, ...]
    states: tuple[int, ...]
    moves: tuple[int, ...]

    @classmethod
    def initial(cls, n_positions: int) -> "RoundaboutState":
        ids = tuple(range(1, n_positions + 1))
        return cls(n_positions, 0, ids, ids, (0,) * n_positions)

    def arc_length(self, idx: int) -> int:
        return min(self.moves[idx] + 1, self.n_positions)

    def arc_masks(self) -> list[int]:
        """Visited arc of each active agent (from its start forward over its
        moves), as a bitmask over tour positions."""
        n = self.n_positions
        return [arc_mask(a, m + 1, n) for a, m in zip(self.agents, self.moves)]


def movement_step(state: RoundaboutState, snapshot: frozenset[Edge], tour: DfsTour) -> RoundaboutState:
    """Advance every active agent whose next tour edge is present."""
    n = state.n_positions
    states = list(state.states)
    moves = list(state.moves)
    for i, q in enumerate(states):
        if tour.tour_edge(q) in snapshot:
            states[i] = q % n + 1
            moves[i] += 1
    return RoundaboutState(n, state.step + 1, state.agents, tuple(states), tuple(moves))


def eliminate_redundant(state: RoundaboutState) -> RoundaboutState:
    """Remove agents whose arc is covered by the union of the other active arcs.

    Scans agents in ascending index, removing as it goes. Removal only ever
    shrinks coverage, so an agent found non-redundant can never become
    redundant later in the pass; the sweep therefore reaches the same fixpoint
    as repeatedly removing the first redundant agent and restarting.
    """
    if len(state.agents) <= 1:
        return state
    masks = state.arc_masks()
    later = [0] * (len(masks) + 1)  # later[i]: union of the arcs of agents i, i+1, ...
    for i in range(len(masks) - 1, -1, -1):
        later[i] = later[i + 1] | masks[i]
    kept = 0
    keep: list[int] = []
    for i, mask in enumerate(masks):
        if mask & ~(kept | later[i + 1]):
            keep.append(i)
            kept |= mask
    if len(keep) == len(state.agents):
        return state
    return RoundaboutState(
        state.n_positions,
        state.step,
        tuple(state.agents[i] for i in keep),
        tuple(state.states[i] for i in keep),
        tuple(state.moves[i] for i in keep),
    )


@dataclass(frozen=True)
class StepRecord:
    """One (movement, elimination) iteration: who moved, who survived."""

    time: int
    agents: tuple[int, ...]
    moved: tuple[bool, ...]
    active_after: tuple[int, ...]
    states_after: tuple[int, ...]


@dataclass(frozen=True)
class RoundaboutTrace:
    n_positions: int
    steps: tuple[StepRecord, ...]
    final: RoundaboutState

    @property
    def initial_states(self) -> tuple[int, ...]:
        """Initial tour positions of the agents still active at the end."""
        return self.final.agents

    def moves_of(self, agent: int) -> tuple[tuple[int, bool], ...]:
        """(time, moved) pairs for an agent active through the whole run."""
        out = []
        for rec in self.steps:
            idx = rec.agents.index(agent)
            out.append((rec.time, rec.moved[idx]))
        return tuple(out)

    def format_lines(self) -> list[str]:
        lines = []
        for i, rec in enumerate(self.steps, start=1):
            states = ",".join(str(s) for s in rec.states_after)
            lines.append(f"{i} {rec.time} |A|={len(rec.active_after)} states={states}")
        return lines


def replay_trace(trace: RoundaboutTrace) -> RoundaboutState:
    """Re-derive the final state from the movement log alone."""
    n = trace.n_positions
    states = {a: a for a in range(1, n + 1)}
    moves = {a: 0 for a in range(1, n + 1)}
    active = tuple(range(1, n + 1))
    step = 0
    for rec in trace.steps:
        if rec.agents != active:
            raise InvariantViolation("log does not match the active set")
        for agent, moved in zip(rec.agents, rec.moved):
            if moved:
                states[agent] = states[agent] % n + 1
                moves[agent] += 1
        active = rec.active_after
        step += 1
    return RoundaboutState(
        n,
        step,
        active,
        tuple(states[a] for a in active),
        tuple(moves[a] for a in active),
    )


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


def run_roundabout(
    graph: TemporalGraph,
    tour: DfsTour,
    snapshot_times: Sequence[int],
    budget: int,
    k: Optional[int] = None,
    check_invariants: bool = False,
) -> RoundaboutTrace:
    """Run `budget` iterations over the first `budget` snapshot times.

    Callers are responsible for passing only snapshots that are k-deficient
    with respect to the tour's tree; with ``check_invariants`` (and k) set,
    that precondition and every per-step property are asserted.
    """
    if budget < 0:
        raise ValueError("budget must be non-negative")
    if len(snapshot_times) < budget:
        raise ValueError(f"need {budget} usable snapshots, got {len(snapshot_times)}")
    state = RoundaboutState.initial(tour.n_positions)
    records: list[StepRecord] = []
    for step in range(budget):
        t = snapshot_times[step]
        snapshot = graph.edge_set(t)
        if check_invariants and k is not None:
            if deficiency_count(snapshot, tour.tree).count > k:
                raise InvariantViolation(f"snapshot {t} is not {k}-deficient")
        before = state
        moved_state = movement_step(state, snapshot, tour)
        moved = tuple(a != b for a, b in zip(moved_state.states, before.states))
        state = eliminate_redundant(moved_state)
        records.append(
            StepRecord(t, before.agents, moved, state.agents, state.states)
        )
        if check_invariants:
            check_state_invariants(state, k)
    if check_invariants and k is not None and budget == (tour.n_positions // (2 * k)):
        if len(state.agents) > 6 * k:
            raise InvariantViolation(f"{len(state.agents)} agents survive, bound is {6 * k}")
    return RoundaboutTrace(tour.n_positions, tuple(records), state)
