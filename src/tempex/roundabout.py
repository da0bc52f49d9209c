"""Roundabout exploration: N virtual agents advancing along a DFS tour.

Agent a_i starts at tour position i. In each step every active agent at
position q advances to q+1 (cyclically) unless tour edge e_q is one of the
tree edges the step's snapshot lacks; afterwards agents whose visited arc is
covered by the other active agents' arcs are removed. An agent's position is
its start advanced by its move count, so a state is just the active agents
and their moves. The process is deterministic, so a run is recorded as the
sequence of states it passed through, from which a single explorer replays
one agent's moves as timed ``(t, (u, v))`` moves along the tour.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from .core import Edge, Route
from .tour import DfsTour, arc_mask


@dataclass(frozen=True)
class RoundaboutState:
    """Active agents after some number of (movement, elimination) steps.

    ``agents`` (start positions, ascending) and ``moves`` (steps advanced so
    far) are parallel. Inactive agents are dropped entirely: nothing
    downstream needs them. The step count is the state's index in its
    ``RoundaboutTrace.history``.
    """

    n_positions: int
    agents: tuple[int, ...]
    moves: tuple[int, ...]

    @classmethod
    def initial(cls, n_positions: int) -> "RoundaboutState":
        return cls(n_positions, tuple(range(1, n_positions + 1)), (0,) * n_positions)

    @property
    def states(self) -> tuple[int, ...]:
        """Current tour position of each active agent."""
        n = self.n_positions
        return tuple((a - 1 + m) % n + 1 for a, m in zip(self.agents, self.moves))

    def arc_length(self, idx: int) -> int:
        return min(self.moves[idx] + 1, self.n_positions)

    def arc_masks(self) -> list[int]:
        """Visited arc of each active agent (from its start forward over its
        moves), as a bitmask over tour positions."""
        n = self.n_positions
        return [arc_mask(a, m + 1, n) for a, m in zip(self.agents, self.moves)]


def movement_step(state: RoundaboutState, blocked: Collection[Edge], tour: DfsTour) -> RoundaboutState:
    """Advance every active agent whose next tour edge is not in `blocked`."""
    n = state.n_positions
    moves = list(state.moves)
    for i, (a, m) in enumerate(zip(state.agents, state.moves)):
        if tour.edges[(a - 1 + m) % n] not in blocked:
            moves[i] = m + 1
    return RoundaboutState(n, state.agents, tuple(moves))


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
        tuple(state.agents[i] for i in keep),
        tuple(state.moves[i] for i in keep),
    )


@dataclass(frozen=True)
class RoundaboutTrace:
    """A run, as the states it passed through.

    Step i used snapshot ``times[i - 1]``; ``history[0]`` is the initial state
    and ``history[i]`` the state after step i's movement and elimination.
    """

    times: tuple[int, ...]
    history: tuple[RoundaboutState, ...]

    @property
    def final(self) -> RoundaboutState:
        return self.history[-1]

    def moves_of(self, agent: int, tour: DfsTour) -> Route:
        """Moves of an agent active through the whole run: at each step where
        its move count m grew, it crossed tour edge e_p from v_p to v_{p+1},
        where p is its start advanced by m."""
        vs, n = tour.vertices, tour.n_positions
        counts = [state.moves[state.agents.index(agent)] for state in self.history]
        return tuple(
            (t, (vs[(agent - 1 + m) % n], vs[(agent + m) % n]))
            for t, m, after in zip(self.times, counts, counts[1:])
            if after > m
        )

    def format_lines(self) -> list[str]:
        lines = []
        for i, (t, state) in enumerate(zip(self.times, self.history[1:]), start=1):
            states = ",".join(str(s) for s in state.states)
            lines.append(f"{i} {t} |A|={len(state.agents)} states={states}")
        return lines


def run_roundabout(tour: DfsTour, times: Sequence[int], lacked: Iterable[Collection[Edge]]) -> RoundaboutTrace:
    """Run one step per snapshot time, in order: the step at ``times[i]``
    blocks ``lacked[i]``, the tree edges its snapshot lacks.

    Callers pass only snapshots that are k-deficient with respect to the
    tour's tree. The paper's per-step properties and its 6k survivor bound
    are asserted on the recorded trace by ``tests/reference.checked_roundabout``.
    """
    times = tuple(times)
    state = RoundaboutState.initial(tour.n_positions)
    history = [state]
    for _, blocked in zip(times, lacked, strict=True):
        state = eliminate_redundant(movement_step(state, blocked, tour))
        history.append(state)
    return RoundaboutTrace(times, tuple(history))
