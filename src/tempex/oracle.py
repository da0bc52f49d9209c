"""Brute-force reference computation for desk-scale validation.

An exhaustive (vertex, visited-set) search for the fewest moves that visit
every vertex, written as an independent code path whose only virtue is
being obviously correct.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from .core import Edge, TemporalGraph, canonical_edge

DEFAULT_VERTEX_CAP = 15
DEFAULT_LIFETIME_CAP = 64


@dataclass(frozen=True)
class OracleResult:
    """The fewest moves of a walk from the start that visits every vertex
    within the lifetime (`length`), and the earliest step by which a walk of
    that many moves has visited them all (`completion_time`).

    A walk with more moves can finish sooner, so `completion_time` can be
    later than the minimum exploration time: it was later on 12 of 60
    instances with n = 7, k = 1 and L = 396, for example 15 against 8.
    """

    feasible: bool
    length: Optional[int]
    completion_time: Optional[int]


def optimal_exploration_time(
    graph: TemporalGraph,
    start: int,
    cap: int = DEFAULT_VERTEX_CAP,
    lifetime_cap: int = DEFAULT_LIFETIME_CAP,
) -> OracleResult:
    """The fewest edge traversals (moves) that visit every vertex, and the
    earliest completion among the walks with that many moves; see
    :class:`OracleResult`. This is not the minimum exploration time, which a
    walk with more moves can beat.

    Waiting costs a time step but no move; the walk must complete within
    the lifetime. Search state is (vertex, visited bitmask) with the earliest
    completion time per allowed length, expanded one extra traversal per
    layer. Exceeding either cap is a hard error, never silent truncation.
    """
    if graph.n > cap:
        raise ValueError(f"n={graph.n} exceeds oracle cap {cap}")
    if graph.lifetime > lifetime_cap:
        raise ValueError(f"lifetime {graph.lifetime} exceeds oracle cap {lifetime_cap}")
    if not (0 <= start < graph.n):
        raise ValueError(f"start {start} out of range")
    n = graph.n
    full = (1 << n) - 1
    if n == 1:
        return OracleResult(True, 0, 0)

    presence: dict[Edge, list[int]] = {}
    for t, snap in enumerate(graph.snapshots, start=1):
        for e in snap:
            presence.setdefault(e, []).append(t)
    adjacency: dict[int, list[int]] = {v: [] for v in range(n)}
    for u, v in presence:
        adjacency[u].append(v)
        adjacency[v].append(u)

    best: dict[tuple[int, int], int] = {(start, 1 << start): 0}
    frontier = dict(best)
    length = 0
    while frontier:
        length += 1
        new_frontier: dict[tuple[int, int], int] = {}
        for (v, mask), now in frontier.items():
            for u in adjacency[v]:
                times = presence[canonical_edge(u, v)]
                idx = bisect_right(times, now)
                if idx == len(times):
                    continue
                arrive = times[idx]
                key = (u, mask | (1 << u))
                if best.get(key, arrive + 1) > arrive:
                    best[key] = arrive
                    new_frontier[key] = arrive
        done = [t for (v, mask), t in best.items() if mask == full]
        if done:
            return OracleResult(True, length, min(done))
        frontier = new_frontier
    return OracleResult(False, None, None)
