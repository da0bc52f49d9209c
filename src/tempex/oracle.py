"""Brute-force reference computations for desk-scale validation.

These are deliberately written as independent code paths: an explicit
time-expanded graph for earliest arrivals, and an exhaustive (vertex,
visited-set, time) search for optimal exploration length. Their only virtue
is being obviously correct.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional

from .core import Edge, TemporalGraph, canonical_edge

DEFAULT_VERTEX_CAP = 15
DEFAULT_LIFETIME_CAP = 64


@dataclass(frozen=True)
class OracleResult:
    """Minimal exploration walk length, with the completion time as a tiebreak."""

    feasible: bool
    length: Optional[int]
    completion_time: Optional[int]


def optimal_exploration_time(
    graph: TemporalGraph,
    start: int,
    cap: int = DEFAULT_VERTEX_CAP,
    lifetime_cap: int = DEFAULT_LIFETIME_CAP,
) -> OracleResult:
    """Exact minimum number of edge traversals to visit every vertex.

    Waiting costs a time step but no length; the walk must complete within
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
