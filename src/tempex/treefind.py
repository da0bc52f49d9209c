"""Recover a usable spanning tree from edge-absence statistics.

Weight an edge by how many of the first 2q snapshots it is missing from and
take a minimum-weight spanning tree: if some spanning tree keeps every
snapshot k-deficient, then at least q of those 2q snapshots are 2k-deficient
with respect to the recovered tree. The prefix is counted a chunk of steps
at a time, and the counting stops as soon as the steps left unread can no
longer change which tree that is (see find_good_tree).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Optional

from . import core
from .core import Edge, SpanningTree, TemporalGraph, _spans, _union


class DisconnectedGraph(Exception):
    """The underlying graph has no spanning tree."""


@dataclass(frozen=True)
class EdgeWeights:
    """Absence count over a timeline prefix, per underlying edge."""

    weights: dict[Edge, int]


@dataclass(frozen=True)
class TreeStats:
    """Per-snapshot deficiency of the recovered tree over the scanned prefix."""

    q: int
    threshold: int
    deficiencies: tuple[int, ...]

    @property
    def total_weight(self) -> int:
        """The tree's absence weight over the prefix: by double counting, the deficiencies' sum."""
        return sum(self.deficiencies)

    @property
    def good_count(self) -> int:
        return sum(1 for d in self.deficiencies if d <= self.threshold)


def absence_weights(graph: TemporalGraph, prefix_length: int) -> EdgeWeights:
    """w(e) = number of snapshots among the first `prefix_length` missing e."""
    return EdgeWeights(graph.absences(prefix_length))


def minimum_weight_spanning_tree(n: int, weights: dict[Edge, int]) -> SpanningTree:
    """Kruskal with deterministic tie-breaking: sort by (weight, u, v)."""
    leader = list(range(n))
    joins = (e for e in sorted(weights, key=lambda e: (weights[e], e)) if _union(leader, *e))
    chosen = list(islice(joins, n - 1))
    if len(chosen) != n - 1:
        raise DisconnectedGraph("underlying graph is disconnected")
    return SpanningTree(n, frozenset(chosen))


def _check_prefix(graph: TemporalGraph, q: int) -> None:
    if 2 * q > graph.lifetime:
        raise ValueError(f"prefix 2q={2 * q} exceeds lifetime {graph.lifetime}")
    if q < 1:
        raise ValueError("q must be positive")


def find_good_tree(graph: TemporalGraph, q: int) -> SpanningTree:
    """Minimum-absence-weight spanning tree over the first 2q snapshots.

    Whenever the input really is k-edge-deficient, at least q of those
    snapshots are at most 2k-deficient with respect to it. tree_stats
    counts them; a run needs only the tree and does not call it.

    Steps are read in order, and reading stops as soon as the tree is
    certified. After p steps an edge's weight lies in [a, a + 2q - p],
    where a is the count of the steps read that lack it, which is p for an
    edge none has. So when the n-1 lightest edges so far form a tree T and
    the heaviest of them, plus 2q - p, is below p and below every other
    edge's count, every edge of T precedes every other edge in the final
    (weight, edge) order: T is Kruskal's tree, and no later step is read.
    Checks fall where a lazily read graph's chunks end (see
    :func:`_next_check`); none can pass at p <= q.

    Uncertified, the whole prefix is counted, and Kruskal takes every edge
    some prefix snapshot has (weight < 2q) before any edge none has, so when
    the former connect the graph the tree is theirs, and no step after the
    prefix is read. Only otherwise is every step read, for the underlying
    edges absent from the whole prefix. The tree is the same either way.
    """
    _check_prefix(graph, q)
    n, prefix = graph.n, 2 * q
    count = graph.absence_counter()
    p = _next_check(q, 1)
    while p < prefix:
        weights = count(p)
        tree, shortfall = _certify(n, weights, p, prefix - p)
        if tree is not None:
            return tree
        p = _next_check(p, (min(shortfall, prefix - p) + 2) // 2)
    weights = count(prefix)
    try:
        return minimum_weight_spanning_tree(n, {e: w for e, w in weights.items() if w < prefix})
    except DisconnectedGraph:
        weights.update(dict.fromkeys(graph.underlying().difference(weights), prefix))
        return minimum_weight_spanning_tree(n, weights)


def _next_check(p: int, skip: int) -> int:
    """The first multiple of `READ_CHUNK` at least `skip` steps after p: a
    lazily read graph has read through it anyway."""
    return -(-(p + skip) // core.READ_CHUNK) * core.READ_CHUNK


def _certify(n: int, weights: dict[Edge, int], p: int, slack: int) -> tuple[Optional[SpanningTree], int]:
    """Whether the counts `weights` of the first p steps fix Kruskal's tree
    while `slack` steps of the prefix are unread: (that tree, 0), or (None,
    D) when no check can pass before ceil((min(D, slack) + 1) / 2) more
    steps are read.

    The gap of the n-1 lightest edges is the lightest other edge's count,
    or p when there is none, minus their heaviest count, minus the slack;
    they are certified when it is at least 1 and they form a tree, and D is
    minus the gap. Each step read lowers the slack by 1 and raises each
    count by at most 1, so no set's gap grows by more than 2 a step; and
    any other set of n-1 edges leaves out an edge no heavier than one it
    holds, so its gap is at most -slack.
    """
    values = sorted(weights.values())
    if len(values) < n - 1:  # every tree holds an edge no step read has
        return None, slack
    heaviest = max(values[: n - 1], default=0)  # 0 when n = 1: the tree has no edge
    shortfall = heaviest + slack - (values[n - 1] if len(values) >= n else p)
    if shortfall >= 0:
        return None, shortfall
    light = [e for e, w in weights.items() if w <= heaviest]  # the n-1 lightest
    if not _spans(n, light):
        return None, slack
    return SpanningTree(n, frozenset(light)), 0


def tree_stats(graph: TemporalGraph, tree: SpanningTree, k: int, q: int) -> TreeStats:
    """The deficiency of each of the first 2q snapshots with respect to `tree`,
    against the threshold 2k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_prefix(graph, q)
    deficiencies = tuple(map(len, graph.missing(tree.edges, range(1, 2 * q + 1))))
    return TreeStats(q, 2 * k, deficiencies)
