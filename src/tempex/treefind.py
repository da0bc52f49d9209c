"""Recover a usable spanning tree from edge-absence statistics.

Weight an edge by how many of the first 2q snapshots it is missing from and
take a minimum-weight spanning tree: if some spanning tree keeps every
snapshot k-deficient, then at least q of those 2q snapshots are 2k-deficient
with respect to the recovered tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .core import Edge, SpanningTree, TemporalGraph, _union


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

    Kruskal takes every edge some prefix snapshot has (weight < 2q) before
    any edge none has, so when the former connect the graph the tree is
    theirs, and no step after the prefix is read. Only otherwise is every
    step read, for the underlying edges absent from the whole prefix.
    """
    _check_prefix(graph, q)
    weights = absence_weights(graph, 2 * q).weights
    try:
        return minimum_weight_spanning_tree(graph.n, {e: w for e, w in weights.items() if w < 2 * q})
    except DisconnectedGraph:
        weights.update(dict.fromkeys(graph.underlying().difference(weights), 2 * q))
        return minimum_weight_spanning_tree(graph.n, weights)


def tree_stats(graph: TemporalGraph, tree: SpanningTree, k: int, q: int) -> TreeStats:
    """The deficiency of each of the first 2q snapshots with respect to `tree`,
    against the threshold 2k."""
    if k < 0:
        raise ValueError("k must be non-negative")
    _check_prefix(graph, q)
    deficiencies = tuple(map(len, graph.missing(tree.edges, range(1, 2 * q + 1))))
    return TreeStats(q, 2 * k, deficiencies)
