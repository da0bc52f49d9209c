"""Recover a usable spanning tree from edge-absence statistics.

Weight an edge by how many of the first 2q snapshots it is missing from and
take a minimum-weight spanning tree: if some spanning tree keeps every
snapshot k-deficient, then at least q of those 2q snapshots are 2k-deficient
with respect to the recovered tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import Edge, SpanningTree, TemporalGraph


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
    total_weight: int

    @property
    def good_count(self) -> int:
        return sum(1 for d in self.deficiencies if d <= self.threshold)


def absence_weights(graph: TemporalGraph, prefix_length: int) -> EdgeWeights:
    """w(e) = number of snapshots among the first `prefix_length` missing e."""
    return EdgeWeights(graph.absences(prefix_length))


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def minimum_weight_spanning_tree(n: int, weights: dict[Edge, int]) -> SpanningTree:
    """Kruskal with deterministic tie-breaking: sort by (weight, u, v)."""
    uf = _UnionFind(n)
    chosen: list[Edge] = []
    for u, v in sorted(weights, key=lambda e: (weights[e], e)):
        if uf.union(u, v):
            chosen.append((u, v))
            if len(chosen) == n - 1:
                break
    if len(chosen) != n - 1:
        raise DisconnectedGraph("underlying graph is disconnected")
    return SpanningTree(n, frozenset(chosen))


def find_good_tree(graph: TemporalGraph, k: int, q: int) -> tuple[SpanningTree, TreeStats]:
    """Minimum-absence-weight spanning tree over the first 2q snapshots.

    The returned statistics report the deficiency of each scanned snapshot
    with respect to the tree; whenever the input really is k-edge-deficient,
    at least q of them are at most 2k-deficient.
    """
    if 2 * q > graph.lifetime:
        raise ValueError(f"prefix 2q={2 * q} exceeds lifetime {graph.lifetime}")
    if q < 1:
        raise ValueError("q must be positive")
    if k < 0:
        raise ValueError("k must be non-negative")
    ew = absence_weights(graph, 2 * q)
    tree = minimum_weight_spanning_tree(graph.n, ew.weights)
    deficiencies = tuple(map(len, graph.missing(tree.edges, range(1, 2 * q + 1))))
    total = sum(ew.weights[e] for e in tree.edges)
    # double counting: summing missing tree edges per snapshot equals summing
    # per-edge absence counts over the tree
    if sum(deficiencies) != total:
        raise AssertionError("deficiency/weight double counting failed")
    return tree, TreeStats(q, 2 * k, deficiencies, total)
