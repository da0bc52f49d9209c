"""DFS tours of spanning trees and circular arcs of tour positions as bitmasks.

Tour positions are 1-indexed: the tour visits v_1 .. v_N cyclically with
v_{N+1} = v_1 = root and N = 2(n-1). Tour edge e_i joins v_i and v_{i+1}.
An arc (a set of cyclically consecutive positions) is an int whose bit i-1
is set iff position i belongs to it, so union, intersection and "covers" are
single integer operations.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import Edge, SpanningTree, canonical_edge


def arc_mask(start: int, length: int, n: int) -> int:
    """Bitmask of the `length` positions from `start` forward (1-indexed, cyclic).

    A length of n or more is the whole cycle.
    """
    full = (1 << n) - 1
    if length >= n:
        return full
    run = (1 << length) - 1
    p = start - 1
    return ((run << p) | (run >> (n - p))) & full


@dataclass(frozen=True)
class DfsTour:
    """Cyclic DFS tour of a spanning tree from root 0, children in ascending
    vertex id; each tree edge is crossed exactly twice.

    Read off the tree's preorder: go down to each vertex in turn, after
    climbing parents from the previous one up to its parent; at the end,
    climb back to the root. ``vertices[i-1]`` is v_i and ``edges[i-1]`` is
    e_i; both follow from the tree, so neither takes part in equality.
    """

    tree: SpanningTree
    vertices: tuple[int, ...] = field(init=False, repr=False, compare=False)
    edges: tuple[Edge, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.tree.n < 2:
            raise ValueError("no tour exists for a single-vertex tree")
        parent = self.tree.parent
        seq = [0]
        for v in self.tree.preorder[1:]:
            while seq[-1] != parent[v]:
                seq.append(parent[seq[-1]])
            seq.append(v)
        while seq[-1] != 0:
            seq.append(parent[seq[-1]])
        object.__setattr__(self, "vertices", tuple(seq[:-1]))
        object.__setattr__(self, "edges", tuple(map(canonical_edge, seq, seq[1:])))

    @property
    def n_positions(self) -> int:
        return len(self.vertices)

    def vertex(self, i: int) -> int:
        """Vertex at tour position i (1-indexed)."""
        return self.vertices[i - 1]

    def tour_edge(self, i: int) -> Edge:
        """Edge e_i = {v_i, v_{i+1}} (1-indexed, cyclic)."""
        return self.edges[i - 1]


def build_dfs_tour(tree: SpanningTree) -> DfsTour:
    """The tree's DFS tour from root 0, children in ascending vertex id."""
    return DfsTour(tree)
