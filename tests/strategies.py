"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from tempex.core import SpanningTree, TemporalGraph


@st.composite
def spanning_trees(draw, min_n: int = 2, max_n: int = 8) -> SpanningTree:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = set()
    for child in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=child - 1))
        edges.add((parent, child))
    return SpanningTree(n, frozenset(edges))


@st.composite
def temporal_graphs(
    draw,
    min_n: int = 2,
    max_n: int = 7,
    min_lifetime: int = 1,
    max_lifetime: int = 8,
) -> TemporalGraph:
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    lifetime = draw(st.integers(min_value=min_lifetime, max_value=max_lifetime))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    snapshots = [
        draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        for _ in range(lifetime)
    ]
    return TemporalGraph.build(n, snapshots)


@st.composite
def near_static_snapshots(draw, max_n: int = 7, max_lifetime: int = 8):
    """(n, tree, snapshots): each snapshot one drawn edge set with some pairs
    flipped, so the snapshots differ from each other and from the first one
    by those flips.

    Half the draws put the tree inside that edge set, so that a snapshot
    lacks only the tree edges its flips remove; the other half draw it
    freely.
    """
    tree = draw(spanning_trees(max_n=max_n))
    n = tree.n
    lifetime = draw(st.integers(min_value=1, max_value=max_lifetime))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    base = frozenset(draw(st.lists(st.sampled_from(pairs), unique=True)))
    if draw(st.booleans()):
        base |= tree.edges
    snapshots = [
        base.symmetric_difference(draw(st.lists(st.sampled_from(pairs), unique=True)))
        for _ in range(lifetime)
    ]
    return n, tree, snapshots


@st.composite
def repeating_snapshots(draw, max_n: int = 6, max_lifetime: int = 10):
    """(n, snapshots): edge lists drawn from a pool of at most three, so that
    snapshots repeat; each list keeps its drawn order, and the last snapshot
    repeats an earlier one."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    pool = draw(st.lists(st.lists(st.sampled_from(pairs), unique=True), min_size=1, max_size=3))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=1, max_size=max_lifetime - 1))
    picks.append(draw(st.sampled_from(picks)))
    return n, [pool[i] for i in picks]


@st.composite
def distinct_snapshots(draw, max_n: int = 12, max_lifetime: int = 10):
    """(n, snapshots): edge lists that differ pairwise as sets, each in its
    drawn order and of a size drawn anywhere from no pair to every pair, so
    that no block repeats and block sizes vary widely from step to step."""
    n = draw(st.integers(min_value=2, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    snapshot = st.integers(0, len(pairs)).flatmap(
        lambda size: st.permutations(pairs).map(lambda drawn: drawn[:size])
    )
    return n, draw(st.lists(snapshot, min_size=1, max_size=max_lifetime, unique_by=frozenset))
