"""Hypothesis strategies shared across the test modules."""

from __future__ import annotations

from hypothesis import strategies as st

from reference import snapshot_is_connected
from tempex.core import SpanningTree, TemporalGraph, parse_temporal_graph, serialize_temporal_graph


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


def _other_pairs(tree: SpanningTree) -> list:
    return [(u, v) for u in range(tree.n) for v in range(u + 1, tree.n) if (u, v) not in tree.edges]


@st.composite
def _tree_variant(draw, tree: SpanningTree, connected: bool) -> frozenset:
    """The tree minus some of its edges plus some other pairs: connected, by
    putting removed tree edges back in drawn order until it is, or not, by
    cutting every edge at one drawn vertex."""
    n = tree.n
    others = _other_pairs(tree)
    cut = draw(st.lists(st.sampled_from(sorted(tree.edges)), unique=True))
    edges = set(tree.edges.difference(cut))
    if others:
        edges.update(draw(st.lists(st.sampled_from(others), unique=True)))
    if connected:
        for e in cut:
            if snapshot_is_connected(n, edges):
                break
            edges.add(e)
    else:
        lone = draw(st.integers(0, n - 1))
        edges = {e for e in edges if lone not in e}
    return frozenset(edges)


@st.composite
def mixed_window_graphs(draw, max_n: int = 5, max_runs: int = 3) -> TemporalGraph:
    """Graphs whose timeline alternates runs of n-1 to n+1 connected
    snapshots with stretches of 1 to 3 disconnected ones, each snapshot the
    tree with some edges cut and other pairs added, so that some delta-windows
    hold a whole connected run and others do not.

    The graph's base is drawn to be the tree, in one of two ways (made on
    the tree itself, or parsed from a text whose first snapshot is the
    tree), or not: parsed or built from snapshots whose first adds other
    pairs to the tree or is disconnected.
    """
    tree = draw(spanning_trees(max_n=max_n))
    n = tree.n
    connected = draw(st.booleans())
    snapshots = []
    for _ in range(draw(st.integers(1, 2 * max_runs))):
        length = draw(st.integers(n - 1, n + 1) if connected else st.integers(1, 3))
        snapshots += [draw(_tree_variant(tree, connected)) for _ in range(length)]
        connected = not connected
    base = draw(st.sampled_from(["tree", "tree text", "other text", "other"]))
    if base == "tree":
        lacking = tree.edges.difference(*snapshots)  # every base edge must be in some snapshot
        snapshots[-1] |= lacking
        return TemporalGraph(
            n,
            tree.edges,
            tuple(tuple(sorted(tree.edges - s)) for s in snapshots),
            tuple(tuple(sorted(s - tree.edges)) for s in snapshots),
        )
    others = _other_pairs(tree)
    if base == "tree text":
        first = tree.edges
    elif others and draw(st.booleans()):
        first = tree.edges.union(draw(st.lists(st.sampled_from(others), min_size=1, unique=True)))
    else:
        first = draw(_tree_variant(tree, False))
    graph = TemporalGraph.build(n, [first, *snapshots])
    return graph if base == "other" else parse_temporal_graph(serialize_temporal_graph(graph))
