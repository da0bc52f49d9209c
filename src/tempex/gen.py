"""Seeded generators of k-edge-deficient temporal-graph instances.

Every generated instance comes with the spanning tree that witnesses its
deficiency: each snapshot is the tree minus at most k tree edges, plus
optional extra edges and (depending on the connectivity mode) bridging edges
that reconnect the snapshot without touching the deficiency count.

Randomness is splitmix64 throughout: the tree structure uses child stream 0
of the seed and snapshot t uses child stream t, so outputs are a pure
function of (spec, seed).

A generator is a `GenSpec` plus a removal rule, which picks each step's
removed tree edges; every family in `FAMILIES` draws its steps in one loop,
`_generate`, and honours every field of the spec. Each step is reduced to
its final diff against the tree (sorted removed and added tuples) as soon as
it is drawn, so generating costs about the memory of the graph it returns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Collection, Optional

from .core import Edge, SpanningTree, TemporalGraph, canonical_edge
from .rng import SplitMix64, stream
from .roundabout import RoundaboutState, eliminate_redundant, movement_step
from .tour import build_dfs_tour

TREE_SHAPES = ("path", "star", "random")
CONNECTIVITY_MODES = ("per-snapshot", "delta-only", "none")

_BRIDGE_RETRIES = 16


@dataclass(frozen=True)
class GenSpec:
    n: int
    lifetime: int
    k: int
    seed: int
    tree_shape: str = "path"
    connectivity: str = "per-snapshot"
    delta: Optional[int] = None
    extra_edge_rate: float = 0.0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.lifetime < 1:
            raise ValueError("lifetime must be at least 1")
        if not (0 <= self.k <= self.n - 1):
            raise ValueError(f"k must be in [0, {self.n - 1}]")
        if self.tree_shape not in TREE_SHAPES:
            raise ValueError(f"unknown tree shape {self.tree_shape!r}")
        if self.connectivity not in CONNECTIVITY_MODES:
            raise ValueError(f"unknown connectivity mode {self.connectivity!r}")
        if not (0.0 <= self.extra_edge_rate <= 1.0):
            raise ValueError("extra_edge_rate must be in [0, 1]")
        if self.connectivity == "delta-only":
            if self.delta is None:
                raise ValueError("delta-only connectivity needs delta")
            if self.delta < self.n - 1:
                raise ValueError("delta-only connectivity needs delta >= n-1")
        elif self.delta is not None:
            raise ValueError(f"delta applies only to delta-only connectivity, not {self.connectivity}")


@dataclass(frozen=True)
class GenResult:
    graph: TemporalGraph
    tree: SpanningTree
    fallbacks: int


def _build_tree(shape: str, n: int, rng: SplitMix64) -> SpanningTree:
    if shape == "path":
        edges = {(i, i + 1) for i in range(n - 1)}
    elif shape == "star":
        edges = {(0, i) for i in range(1, n)}
    else:
        edges = {canonical_edge(rng.below(i), i) for i in range(1, n)}
    return SpanningTree(n, frozenset(edges))


def _bridge(left: tuple[int, ...], right: tuple[int, ...], removed: set[Edge], rng: SplitMix64) -> Optional[Edge]:
    """One edge joining a vertex of `left` to one of `right` that is not in
    `removed`; None if impossible."""
    for _ in range(_BRIDGE_RETRIES):
        a = left[rng.below(len(left))]
        b = right[rng.below(len(right))]
        e = canonical_edge(a, b)
        if e not in removed:
            return e
    for a in left:
        for b in right:
            e = canonical_edge(a, b)
            if e not in removed:
                return e
    return None


def _reconnect(tree: SpanningTree, removed: set[Edge], rng: SplitMix64) -> tuple[list[Edge], int]:
    """Edges that reconnect the tree minus `removed`, and the fallback count.

    Each removed edge (u, v), in sorted order, gets one bridging edge between
    the pieces of :meth:`SpanningTree.cut` that hold u and v; when no bridge
    exists the removed edge itself is kept, which counts as a fallback.
    """
    cut = tree.cut(removed)
    added: list[Edge] = []
    fallbacks = 0
    for e in sorted(removed):
        u, v = e
        bridge = _bridge(cut.members(cut.piece(u)), cut.members(cut.piece(v)), removed, rng)
        if bridge is None:
            added.append(e)
            fallbacks += 1
        else:
            added.append(bridge)
    return added, fallbacks


def _bridged(spec: GenSpec, t: int) -> bool:
    """Whether snapshot t is reconnected after its removals.

    In delta-only mode a run of n-1 consecutive connected snapshots starts
    every delta-n+2 steps from step 1, so every window of `delta` steps holds
    one whole run, which makes the instance delta-temporally connected while
    leaving the other snapshots free to be disconnected. The rule reads only
    t, so a shorter instance is a prefix of a longer one.
    """
    if spec.connectivity == "delta-only":
        assert spec.delta is not None
        return (t - 1) % (spec.delta - spec.n + 2) < spec.n - 1
    return spec.connectivity == "per-snapshot"


# A removal rule gives a step's removed tree edges from its stream and the
# tree edges the previous snapshot lacks (None at step 1).
Removals = Callable[[SplitMix64, Optional[tuple[Edge, ...]]], Collection[Edge]]


def _random_removals(tree: SpanningTree, k: int) -> Removals:
    """A uniform count in [0, k] of distinct tree edges, chosen uniformly."""
    tree_edges = sorted(tree.edges)

    def draw(rng: SplitMix64, previous: Optional[tuple[Edge, ...]]) -> list[Edge]:
        count = rng.below(k + 1) if k else 0
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(rng.below(len(tree_edges)))
        return [tree_edges[i] for i in sorted(chosen)]
    return draw


def _lead_removals(tree: SpanningTree, k: int) -> Removals:
    """The tree edges ahead of the k active agents with the longest arcs
    (ties to the smaller start) of one roundabout run on the tree's tour,
    from step 1 over the snapshots made so far; draws nothing."""
    tour = build_dfs_tour(tree)
    state = RoundaboutState.initial(tour.n_positions)

    def block(rng: SplitMix64, previous: Optional[tuple[Edge, ...]]) -> set[Edge]:
        nonlocal state
        if previous is not None:
            state = eliminate_redundant(movement_step(state, previous, tour))
        states = state.states
        removed: set[Edge] = set()
        for i in sorted(range(len(states)), key=lambda i: (-state.arc_length(i), state.agents[i])):
            removed.add(tour.tour_edge(states[i]))
            if len(removed) == k:
                break
        return removed
    return block


def _generate(spec: GenSpec, rule: Callable[[SpanningTree, int], Removals]) -> GenResult:
    """The instance of `spec` whose step t lacks the tree edges `rule` removes,
    plus extra edges and, where `_bridged` says so, a bridge per removed edge.

    Any tree edge missing from every snapshot goes back into the last one,
    found by a running intersection of the dropped edges. Adding a tree edge
    only lowers that snapshot's deficiency, so the witness property holds
    while the tree stays a subgraph of the underlying graph.
    """
    tree = _build_tree(spec.tree_shape, spec.n, stream(spec.seed, 0))
    removals = rule(tree, spec.k)
    non_tree = [
        (u, v)
        for u in range(spec.n)
        for v in range(u + 1, spec.n)
        if (u, v) not in tree.edges
    ] if spec.extra_edge_rate > 0.0 else []
    fallbacks = 0
    lacks: list[tuple[Edge, ...]] = []  # per step, the tree edges it lacks
    has: list[tuple[Edge, ...]] = []  # per step, the non-tree edges it has
    previous: Optional[tuple[Edge, ...]] = None
    always: set[Edge] = set()  # tree edges dropped by every step so far
    for t in range(1, spec.lifetime + 1):
        rng = stream(spec.seed, t)
        removed = set(removals(rng, previous))
        present: set[Edge] = set()  # extra, bridging and kept edges
        i = rng.gap(spec.extra_edge_rate) if non_tree else 0
        while i < len(non_tree):  # each pair is an extra edge with chance extra_edge_rate
            present.add(non_tree[i])
            i += 1 + rng.gap(spec.extra_edge_rate)
        if removed and _bridged(spec, t):
            added, kept = _reconnect(tree, removed, rng)
            present.update(added)
            fallbacks += kept
        dropped = removed - present
        always = dropped if t == 1 else always & dropped
        previous = tuple(sorted(dropped))
        lacks.append(previous)
        has.append(tuple(sorted(present - tree.edges)))
    if always:
        lacks[-1] = tuple(e for e in lacks[-1] if e not in always)
    return GenResult(TemporalGraph(spec.n, tree.edges, tuple(lacks), tuple(has)), tree, fallbacks)


def gen_random_deficient(spec: GenSpec) -> GenResult:
    """Random instance whose every snapshot is k-deficient w.r.t. the witness tree."""
    return _generate(spec, _random_removals)


def gen_blocking_front(spec: GenSpec) -> GenResult:
    """Adversarial instance that blocks the leads of one roundabout run.

    It is the instance of `spec` whose rule removes the tree edges ahead of
    the k most advanced agents of one roundabout run on the tree's tour, from
    step 1 over the snapshots made so far; with k = 0 the random rule
    removes nothing, and no tour is built. Each removed edge that
    `spec.connectivity` bridges at that step gets a bridging edge; when none
    exists, the edge is kept instead (counted in ``fallbacks``) and that lead
    is not blocked at that step. So over that run's step budget, the steps
    with every lead blocked number at least the budget minus the fallbacks:
    on a path, n=8, k=2, seed 0 blocks both leads in 2 of 3 steps, with 1
    fallback. That run never restarts, while the pipeline starts a fresh one
    in each epoch, after a delta-step window, whose leads are seldom blocked.
    """
    return _generate(spec, _lead_removals if spec.k else _random_removals)


# The generator families, by their `tempex gen --family` name.
FAMILIES: dict[str, Callable[[GenSpec], GenResult]] = {
    "random": gen_random_deficient,
    "blocking-front": gen_blocking_front,
}
