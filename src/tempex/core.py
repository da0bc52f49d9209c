"""Temporal-graph data model, wire format, and basic temporal reachability.

Time steps are 1-indexed; vertices are 0-indexed. Edges are canonical
``(min, max)`` tuples. A temporal graph is stored as one base edge set plus,
per step, the few edges that step removes from it or adds to it, so a
near-static graph costs little more than its base; TG1 output writes each
snapshot in sorted order as slices of the sorted base's text, either joined
into one string or streamed to a file. A parsed graph reads its later steps
from the TG1 text as they are first asked for. Values are immutable after
construction, apart from the steps such a graph fills in, and every
operation is a pure function.
"""

from __future__ import annotations

import re
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain
from operator import and_, eq, lt
from typing import AbstractSet, Callable, Iterable, Iterator, Optional, TextIO

from .rng import SplitMix64

Edge = tuple[int, int]
Route = tuple[tuple[int, tuple[int, int]], ...]  # time-ordered (t, (u, v)) moves from u to v


class ParseError(ValueError):
    """Malformed wire-format input; carries the offending physical line number."""

    def __init__(self, message: str, line: int) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


def canonical_edge(u: int, v: int) -> Edge:
    if u == v:
        raise ValueError(f"self-loop at vertex {u}")
    return (u, v) if u < v else (v, u)


def _check_edges(n: int, edges: Iterable[Edge], what: str) -> None:
    for u, v in edges:
        if not (0 <= u < v < n):
            raise ValueError(f"{what}: bad edge ({u}, {v}) for n={n}")


@dataclass(frozen=True)
class SpanningTree:
    """Tree on all n vertices; exactly n-1 edges, connected and acyclic.

    The tree is rooted at 0 by one DFS that visits children in ascending
    vertex id: ``parent[v]`` is v's parent (-1 for the root), ``preorder``
    lists the vertices in visiting order, and v's subtree is
    ``preorder[pre[v]:end[v]]``. None of these take part in equality.
    """

    n: int
    edges: frozenset[Edge]
    parent: tuple[int, ...] = field(init=False, repr=False, compare=False)
    preorder: tuple[int, ...] = field(init=False, repr=False, compare=False)
    pre: tuple[int, ...] = field(init=False, repr=False, compare=False)
    end: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("n must be at least 1")
        _check_edges(self.n, self.edges, "spanning tree")
        if len(self.edges) != self.n - 1:
            raise ValueError(f"spanning tree needs {self.n - 1} edges, got {len(self.edges)}")
        n = self.n
        neighbours: list[list[int]] = [[] for _ in range(n)]
        for u, v in sorted(self.edges):  # so each list comes out ascending
            neighbours[u].append(v)
            neighbours[v].append(u)
        parent = [-1] * n
        pre = [0] * n
        seen = [False] * n
        seen[0] = True
        preorder: list[int] = []
        stack = [0]
        while stack:
            u = stack.pop()
            pre[u] = len(preorder)
            preorder.append(u)
            for w in reversed(neighbours[u]):  # the smallest child is popped first
                if not seen[w]:  # marked when pushed, so a cycle cannot loop
                    seen[w] = True
                    parent[w] = u
                    stack.append(w)
        if len(preorder) != n:
            raise ValueError("spanning tree is not connected")
        size = [1] * n
        for v in reversed(preorder[1:]):
            size[parent[v]] += size[v]
        object.__setattr__(self, "parent", tuple(parent))
        object.__setattr__(self, "preorder", tuple(preorder))
        object.__setattr__(self, "pre", tuple(pre))
        object.__setattr__(self, "end", tuple(p + s for p, s in zip(pre, size)))

    def cut(self, removed: Iterable[Edge]) -> TreeCut:
        """The :class:`TreeCut` of the pieces that removing the tree edges
        `removed` leaves."""
        return TreeCut(self, removed)


class TreeCut:
    """The r+1 pieces of a spanning tree minus r of its edges. Each removed
    edge cuts off the subtree below its child end, a preorder slice
    ``[firsts[i], ends[i])``, sorted by start; piece i+1 is slice i minus
    the slices nested inside it, and piece 0 is the root's."""

    __slots__ = ("_pre", "_order", "_firsts", "_ends")

    def __init__(self, tree: SpanningTree, removed: Iterable[Edge]) -> None:
        parent, pre, end, order = tree.parent, tree.pre, tree.end, tree.preorder
        self._pre, self._order = pre, order
        self._firsts = firsts = sorted([pre[u] if parent[u] == v else pre[v] for u, v in removed])
        self._ends = [end[order[p]] for p in firsts]

    def __len__(self) -> int:
        return len(self._firsts) + 1

    def piece(self, v: int) -> int:
        """The piece holding vertex v: i+1 for the latest slice that holds
        it, which is the innermost, or 0."""
        p, firsts, ends = self._pre[v], self._firsts, self._ends
        i = bisect_right(firsts, p) - 1
        while i >= 0 and ends[i] <= p:
            i -= 1
        return i + 1

    def members(self, i: int) -> tuple[int, ...]:
        """Piece i's vertices in preorder: its slice, or the whole tree for
        piece 0, minus the slices nested directly inside it."""
        firsts, ends, order = self._firsts, self._ends, self._order
        start, stop = (firsts[i - 1], ends[i - 1]) if i else (0, len(order))
        got: tuple[int, ...] = ()
        while i < len(firsts) and firsts[i] < stop:  # slice i is directly inside
            got += order[start:firsts[i]]
            start = ends[i]
            i = bisect_left(firsts, start, i + 1)  # past the slices nested in slice i
        return got + order[start:stop]


READ_CHUNK = 128  # TG1 steps parse_temporal_graph reads at once, and a lazily read graph per read


class TemporalGraph:
    """Sequence of snapshots over a fixed vertex set, stored as one base edge
    set plus, per step, the base edges it lacks and the other edges it has.

    Snapshot t (1-indexed) is ``base - removed[t-1] | added[t-1]``. Each
    ``removed[i]`` and ``added[i]`` is a strictly sorted tuple of canonical
    edges, with ``removed[i]`` inside ``base`` and ``added[i]`` outside it,
    and every base edge is in some snapshot. The base is fixed when the graph
    is made: the generator's is its tree, and :meth:`build`'s and
    :func:`parse_temporal_graph`'s is the first snapshot. Two graphs are
    equal iff their snapshot sequences are, whatever their bases. Use
    :meth:`build` to construct from arbitrary snapshot edge lists.
    Restrictions to a window are represented as (graph, window) pairs by the
    callers; snapshots are never copied.

    A graph that :func:`parse_temporal_graph` returns may hold only its first
    steps. Each later step is read from the text, `READ_CHUNK` steps at a
    time, the first time an accessor asks for it or for a later step; until
    then no line after the steps read is checked, and reading a step can
    raise the :class:`ParseError` of a malformed line, or of content after
    the last step: the steps before it stay read, and each later read raises
    it again. Reading leaves the base as it is and only adds steps, so the
    graph equals, field for field, the one that reading the whole text at
    once builds. ``removed``, ``added`` and :meth:`underlying` read every
    step first, as :meth:`read_all` does, and equality may;
    :meth:`absences` and :meth:`absence_counter` read only the prefix they
    count, and ``base`` and hashing read no further step. Reading is not
    synchronised: call :meth:`read_all` before sharing such a graph between
    threads.
    """

    __slots__ = ("n", "lifetime", "_base", "_removed", "_added", "_reader")

    def __init__(
        self,
        n: int,
        base: frozenset[Edge],
        removed: tuple[tuple[Edge, ...], ...],
        added: tuple[tuple[Edge, ...], ...],
    ) -> None:
        if n < 1:
            raise ValueError("n must be at least 1")
        if len(removed) < 1:
            raise ValueError("lifetime must be at least 1")
        if len(added) != len(removed):
            raise ValueError("removed and added need one entry per time step")
        if not isinstance(base, frozenset):
            raise ValueError(f"base must be a frozenset, got {type(base).__name__}")
        _check_edges(n, base, "base")
        for diff in chain(removed, added):
            if type(diff) is not tuple or (len(diff) > 1 and not all(map(lt, diff, diff[1:]))):
                raise ValueError("removed and added edges must be strictly sorted tuples")
        lacking = Counter(chain.from_iterable(removed))
        having = set(chain.from_iterable(added))
        if not base.issuperset(lacking):
            raise ValueError("a removed edge is not in the base")
        if not base.isdisjoint(having):
            raise ValueError("an added edge is already in the base")
        if len(removed) in lacking.values():
            raise ValueError("a base edge is in no snapshot")
        _check_edges(n, having, "snapshot")
        self.n, self.lifetime, self._reader = n, len(removed), None
        self._base, self._removed, self._added = base, tuple(removed), tuple(added)

    @classmethod
    def _reading(cls, reader: _Reader) -> "TemporalGraph":
        """The graph of the text `reader` reads: its first `READ_CHUNK` steps
        now, and the rest on demand."""
        reader.read(READ_CHUNK)
        graph = cls.__new__(cls)
        graph.n, graph.lifetime, graph._reader = reader.n, reader.lifetime, reader
        graph._base, graph._removed, graph._added = reader.base, reader.removed, reader.added
        graph._read_through(0)  # drops a reader that has already read every step
        return graph

    def _read_through(self, t: int) -> None:
        """Read the text's steps up to step t, a chunk at a time, and drop
        the reader once the last step is read; the steps read before a
        malformed line are kept, and the next read raises its error again."""
        while len(self._removed) < t:
            self._reader.read(READ_CHUNK)
        if len(self._removed) == self.lifetime:
            self._reader = None
            self._removed, self._added = tuple(self._removed), tuple(self._added)

    def read_all(self) -> None:
        """Read every step not read yet; raises the ParseError of a malformed line."""
        if self._reader is not None:
            self._read_through(self.lifetime)

    @property
    def base(self) -> frozenset[Edge]:
        return self._base

    @property
    def removed(self) -> tuple[tuple[Edge, ...], ...]:
        self.read_all()
        return self._removed

    @property
    def added(self) -> tuple[tuple[Edge, ...], ...]:
        self.read_all()
        return self._added

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TemporalGraph):
            return NotImplemented
        if (self.n, self.lifetime) != (other.n, other.lifetime):
            return False
        if self.base == other.base:  # then equal snapshots have equal diffs
            return (self.removed, self.added) == (other.removed, other.added)
        return all(map(eq, self.snapshots, other.snapshots))

    def __hash__(self) -> int:
        return hash((self.n, self.lifetime, self.edge_set(1)))

    def __repr__(self) -> str:
        read = "" if self._reader is None else f", steps read={len(self._removed)} of {self.lifetime}"
        return f"TemporalGraph(n={self.n}, base={self._base!r}, removed={self._removed!r}, added={self._added!r}{read})"

    @classmethod
    def build(cls, n: int, snapshots: Iterable[Iterable[Edge]]) -> "TemporalGraph":
        """The graph of the given edge lists, based on the first snapshot;
        holds one snapshot's edge set at a time besides the base."""
        base: Optional[frozenset[Edge]] = None
        removed: list[tuple[Edge, ...]] = []
        added: list[tuple[Edge, ...]] = []
        for snap in snapshots:
            edges = frozenset(canonical_edge(u, v) for u, v in snap)
            if base is None:
                base = edges
            removed.append(tuple(sorted(base.difference(edges))))
            added.append(tuple(sorted(edges.difference(base))))
        return cls(n, base or frozenset(), tuple(removed), tuple(added))

    def _diff(self, t: int) -> tuple[tuple[Edge, ...], tuple[Edge, ...]]:
        """Step t's (removed, added), read from the text first if need be."""
        if not (1 <= t <= self.lifetime):
            raise ValueError(f"time step {t} outside [1, {self.lifetime}]")
        if t > len(self._removed):
            self._read_through(t)
        return self._removed[t - 1], self._added[t - 1]

    def edge_set(self, t: int) -> frozenset[Edge]:
        """Edges of snapshot t (1-indexed); the base itself when t has no diff."""
        removed, added = self._diff(t)
        if not removed and not added:
            return self._base
        return self._base.difference(removed).union(added)

    def has_edge(self, t: int, e: Edge) -> bool:
        """Whether canonical edge e is present in snapshot t."""
        removed, added = self._diff(t)
        if e in self._base:
            return e not in removed
        return e in added

    @property
    def snapshots(self) -> Iterator[frozenset[Edge]]:
        """Every snapshot's edge set in time order, built one step at a time."""
        return map(self.edge_set, range(1, self.lifetime + 1))

    def missing(self, tree_edges: AbstractSet[Edge], steps: Iterable[int]) -> Iterator[tuple[Edge, ...]]:
        """Per step in `steps`, the edges of `tree_edges` its snapshot lacks, sorted.

        O(|tree_edges| + the steps' diffs): a step lacks the tree edges it
        removes from the base plus the tree edges outside the base that it
        does not add. When every edge a step removes is a tree edge and the
        base holds the whole tree, its `removed` tuple is returned as is.
        """
        tree = frozenset(tree_edges)
        outside = tree.difference(self._base)
        for t in steps:
            r, a = self._diff(t)
            lacked = r if tree.issuperset(r) else tuple(e for e in r if e in tree)
            if outside:
                lacked = tuple(sorted(chain(lacked, outside.difference(a))))
            yield lacked

    def absences(self, prefix_length: int) -> dict[Edge, int]:
        """Per base edge and per edge some of the first `prefix_length`
        snapshots have, how many of those snapshots lack it.

        O(|base| + prefix diff), and reads no later step: a base edge is
        absent where a step removes it, any other edge wherever a step does
        not add it. An edge only later snapshots have is absent from the
        whole prefix and is not counted.
        """
        if prefix_length > self.lifetime:
            raise ValueError(f"prefix {prefix_length} exceeds lifetime {self.lifetime}")
        if prefix_length < 1:
            raise ValueError("prefix must be positive")
        return self.absence_counter()(prefix_length)

    def absence_counter(self) -> Callable[[int], dict[Edge, int]]:
        """:meth:`absences` of a growing prefix, as a function of its length.

        Each call counts only the steps since the previous call, whose
        length it may not undercut, so reading a prefix in pieces costs
        O(its diff) in all, plus O(|base| + distinct added edges) per call.
        """
        removals: Counter[Edge] = Counter()
        additions: Counter[Edge] = Counter()
        counted = 0

        def count(prefix_length: int) -> dict[Edge, int]:
            nonlocal counted
            if not (counted <= prefix_length <= self.lifetime):
                raise ValueError(f"prefix {prefix_length} outside [{counted}, {self.lifetime}]")
            if prefix_length > len(self._removed):
                self._read_through(prefix_length)
            removals.update(chain.from_iterable(self._removed[counted:prefix_length]))
            additions.update(chain.from_iterable(self._added[counted:prefix_length]))
            counted = prefix_length
            counts = {e: removals[e] for e in self._base}
            counts.update((e, prefix_length - added) for e, added in additions.items())
            return counts
        return count

    def underlying(self) -> frozenset[Edge]:
        """Every edge that appears in some snapshot."""
        return self.base.union(*self.added)


# --- wire format (TG1) ------------------------------------------------------

_BREAK = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # the line breaks of str.splitlines
_LINE = re.compile(f"([^{_BREAK}]*)(?:\r\n|[{_BREAK}])?")
_COUNT = re.compile(r"(0|[1-9][0-9]*)\r?\n")  # an edge count as the writer writes it, or with \r\n


def _content_lines(text: str, pos: int = 0, lineno: int = 0) -> Iterator[tuple[int, list[str], int]]:
    """(line number, tokens, position after the line) of each line of `text`
    from `pos` on that is neither blank nor a '#' comment. Lines and their
    numbers are those of ``text.splitlines()``; `lineno` is the number of
    the line before `pos`."""
    while pos < len(text):
        line = _LINE.match(text, pos)
        pos, lineno = line.end(), lineno + 1
        stripped = line[1].strip()
        if stripped and not stripped.startswith("#"):
            yield lineno, stripped.split(), pos


def _parse_int(token: str, lineno: int, what: str) -> int:
    """An optional '-' and ASCII digits; no '+', '_', spaces or other scripts' digits."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{what}: expected integer, got {token!r}", lineno)
    return int(token)


def _parse_edge_line(parts: list[str], lineno: int, n: int, seen: set[Edge]) -> None:
    """Parse one 'u v' line into `seen`, rejecting bad and duplicate edges."""
    if len(parts) != 2:
        raise ParseError(f"expected 'u v', got {' '.join(parts)!r}", lineno)
    u = _parse_int(parts[0], lineno, "edge endpoint")
    v = _parse_int(parts[1], lineno, "edge endpoint")
    if not (0 <= u < n and 0 <= v < n):
        raise ParseError(f"vertex id out of range [0, {n}): {u} {v}", lineno)
    if u == v:
        raise ParseError(f"self-loop {u} {v}", lineno)
    e = canonical_edge(u, v)
    if e in seen:
        raise ParseError(f"duplicate edge {u} {v}", lineno)
    seen.add(e)


def parse_temporal_graph(text: str) -> TemporalGraph:
    """Parse the TG1 format: header 'n L', then per snapshot a count and edges.

    Reads the header and the first `READ_CHUNK` steps now, and each later
    step when the graph is first asked for it (see :class:`TemporalGraph`);
    a text of at most `READ_CHUNK` steps is read whole. Any text is read step
    by step, so comments, blank lines and other line breaks cost only the
    steps they are in. Each ParseError is raised where its line is read, and
    the graph is based on its first snapshot, as :meth:`TemporalGraph.build`
    bases it: the graph and the errors are those of reading the whole text at
    once.
    """
    return TemporalGraph._reading(_Reader(text))


def _regular_pair(line: str) -> Optional[tuple[int, int]]:
    """(a, b) if the line is exactly 'a b' with decimal a, b written canonically."""
    a, _, b = line.partition(" ")
    try:
        pair = (int(a), int(b))
    except ValueError:
        return None
    return pair if line == f"{pair[0]} {pair[1]}" else None


def _block_end(text: str, start: int, m: int, guess: int) -> Optional[int]:
    """Position just past the m-th newline at or after `start`, or None if the
    text has fewer. `guess` is a likely answer: one count up to it and a few
    index/rindex steps correct it, without splitting the text into lines."""
    end = min(guess, len(text))
    seen = text.count("\n", start, end)
    if seen < m:
        try:
            for _ in range(m - seen):
                end = text.index("\n", end) + 1
        except ValueError:
            return None
        return end
    if m == 0:
        return start
    for _ in range(seen - m + 1):  # back over extra lines and any partial one
        end = text.rindex("\n", start, end)
    return end + 1


class _Reader:
    """Reads a TG1 text's steps in order, a given number at a time, from the
    position and physical line number where the last read stopped.

    A step whose block (its count line and edge lines) is in the form the
    writer writes, with edges in any order and LF or CRLF line ends, is
    read without splitting the text, from a memo of the blocks read so far
    with their line counts. A step with the previous step's count is first
    looked up by the slice of the previous block's length, and a hit is the
    step only if its line count is the step's: a block that repeats one as
    long as the previous block costs one slice, one hash and one dict
    lookup. On a miss the block's end is found by counting newlines, each
    distinct block is split, validated and diffed against the first
    snapshot once, and each distinct edge line is validated once. The first
    step, and any step with a comment, a blank line, another line break or
    whitespace, a non-canonical number or edge, or an error, is read line
    by line as ``str.splitlines`` numbers the lines. `removed` and `added`
    grow by each step as soon as it is read, as diffs against `base`, the
    first snapshot's edges.
    """

    def __init__(self, text: str) -> None:
        lines = _content_lines(text)
        try:
            lineno, parts, pos = next(lines)
        except StopIteration:
            raise ParseError("malformed header: empty input", 1) from None
        if len(parts) != 2:
            raise ParseError(f"malformed header: expected 'n L', got {' '.join(parts)!r}", lineno)
        n = _parse_int(parts[0], lineno, "header n")
        lifetime = _parse_int(parts[1], lineno, "header L")
        if n < 1 or lifetime < 1:
            raise ParseError(f"malformed header: need n >= 1 and L >= 1, got n={n} L={lifetime}", lineno)
        self.text, self.n, self.lifetime = text, n, lifetime
        self.pos, self.line = pos, lineno  # where the next step starts, and the number of the line before it
        self.edge_of: dict[str, Edge] = {}
        self.first: frozenset[str] = frozenset()  # the first snapshot's edges as the writer writes them
        self.base: frozenset[Edge] = frozenset()
        self.diff_of: dict[str, tuple[tuple[Edge, ...], tuple[Edge, ...], int]] = {}  # block -> (removed, added, m)
        self.removed: list[tuple[Edge, ...]] = []
        self.added: list[tuple[Edge, ...]] = []
        self.size, self.prev_m = 0, 0  # the previous block's length and line count

    def read(self, steps: int) -> None:
        """Read up to `steps` more steps; raises the ParseError of the first
        malformed line, or of content after the last step, keeping the steps
        before it, so that the next read raises it again."""
        stop = min(len(self.removed) + steps, self.lifetime)
        while len(self.removed) < stop:
            if self.removed:
                self._blocks(stop)
            if len(self.removed) < stop:
                self._lines()

    def _blocks(self, stop: int) -> None:
        """Read the steps up to step `stop` while their blocks are in the
        writer's form; the last step only when nothing follows it."""
        text, diff_of, removed, added = self.text, self.diff_of, self.removed, self.added
        pos, lineno, size, prev_m = self.pos, self.line, self.size, self.prev_m
        for t in range(len(removed), stop):
            count = _COUNT.match(text, pos)
            if count is None:
                break
            m, start = int(count[1]), count.end()
            # A step with the previous step's count most often repeats a block
            # of the previous block's length; a remembered block is the step
            # only if it has the step's m lines.
            end = min(start + size, len(text))
            entry = diff_of.get(text[start:end]) if m == prev_m else None
            if entry is None or entry[2] != m:
                # Guess m lines at the previous block's mean line length: exact
                # when a block repeats, close when only the count changes.
                end = _block_end(text, start, m, start + size * m // max(prev_m, 1))
                if end is None:
                    break
                block = text[start:end]
                entry = diff_of.get(block) or self._diff(block, m)
                if entry is None:
                    break
            if t + 1 == self.lifetime and end != len(text):
                break
            removed.append(entry[0])
            added.append(entry[1])
            pos, lineno, size, prev_m = end, lineno + m + 1, end - start, m
        self.pos, self.line, self.size, self.prev_m = pos, lineno, size, prev_m

    def _diff(self, block: str, m: int) -> Optional[tuple[tuple[Edge, ...], tuple[Edge, ...], int]]:
        """The (removed, added, m) of a block of m lines read for the first
        time, or None if it is not in the writer's form."""
        lines = block.splitlines()
        lineset = frozenset(lines)
        if len(lines) != m or len(lineset) != m:  # another line break, or a repeated line
            return None
        edge_of, first, n = self.edge_of, self.first, self.n
        new = lineset.difference(first)
        for line in new:  # every line not yet validated
            if line not in edge_of:
                pair = _regular_pair(line)
                if pair is None or not (0 <= pair[0] < pair[1] < n):
                    return None
                edge_of[line] = pair
        entry = self.diff_of[block] = (
            tuple(sorted(map(edge_of.__getitem__, first.difference(lineset)))),
            tuple(sorted(map(edge_of.__getitem__, new))),
            m,
        )
        return entry

    def _lines(self) -> None:
        """Read the next step line by line; the first step read fixes the base."""
        lines = _content_lines(self.text, self.pos, self.line)
        try:
            lineno, parts, pos = next(lines)
        except StopIteration:
            raise ParseError("unexpected end of input: missing snapshot edge count", self.line + 1) from None
        if len(parts) != 1:
            raise ParseError(f"expected edge count, got {' '.join(parts)!r}", lineno)
        m = _parse_int(parts[0], lineno, "edge count")
        if m < 0:
            raise ParseError(f"negative edge count {m}", lineno)
        edges: set[Edge] = set()
        for _, (lineno, parts, pos) in zip(range(m), lines):
            _parse_edge_line(parts, lineno, self.n, edges)
        if len(edges) < m:
            raise ParseError("unexpected end of input: missing edge line", lineno + 1)
        if len(self.removed) + 1 == self.lifetime:
            for trailing, parts, _ in lines:
                raise ParseError(f"unexpected trailing content {' '.join(parts)!r}", trailing)
        if not self.removed:
            self.base = frozenset(edges)
            self.edge_of = {f"{u} {v}": (u, v) for u, v in edges}
            self.first = frozenset(self.edge_of)
        self.removed.append(tuple(sorted(self.base.difference(edges))))
        self.added.append(tuple(sorted(edges.difference(self.base))))
        self.pos, self.line = pos, lineno


def serialize_temporal_graph(graph: TemporalGraph) -> str:
    """TG1 text; each snapshot's edges are written in sorted order."""
    (pieces,) = _tg1_chunks(graph, graph.lifetime)
    return "".join(pieces)


def write_temporal_graph(graph: TemporalGraph, file: TextIO) -> None:
    """Write the TG1 text of `graph` to the open text file `file`.

    Writes the pieces that :func:`serialize_temporal_graph` joins, so the
    file holds exactly that text, but never the whole text in memory: beyond
    the base's text and index, writing holds the text of 64 steps at a time.
    """
    for pieces in _tg1_chunks(graph, 64):
        file.write("".join(pieces))


def _tg1_chunks(graph: TemporalGraph, chunk_steps: int) -> Iterator[list[str]]:
    """The TG1 text of `graph` in order, as lists of pieces that join into
    it: the header and the first `chunk_steps` steps, then each next
    `chunk_steps` steps.

    The sorted base is rendered once as one text. A step without a diff
    repeats that block; any other step is the slices of the base text between
    its removed lines, with each added line spliced in where it sorts, so a
    step costs O(diff) index work plus the copying.
    """
    base = sorted(graph.base)
    lines = [f"{u} {v}\n" for u, v in base]
    body = "".join(lines)
    offset = list(accumulate(map(len, lines), initial=0))  # where each base line starts in body
    index = {e: i for i, e in enumerate(base)}
    size = len(base)
    whole = f"{size}\n{body}"
    out = [f"{graph.n} {graph.lifetime}\n"]
    for first in range(0, graph.lifetime, chunk_steps):
        last = first + chunk_steps
        for removed, added in zip(graph.removed[first:last], graph.added[first:last]):
            if not removed and not added:
                out.append(whole)
                continue
            out.append(f"{size - len(removed) + len(added)}\n")
            start = 0  # the first base line not yet written or skipped
            gone = map(index.__getitem__, removed)
            i = next(gone, size)  # the next removed base line; size once none is left
            for e in added:
                j = bisect_left(base, e)  # an added line goes before a removed line at its position
                while i < j:
                    out.append(body[offset[start]:offset[i]])
                    start, i = i + 1, next(gone, size)
                out.append(body[offset[start]:offset[j]])
                out.append(f"{e[0]} {e[1]}\n")
                start = j
            while i < size:
                out.append(body[offset[start]:offset[i]])
                start, i = i + 1, next(gone, size)
            out.append(body[offset[start]:])
        yield out
        out = []


def parse_spanning_tree(text: str, n: int) -> SpanningTree:
    """Parse a tree file: n-1 lines 'u v' (comments allowed)."""
    seen: set[Edge] = set()
    for lineno, parts, _ in _content_lines(text):
        _parse_edge_line(parts, lineno, n, seen)
    return SpanningTree(n, frozenset(seen))


def serialize_spanning_tree(tree: SpanningTree) -> str:
    lines = [f"{u} {v}" for u, v in sorted(tree.edges)]
    return "\n".join(lines) + ("\n" if lines else "")


# --- deficiency -------------------------------------------------------------

def deficiency_count(snapshot: AbstractSet[Edge], tree: SpanningTree) -> int:
    """Tree edges absent from the snapshot; the snapshot is k-deficient iff this is <= k.

    The set-difference reference for ``len`` of :meth:`TemporalGraph.missing`.
    """
    return len(tree.edges.difference(snapshot))


# --- foremost walks ---------------------------------------------------------

@dataclass(frozen=True)
class ForemostResult:
    """Earliest arrival per vertex within a window, with witness predecessors.

    The source's arrival is window_start - 1 ("already there before the
    window moves"); unreachable vertices carry None. A reached vertex v other
    than the source was entered from ``parent[v]`` at step ``arrival[v]``.
    """

    arrival: tuple[Optional[int], ...]
    parent: tuple[Optional[int], ...] = field(repr=False)

    def walk_to(self, v: int) -> Optional[Route]:
        """Moves of a foremost walk from the source to v; None when v is
        unreachable, () when v is the source."""
        if self.arrival[v] is None:
            return None
        moves: list[tuple[int, tuple[int, int]]] = []
        while (u := self.parent[v]) is not None:
            moves.append((self.arrival[v], (u, v)))  # type: ignore[arg-type]
            v = u
        return tuple(reversed(moves))


def foremost_walk(graph: TemporalGraph, window: tuple[int, int], source: int) -> ForemostResult:
    """Earliest-arrival sweep over the window, one edge per time step.

    Snapshots are processed in increasing time; a vertex reached strictly
    before step t can cross any edge present in snapshot t. Ties between
    relaxing neighbours are broken toward the smaller vertex id so witness
    walks are deterministic. The sweep stops once every vertex is reached,
    which is exact because only unreached vertices are ever updated.
    """
    t0, t1 = window
    if not (1 <= t0 <= t1 <= graph.lifetime):
        raise ValueError(f"window [{t0}, {t1}] outside lifetime {graph.lifetime}")
    if not (0 <= source < graph.n):
        raise ValueError(f"source {source} out of range")
    arrival: list[Optional[int]] = [None] * graph.n
    parent: list[Optional[int]] = [None] * graph.n
    arrival[source] = t0 - 1
    unreached = graph.n - 1
    for t in range(t0, t1 + 1):
        if not unreached:
            break
        snap = graph.edge_set(t)
        updates: dict[int, int] = {}
        for u, v in snap:
            au, av = arrival[u], arrival[v]
            if au is not None and au < t and av is None:
                best = updates.get(v)
                if best is None or u < best:
                    updates[v] = u
            if av is not None and av < t and au is None:
                best = updates.get(u)
                if best is None or v < best:
                    updates[u] = v
        for v, u in updates.items():
            arrival[v] = t
            parent[v] = u
        unreached -= len(updates)
    return ForemostResult(tuple(arrival), tuple(parent))


# --- windowed connectivity --------------------------------------------------

@dataclass(frozen=True)
class ConnectivityReport:
    ok: bool
    witness: Optional[tuple[int, tuple[int, int]]]
    windows_checked: int
    mode: str


def verify_delta_connectivity(
    graph: TemporalGraph,
    delta: int,
    mode: str = "exhaustive",
    samples: int = 32,
    seed: int = 0,
) -> ConnectivityReport:
    """Check that every length-delta window is temporally connected.

    A window that holds n-1 consecutive connected snapshots is certified
    without a sweep: in a connected snapshot every source that has not yet
    reached everyone reaches at least one more vertex, so n-1 of them reach
    all n. One forward scan marks each step it reads as connected or not
    (see :func:`_step_connectivity`) and certifies each chosen window as soon
    as it has seen such a run inside it; it reads each step at most once,
    keeps O(n) state for the tree, and in sampled mode reads only steps
    inside the chosen windows. No window can be certified when n-1 > delta,
    and then no step is marked.

    The windows left share one forward sweep (:func:`_first_violation`),
    which costs O(sum over those windows of c_w * (|E_t| + n) * n / word)
    word operations, where c_w <= delta is the number of steps window w
    stays open, and O(delta * n^2) bits of memory, since up to delta windows
    are open at once. So a timeline whose every window holds such a run is
    checked in L step marks and O(n) memory, and one with no such run costs
    what the sweep alone costs.

    Exhaustive mode checks all L-delta+1 windows; sampled mode a seeded
    subset of them. Returns the first violating (window start, (source,
    target)) if any: the smallest source that fails to reach some vertex,
    and the smallest vertex it fails to reach. ``windows_checked`` counts
    the chosen windows up to that one, certified ones included, or all of
    them.
    """
    if not (1 <= delta <= graph.lifetime):
        raise ValueError(f"delta {delta} outside [1, {graph.lifetime}]")
    if mode not in ("exhaustive", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and samples < 1:
        raise ValueError(f"sampled mode needs samples >= 1, got {samples}")
    starts = list(range(1, graph.lifetime - delta + 2))
    if mode == "sampled" and len(starts) > samples:
        rng = SplitMix64(seed)
        chosen: set[int] = set()
        while len(chosen) < samples:
            chosen.add(starts[rng.below(len(starts))])
        starts = sorted(chosen)
    if mode == "exhaustive":
        # Every step is read anyway. Reading them all before the sweep keeps
        # a lazily read graph's parse memory from interleaving with the
        # sweep's masks, which fragments the heap: 200 solves of the
        # benchmark's `delta` workload ended 0.9 MB higher in peak RSS.
        graph.read_all()
    left = _uncertified(graph, starts, delta) if graph.n - 1 <= delta else starts
    violation = _first_violation(graph, delta, left) if left else None
    if violation is None:
        return ConnectivityReport(True, None, len(starts), mode)
    return ConnectivityReport(False, violation, bisect_left(starts, violation[0]) + 1, mode)


def _step_connectivity(graph: TemporalGraph) -> Callable[[int], bool]:
    """Whether snapshot t connects all n vertices, as a function of t.

    When the base is a spanning tree, a step's removed edges cut it into
    |removed|+1 pieces, its :class:`TreeCut`; the step is connected iff its
    added edges join those pieces, which one union-find over the pieces
    decides in O((|removed| + |added|) * |removed|) without building the
    snapshot. A step that removes nothing is connected. Any other base takes
    one union-find over the snapshot's edges.
    """
    n, base = graph.n, graph.base
    tree: Optional[SpanningTree] = None
    if len(base) == n - 1:
        try:
            tree = SpanningTree(n, base)
        except ValueError:  # n-1 edges that hold a cycle
            pass
    if tree is None:
        return lambda t: _spans(n, graph.edge_set(t))
    cut = tree.cut

    def connected(t: int) -> bool:
        removed, added = graph._diff(t)
        if len(added) < len(removed):  # too few edges to join the pieces
            return False
        if not removed:
            return True
        piece = cut(removed).piece  # a list below: on a step's few added edges it beats a generator
        return _spans(len(removed) + 1, [(piece(u), piece(v)) for u, v in added])
    return connected


def _union(leader: list[int], u: int, v: int) -> bool:
    """Join the sets of u and v in the union-find `leader`, halving the
    paths it walks; whether they were apart."""
    while leader[u] != u:
        leader[u] = u = leader[leader[u]]
    while leader[v] != v:
        leader[v] = v = leader[leader[v]]
    if u == v:
        return False
    leader[u] = v
    return True


def _spans(n: int, edges: Iterable[Edge]) -> bool:
    """Whether `edges` connect all n vertices: one union-find, which stops
    at the edge that joins the last two components."""
    leader = list(range(n))
    pieces = n
    for u, v in edges:
        if _union(leader, u, v):
            pieces -= 1
            if pieces == 1:
                return True
    return pieces == 1


def _uncertified(graph: TemporalGraph, starts: list[int], delta: int) -> list[int]:
    """The starts, in order, of the windows that hold no run of n-1
    consecutive connected snapshots; each step is marked at most once, and
    only steps inside some window of `starts`, up to the end of the run that
    certifies it or the window's last step."""
    need = graph.n - 1
    connected = _step_connectivity(graph)
    left: list[int] = []
    t = run = 0  # the last step marked, and the connected steps ending at it
    for w in starts:
        t = max(t, w - 1)  # skip unmarked steps before w; min() counts a run from w on
        while min(run, t - w + 1) < need:
            if t == w + delta - 1:
                left.append(w)
                break
            t += 1
            run = run + 1 if connected(t) else 0
    return left


def _first_violation(graph: TemporalGraph, delta: int, starts: list[int]) -> Optional[tuple[int, tuple[int, int]]]:
    """The first window of the non-empty sorted `starts` that is not
    temporally connected, as (start, (source, target)), or None.

    All windows share one forward sweep over the timeline. ``reach[v]``
    holds one n-bit field per live window, the oldest in the low bits: bit
    ``i*n + s`` is set once source s of the i-th oldest live window has
    reached v strictly before the current step. A window starting at step t
    sets its sources' own bits before t's edges are applied; each snapshot's
    next masks are built from the previous ones, so a walk crosses at most
    one edge per step, and one OR per edge end advances every live window.
    A later window has reached no more (source, vertex) pairs by any step
    than an earlier one, since a walk may wait at its source, so windows
    become connected in start order: only the oldest field is tested, and a
    connected window retires by shifting every mask right by n. Each
    snapshot is read once, and steps no window of `starts` covers are
    skipped; ``reach`` and its next copy each hold up to delta*n bits per
    vertex.
    """
    n = graph.n
    everyone = (1 << n) - 1
    reach = [0] * n
    oldest = opened = 0  # the live windows are starts[oldest:opened]
    t = starts[0]
    while True:
        if opened < len(starts) and starts[opened] == t:
            shift = (opened - oldest) * n
            reach = [mask | 1 << (shift + v) for v, mask in enumerate(reach)]
            opened += 1
        nxt = reach[:]
        for u, v in graph.edge_set(t):
            nxt[u] |= reach[v]
            nxt[v] |= reach[u]
        reach = nxt
        common = reduce(and_, reach)
        retired = oldest
        while oldest < opened and common & everyone == everyone:
            oldest += 1
            common >>= n
        if oldest > retired:
            reach = [mask >> (oldest - retired) * n for mask in reach]
        if oldest < opened:
            w = starts[oldest]
            if w + delta - 1 == t:
                missing = everyone & ~common
                source = (missing & -missing).bit_length() - 1
                target = next(v for v, mask in enumerate(reach) if not mask >> source & 1)
                return w, (source, target)
            t += 1
        elif opened < len(starts):
            t = starts[opened]
        else:
            return None
