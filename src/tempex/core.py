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

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import accumulate, chain
from operator import and_, lt
from typing import AbstractSet, Iterable, Iterator, Optional, TextIO

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


READ_CHUNK = 128  # TG1 steps parse_temporal_graph reads at once, and a lazily read graph per read


class TemporalGraph:
    """Sequence of snapshots over a fixed vertex set, stored as one base edge
    set plus, per step, the base edges it lacks and the other edges it has.

    Snapshot t (1-indexed) is ``base - removed[t-1] | added[t-1]``. Each
    ``removed[i]`` and ``added[i]`` is a strictly sorted tuple of canonical
    edges, with ``removed[i]`` inside ``base`` and ``added[i]`` outside it.
    The constructor re-bases the graph onto its majority graph, the edges
    present in more than half the snapshots: that base minimises the total
    diff and makes the representation unique, so two graphs are equal iff
    their snapshot sequences are. Use :meth:`build` to construct from
    arbitrary snapshot edge lists. Restrictions to a window are represented as
    (graph, window) pairs by the callers; snapshots are never copied.

    A graph that :func:`parse_temporal_graph` returns may hold only its first
    steps. Each later step is read from the text, `READ_CHUNK` steps at a
    time, the first time an accessor asks for it or for a later step; until
    then no line after the steps read is checked, and reading a step can
    raise the :class:`ParseError` of a malformed line. Until its last step is
    read the graph is based on its first snapshot; reading the last step
    re-bases it onto its majority graph, so that it then equals, field for
    field, the graph that reading the whole text at once builds. The
    per-step accessors take the base afresh after each step they read.
    ``base``, ``removed``, ``added``, :meth:`underlying`, :meth:`absences`,
    equality and hashing read every step first, as :meth:`read_all` does.
    Reading is not synchronised: call :meth:`read_all` before sharing such a
    graph between threads.
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
        having = Counter(chain.from_iterable(added))
        if not base.issuperset(lacking):
            raise ValueError("a removed edge is not in the base")
        if not base.isdisjoint(having):
            raise ValueError("an added edge is already in the base")
        _check_edges(n, having, "snapshot")
        self.n, self.lifetime, self._reader = n, len(removed), None
        self._base, self._removed, self._added = base, tuple(removed), tuple(added)
        self._rebase_onto_majority(lacking, having)

    @classmethod
    def _reading(cls, reader: _BlockReader) -> "TemporalGraph":
        """The graph of the steps `reader` has read, reading the rest on demand."""
        graph = cls.__new__(cls)
        graph.n, graph.lifetime, graph._reader = reader.n, reader.lifetime, reader
        graph._base, graph._removed, graph._added = reader.base, reader.removed, reader.added
        if len(reader.removed) == reader.lifetime:
            graph._settle()
        return graph

    def _rebase_onto_majority(self, lacking: Counter[Edge], having: Counter[Edge]) -> None:
        """Move the base to the edges present in more than half the snapshots.

        `lacking` counts the steps that remove each base edge and `having`
        the steps that add each other edge. Costs O(|base| + total diff).
        Each distinct (removed, added) pair is rewritten once, and the steps
        that repeat it share the new tuples.
        """
        lifetime = self.lifetime
        demoted = frozenset(e for e, c in lacking.items() if 2 * c >= lifetime)
        promoted = frozenset(e for e, c in having.items() if 2 * c > lifetime)
        if not demoted and not promoted:
            return
        rebased: dict[tuple[tuple[Edge, ...], tuple[Edge, ...]], tuple[tuple[Edge, ...], tuple[Edge, ...]]] = {}
        steps = []
        for pair in zip(self._removed, self._added):
            new = rebased.get(pair)
            if new is None:
                r, a = pair
                new = rebased[pair] = (
                    tuple(sorted([e for e in r if e not in demoted] + list(promoted.difference(a)))),
                    tuple(sorted(list(demoted.difference(r)) + [e for e in a if e not in promoted])),
                )
            steps.append(new)
        removed, added = zip(*steps)
        self._base, self._removed, self._added = self._base.difference(demoted).union(promoted), removed, added

    def _settle(self) -> None:
        """Drop the reader, which has read the last step, then re-base the
        graph; dropping it first lets its memo go before the re-base copies."""
        self._reader = None
        self._removed, self._added = tuple(self._removed), tuple(self._added)
        lacking = Counter(chain.from_iterable(self._removed))
        self._rebase_onto_majority(lacking, Counter(chain.from_iterable(self._added)))

    def _read_through(self, t: int) -> None:
        """Read the text's steps up to step t, a chunk at a time.

        Text that turns irregular is read whole by the line-by-line parser,
        which raises its first error or gives the graph to adopt.
        """
        while len(self._removed) < t:
            if not self._reader.read(READ_CHUNK):
                graph = _parse_lines(self._reader.text)
                self._reader = None
                self._base, self._removed, self._added = graph._base, graph._removed, graph._added
                return
        if len(self._removed) == self.lifetime:
            self._settle()

    def read_all(self) -> None:
        """Read every step not read yet; raises the ParseError of a malformed line."""
        if self._reader is not None:
            self._read_through(self.lifetime)

    @property
    def base(self) -> frozenset[Edge]:
        self.read_all()
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
        return (self.n, self.base, self.removed, self.added) == (other.n, other.base, other.removed, other.added)

    def __hash__(self) -> int:
        return hash((self.n, self.base, self.removed, self.added))

    def __repr__(self) -> str:
        read = "" if self._reader is None else f", steps read={len(self._removed)} of {self.lifetime}"
        return f"TemporalGraph(n={self.n}, base={self._base!r}, removed={self._removed!r}, added={self._added!r}{read})"

    @classmethod
    def build(cls, n: int, snapshots: Iterable[Iterable[Edge]]) -> "TemporalGraph":
        added = tuple(
            tuple(sorted({canonical_edge(u, v) for u, v in snap})) for snap in snapshots
        )
        return cls(n, frozenset(), ((),) * len(added), added)

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
        base: Optional[frozenset[Edge]] = None
        outside: frozenset[Edge] = frozenset()
        for t in steps:
            r, a = self._diff(t)
            if self._base is not base:  # the first step, or reading t re-based the graph
                base = self._base
                outside = tree.difference(base)
            lacked = r if tree.issuperset(r) else tuple(e for e in r if e in tree)
            if outside:
                lacked = tuple(sorted(chain(lacked, outside.difference(a))))
            yield lacked

    def absences(self, prefix_length: int) -> dict[Edge, int]:
        """Per underlying edge, how many of the first `prefix_length` snapshots lack it.

        O(|underlying| + prefix diff): a base edge is absent where a step
        removes it, any other edge wherever a step does not add it.
        """
        if prefix_length > self.lifetime:
            raise ValueError(f"prefix {prefix_length} exceeds lifetime {self.lifetime}")
        if prefix_length < 1:
            raise ValueError("prefix must be positive")
        self.read_all()
        removals = Counter(chain.from_iterable(self._removed[:prefix_length]))
        additions = Counter(chain.from_iterable(self._added[:prefix_length]))
        counts = {e: removals[e] for e in self._base}
        for e in self.underlying().difference(self._base):
            counts[e] = prefix_length - additions[e]
        return counts

    def underlying(self) -> frozenset[Edge]:
        """Every edge that appears in some snapshot."""
        return self.base.union(*self.added)


# --- wire format (TG1) ------------------------------------------------------

def _content_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield lineno, stripped.split()


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
    a text of at most `READ_CHUNK` steps is read whole. Text in the form
    :func:`serialize_temporal_graph` writes (edges in any order) takes a fast
    path that validates each distinct line once and diffs each distinct
    snapshot block against the first one once. Anything else (comments, blank
    lines, other whitespace, non-canonical numbers or edges, and every error)
    goes through the line-by-line parser, which reads the whole text and
    produces every ParseError. So the graph, and the error of a text that is
    malformed within the steps read, are those of reading the whole text at
    once.
    """
    reader = _BlockReader(text)
    if not reader.read(READ_CHUNK):
        return _parse_lines(text)
    return TemporalGraph._reading(reader)


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


class _BlockReader:
    """The fast path of parse_temporal_graph, resumable: reads the text's
    steps a given number at a time.

    Walks the text one snapshot block (the lines after a count) at a time and
    never splits the whole text. Each distinct block is split, validated and
    diffed against the first block once; a repeated block, read now or in an
    earlier read, costs one hash and one dict lookup. `removed` and `added`
    grow by each read's steps, as diffs against `base`, the first block's
    edges.
    """

    def __init__(self, text: str) -> None:
        if not text.endswith("\n"):
            text += "\n"  # so that every line, the last one too, ends in a newline
        self.text = text
        self.pos = text.index("\n") + 1
        header = _regular_pair(text[: self.pos - 1])
        self.n, self.lifetime = header if header is not None and min(header) >= 1 else (0, 0)
        self.edge_of: dict[str, Edge] = {}
        self.first: frozenset[str] = frozenset()
        self.base: frozenset[Edge] = frozenset()
        self.diff_of: dict[str, tuple[tuple[Edge, ...], tuple[Edge, ...]]] = {}
        self.removed: list[tuple[Edge, ...]] = []
        self.added: list[tuple[Edge, ...]] = []
        self.size, self.prev_m = 0, 0  # the previous block's length and line count

    def read(self, steps: int) -> bool:
        """Read up to `steps` more steps; False on any irregularity (after the
        last step, on anything that follows it), keeping none of this read's
        steps, so that a later read meets the same irregularity."""
        if not self.lifetime:  # an irregular header
            return False
        text, pos, n = self.text, self.pos, self.n
        edge_of, diff_of, first = self.edge_of, self.diff_of, self.first
        size, prev_m = self.size, self.prev_m
        removed: list[tuple[Edge, ...]] = []
        added: list[tuple[Edge, ...]] = []
        done = len(self.removed)
        for t in range(done, min(done + steps, self.lifetime)):
            eol = text.find("\n", pos)
            count = text[pos:eol] if eol >= 0 else ""
            if not (count.isascii() and count.isdigit()) or (count[0] == "0" and count != "0"):
                return False
            m = int(count)
            start = eol + 1
            # Guess m lines at the previous block's mean line length: exact when
            # a block repeats, close when only the count changes.
            end = _block_end(text, start, m, start + size * m // max(prev_m, 1))
            if end is None:
                return False
            block = text[start:end]
            size, prev_m, pos = end - start, m, end
            diff = diff_of.get(block)
            if diff is None:
                lines = block.split("\n")
                lines.pop()
                lineset = frozenset(lines)
                if len(lineset) != m:  # a repeated line
                    return False
                new = lineset.difference(first)
                for line in new:  # every line not yet validated
                    if line not in edge_of:
                        pair = _regular_pair(line)
                        if pair is None or not (0 <= pair[0] < pair[1] < n):
                            return False
                        edge_of[line] = pair
                if t == 0:
                    first, new = lineset, ()
                    self.first = first
                    self.base = frozenset(map(edge_of.__getitem__, first))
                gone = first.difference(lineset)
                diff = diff_of[block] = (
                    tuple(sorted(map(edge_of.__getitem__, gone))),
                    tuple(sorted(map(edge_of.__getitem__, new))),
                )
            removed.append(diff[0])
            added.append(diff[1])
        if done + len(removed) == self.lifetime and pos != len(text):
            return False
        self.removed.extend(removed)
        self.added.extend(added)
        self.pos, self.size, self.prev_m = pos, size, prev_m
        return True


def _parse_lines(text: str) -> TemporalGraph:
    """Line-by-line TG1 parser: tolerates comments and blank lines, and
    reports each error with its physical line number."""
    lines = _content_lines(text)
    try:
        lineno, parts = next(lines)
    except StopIteration:
        raise ParseError("malformed header: empty input", 1) from None
    if len(parts) != 2:
        raise ParseError(f"malformed header: expected 'n L', got {' '.join(parts)!r}", lineno)
    n = _parse_int(parts[0], lineno, "header n")
    lifetime = _parse_int(parts[1], lineno, "header L")
    if n < 1 or lifetime < 1:
        raise ParseError(f"malformed header: need n >= 1 and L >= 1, got n={n} L={lifetime}", lineno)

    snapshots: list[set[Edge]] = []
    last_line = lineno
    for _ in range(lifetime):
        try:
            lineno, parts = next(lines)
        except StopIteration:
            raise ParseError("unexpected end of input: missing snapshot edge count", last_line + 1) from None
        if len(parts) != 1:
            raise ParseError(f"expected edge count, got {' '.join(parts)!r}", lineno)
        m = _parse_int(parts[0], lineno, "edge count")
        if m < 0:
            raise ParseError(f"negative edge count {m}", lineno)
        seen: set[Edge] = set()
        last_line = lineno
        for _ in range(m):
            try:
                lineno, parts = next(lines)
            except StopIteration:
                raise ParseError("unexpected end of input: missing edge line", last_line + 1) from None
            _parse_edge_line(parts, lineno, n, seen)
            last_line = lineno
        snapshots.append(seen)
    for lineno, parts in lines:
        raise ParseError(f"unexpected trailing content {' '.join(parts)!r}", lineno)
    return TemporalGraph.build(n, snapshots)


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
    for lineno, parts in _content_lines(text):
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
    snapshot is read once, and sampled mode skips the steps no chosen window
    covers. Cost: O(sum over windows of c_w * (|E_t| + n) * n / word) word
    operations, where c_w <= delta is the number of steps window w stays
    open, and O(delta * n^2) bits of memory, since up to delta windows are
    open at once and ``reach`` and its next copy each hold delta*n bits per
    vertex. Exhaustive mode checks all L-delta+1 windows; sampled mode a
    seeded subset of them. Returns the first violating (window start,
    (source, target)) if any: the smallest source that fails to reach some
    vertex, and the smallest vertex it fails to reach. ``windows_checked``
    counts the chosen windows up to that one, or all of them.
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
                return ConnectivityReport(False, (w, (source, target)), oldest + 1, mode)
            t += 1
        elif opened < len(starts):
            t = starts[opened]
        else:
            return ConnectivityReport(True, None, len(starts), mode)
