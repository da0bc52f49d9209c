"""Spans around tempex's public functions, recorded from outside the package.

The tracer rebinds each wrapped name in every loaded ``tempex`` module that
holds the original function, so calls made by the package itself (for
example ``run_roundabout`` looking up ``movement_step`` in its own module
globals) pass through the wrapper. Nothing under ``src/`` changes. Spans are
kept in memory as ``(name, start, end, parent)`` tuples, where ``parent`` is
the index of the enclosing span in the same list or -1 at the top level.
"""

from __future__ import annotations

import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator, Optional

# (defining module, function name). A span's layer is the last component of
# its defining module, so time is attributed to the module whose code runs.
WRAPPED: tuple[tuple[str, str], ...] = (
    ("tempex.core", "parse_temporal_graph"),
    ("tempex.core", "parse_spanning_tree"),
    ("tempex.core", "serialize_temporal_graph"),
    ("tempex.core", "serialize_spanning_tree"),
    ("tempex.core", "deficiency_count"),
    ("tempex.core", "foremost_walk"),
    ("tempex.core", "verify_delta_connectivity"),
    ("tempex.gen", "gen_random_deficient"),
    ("tempex.tour", "build_dfs_tour"),
    ("tempex.roundabout", "run_roundabout"),
    ("tempex.roundabout", "movement_step"),
    ("tempex.roundabout", "eliminate_redundant"),
    ("tempex.scheduler", "explore_detailed"),
    ("tempex.scheduler", "partition_epochs"),
    ("tempex.scheduler", "find_covering_tuple"),
    ("tempex.scheduler", "assemble_schedule"),
    ("tempex.scheduler", "verify_schedule"),
    ("tempex.scheduler", "serialize_schedule"),
    ("tempex.treefind", "find_good_tree"),
    ("tempex.treefind", "absence_weights"),
)

LAYER_OF = {name: module.rsplit(".", 1)[1] for module, name in WRAPPED}
LAYERS = tuple(dict.fromkeys(LAYER_OF.values()))

Span = tuple[str, float, float, int]


def _count_agent_steps(counts: Counter, args: tuple, result: object) -> None:
    counts["agent_steps"] += len(args[0].agents)


def _count_underlying_edges(counts: Counter, args: tuple, result: object) -> None:
    counts["underlying_edges"] += len(result.weights)  # type: ignore[attr-defined]


# Counters read at the same boundary as the span, from the call's arguments
# or its result; they run after the span has closed.
ON_RETURN: dict[str, Callable[[Counter, tuple, object], None]] = {
    "movement_step": _count_agent_steps,
    "absence_weights": _count_underlying_edges,
}


class MissingNames(Exception):
    """A function the tracer wraps no longer exists in its module."""

    def __init__(self, names: list[str]) -> None:
        super().__init__("traced names missing from tempex: " + ", ".join(names))


class Tracer:
    """Records spans while :meth:`installed` is active; :meth:`take` hands them over."""

    def __init__(self) -> None:
        self.spans: list[Optional[Span]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def take(self) -> tuple[list[Span], Counter]:
        """Hand over the spans and counts recorded so far and start afresh."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts  # type: ignore[return-value]

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Rebind every wrapped name for the duration of the block."""
        missing = [
            f"{module}.{name}"
            for module, name in WRAPPED
            if not callable(getattr(sys.modules.get(module), name, None))
        ]
        if missing:
            raise MissingNames(missing)
        modules = [m for key, m in list(sys.modules.items()) if key.split(".")[0] == "tempex"]
        rebound = []
        try:
            for module_name, name in WRAPPED:
                original = getattr(sys.modules[module_name], name)
                wrapper = self._wrap(name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        rebound.append((module, name, original))
                        setattr(module, name, wrapper)
            yield self
        finally:
            for module, name, original in reversed(rebound):
                setattr(module, name, original)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        on_return = ON_RETURN.get(name)

        def wrapper(*args, **kwargs):
            spans = self.spans
            parent = self._stack[-1] if self._stack else -1
            index = len(spans)
            spans.append(None)
            self._stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                spans[index] = (name, start, end, parent)
            if on_return is not None:
                on_return(self.counts, args, result)
            return result

        return wrapper


def summarize(spans: list[Span]) -> tuple[dict[str, float], Counter, dict[str, float], float]:
    """Inclusive seconds and calls per function, self seconds per layer, top-level seconds.

    A span's self time is its duration minus the durations of its direct
    children; top-level seconds sum the spans without a parent, so the caller
    can report the time no span accounts for.
    """
    inclusive: dict[str, float] = {}
    calls: Counter = Counter()
    child_time = [0.0] * len(spans)
    top = 0.0
    for name, start, end, parent in spans:
        duration = end - start
        inclusive[name] = inclusive.get(name, 0.0) + duration
        calls[name] += 1
        if parent >= 0:
            child_time[parent] += duration
        else:
            top += duration
    self_time = {layer: 0.0 for layer in LAYERS}
    for (name, start, end, _), children in zip(spans, child_time):
        self_time[LAYER_OF[name]] += end - start - children
    return inclusive, calls, self_time, top
