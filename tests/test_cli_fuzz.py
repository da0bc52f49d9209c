"""Fuzz of the CLI's exit-code contract: every subcommand, called in process on
small drawn files (some well formed, some with one line broken), returns 0,
1 or 2 and lets no exception escape."""

from __future__ import annotations

import io
import json
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from tempex.cli import main

JUNK = ("", "x", "-1", "0 0", "1 2 3", "# note", "99 0", "3", "start", "1 move 0")

# Parameter values, usable ones first: hypothesis draws from all of them
# and shrinks toward the first.
K = st.sampled_from((1, 2, 0, 3, -1))
STEPS = st.sampled_from((2, 4, 6, 1, 3, 0, -1))
VERTEX = st.sampled_from((0, 1, 2, 4, 5, -1))


@st.composite
def mangled(draw, lines: list[str]) -> str:
    """The lines as text, unchanged or with one line dropped, replaced or added."""
    how = draw(st.sampled_from(("keep",) * 5 + ("drop", "replace", "append")))
    if how != "keep" and lines:
        i = draw(st.integers(0, len(lines) - 1))
        junk = draw(st.sampled_from(JUNK))
        lines = {
            "drop": lines[:i] + lines[i + 1:],
            "replace": lines[:i] + [junk] + lines[i + 1:],
            "append": lines + [junk],
        }[how]
    return "\n".join(lines) + "\n"


def pairs(n: int) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


def some_pairs(n: int, max_size: int) -> st.SearchStrategy:
    if n < 2:
        return st.just([])
    return st.lists(st.sampled_from(pairs(n)), unique=True, max_size=max_size)


@st.composite
def graph_texts(draw, n: int) -> str:
    """TG1 text with header n and a lifetime of 1..5."""
    lifetime = draw(st.integers(1, 5))
    lines = [f"{n} {lifetime}"]
    for _ in range(lifetime):
        edges = draw(some_pairs(n, len(pairs(n))))
        lines += [str(len(edges))] + [f"{u} {v}" for u, v in edges]
    return draw(mangled(lines))


@st.composite
def tree_texts(draw, n: int) -> str:
    """A tree file for n vertices: a random tree, or n-1 arbitrary edges
    (possibly holding a cycle)."""
    if n >= 2 and draw(st.booleans()):
        edges = [(draw(st.integers(0, c - 1)), c) for c in range(1, n)]
    else:
        edges = draw(some_pairs(n, max(n - 1, 0)))
    return draw(mangled([f"{u} {v}" for u, v in edges]))


@st.composite
def schedule_texts(draw) -> str:
    lines = [f"start {draw(VERTEX)}"]
    t = draw(st.integers(0, 3))
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            lines.append(f"{t} wait")
        else:
            lines.append(f"{t} move {draw(st.integers(0, 5))} {draw(st.integers(0, 5))}")
        t += 1
    return draw(mangled(lines))


@st.composite
def manifest_texts(draw) -> str:
    """Bench rows with k=0, negative deltas, a bad treeShape and n=0 in range."""
    if draw(st.integers(0, 4)) == 4:  # not JSON, or not a list of objects
        return draw(st.sampled_from(("{}", "[1]", "[", "")))
    rows = []
    for _ in range(draw(st.integers(0, 2))):
        row = {
            "n": draw(st.sampled_from((4, 5, 2, 1, 0))),
            "k": draw(st.sampled_from((1, 2, 0, -1))),
            "delta": draw(STEPS),
            "seed": draw(st.integers(0, 3)),
        }
        if draw(st.booleans()):
            row["treeShape"] = draw(st.sampled_from(("path", "star", "random", "bogus")))
        if draw(st.booleans()):
            row["start"] = draw(VERTEX)
        if draw(st.booleans()):
            row["extraEdgeRate"] = draw(st.sampled_from((0.0, 1e-310, 0.5, 1.5)))
        if draw(st.integers(0, 4)) == 4:
            del row[draw(st.sampled_from(sorted(row)))]
        rows.append(row)
    return json.dumps(rows)


def optional(draw, flag: str, values: st.SearchStrategy) -> list[str]:
    return [flag, str(draw(values))] if draw(st.booleans()) else []


def draw_args(draw, d: Path) -> list[str]:
    """One subcommand's arguments; writes the input files it names into d."""
    n = draw(st.sampled_from((4, 5, 3, 2, 1)))
    graph, tree, schedule, manifest = d / "g.tg", d / "t.tree", d / "s.txt", d / "m.json"
    graph.write_text(draw(graph_texts(n)))
    tree.write_text(draw(tree_texts(n)))
    schedule.write_text(draw(schedule_texts()))
    manifest.write_text(draw(manifest_texts()))
    command = draw(st.sampled_from(("gen", "explore", "verify", "tree", "oracle", "check-delta", "bench")))
    if command == "gen":
        args = [
            "gen", "--n", str(draw(st.sampled_from((4, 5, 2, 1, 0)))), "--L", str(draw(STEPS)),
            "--k", str(draw(K)), "--out", str(d / "out"),
        ]
        return args + [
            "--family", draw(st.sampled_from(("random", "blocking-front"))),
            "--tree-shape", draw(st.sampled_from(("path", "star", "random"))),
            "--connectivity", draw(st.sampled_from(("per-snapshot", "delta-only", "none"))),
            *optional(draw, "--delta", STEPS),
            *optional(draw, "--extra-edge-rate", st.sampled_from((0.0, 1e-310, 0.5, 1.5))),
        ]
    if command == "explore":
        args = [
            "explore", "--graph", str(graph), "--k", str(draw(K)), "--start", str(draw(VERTEX)),
            *optional(draw, "--delta", STEPS),
            *optional(draw, "--tree", st.just(tree)),
            *optional(draw, "--out", st.just(d / "sched.txt")),
            *optional(draw, "--stats", st.just(d / "stats.json")),
        ]
        return args + [flag for flag in ("--check-delta", "--trace") if draw(st.booleans())]
    if command == "verify":
        return ["verify", "--graph", str(graph), "--schedule", str(schedule), *optional(draw, "--start", VERTEX)]
    if command == "tree":
        return [
            "tree", "--graph", str(graph), "--k", str(draw(K)), "--q", str(draw(STEPS)),
            "--out", str(d / "found.tree"),
        ]
    if command == "oracle":
        return ["oracle", "--graph", str(graph), "--start", str(draw(VERTEX)), *optional(draw, "--cap", STEPS)]
    if command == "check-delta":
        return [
            "check-delta", "--graph", str(graph), "--delta", str(draw(STEPS)),
            "--mode", draw(st.sampled_from(("exhaustive", "sampled"))),
            "--samples", str(draw(st.sampled_from((2, 1, 0)))),
        ]
    return ["bench", "--manifest", str(manifest), "--out", str(d / "bench.csv")]


@settings(max_examples=150)
@given(st.data())
def test_every_subcommand_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        args = draw_args(data.draw, Path(tmp))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = main(args)
            except SystemExit as exc:  # argparse rejects the usage
                code = exc.code
    assert code in (0, 1, 2), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
