"""Command-line front end.

Exit codes: 0 success, 1 typed algorithmic failure (plan ran out of
snapshots, repositioning impossible, infeasible instance, invalid schedule),
2 usage or format error. Every subcommand that reads a graph reads and checks
all of it first, except `explore` without `--check-delta`, which reads only
the steps its run uses. Results go to files or stdout; diagnostics to
stderr. Every file-writing run leaves a JSON manifest alongside its outputs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

from . import __version__
from .core import (
    ParseError,
    TemporalGraph,
    parse_spanning_tree,
    parse_temporal_graph,
    serialize_spanning_tree,
    verify_delta_connectivity,
    write_temporal_graph,
)
from .gen import CONNECTIVITY_MODES, TREE_SHAPES, GenSpec, gen_blocking_front, gen_random_deficient
from .oracle import DEFAULT_LIFETIME_CAP, DEFAULT_VERTEX_CAP, optimal_exploration_time
from .scheduler import (
    InsufficientSnapshots,
    LasVegas,
    RepositionFailed,
    TupleSearchExhausted,
    explore_detailed,
    paper_budget,
    parse_schedule,
    serialize_schedule,
    verify_schedule,
)
from .treefind import DisconnectedGraph, find_good_tree

ALGORITHMIC_FAILURES = (
    InsufficientSnapshots,
    RepositionFailed,
    TupleSearchExhausted,
    DisconnectedGraph,
)


class _CannotWrite(Exception):
    """An output file or its directory could not be created or written."""


@contextmanager
def _writing():
    """Report an OSError raised inside the block as a failed write, not a read."""
    try:
        yield
    except OSError as exc:
        raise _CannotWrite(f"cannot write {exc.filename}: {exc.strerror}") from exc


def _write_manifest(out_base: Path, subcommand: str, inputs: dict, parameters: dict, outputs: dict, stats: dict) -> None:
    manifest = {
        "tool": "tempex",
        "version": __version__,
        "subcommand": subcommand,
        "inputs": inputs,
        "parameters": parameters,
        "outputs": outputs,
        "stats": stats,
    }
    path = Path(str(out_base) + ".manifest.json")
    with _writing():
        path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_graph(path: str, whole: bool = True) -> TemporalGraph:
    """The graph in the TG1 file at `path`. With `whole`, every step is read
    and checked now, so a malformed line anywhere exits 2 before any work;
    otherwise steps are read as the run asks for them."""
    graph = parse_temporal_graph(Path(path).read_text())
    if whole:
        graph.read_all()
    return graph


# The only values gen_blocking_front builds with; it takes none of these flags.
_BLOCKING_FRONT_BUILDS = {"tree_shape": "path", "connectivity": "per-snapshot", "delta": None, "extra_edge_rate": 0.0}


def _cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "blocking-front":
        for name, value in _BLOCKING_FRONT_BUILDS.items():
            if getattr(args, name) != value:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} {getattr(args, name)} does not apply to --family blocking-front")
        result = gen_blocking_front(args.n, args.k, args.L, args.seed)
        parameters = {"family": "blocking-front", "n": args.n, "L": args.L, "k": args.k, "seed": args.seed}
    else:
        spec = GenSpec(
            n=args.n,
            lifetime=args.L,
            k=args.k,
            seed=args.seed,
            tree_shape=args.tree_shape,
            connectivity=args.connectivity,
            delta=args.delta,
            extra_edge_rate=args.extra_edge_rate,
        )
        result = gen_random_deficient(spec)
        parameters = {
            "family": "random",
            "n": spec.n,
            "L": spec.lifetime,
            "k": spec.k,
            "seed": spec.seed,
            "treeShape": spec.tree_shape,
            "connectivity": spec.connectivity,
            "delta": spec.delta,
            "extraEdgeRate": spec.extra_edge_rate,
        }
    out = Path(args.out)
    graph_path = out.with_suffix(".tg") if out.suffix == "" else out
    tree_path = Path(str(graph_path) + ".tree")
    with _writing():
        graph_path.parent.mkdir(parents=True, exist_ok=True)
        with graph_path.open("w") as file:
            write_temporal_graph(result.graph, file)
        tree_path.write_text(serialize_spanning_tree(result.tree))
    _write_manifest(
        graph_path,
        "gen",
        {},
        parameters,
        {"graph": str(graph_path), "tree": str(tree_path)},
        {"fallbacks": result.fallbacks},
    )
    print(f"wrote {graph_path} and {tree_path}", file=sys.stderr)
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    if args.stats and not args.out:
        raise ValueError("--stats needs --out")
    graph = _load_graph(args.graph, whole=args.check_delta)
    tree = None
    if args.tree is not None:
        tree = parse_spanning_tree(Path(args.tree).read_text(), graph.n)
    delta = args.delta
    if delta is None:
        delta = max(1, graph.n - 1)
        print(
            f"note: delta defaulted to n-1 = {delta}; pass --check-delta to verify it",
            file=sys.stderr,
        )
    if args.check_delta:
        report = verify_delta_connectivity(graph, delta, mode="sampled", seed=args.seed)
        if not report.ok:
            print(f"delta check failed: witness {report.witness}", file=sys.stderr)
            return 1
    run = explore_detailed(graph, args.k, delta, args.start, tree, LasVegas(seed=args.seed))
    if args.trace:
        for i, trace in enumerate(run.traces, start=1):
            for line in trace.format_lines():
                print(f"epoch {i}: {line}", file=sys.stderr)
    stats_json = json.dumps(run.stats.to_json_dict(), indent=2, sort_keys=True)
    if args.out:
        out = Path(args.out)
        with _writing():
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(serialize_schedule(run.schedule))
            if args.stats:
                Path(args.stats).write_text(stats_json + "\n")
        if not args.stats:
            print(stats_json)
        _write_manifest(
            out,
            "explore",
            {"graph": args.graph, "tree": args.tree},
            {"k": args.k, "delta": delta, "start": args.start, "seed": args.seed},
            {"schedule": str(out), "stats": args.stats},
            run.stats.to_json_dict(),
        )
    else:
        print(serialize_schedule(run.schedule), end="")
        print(stats_json, file=sys.stderr)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    schedule = parse_schedule(Path(args.schedule).read_text())
    start = schedule.start if args.start is None else args.start
    report = verify_schedule(graph, start, schedule)
    print(report.describe())
    return 0 if report.ok else 1


def _cmd_tree(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    tree, stats = find_good_tree(graph, args.k, args.q)
    out = Path(args.out)
    with _writing():
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(serialize_spanning_tree(tree))
    summary = {
        "q": stats.q,
        "threshold": stats.threshold,
        "goodCount": stats.good_count,
        "totalWeight": stats.total_weight,
        "deficiencies": list(stats.deficiencies),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    _write_manifest(
        out,
        "tree",
        {"graph": args.graph},
        {"k": args.k, "q": args.q},
        {"tree": str(out)},
        {"goodCount": stats.good_count, "totalWeight": stats.total_weight},
    )
    return 0


def _cmd_oracle(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    result = optimal_exploration_time(graph, args.start, args.cap, args.lifetime_cap)
    if not result.feasible:
        print("infeasible")
        return 1
    print(result.length)
    return 0


def _cmd_check_delta(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    report = verify_delta_connectivity(graph, args.delta, args.mode, args.samples, args.seed)
    if report.ok:
        print(f"delta-connected: yes ({report.windows_checked} windows, {report.mode})")
        return 0
    window, pair = report.witness  # type: ignore[misc]
    print(f"delta-connected: no (window {window}, pair {pair})")
    return 1


# Bench manifest row fields: name -> (accepted types, required).
_MANIFEST_FIELDS = {
    "n": (int, True),
    "k": (int, True),
    "delta": (int, True),
    "seed": (int, True),
    "start": (int, False),
    "treeShape": (str, False),
    "extraEdgeRate": ((int, float), False),
}


def _manifest_rows(text: str) -> list[dict]:
    """Bench manifest rows, each checked for required keys and field types."""
    rows = json.loads(text)
    if not isinstance(rows, list):
        raise ValueError(f"manifest must be a JSON list of objects, got {type(rows).__name__}")
    for i, row in enumerate(rows):
        if not isinstance(row, dict):
            raise ValueError(f"manifest row {i}: expected an object, got {type(row).__name__}")
        for key, (types, required) in _MANIFEST_FIELDS.items():
            if key not in row:
                if required:
                    raise ValueError(f"manifest row {i}: missing key {key!r}")
            elif isinstance(row[key], bool) or not isinstance(row[key], types):
                raise ValueError(f"manifest row {i}: {key!r} has wrong type {type(row[key]).__name__}")
    return rows


def _cmd_bench(args: argparse.Namespace) -> int:
    rows = _manifest_rows(Path(args.manifest).read_text())
    out = Path(args.out)
    with _writing():
        out.parent.mkdir(parents=True, exist_ok=True)
    header = (
        "instance,n,k,delta,rho,t,epochs,scheduleSpan,scheduleLength,coverStep,paperBudget,"
        "verified,attempts,wallMillis"
    )
    lines = [header]
    for i, row in enumerate(rows):
        n, k, delta, seed, start = row["n"], row["k"], row["delta"], row["seed"], row.get("start", 0)
        spec = GenSpec(
            n=n,
            lifetime=paper_budget(n, k, delta),
            k=k,
            seed=seed,
            tree_shape=row.get("treeShape", "path"),
            connectivity="per-snapshot",
            extra_edge_rate=row.get("extraEdgeRate", 0.0),
        )
        result = gen_random_deficient(spec)
        started = time.perf_counter()
        run = explore_detailed(result.graph, k, delta, start, result.tree, LasVegas(seed=seed))
        wall_ms = int((time.perf_counter() - started) * 1000)
        stats = run.stats
        verified = "true" if verify_schedule(result.graph, start, run.schedule).ok else "false"
        lines.append(
            f"bench-{i},{n},{k},{delta},{stats.rho},{stats.budget},{stats.epoch_count},"
            f"{stats.span},{stats.length},{stats.cover_step},{stats.paper_budget},{verified},"
            f"{stats.attempts},{wall_ms}"
        )
    with _writing():
        out.write_text("\n".join(lines) + "\n")
    _write_manifest(
        out,
        "bench",
        {"manifest": args.manifest},
        {"rows": len(rows)},
        {"csv": str(out)},
        {},
    )
    print(f"wrote {out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tempex",
        description="Exploration schedules for near-static temporal graphs",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("gen", help="generate a deficient instance plus witness tree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--L", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--family", choices=("random", "blocking-front"), default="random")
    p.add_argument("--tree-shape", choices=TREE_SHAPES, default="path")
    p.add_argument("--connectivity", choices=CONNECTIVITY_MODES, default="per-snapshot")
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--extra-edge-rate", type=float, default=0.0)
    p.add_argument("--out", required=True, help="output prefix or .tg path")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("explore", help="compute an exploration schedule")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=int, default=None)
    p.add_argument("--start", type=int, default=0)
    p.add_argument("--tree", default=None, help="witness tree file; omit to recover one")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--check-delta", action="store_true")
    p.add_argument("--trace", action="store_true", help="dump roundabout traces to stderr")
    p.add_argument("--out", default=None, help="schedule file; stdout when omitted")
    p.add_argument(
        "--stats", default=None,
        help="stats JSON file, needs --out; when omitted, stats go to stdout (stderr without --out)",
    )
    p.set_defaults(func=_cmd_explore)

    p = sub.add_parser("verify", help="validate a schedule against a graph")
    p.add_argument("--graph", required=True)
    p.add_argument("--schedule", required=True)
    p.add_argument("--start", type=int, default=None)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("tree", help="recover a spanning tree from absence counts")
    p.add_argument("--graph", required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tree)

    p = sub.add_parser("oracle", help="exact minimal exploration length (desk scale)")
    p.add_argument("--graph", required=True)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--cap", type=int, default=DEFAULT_VERTEX_CAP)
    p.add_argument("--lifetime-cap", type=int, default=DEFAULT_LIFETIME_CAP)
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("check-delta", help="verify windowed temporal connectivity")
    p.add_argument("--graph", required=True)
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--mode", choices=("exhaustive", "sampled"), default="exhaustive")
    p.add_argument("--samples", type=int, default=32)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_check_delta)

    p = sub.add_parser("bench", help="run a manifest of (n, k, delta, seed) rows")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"format error: {exc}", file=sys.stderr)
        return 2
    except _CannotWrite as exc:
        print(exc, file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"missing file: {exc.filename}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2
    except ALGORITHMIC_FAILURES as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
