"""Layered benchmark of the tempex pipeline: TG1 text in, verified schedule out.

Run from the repository root::

    python3 perfbench/run.py --workload witness --seed 1 --seconds 30 --trace 0

One process, one thread, closed loop: a single caller generates the
workload's instances from ``--seed`` (set-up), then solves them one after
another, round robin, until ``--seconds`` have passed and every instance has
been solved at least once. A solve makes the calls the CLI makes: parse the
graph (and the witness tree, if the workload passes one), run the exhaustive
delta check (``delta`` only), ``explore_detailed``, ``serialize_schedule`` and
``verify_schedule``. The program only ever sees the generated TG1 text.

With ``--trace 0`` the last line of stdout carries the end-to-end metrics;
solve time is reported relative to a fixed reference job (``probe``) timed
between solves, because raw wall time on a shared host drifts by tens of
percent from one minute to the next. With ``--trace 1`` each instance is
first solved once untraced, then the loop runs for the rest of ``--seconds``
with spans recorded around tempex's public functions (see ``tracing.py``),
and the last line carries the per-layer metrics. Every run writes its
environment, per-instance fingerprints and per-solve times to
``perfbench/results/``; a traced run also writes its spans there.

A solve fails if the schedule does not verify, the delta check fails, more
than 6*k_eff roundabout agents survive, fewer than half the recovery prefix
is 2k-deficient for the recovered tree, or the schedule or stats bytes differ
from the instance's first solve. Any failure exits with status 1.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import platform
import resource
import sys
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from statistics import median
from time import perf_counter
from typing import Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
RESULTS = HERE / "results"

sys.path.insert(0, str(SRC))
import tempex  # noqa: E402
from tempex import core, gen, scheduler  # noqa: E402
from tempex.cli import ALGORITHMIC_FAILURES  # noqa: E402

if not Path(tempex.__file__).resolve().is_relative_to(SRC):
    raise ImportError(f"tempex was imported from {tempex.__file__}, not from {SRC}")

import tracing  # noqa: E402  (this file's directory is sys.path[0])


@dataclass(frozen=True)
class Workload:
    n: int
    k: int
    delta: int
    witness_tree: bool  # pass the generator's tree; otherwise the pipeline recovers one
    connectivity: str  # GenSpec mode; "delta-only" also runs the exhaustive delta check
    instances: int  # distinct instances per run, solved round robin

    @property
    def lifetime(self) -> int:
        """Exactly the timeline the pipeline needs: rho*(delta+t), or 2q to recover a tree."""
        if self.witness_tree:
            return scheduler.rho_for(self.k) * (self.delta + scheduler.step_budget(self.n, self.k))
        return 2 * scheduler.recovery_prefix(self.n, self.k, self.delta)

    @property
    def checks_delta(self) -> bool:
        return self.connectivity == "delta-only"

    def spec(self, seed: int) -> gen.GenSpec:
        return gen.GenSpec(
            n=self.n,
            lifetime=self.lifetime,
            k=self.k,
            seed=seed,
            tree_shape="random",
            connectivity=self.connectivity,
            delta=self.delta if self.checks_delta else None,
        )


# Why these three: see NOTES.md. Each stresses a different layer.
WORKLOADS = {
    # The paper's main setting; parse dominates, the roundabout is next.
    "witness": Workload(n=100, k=2, delta=99, witness_tree=True, connectivity="per-snapshot", instances=3),
    # No tree given: tree recovery (absence weights) dominates, pipeline at k_eff=2.
    "recovery": Workload(n=40, k=1, delta=39, witness_tree=False, connectivity="per-snapshot", instances=4),
    # Snapshots between connected runs may be disconnected; the delta check dominates.
    "delta": Workload(n=16, k=1, delta=48, witness_tree=True, connectivity="delta-only", instances=10),
}

START = 0


@dataclass
class Instance:
    seed: int
    graph_text: str
    tree_text: str
    setup_s: float
    fallbacks: int
    fingerprint: Optional[tuple[str, str]] = None
    facts: Optional[dict] = None


@dataclass
class Solve:
    instance: int
    seconds: float
    problems: list[str]
    fingerprint: Optional[tuple[str, str]]
    facts: Optional[dict] = None
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    probe_s: float = 0.0  # mean of the probes just before and after the solve


def make_instance(w: Workload, seed: int) -> Instance:
    start = perf_counter()
    result = gen.gen_random_deficient(w.spec(seed))
    graph_text = core.serialize_temporal_graph(result.graph)
    tree_text = core.serialize_spanning_tree(result.tree)
    return Instance(seed, graph_text, tree_text, perf_counter() - start, result.fallbacks)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def inspect_run(w: Workload, graph: core.TemporalGraph, run: scheduler.PipelineRun) -> dict:
    """The paper's quantities for one solved instance, read from its results."""
    plan, schedule = run.plan, run.schedule
    seen = {START}
    cover_step = None
    for t, action in enumerate(schedule.actions, start=schedule.first_step):
        if action is not None:
            seen.add(action[1])
            if len(seen) == graph.n:
                cover_step = t
                break
    prefix = min(2 * scheduler.recovery_prefix(w.n, w.k, w.delta), graph.lifetime)
    good = sum(
        1 for t in range(1, prefix + 1) if len(run.tree.edges - graph.edge_set(t)) <= 2 * w.k
    )
    scanned = sum(e.end - e.reposition_end for e in plan.epochs)
    used = sum(len(e.roundabout_times) for e in plan.epochs)
    return {
        "k_eff": plan.k,
        "edges": sum(map(len, graph.snapshots)),
        "survivors_max": max(len(trace.final.agents) for trace in run.traces),
        "cover_step": cover_step,
        "paper_budget": run.stats.rho * (w.delta + run.stats.budget),
        "snapshots_scanned": scanned,
        "snapshots_skipped": scanned - used,
        "tuple_attempts": run.stats.attempts,
        "reposition_hops": sum(
            1
            for e in plan.epochs
            for t in range(e.start, e.reposition_end + 1)
            if schedule.actions[t - schedule.first_step] is not None
        ),
        "good_fraction": good / prefix,
    }


def gate(w: Workload, facts: dict) -> list[str]:
    problems = []
    if facts["survivors_max"] > 6 * facts["k_eff"]:
        problems.append(f"{facts['survivors_max']} survivors exceed 6*k_eff = {6 * facts['k_eff']}")
    if not w.witness_tree and facts["good_fraction"] < 0.5:
        problems.append(f"good fraction {facts['good_fraction']} below 1/2")
    return problems


def solve(w: Workload, index: int, inst: Instance, inspect: bool) -> Solve:
    """One timed solve from TG1 text to verified schedule text."""
    problems: list[str] = []
    start = perf_counter()
    graph = core.parse_temporal_graph(inst.graph_text)
    tree = core.parse_spanning_tree(inst.tree_text, graph.n) if w.witness_tree else None
    if w.checks_delta and not core.verify_delta_connectivity(graph, w.delta).ok:
        problems.append("delta check failed")
    try:
        run = scheduler.explore_detailed(
            graph, w.k, w.delta, START, tree, scheduler.LasVegas(seed=inst.seed)
        )
    except ALGORITHMIC_FAILURES as exc:
        return Solve(index, perf_counter() - start, problems + [f"explore failed: {exc}"], None)
    schedule_text = scheduler.serialize_schedule(run.schedule)
    stats_text = json.dumps(run.stats.to_json_dict(), indent=2, sort_keys=True) + "\n"
    report = scheduler.verify_schedule(graph, START, run.schedule)
    seconds = perf_counter() - start
    if not report.ok:
        problems.append(f"verify: {report.describe()}")
    fingerprint = (_sha256(schedule_text), _sha256(stats_text))
    facts = inspect_run(w, graph, run) if inspect else None
    if facts is not None:
        problems += gate(w, facts)
    return Solve(index, seconds, problems, fingerprint, facts)


def probe() -> float:
    """Median seconds of five runs of a fixed pure-Python job that does not use tempex.

    Run between solves, it tracks how fast the host executes Python at that
    moment; a solve's time divided by the probes around it is steady where raw
    wall time drifts with the load of a shared host (see NOTES.md).
    """
    times = []
    for _ in range(5):
        start = perf_counter()
        seen = set()
        for i in range(30_000):
            edge = (i * 7919 % 1009, i % 613)
            if edge not in seen:
                seen.add(edge)
        sorted(seen)
        times.append(perf_counter() - start)
    return median(times)


def closed_loop(
    w: Workload, instances: list[Instance], seconds: float, tracer: Optional[tracing.Tracer] = None
) -> list[Solve]:
    """Solve round robin until `seconds` have passed and each instance ran once.

    The first solve of an instance records its fingerprint and inspects its
    results; every later solve must reproduce that fingerprint. A probe runs
    before the first solve and after each one.
    """
    solves = []
    began = perf_counter()
    i = 0
    before = probe()
    while i < len(instances) or perf_counter() - began < seconds:
        index = i % len(instances)
        inst = instances[index]
        s = solve(w, index, inst, inspect=inst.fingerprint is None)
        after = probe()
        s.probe_s = (before + after) / 2
        before = after
        if tracer is not None:
            s.spans, s.counts = tracer.take()
        if inst.fingerprint is None:
            inst.fingerprint, inst.facts = s.fingerprint, s.facts
        elif s.fingerprint != inst.fingerprint:
            s.problems.append("schedule or stats bytes differ from the instance's first solve")
        solves.append(s)
        i += 1
    return solves


def graph_bytes_per_edge(inst: Instance) -> float:
    """tracemalloc bytes the parsed graph retains, per snapshot edge; own pass."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        graph = core.parse_temporal_graph(inst.graph_text)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / sum(map(len, graph.snapshots))


def end_to_end_metrics(instances: list[Instance], solves: list[Solve]) -> dict:
    return {
        "solve_rel": (median(s.seconds / s.probe_s for s in solves), "ratio"),
        "setup_s": (median(inst.setup_s for inst in instances), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


# Per-layer time metrics: metric name -> wrapped functions whose inclusive
# seconds it sums, per traced solve.
SOLVE_TIMES = {
    "core.parse_s": ("parse_temporal_graph", "parse_spanning_tree"),
    "core.delta_check_s": ("verify_delta_connectivity",),
    "core.foremost_s": ("foremost_walk",),
    "core.deficiency_s": ("deficiency_count",),
    "tour.build_s": ("build_dfs_tour",),
    "roundabout.run_s": ("run_roundabout",),
    "roundabout.movement_s": ("movement_step",),
    "roundabout.elimination_s": ("eliminate_redundant",),
    "scheduler.explore_s": ("explore_detailed",),
    "scheduler.partition_s": ("partition_epochs",),
    "scheduler.tuple_search_s": ("find_covering_tuple",),
    "scheduler.assemble_s": ("assemble_schedule",),
    "scheduler.verify_s": ("verify_schedule",),
    "treefind.find_tree_s": ("find_good_tree",),
    "treefind.absence_weights_s": ("absence_weights",),
}
SOLVE_CALLS = {
    "core.foremost_calls": "foremost_walk",
    "core.deficiency_calls": "deficiency_count",
}
SOLVE_COUNTS = {
    "roundabout.agent_steps": "agent_steps",
    "treefind.underlying_edges": "underlying_edges",
}
# Per-instance facts (see inspect_run) reported as the median over instances.
FACT_METRICS = {
    "core.edges": ("edges", "count"),
    "scheduler.snapshots_scanned": ("snapshots_scanned", "count"),
    "scheduler.snapshots_skipped": ("snapshots_skipped", "count"),
    "scheduler.tuple_attempts": ("tuple_attempts", "count"),
    "scheduler.reposition_hops": ("reposition_hops", "count"),
    "treefind.good_fraction": ("good_fraction", "ratio"),
}


def per_layer_metrics(
    instances: list[Instance],
    setup_spans: list[list],
    reference: list[Solve],
    traced: list[Solve],
    bytes_per_edge: float,
) -> dict:
    metrics: dict[str, tuple[float, str]] = {}
    per_solve: dict[str, list[float]] = {}
    for s in traced:
        inclusive, calls, self_time, top = tracing.summarize(s.spans)
        row = {name: sum(inclusive.get(f, 0.0) for f in fns) for name, fns in SOLVE_TIMES.items()}
        row.update({name: calls[f] for name, f in SOLVE_CALLS.items()})
        row.update({name: s.counts.get(c, 0) for name, c in SOLVE_COUNTS.items()})
        row.update({f"{layer}.self_s": t for layer, t in self_time.items()})
        row["trace.solve_s"] = s.seconds
        row["trace.unattributed_s"] = s.seconds - top
        for name, value in row.items():
            per_solve.setdefault(name, []).append(value)
    for name, values in per_solve.items():
        unit = "s" if name.endswith("_s") else "count"
        metrics[name] = (median(values), unit)

    setups = [tracing.summarize(spans)[0] for spans in setup_spans]
    metrics["gen.generate_s"] = (median(i.get("gen_random_deficient", 0.0) for i in setups), "s")
    metrics["core.serialize_s"] = (
        median(
            i.get("serialize_temporal_graph", 0.0) + i.get("serialize_spanning_tree", 0.0)
            for i in setups
        ),
        "s",
    )
    metrics["gen.fallbacks"] = (sum(inst.fallbacks for inst in instances), "count")

    facts = [inst.facts for inst in instances]
    for name, (key, unit) in FACT_METRICS.items():
        metrics[name] = (median(f[key] for f in facts), unit)
    metrics["scheduler.cover_ratio"] = (
        median(f["cover_step"] / f["paper_budget"] for f in facts),
        "ratio",
    )
    metrics["roundabout.survivors_max_over_6k"] = (
        max(f["survivors_max"] / (6 * f["k_eff"]) for f in facts),
        "ratio",
    )
    metrics["core.graph_bytes_per_edge"] = (bytes_per_edge, "B/edge")
    # Traced and untraced solves run minutes apart, so compare them in probe units.
    traced_rel = median(s.seconds / s.probe_s for s in traced)
    untraced_rel = median(s.seconds / s.probe_s for s in reference)
    metrics["trace_overhead_frac"] = (traced_rel / untraced_rel - 1.0, "ratio")
    return metrics


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.machine() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout's own .git, read directly; "unknown" outside a git checkout."""
    git = HERE.parent / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload_seed": seed,
        "tempex_version": tempex.__version__,
    }


def measure(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run one workload; return (result line, details for the results file)."""
    w = WORKLOADS[name]
    seeds = [seed * 1000 + i for i in range(w.instances)]
    tracer = tracing.Tracer() if trace else None
    setup_spans = []
    if tracer is None:
        instances = [make_instance(w, s) for s in seeds]
        solves = closed_loop(w, instances, seconds)
        reference: list[Solve] = []
    else:
        with tracer.installed():
            instances = []
            for s in seeds:
                instances.append(make_instance(w, s))
                setup_spans.append(tracer.take()[0])
        began = perf_counter()
        reference = closed_loop(w, instances, 0)
        with tracer.installed():
            solves = closed_loop(w, instances, seconds - (perf_counter() - began), tracer)
    all_solves = reference + solves
    failed = sum(1 for s in all_solves if s.problems)
    correct = failed == 0 and all(inst.facts is not None for inst in instances)
    if not correct:
        metrics = {}
    elif tracer is None:
        metrics = end_to_end_metrics(instances, solves)
    else:
        metrics = per_layer_metrics(
            instances, setup_spans, reference, solves, graph_bytes_per_edge(instances[0])
        )
    result = {
        "correct": correct,
        "attempted": len(all_solves),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    details = {
        "environment": environment(seed),
        "workload": {"name": name, **vars(w), "lifetime": w.lifetime},
        "seconds": seconds,
        "trace": trace,
        "instances": [
            {
                "seed": inst.seed,
                "setup_s": inst.setup_s,
                "fallbacks": inst.fallbacks,
                "schedule_sha256": inst.fingerprint and inst.fingerprint[0],
                "stats_sha256": inst.fingerprint and inst.fingerprint[1],
                "facts": inst.facts,
            }
            for inst in instances
        ],
        "solves": [
            {
                "instance": s.instance,
                "traced": traced,
                "seconds": s.seconds,
                "probe_s": s.probe_s,
                "problems": s.problems,
            }
            for group, traced in ((reference, False), (solves, trace))
            for s in group
        ],
        "result": result,
    }
    if trace:
        details["spans"] = [{"instance": s.instance, "spans": s.spans} for s in solves]
    return result, details


def write_details(name: str, seed: int, trace: bool, details: dict) -> Path:
    RESULTS.mkdir(exist_ok=True)
    spans = details.pop("spans", None)
    stem = RESULTS / f"{name}-seed{seed}-trace{int(trace)}"
    if spans is not None:
        with gzip.open(stem.with_suffix(".spans.jsonl.gz"), "wt") as f:
            for record in spans:
                f.write(json.dumps(record) + "\n")
    path = stem.with_suffix(".json")
    path.write_text(json.dumps(details, indent=2) + "\n")
    return path


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 0:
        parser.error("--seconds must be non-negative")
    try:
        result, details = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except tracing.MissingNames as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    path = write_details(args.workload, args.seed, bool(args.trace), details)
    for s in details["solves"]:
        for problem in s["problems"]:
            print(f"instance {s['instance']}: {problem}", file=sys.stderr)
    print(json.dumps({"environment": details["environment"], "details": str(path.relative_to(HERE.parent))}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
