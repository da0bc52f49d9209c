"""What the benchmark under ``perfbench/`` needs from tempex.

``perfbench/tracing.py`` rebinds tempex functions by name and counts agent
steps from ``movement_step``'s first argument, and ``perfbench/run.py``
counts a graph's edges by iterating its snapshots, measures tree deficiency
with set differences, calls ``explore_detailed`` positionally and reads the
paper's quantities off the run it returns, and times the epoch loop by the
``assemble_schedule`` spans. A
break here would otherwise show only as a traced benchmark run exiting 3 or
crashing while it inspects a solve.
"""

from __future__ import annotations

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import tempex.cli
from tempex.core import deficiency_count, serialize_temporal_graph
from tempex.gen import GenSpec, gen_random_deficient
from tempex.roundabout import RoundaboutState, movement_step
from tempex.scheduler import LasVegas, explore_detailed, rho_for, step_budget
from tempex.tour import build_dfs_tour

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_wrapped_name_is_callable():
    wrapped = load_tracing().WRAPPED
    assert wrapped
    missing = [
        f"{module}.{name}"
        for module, name in wrapped
        if not callable(getattr(importlib.import_module(module), name, None))
    ]
    assert missing == []


def test_snapshot_iteration_and_tree_difference():
    result = gen_random_deficient(GenSpec(n=9, lifetime=40, k=2, seed=3, tree_shape="random"))
    graph, tree = result.graph, result.tree
    counts = serialize_temporal_graph(graph).split("\n")[1:-1]
    edge_count = 0
    for _ in range(graph.lifetime):
        m = int(counts[0])
        edge_count += m
        counts = counts[m + 1 :]
    assert sum(map(len, graph.snapshots)) == edge_count
    for t in range(1, graph.lifetime + 1):
        assert len(tree.edges - graph.edge_set(t)) <= 2


def test_traced_counters_and_deficiency_count():
    # the counters read movement_step's arguments, and core.deficiency_* time
    # the set-difference reference that missing() must agree with
    result = gen_random_deficient(GenSpec(n=9, lifetime=6, k=2, seed=3, tree_shape="random"))
    graph, tree = result.graph, result.tree
    tour = build_dfs_tour(tree)
    state = RoundaboutState.initial(tour.n_positions)
    blocked = next(graph.missing(tree.edges, [1]))
    args = (state, blocked, tour)
    counts = Counter()
    load_tracing().ON_RETURN["movement_step"](counts, args, movement_step(*args))
    assert counts["agent_steps"] == len(state.agents)
    for t, lacked in enumerate(graph.missing(tree.edges, range(1, graph.lifetime + 1)), start=1):
        assert deficiency_count(graph.edge_set(t), tree) == len(lacked)


def test_explore_run_fields():
    n, k, delta = 7, 1, 6
    spec = GenSpec(n=n, lifetime=rho_for(k) * (delta + step_budget(n, k)), k=k, seed=5)
    result = gen_random_deficient(spec)
    run = explore_detailed(result.graph, k, delta, 0, result.tree, LasVegas(seed=5))
    assert run.plan.k == k
    for epoch, trace in zip(run.plan.epochs, run.traces, strict=True):
        assert epoch.start <= epoch.reposition_end <= epoch.end
        assert all(epoch.reposition_end < t <= epoch.end for t in epoch.roundabout_times)
        assert 1 <= len(trace.final.agents) <= 6 * k
    assert (run.stats.rho, run.stats.budget) == (rho_for(k), step_budget(n, k))
    assert run.stats.attempts >= 1
    assert run.stats.to_json_dict()["attempts"] == run.stats.attempts
    assert run.tree.edges == result.tree.edges
    assert run.schedule.first_step == 1
    assert len(run.schedule.actions) == run.schedule.span
    # the run's plan holds only the epochs run, and the schedule ends with the last
    assert run.schedule.span == run.plan.epochs[-1].end
    assert run.stats.cover_step <= run.schedule.span <= run.stats.paper_budget
    failures = tempex.cli.ALGORITHMIC_FAILURES
    assert isinstance(failures, tuple) and all(issubclass(e, Exception) for e in failures)


def test_traced_explore_times_the_epoch_loop():
    # scheduler.assemble_s sums the assemble_schedule spans: the loop must
    # run on every solve, and each epoch's roundabout inside it
    n, k, delta = 7, 1, 6
    spec = GenSpec(n=n, lifetime=rho_for(k) * (delta + step_budget(n, k)), k=k, seed=5)
    result = gen_random_deficient(spec)
    tracer = load_tracing().Tracer()
    with tracer.installed():
        run = explore_detailed(result.graph, k, delta, 0, result.tree, LasVegas(seed=5))
    spans, _ = tracer.take()
    loops = [i for i, (name, _, _, _) in enumerate(spans) if name == "assemble_schedule"]
    assert len(loops) == run.stats.attempts == 1
    roundabouts = [parent for name, _, _, parent in spans if name == "run_roundabout"]
    assert roundabouts == loops * len(run.traces)
