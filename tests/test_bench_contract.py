"""What the benchmark under ``perfbench/`` needs from tempex.

``perfbench/tracing.py`` rebinds tempex functions by name, and
``perfbench/run.py`` counts a graph's edges by iterating its snapshots and
measures tree deficiency with set differences. A break here would otherwise
show only as a traced benchmark run exiting 3 or crashing while it inspects
a solve.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

from tempex.core import serialize_temporal_graph
from tempex.gen import GenSpec, gen_random_deficient

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
