"""Acceptance suite: one test per criterion, one pass line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the pass lines.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

from cliutil import run_cli
from reference import (
    assert_cut_of_full_plan,
    checked_roundabout,
    exhaustive_covering_fraction,
    run_epoch_traces,
)
from tempex.core import SpanningTree, TemporalGraph, foremost_walk
from tempex.gen import GenSpec, GenResult, gen_blocking_front, gen_random_deficient
from tempex.oracle import foremost_arrival_oracle, optimal_exploration_time
from tempex.rng import SplitMix64
from tempex.scheduler import (
    LasVegas,
    explore_detailed,
    partition_epochs,
    recovery_prefix,
    rho_for,
    step_budget,
    verify_schedule,
)
from tempex.tour import build_dfs_tour


def _passed(criterion: int, detail: str) -> None:
    print(f"ACCEPTANCE CRITERION {criterion}: PASS ({detail})")


def _mixed_instance(i: int, n: int, k: int, lifetime: int, connected: bool = False) -> GenResult:
    """Alternate generator families and parameters across the corpus.

    With `connected` set, every snapshot is connected (needed wherever the
    windowed-connectivity hypothesis must hold with delta = n-1).
    """
    if i % 3 == 2:
        return gen_blocking_front(n, k, lifetime, seed=i)
    shape = ("path", "star", "random")[i % 3]
    connectivity = "per-snapshot" if connected or i % 2 == 0 else "none"
    rate = 0.1 if n <= 40 else 0.0
    spec = GenSpec(n=n, lifetime=lifetime, k=k, seed=i, tree_shape=shape,
                   connectivity=connectivity, extra_edge_rate=rate)
    return gen_random_deficient(spec)


def test_criterion_1_roundabout_step_properties():
    """200 instances, n in {10..200}, k in {1..4}: per-step invariants + 6k bound."""
    sizes = [10, 11, 13, 16, 20, 25, 32, 40, 50, 65, 80, 100, 120, 150, 175, 200]
    runs = 0
    for i in range(200):
        n = sizes[i % len(sizes)]
        k = i % 4 + 1
        budget = step_budget(n, k)
        result = _mixed_instance(i, n, k, budget)
        tour = build_dfs_tour(result.tree)
        # checked_roundabout asserts coverage, distinctness, multiplicity,
        # mass and the shrinkage bound on every recorded step
        trace = checked_roundabout(result.graph, tour, range(1, budget + 1), k)
        assert len(trace.final.agents) <= 6 * k
        runs += 1
    assert runs == 200
    _passed(1, "200 instances, every step checked, |A(t)| <= 6k on all runs")


def test_criterion_2_covering_fraction():
    """20 constructed enumerable instances: exact covering fraction >= 1/12.

    The tuple-space cap forces two-vertex instances: any larger tour keeps at
    least two survivors per epoch and the product over rho=33 epochs already
    exceeds 10^5. Epochs whose single roundabout step is blocked end with two
    singleton survivors; the rest end with one full-coverage survivor.
    """
    tree = SpanningTree(2, frozenset({(0, 1)}))
    rho = rho_for(1)
    checked = 0
    for seed in range(20):
        rng = SplitMix64(seed)
        blocked_count = rng.below(17)
        blocked: set[int] = set()
        while len(blocked) < blocked_count:
            blocked.add(1 + rng.below(rho))
        snapshots = []
        for t in range(1, 2 * rho + 1):
            epoch = (t + 1) // 2
            if t % 2 == 0 and epoch in blocked:
                snapshots.append([])
            else:
                snapshots.append([(0, 1)])
        graph = TemporalGraph.build(2, snapshots)
        tour = build_dfs_tour(tree)
        plan = partition_epochs(graph, tree, 1, 1, rho, 1)
        traces = run_epoch_traces(graph, tour, plan)
        product = 1
        for trace in traces:
            product *= len(trace.final.agents)
        assert product <= 10**5
        assert product == 2 ** len(blocked)
        fraction = exhaustive_covering_fraction(traces, 2)
        assert fraction >= Fraction(1, 12)
        checked += 1
    assert checked == 20
    _passed(2, "20 instances, tuple spaces up to 2^16, fraction >= 1/12 exactly")


def test_criterion_3_las_vegas_efficiency():
    """50 instances meeting the given-tree hypothesis: covering tuple within 100 draws."""
    attempts_seen = []
    for i in range(50):
        k = 1 + i % 2
        n = 5 + (i * 3) % 16
        if n - 1 < k:
            n = k + 2
        delta = n - 1
        budget = step_budget(n, k)
        lifetime = rho_for(k) * (delta + budget)
        spec = GenSpec(n=n, lifetime=lifetime, k=k, seed=100 + i,
                       tree_shape=("path", "star", "random")[i % 3],
                       connectivity="per-snapshot",
                       extra_edge_rate=0.1 if n <= 20 else 0.0)
        result = gen_random_deficient(spec)
        run = explore_detailed(result.graph, k, delta, 0, tree=result.tree,
                               strategy=LasVegas(seed=i))
        attempts_seen.append(run.stats.attempts)
        assert run.stats.attempts <= 100
    _passed(3, f"50 instances, max attempts observed = {max(attempts_seen)}")


def test_criterion_4_end_to_end_with_witness_tree():
    """100 instances with witness tree and all snapshots deficient.

    Each run stops after the epoch that completes the visit; its schedule is
    the full-plan schedule (all rho epochs) cut at that epoch's end.
    """
    ranges = {1: (5, 40), 2: (6, 30), 3: (8, 24), 4: (9, 14)}
    most_epochs = 0
    for i in range(100):
        k = i % 4 + 1
        lo, hi = ranges[k]
        n = lo + (i * 7) % (hi - lo + 1)
        delta = n - 1
        budget = step_budget(n, k)
        rho = rho_for(k)
        lifetime = rho * (delta + budget)
        result = _mixed_instance(i, n, k, lifetime, connected=True)
        strategy = LasVegas(seed=i)
        run = explore_detailed(result.graph, k, delta, i % n, tree=result.tree, strategy=strategy)
        report = verify_schedule(result.graph, i % n, run.schedule)
        assert report.ok, report.describe()
        # all snapshots deficient, so greedy epochs consume nothing extra
        epochs = run.stats.epoch_count
        assert run.stats.span == epochs * (delta + budget) == run.plan.epochs[-1].end
        assert epochs <= rho and run.stats.span <= run.stats.paper_budget == rho * (delta + budget)
        assert_cut_of_full_plan(result.graph, run, delta, i % n, strategy)
        most_epochs = max(most_epochs, epochs)
    _passed(4, f"100 instances verified; spans exactly epochs*(delta+t), at most {most_epochs} epochs")


def test_criterion_5_end_to_end_without_witness_tree():
    """50 instances, tree recovered from the prefix, doubled deficiency pipeline."""
    for i in range(50):
        k = 2 if i % 3 == 0 else 1
        n = (6 + i % 5) if k == 2 else (5 + i % 10)
        delta = n - 1
        q = recovery_prefix(n, k, delta)
        lifetime = 2 * q
        spec = GenSpec(n=n, lifetime=lifetime, k=k, seed=300 + i,
                       tree_shape=("path", "star", "random")[i % 3],
                       connectivity="per-snapshot",
                       extra_edge_rate=0.1 if n <= 10 else 0.05)
        result = gen_random_deficient(spec)
        run = explore_detailed(result.graph, k, delta, 0, strategy=LasVegas(seed=i))
        assert run.stats.rho == rho_for(2 * k)
        report = verify_schedule(result.graph, 0, run.schedule)
        assert report.ok, report.describe()
    _passed(5, f"50 instances verified; rho(k=1)={rho_for(2)}, rho(k=2)={rho_for(4)}")


def test_criterion_6_q_of_2q_guarantee():
    """50 deficient instances: at least q of the first 2q snapshots are 2k-deficient."""
    from tempex.treefind import find_good_tree

    for i in range(50):
        k = 1 + i % 3
        n = max(k + 2, 5 + i % 8)
        q = 5 + i % 12
        spec = GenSpec(n=n, lifetime=2 * q, k=k, seed=500 + i,
                       tree_shape=("path", "star", "random")[i % 3],
                       connectivity=("per-snapshot", "none")[i % 2],
                       extra_edge_rate=0.2 if i % 4 == 0 else 0.0)
        result = gen_random_deficient(spec)
        _, stats = find_good_tree(result.graph, k, q)
        assert stats.good_count >= q
    _passed(6, "50 instances; recovered tree always 2k-deficient on >= q of 2q")


def test_criterion_7_oracle_cross_checks():
    """Small corpus: foremost sweep == time-expanded oracle; pipeline >= optimum."""
    # (a) arrival agreement on every corpus instance, all sources, several windows
    compared = 0
    for i in range(30):
        n = 2 + i % 9
        k = min(1 + i % 3, n - 1)
        lifetime = 5 + (i * 5) % 36
        result = _mixed_instance(i, n, k, lifetime)
        graph = result.graph
        lo = max(1, lifetime // 3)
        windows = {
            (1, lifetime),
            (1, (lifetime + 1) // 2),
            ((lifetime + 1) // 2, lifetime),
            (lo, min(lifetime, lo + 9)),
        }
        for window in windows:
            for source in range(n):
                sweep = foremost_walk(graph, window, source)
                assert sweep.arrival == foremost_arrival_oracle(graph, window, source)
                compared += 1
    # (b) the pipeline never beats the exact optimum
    for i in range(10):
        n = 4 + i % 5
        k = 1
        delta = n - 1
        budget = step_budget(n, k)
        lifetime = rho_for(k) * (delta + budget)
        spec = GenSpec(n=n, lifetime=lifetime, k=k, seed=700 + i,
                       connectivity="per-snapshot", extra_edge_rate=0.1)
        result = gen_random_deficient(spec)
        run = explore_detailed(result.graph, k, delta, 0, tree=result.tree,
                               strategy=LasVegas(seed=i))
        assert verify_schedule(result.graph, 0, run.schedule).ok
        best = optimal_exploration_time(result.graph, 0, lifetime_cap=lifetime)
        assert best.feasible
        assert run.schedule.length >= best.length
    _passed(7, f"{compared} arrival comparisons exact; 10 pipeline runs >= optimum")


def test_criterion_8_cli_determinism(tmp_path: Path):
    """gen / explore / tree reruns with identical arguments are byte-identical.

    Both invocations use the same output paths, so every produced file
    (including the run manifests) must come out byte for byte the same.
    """
    graph_path = tmp_path / "inst.tg"
    tree_path = tmp_path / "inst.tg.tree"
    sched = tmp_path / "sched.txt"
    stats = tmp_path / "stats.json"
    tree_out = tmp_path / "found.tree"
    invocations = {
        "gen": ("gen", "--n", "7", "--L", "396", "--k", "1", "--seed", "13",
                "--tree-shape", "random", "--extra-edge-rate", "0.2",
                "--out", str(graph_path)),
        "explore": ("explore", "--graph", str(graph_path), "--k", "1",
                    "--delta", "6", "--start", "0", "--tree", str(tree_path),
                    "--seed", "2", "--out", str(sched), "--stats", str(stats)),
        "tree": ("tree", "--graph", str(graph_path), "--k", "1", "--q", "100",
                 "--out", str(tree_out)),
    }
    produced = {
        "gen": (graph_path, tree_path, Path(str(graph_path) + ".manifest.json")),
        "explore": (sched, stats, Path(str(sched) + ".manifest.json")),
        "tree": (tree_out, Path(str(tree_out) + ".manifest.json")),
    }
    snapshots: dict[str, list[bytes]] = {name: [] for name in invocations}
    for _ in range(2):
        for name, args in invocations.items():
            proc = run_cli(*args)
            assert proc.returncode == 0, proc.stderr
            snapshots[name].append(b"".join(p.read_bytes() for p in produced[name]))
    for name, pair in snapshots.items():
        assert pair[0] == pair[1], f"{name} output differs between reruns"
    _passed(8, "gen/explore/tree reruns byte-identical, manifests included")
