"""End-to-end walkthrough on one small instance.

Generates a deficient instance, runs the pipeline twice (with the witness
tree, and with tree recovery, naming where the recovered tree came from and
the deficiency its run used), prints the step by which each run has visited
every vertex against the paper's span bound, checks both schedules again
independently of the pipeline's own check, and compares the schedule
lengths against the exact brute-force optimum.

Usage: python scripts/demo_pipeline.py [seed]
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from tempex.gen import GenSpec, gen_random_deficient
from tempex.oracle import optimal_exploration_time
from tempex.scheduler import (
    ExploreStats,
    LasVegas,
    explore,
    explore_detailed,
    recovery_prefix,
    verify_schedule,
)


def print_cover(stats: ExploreStats) -> None:
    print(
        f"cover step {stats.cover_step} of paperBudget {stats.paper_budget} "
        f"({stats.cover_step / stats.paper_budget:.3f})"
    )


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 0
    n, k = 8, 1
    delta = n - 1
    lifetime = 2 * recovery_prefix(n, k, delta)
    spec = GenSpec(
        n=n,
        lifetime=lifetime,
        k=k,
        seed=seed,
        tree_shape="random",
        connectivity="per-snapshot",
        extra_edge_rate=0.15,
    )
    result = gen_random_deficient(spec)
    print(f"instance: n={n} k={k} delta={delta} lifetime={lifetime} seed={seed}")
    print(f"witness tree: {sorted(result.tree.edges)}")

    # explore verifies its schedule before it returns; the verify_schedule
    # calls below are this script's own, independent check of the result
    schedule, stats = explore(result.graph, k, delta, 0, tree=result.tree,
                              strategy=LasVegas(seed=seed))
    report = verify_schedule(result.graph, 0, schedule)
    print("\nwith witness tree:")
    print(json.dumps(stats.to_json_dict(), indent=2, sort_keys=True))
    print_cover(stats)
    print(f"independent check: {report.describe()}")

    recovered = explore_detailed(result.graph, k, delta, 0, strategy=LasVegas(seed=seed))
    schedule2, stats2 = recovered.schedule, recovered.stats
    report2 = verify_schedule(result.graph, 0, schedule2)
    print(f"\nwith recovered tree (source {stats2.tree_source}, deficiency {recovered.plan.k} of at most {2 * k}):")
    print(json.dumps(stats2.to_json_dict(), indent=2, sort_keys=True))
    print_cover(stats2)
    print(f"independent check: {report2.describe()}")

    best = optimal_exploration_time(result.graph, 0, lifetime_cap=lifetime)
    print(f"\nexact optimum: {best.length} moves (completion time {best.completion_time})")
    print(f"pipeline lengths: {schedule.length} (tree given), {schedule2.length} (tree recovered)")
    return 0 if report.ok and report2.ok else 1


if __name__ == "__main__":
    sys.exit(main())
