from __future__ import annotations

import json
from pathlib import Path

import pytest

from cliutil import run_cli
from reference import full_plan_schedule, per_source_delta_check
from tempex.core import parse_spanning_tree, parse_temporal_graph
from tempex.scheduler import LasVegas, parse_schedule, verify_schedule


@pytest.fixture
def e1_graph_file(tmp_path: Path) -> Path:
    path = tmp_path / "e1.tg"
    path.write_text("3 4\n" + "2\n0 1\n1 2\n" * 4)
    return path


def gen_instance(tmp_path: Path, n: int, lifetime: int, k: int, seed: int) -> tuple[Path, Path]:
    out = tmp_path / "inst"
    proc = run_cli(
        "gen", "--n", str(n), "--L", str(lifetime), "--k", str(k),
        "--seed", str(seed), "--out", str(out),
    )
    assert proc.returncode == 0, proc.stderr
    return tmp_path / "inst.tg", tmp_path / "inst.tg.tree"


@pytest.fixture
def stray_last_line(tmp_path: Path) -> tuple[Path, Path, str]:
    """A generated graph file with a stray line after its last step, far
    beyond the steps `explore` reads; its tree file; the clean text."""
    graph, tree = gen_instance(tmp_path, 12, 2000, 1, 7)
    clean = graph.read_text()
    graph.write_text(clean + "stray\n")
    return graph, tree, clean


class TestPipeline:
    def test_gen_explore_verify_round_trip(self, tmp_path):
        graph, tree = gen_instance(tmp_path, 6, 33 * 10, 1, 7)
        sched = tmp_path / "sched.txt"
        proc = run_cli(
            "explore", "--graph", str(graph), "--k", "1", "--delta", "5",
            "--start", "0", "--tree", str(tree), "--seed", "1", "--out", str(sched),
        )
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)
        assert stats["rho"] == 33
        # the run stops after the epoch that completes the visit: its schedule is
        # the full-plan schedule cut at that epoch's end
        parsed = parse_temporal_graph(graph.read_text())
        plan, full, attempts = full_plan_schedule(
            parsed, parse_spanning_tree(tree.read_text(), 6), 1, 5, 0, LasVegas(seed=1)
        )
        assert attempts == 1
        assert 1 <= stats["epochs"] < 33
        end = plan.epochs[stats["epochs"] - 1].end
        assert stats["scheduleSpan"] == end <= stats["paperBudget"] == 33 * (5 + 5)
        assert parse_schedule(sched.read_text()).actions == full.actions[:end]
        assert stats["coverStep"] <= end
        manifest = json.loads((tmp_path / "sched.txt.manifest.json").read_text())
        assert manifest["parameters"] == {"k": 1, "delta": 5, "start": 0, "seed": 1}

        proc = run_cli("verify", "--graph", str(graph), "--schedule", str(sched), "--start", "0")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "valid"

    def test_explore_without_tree(self, tmp_path):
        # lifetime 2q for n=5, k=1, delta=4: q = 90 * (4 + 3)
        graph, _ = gen_instance(tmp_path, 5, 2 * 90 * 7, 1, 3)
        proc = run_cli(
            "explore", "--graph", str(graph), "--k", "1", "--delta", "4",
            "--start", "2", "--seed", "5",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.startswith("start 2\n")

    def test_tampered_schedule_fails_verify(self, tmp_path):
        graph, tree = gen_instance(tmp_path, 5, 33 * 8, 1, 2)
        sched = tmp_path / "s.txt"
        proc = run_cli(
            "explore", "--graph", str(graph), "--k", "1", "--delta", "4",
            "--start", "0", "--tree", str(tree), "--seed", "1", "--out", str(sched),
        )
        assert proc.returncode == 0, proc.stderr
        lines = sched.read_text().splitlines()
        move_at = next(i for i, l in enumerate(lines) if "move" in l)
        t = lines[move_at].split()[0]
        lines[move_at] = f"{t} move 0 4"
        sched.write_text("\n".join(lines) + "\n")
        proc = run_cli("verify", "--graph", str(graph), "--schedule", str(sched))
        assert proc.returncode == 1
        assert "invalid" in proc.stdout

    def test_explore_insufficient_lifetime_exits_1(self, e1_graph_file):
        proc = run_cli(
            "explore", "--graph", str(e1_graph_file), "--k", "1", "--delta", "2",
            "--start", "0",
        )
        assert proc.returncode == 1
        assert "failed: epoch 0: found 4 of" in proc.stderr
        assert "snapshots for tree recovery by step 4 (timeline ends)" in proc.stderr

    def test_trace_flag_dumps_to_stderr(self, tmp_path):
        graph, tree = gen_instance(tmp_path, 5, 33 * 8, 1, 2)
        proc = run_cli(
            "explore", "--graph", str(graph), "--k", "1", "--delta", "4",
            "--start", "0", "--tree", str(tree), "--seed", "1",
            "--out", str(tmp_path / "s.txt"), "--trace",
        )
        assert proc.returncode == 0
        assert "epoch 1: 1 " in proc.stderr
        assert "|A|=" in proc.stderr

    def test_delta_defaults_with_note(self, tmp_path):
        graph, tree = gen_instance(tmp_path, 4, 33 * 6, 1, 5)
        proc = run_cli(
            "explore", "--graph", str(graph), "--k", "1", "--start", "0",
            "--tree", str(tree), "--out", str(tmp_path / "s.txt"),
        )
        assert proc.returncode == 0, proc.stderr
        assert "delta defaulted to n-1 = 3" in proc.stderr


class TestSubcommands:
    def test_oracle_prints_three(self, e1_graph_file):
        proc = run_cli("oracle", "--graph", str(e1_graph_file), "--start", "1")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "3"

    def test_oracle_infeasible_exits_1(self, tmp_path):
        path = tmp_path / "g.tg"
        path.write_text("3 2\n1\n0 1\n1\n0 1\n")
        proc = run_cli("oracle", "--graph", str(path), "--start", "0")
        assert proc.returncode == 1
        assert proc.stdout.strip() == "infeasible"

    def test_check_delta_accepts(self, e1_graph_file):
        proc = run_cli("check-delta", "--graph", str(e1_graph_file), "--delta", "2")
        assert proc.returncode == 0
        assert "yes" in proc.stdout

    def test_check_delta_rejects(self, tmp_path):
        path = tmp_path / "g.tg"
        path.write_text("3 2\n1\n0 1\n2\n0 1\n1 2\n")
        proc = run_cli("check-delta", "--graph", str(path), "--delta", "1")
        assert proc.returncode == 1
        assert "no" in proc.stdout

    def test_check_delta_exhaustive_at_benchmark_shape(self, tmp_path):
        # n=16, delta=48, L = rho(1) * (delta + (n-1)) = 2079, as in the delta workload
        out = tmp_path / "inst"
        proc = run_cli(
            "gen", "--n", "16", "--L", "2079", "--k", "1", "--seed", "401",
            "--tree-shape", "random", "--connectivity", "delta-only", "--delta", "48",
            "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        proc = run_cli(
            "check-delta", "--graph", str(tmp_path / "inst.tg"), "--delta", "48",
            "--mode", "exhaustive",
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "delta-connected: yes (2032 windows, exhaustive)\n"

    def test_check_delta_witness_matches_per_source_reference(self, tmp_path):
        out = tmp_path / "inst"
        proc = run_cli(
            "gen", "--n", "6", "--L", "40", "--k", "2", "--seed", "1",
            "--connectivity", "delta-only", "--delta", "8", "--out", str(out),
        )
        assert proc.returncode == 0, proc.stderr
        graph_path = tmp_path / "inst.tg"
        proc = run_cli("check-delta", "--graph", str(graph_path), "--delta", "5", "--mode", "exhaustive")
        assert proc.returncode == 1
        graph = parse_temporal_graph(graph_path.read_text())
        report = per_source_delta_check(graph, 5, "exhaustive", 32, 0)
        window, pair = report.witness
        assert window > 1
        assert proc.stdout == f"delta-connected: no (window {window}, pair {pair})\n"

    def test_tree_subcommand(self, tmp_path):
        graph, _ = gen_instance(tmp_path, 6, 20, 1, 4)
        out = tmp_path / "found.tree"
        proc = run_cli("tree", "--graph", str(graph), "--k", "1", "--q", "10", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        stats = json.loads(proc.stdout)
        assert stats["goodCount"] >= 10
        assert out.exists()
        assert (tmp_path / "found.tree.manifest.json").exists()

    def test_bench(self, tmp_path):
        manifest = tmp_path / "rows.json"
        manifest.write_text(json.dumps([
            {"n": 5, "k": 1, "delta": 4, "seed": 0},
            {"n": 6, "k": 1, "delta": 5, "seed": 1},
        ]))
        out = tmp_path / "bench.csv"
        proc = run_cli("bench", "--manifest", str(manifest), "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == (
            "instance,n,k,delta,rho,t,epochs,scheduleSpan,scheduleLength,coverStep,paperBudget,"
            "verified,attempts,wallMillis"
        )
        assert len(lines) == 3
        assert lines[1].startswith("bench-0,5,1,4,33,4,")
        rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
        assert rows[0]["paperBudget"] == "264"  # 33 * (4 + 4)
        for row in rows:
            assert 1 <= int(row["epochs"]) <= int(row["rho"])
            assert 1 <= int(row["coverStep"]) <= int(row["scheduleSpan"])
            assert int(row["paperBudget"]) == int(row["rho"]) * (int(row["delta"]) + int(row["t"]))
            assert int(row["scheduleSpan"]) <= int(row["paperBudget"])
            assert row["verified"] == "true"


class TestExitCodes:
    def test_explore_reads_only_the_steps_it_uses(self, stray_last_line, tmp_path):
        graph, tree, clean = stray_last_line
        sched = tmp_path / "s.txt"
        proc = run_cli("explore", "--graph", str(graph), "--tree", str(tree), "--k", "1", "--out", str(sched))
        assert proc.returncode == 0, proc.stderr
        assert verify_schedule(parse_temporal_graph(clean), 0, parse_schedule(sched.read_text())).ok

    @pytest.mark.parametrize("args", [
        ("verify", "--schedule", "{schedule}"),
        ("check-delta", "--delta", "11"),
        ("tree", "--k", "1", "--q", "10", "--out", "{out}"),
        ("oracle", "--start", "0"),
        ("explore", "--k", "1", "--tree", "{tree}", "--check-delta"),
    ], ids=["verify", "check-delta", "tree", "oracle", "explore-check-delta"])
    def test_other_commands_read_the_whole_file(self, stray_last_line, tmp_path, args):
        graph, tree, clean = stray_last_line
        schedule = tmp_path / "s.txt"
        schedule.write_text("start 0\n1 wait\n")
        files = {"schedule": schedule, "out": tmp_path / "found.tree", "tree": tree}
        proc = run_cli(args[0], "--graph", str(graph), *(a.format(**files) for a in args[1:]))
        assert proc.returncode == 2
        line = clean.count("\n") + 1
        assert proc.stderr.endswith(f"format error: line {line}: unexpected trailing content 'stray'\n")

    def test_unknown_subcommand_is_usage_error(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 2

    def test_malformed_graph_is_format_error(self, tmp_path):
        path = tmp_path / "bad.tg"
        path.write_text("2 1\n1\n0 0\n")
        proc = run_cli("oracle", "--graph", str(path), "--start", "0")
        assert proc.returncode == 2
        assert "line 3" in proc.stderr

    def test_malformed_schedule_is_format_error(self, tmp_path, e1_graph_file):
        path = tmp_path / "bad.txt"
        path.write_text("start 0\n# first step\n1 move 0 1\n\n2 move 1 x\n")
        proc = run_cli("verify", "--graph", str(e1_graph_file), "--schedule", str(path))
        assert proc.returncode == 2
        assert "format error: line 5: move endpoint: expected integer, got 'x'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("fmt", ["graph", "tree", "schedule"])
    def test_integer_with_underscore_is_format_error(self, tmp_path, e1_graph_file, fmt):
        # int() alone would read '1_0' as 10
        path = tmp_path / "bad"
        if fmt == "graph":
            path.write_text("11 1\n1\n0 1_0\n")
            args = ["check-delta", "--graph", str(path), "--delta", "1"]
            where = "line 3: edge endpoint"
        elif fmt == "tree":
            path.write_text("0 1\n1 1_0\n")
            args = ["explore", "--graph", str(e1_graph_file), "--k", "1", "--tree", str(path)]
            where = "line 2: edge endpoint"
        else:
            path.write_text("start 0\n1_0 wait\n")
            args = ["verify", "--graph", str(e1_graph_file), "--schedule", str(path)]
            where = "line 2: step"
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert f"format error: {where}: expected integer, got '1_0'" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_bench_row_missing_key_is_usage_error(self, tmp_path):
        manifest = tmp_path / "rows.json"
        manifest.write_text(json.dumps([
            {"n": 5, "k": 1, "delta": 4, "seed": 0},
            {"n": 5, "delta": 4, "seed": 0},
        ]))
        proc = run_cli("bench", "--manifest", str(manifest), "--out", str(tmp_path / "b.csv"))
        assert proc.returncode == 2
        assert "bad input: manifest row 1: missing key 'k'" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("rows, message", [
        ({}, "bad input: manifest must be a JSON list of objects, got dict"),
        ([[1, 2]], "bad input: manifest row 0: expected an object, got list"),
        (
            [{"n": 5, "k": 1, "delta": 4, "seed": 0}, {"n": "5", "k": 1, "delta": 4, "seed": 0}],
            "bad input: manifest row 1: 'n' has wrong type str",
        ),
    ], ids=["not-a-list", "row-not-an-object", "field-wrong-type"])
    def test_bench_malformed_manifest_is_usage_error(self, tmp_path, rows, message):
        manifest = tmp_path / "rows.json"
        manifest.write_text(json.dumps(rows))
        out = tmp_path / "b.csv"
        proc = run_cli("bench", "--manifest", str(manifest), "--out", str(out))
        assert proc.returncode == 2
        assert message in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

    def test_missing_file(self, tmp_path):
        proc = run_cli("oracle", "--graph", str(tmp_path / "nope.tg"), "--start", "0")
        assert proc.returncode == 2

    def test_directory_input_is_usage_error(self, tmp_path, e1_graph_file):
        for inputs in (
            ["--graph", str(tmp_path)],
            ["--graph", str(e1_graph_file), "--tree", str(tmp_path)],
        ):
            proc = run_cli("explore", "--k", "1", *inputs)
            assert proc.returncode == 2
            assert f"cannot read {tmp_path}" in proc.stderr
            assert "Traceback" not in proc.stderr

    def test_tree_with_a_cycle_is_usage_error(self, tmp_path):
        graph = tmp_path / "g.tg"
        graph.write_text("4 2\n" + "3\n0 1\n1 2\n2 3\n" * 2)
        tree = tmp_path / "cycle.tree"
        tree.write_text("0 1\n1 2\n0 2\n")
        proc = run_cli("explore", "--graph", str(graph), "--k", "1", "--tree", str(tree))
        assert proc.returncode == 2
        assert "bad input: spanning tree is not connected" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("shape", ["gen", "tree", "explore-stats", "bench"])
    def test_write_failure_says_cannot_write(self, tmp_path, shape):
        afile = tmp_path / "afile"
        afile.write_text("a regular file, not a directory\n")
        if shape == "gen":
            args = ["gen", "--n", "4", "--L", "3", "--k", "1", "--out", str(afile / "x")]
            failed = afile
        elif shape == "tree":
            graph, _ = gen_instance(tmp_path, 6, 20, 1, 4)
            args = ["tree", "--graph", str(graph), "--k", "1", "--q", "10",
                    "--out", str(afile / "t.tree")]
            failed = afile
        elif shape == "explore-stats":
            graph, tree = gen_instance(tmp_path, 6, 33 * 10, 1, 7)
            failed = tmp_path / "nodir" / "s.json"
            args = ["explore", "--graph", str(graph), "--k", "1", "--delta", "5",
                    "--tree", str(tree), "--out", str(tmp_path / "o.txt"), "--stats", str(failed)]
        else:
            manifest = tmp_path / "rows.json"
            manifest.write_text(json.dumps([{"n": 5, "k": 1, "delta": 4, "seed": 0}]))
            args = ["bench", "--manifest", str(manifest), "--out", str(afile / "b.csv")]
            failed = afile
        proc = run_cli(*args)
        assert proc.returncode == 2
        assert f"cannot write {failed}: " in proc.stderr
        assert "cannot read" not in proc.stderr
        assert "missing file" not in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("flags", [
        ["--strategy", "enumerate"],
        ["--enum-cap", "5"],
        ["--max-attempts", "1"],
    ], ids=["strategy", "enum-cap", "max-attempts"])
    def test_removed_search_flags_are_usage_errors(self, e1_graph_file, flags):
        proc = run_cli("explore", "--graph", str(e1_graph_file), "--k", "1", "--delta", "2", *flags)
        assert proc.returncode == 2
        assert proc.stderr.startswith("usage: tempex ")
        assert f"unrecognized arguments: {' '.join(flags)}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stdout == ""

    def test_tree_negative_k_is_usage_error(self, e1_graph_file, tmp_path):
        out = tmp_path / "t.tree"
        proc = run_cli("tree", "--graph", str(e1_graph_file), "--k", "-3", "--q", "1", "--out", str(out))
        assert proc.returncode == 2
        assert "k must be non-negative" in proc.stderr
        assert not out.exists()

    def test_stats_without_out_is_usage_error(self, tmp_path):
        # rejected before any input is read: the graph file does not exist
        stats = tmp_path / "s.json"
        proc = run_cli(
            "explore", "--graph", str(tmp_path / "nope.tg"), "--k", "1", "--stats", str(stats),
        )
        assert proc.returncode == 2
        assert "bad input: --stats needs --out" in proc.stderr
        assert proc.stdout == ""
        assert not stats.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--tree-shape", "star"),
        ("--connectivity", "none"),
        ("--extra-edge-rate", "0.9"),
        ("--delta", "5"),
    ])
    def test_blocking_front_rejects_flags_it_ignores(self, tmp_path, flag, value):
        out = tmp_path / "bf"
        proc = run_cli(
            "gen", "--n", "6", "--L", "50", "--k", "1", "--family", "blocking-front",
            flag, value, "--out", str(out),
        )
        assert proc.returncode == 2
        assert f"bad input: {flag} {value} does not apply to --family blocking-front" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("connectivity", ["per-snapshot", "none"])
    def test_random_family_rejects_delta_outside_delta_only(self, tmp_path, connectivity):
        out = tmp_path / "g"
        proc = run_cli(
            "gen", "--n", "6", "--L", "40", "--k", "1", "--connectivity", connectivity,
            "--delta", "7", "--out", str(out),
        )
        assert proc.returncode == 2
        assert f"bad input: delta applies only to delta-only connectivity, not {connectivity}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert list(tmp_path.iterdir()) == []

    def test_blocking_front_accepts_the_values_it_builds(self, tmp_path):
        proc = run_cli(
            "gen", "--n", "6", "--L", "50", "--k", "1", "--family", "blocking-front",
            "--tree-shape", "path", "--connectivity", "per-snapshot", "--extra-edge-rate", "0",
            "--out", str(tmp_path / "bf"),
        )
        assert proc.returncode == 0, proc.stderr
        assert parse_spanning_tree((tmp_path / "bf.tg.tree").read_text(), 6).edges == {
            (i, i + 1) for i in range(5)
        }

    def test_check_delta_zero_samples_is_usage_error(self, e1_graph_file):
        proc = run_cli(
            "check-delta", "--graph", str(e1_graph_file), "--delta", "2",
            "--mode", "sampled", "--samples", "0",
        )
        assert proc.returncode == 2
        assert "samples >= 1" in proc.stderr
        assert proc.stdout == ""


class TestDeterminism:
    def test_gen_twice_identical(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        for out in (a, b):
            proc = run_cli(
                "gen", "--n", "7", "--L", "50", "--k", "2", "--seed", "11",
                "--tree-shape", "random", "--extra-edge-rate", "0.2", "--out", str(out),
            )
            assert proc.returncode == 0
        assert (tmp_path / "a.tg").read_bytes() == (tmp_path / "b.tg").read_bytes()
        assert (tmp_path / "a.tg.tree").read_bytes() == (tmp_path / "b.tg.tree").read_bytes()

    def test_explore_twice_identical(self, tmp_path):
        graph, tree = gen_instance(tmp_path, 6, 33 * 10, 1, 9)
        outs = []
        for name in ("s1.txt", "s2.txt"):
            sched = tmp_path / name
            proc = run_cli(
                "explore", "--graph", str(graph), "--k", "1", "--delta", "5",
                "--start", "0", "--tree", str(tree), "--seed", "3", "--out", str(sched),
            )
            assert proc.returncode == 0
            outs.append(sched.read_bytes())
        assert outs[0] == outs[1]
