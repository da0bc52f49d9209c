from __future__ import annotations

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from reference import (
    chosen_starts,
    foremost_arrival_oracle,
    parse_lines,
    per_source_delta_check,
    snapshot_is_connected,
)
from strategies import (
    distinct_snapshots,
    mixed_window_graphs,
    near_static_snapshots,
    repeating_snapshots,
    spanning_trees,
    temporal_graphs,
)
from tempex import core
from tempex.core import (
    ConnectivityReport,
    ParseError,
    SpanningTree,
    TemporalGraph,
    canonical_edge,
    deficiency_count,
    foremost_walk,
    parse_spanning_tree,
    parse_temporal_graph,
    serialize_spanning_tree,
    serialize_temporal_graph,
    verify_delta_connectivity,
    write_temporal_graph,
    _tg1_chunks,
)
from tempex.gen import GenSpec, gen_random_deficient
from tempex.scheduler import explore_detailed, paper_budget, serialize_schedule
from tempex.treefind import absence_weights


def sorted_lines_tg1(graph):
    """Reference TG1 writer: sort each snapshot's lines."""
    line_of = {e: f"{e[0]} {e[1]}" for e in graph.underlying()}
    out = [f"{graph.n} {graph.lifetime}"]
    for snap in graph.snapshots:
        out.append(str(len(snap)))
        out.extend(map(line_of.__getitem__, sorted(snap)))
    return "\n".join(out) + "\n"


SEPARATORS = ["\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029", "\r\r\n"]


def perturb_tg1(text, n, data, start=0):
    """One random irregularity applied to TG1 text, at line `start` or later:
    the kinds of input the parser reads line by line, or rejects."""
    lines = text.split("\n")[:-1]
    i = data.draw(st.integers(start, len(lines) - 1))
    line = lines[i]
    first = line.split(" ")[0]
    kind = data.draw(st.sampled_from([
        "comment", "blank", "spaces", "crlf", "swap", "duplicate", "duplicate-counted",
        "out-of-range", "self-loop", "non-integer", "leading-zero", "truncate", "trailing", "separator",
    ]))
    if kind == "comment":
        lines.insert(i, "# note")
    elif kind == "blank":
        lines.insert(i, data.draw(st.sampled_from(["", "  "])))
    elif kind == "spaces":
        lines[i] = data.draw(st.sampled_from([" " + line, line + " ", line.replace(" ", "  "), line.replace(" ", "\t")]))
    elif kind == "crlf":
        return "\r\n".join(lines) + "\r\n"
    elif kind == "swap":
        lines[i] = " ".join(reversed(line.split(" ")))
    elif kind == "duplicate":
        lines.insert(i, line)
    elif kind == "duplicate-counted":  # copy an edge line and raise its block's count to match
        count_at = [1]
        while count_at[-1] < len(lines):
            count_at.append(count_at[-1] + 1 + int(lines[count_at[-1]]))
        edge_at = [j for c in count_at[:-1] for j in range(c + 1, c + 1 + int(lines[c])) if j >= start]
        if edge_at:
            j = data.draw(st.sampled_from(edge_at))
            count = max(c for c in count_at if c < j)
            lines.insert(j, lines[j])
            lines[count] = str(int(lines[count]) + 1)
    elif kind == "out-of-range":
        lines[i] = f"{first} {n + data.draw(st.integers(0, 2))}"
    elif kind == "self-loop":
        lines[i] = f"{first} {first}"
    elif kind == "non-integer":
        lines[i] = line.replace(first, data.draw(st.sampled_from(["x", "1.5", "-", "\u0661"])), 1)
    elif kind == "leading-zero":
        lines[i] = "0" + line
    elif kind == "separator":  # another str.splitlines break, in place of a newline or inside a line
        sep = data.draw(st.sampled_from(SEPARATORS))
        if i + 1 < len(lines) and data.draw(st.booleans()):
            lines[i:i + 2] = [line + sep + lines[i + 1]]
        else:
            j = data.draw(st.integers(0, len(line)))
            lines[i] = line[:j] + sep + line[j:]
    elif kind == "truncate":
        return text[: data.draw(st.integers(sum(len(x) + 1 for x in lines[:start]), len(text) - 1))]
    else:
        lines.append(data.draw(st.sampled_from(["0 1", "1", "# end", "", "x"])))
    return "\n".join(lines) + "\n"


def read_whole(text):
    """The graph of the text with every step read."""
    graph = parse_temporal_graph(text)
    graph.read_all()
    return graph


def steps_read_line_by_line(text):
    """How many of the text's steps the reader reads line by line, not as a block."""
    read = core._Reader._lines
    calls = 0

    def counted(reader):
        nonlocal calls
        calls += 1
        return read(reader)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(core._Reader, "_lines", counted)
        read_whole(text)
    return calls


def parse_outcome(parse, text):
    """The fields of the graph a parser returns, with every step read, or
    the message and line of its ParseError."""
    try:
        graph = parse(text)
        graph.read_all()
    except ParseError as exc:
        return (str(exc), exc.line)
    return graph.n, graph.lifetime, graph.base, graph.removed, graph.added


class TestParse:
    def test_smallest_graph(self):
        g = parse_temporal_graph("2 1\n1\n0 1\n")
        assert g.n == 2
        assert g.lifetime == 1
        assert tuple(g.snapshots) == (frozenset({(0, 1)}),)

    def test_two_snapshots(self):
        g = parse_temporal_graph("3 2\n2\n0 1\n1 2\n1\n0 1\n")
        assert g.n == 3
        assert g.lifetime == 2
        assert tuple(g.snapshots) == (frozenset({(0, 1), (1, 2)}), frozenset({(0, 1)}))

    def test_self_loop_rejected_with_line(self):
        with pytest.raises(ParseError) as exc:
            parse_temporal_graph("2 1\n1\n0 0\n")
        assert exc.value.line == 3
        assert "self-loop" in str(exc.value)

    def test_comments_and_blank_lines_ignored(self):
        g = parse_temporal_graph("# header\n2 1\n\n1\n# edge\n0 1\n")
        assert tuple(g.snapshots) == (frozenset({(0, 1)}),)

    def test_malformed_header(self):
        with pytest.raises(ParseError):
            parse_temporal_graph("2\n")

    def test_vertex_out_of_range(self):
        with pytest.raises(ParseError) as exc:
            parse_temporal_graph("2 1\n1\n0 2\n")
        assert exc.value.line == 3

    def test_duplicate_edge(self):
        with pytest.raises(ParseError) as exc:
            parse_temporal_graph("3 1\n2\n0 1\n1 0\n")
        assert "duplicate" in str(exc.value)

    def test_truncated_input(self):
        with pytest.raises(ParseError):
            parse_temporal_graph("3 2\n1\n0 1\n")

    def test_trailing_content(self):
        with pytest.raises(ParseError):
            parse_temporal_graph("2 1\n1\n0 1\n0 1\n")

    @pytest.mark.parametrize("token", ["1_0", "+1", "\u0661", "1.0", "-", "--1"])
    @pytest.mark.parametrize("text, what, line", [
        ("{} 1\n1\n0 1\n", "header n", 1),
        ("2 1\n{}\n0 1\n", "edge count", 2),
        ("3 1\n1\n0 {}\n", "edge endpoint", 3),
    ], ids=["header", "count", "endpoint"])
    def test_only_ascii_decimals_are_integers(self, token, text, what, line):
        with pytest.raises(ParseError) as exc:
            parse_temporal_graph(text.format(token))
        assert str(exc.value) == f"line {line}: {what}: expected integer, got {token!r}"

    def test_negative_edge_count_is_read_as_a_number(self):
        with pytest.raises(ParseError, match="negative edge count -1"):
            parse_temporal_graph("2 1\n-1\n")

    def test_non_canonical_order_accepted(self):
        g = parse_temporal_graph("3 1\n2\n2 1\n1 0\n")
        assert tuple(g.snapshots) == (frozenset({(0, 1), (1, 2)}),)
        assert serialize_temporal_graph(g) == "3 1\n2\n0 1\n1 2\n"

    @given(temporal_graphs())
    def test_round_trip_is_identity(self, graph):
        text = serialize_temporal_graph(graph)
        again = parse_temporal_graph(text)
        assert again == graph
        assert serialize_temporal_graph(again) == text

    @given(st.one_of(
        temporal_graphs(),
        near_static_snapshots().map(lambda drawn: TemporalGraph.build(drawn[0], drawn[2])),
    ))
    def test_writer_matches_sorted_lines_reference(self, graph):
        assert serialize_temporal_graph(graph) == sorted_lines_tg1(graph)

    def test_writer_splices_added_lines_where_they_sort(self):
        graph = TemporalGraph(
            4,
            frozenset({(0, 2), (1, 2)}),
            ((), (), ((1, 2),), (), ((0, 2),)),
            (
                ((0, 1),),  # adds an edge before the first base edge
                ((2, 3),),  # adds one after the last
                ((0, 3),),  # adds (0, 3) where it removes (1, 2)
                (),  # no diff
                ((0, 1),),  # adds (0, 1) where it removes (0, 2)
            ),
        )
        text = serialize_temporal_graph(graph)
        assert text == (
            "4 5\n3\n0 1\n0 2\n1 2\n3\n0 2\n1 2\n2 3\n2\n0 2\n0 3\n"
            "2\n0 2\n1 2\n2\n0 1\n1 2\n"
        )
        assert text == sorted_lines_tg1(graph)

    @pytest.mark.parametrize("graph", [
        TemporalGraph.build(1, [[], []]),
        TemporalGraph.build(3, [[(1, 2), (0, 1)]]),
        TemporalGraph.build(3, [[(0, 1)], [(1, 2)], []]),
    ], ids=["n1", "lifetime1", "empty-base"])
    def test_writer_small_cases(self, graph):
        assert serialize_temporal_graph(graph) == sorted_lines_tg1(graph)

    @given(temporal_graphs(), st.data())
    def test_fast_parser_matches_line_parser(self, graph, data):
        written = serialize_temporal_graph(graph)
        assert read_whole(written) == graph
        assert steps_read_line_by_line(written) == 1
        crlf = written.replace("\n", "\r\n")
        assert read_whole(crlf) == graph
        assert steps_read_line_by_line(crlf) == 1
        text = perturb_tg1(written, graph.n, data)
        assert parse_outcome(parse_temporal_graph, text) == parse_outcome(parse_lines, text)

    def test_fast_parser_falls_back_on_each_irregularity(self):
        regular = "3 2\n2\n0 1\n1 2\n1\n0 1\n"
        expected = parse_temporal_graph(regular)
        for variant in (
            "# c\n" + regular,
            regular.replace("\n1\n", "\n\n1\n"),
            regular.replace("\n", "\r\n"),
            regular.replace("0 1\n1 2", "1 0\n2  1"),
            regular.replace("3 2", "03 2"),
        ):
            assert parse_temporal_graph(variant) == expected
        for variant, line in (
            ("3 2\n2\n0 1\n0 1\n1\n0 1\n", 4),
            ("3 2\n2\n0 1\n1 0\n1\n0 1\n", 4),
            ("3 2\n2\n0 1\n1 3\n1\n0 1\n", 4),
            ("3 2\n2\n0 1\n1 2\n1\n", 6),
            (regular + "0 2\n", 7),
            ("3 2\n2\n0 1\n1 2\n2\n0 1\n0 1\n", 7),
        ):
            with pytest.raises(ParseError) as exc:
                parse_temporal_graph(variant)
            assert exc.value.line == line
        # each break of str.splitlines in place of every newline, of any one
        # newline, or inside any line gives the reference's graph or error
        for text in ("3 3\n2\n0 1\n1 2\n1\n0 1\n2\n0 2\n1 2\n", "3 3\n2\n0 1\n1 2\n1\n0 3\n0\n", regular + "0\n"):
            for sep in SEPARATORS:
                variants = [text.replace("\n", sep)]
                variants += (text[:i] + sep + text[i + (c == "\n"):] for i, c in enumerate(text))
                for variant in variants:
                    assert parse_outcome(parse_temporal_graph, variant) == parse_outcome(parse_lines, variant)

    def test_a_block_of_m_newlines_with_another_break_is_read_line_by_line(self):
        # step 2 has exactly m = 2 newlines, and a vertical tab between them
        # hides a duplicate edge line
        text = "5 2\n1\n0 1\n2\n1 2\x0b1 2\n3 4\n"
        assert parse_outcome(parse_temporal_graph, text) == parse_outcome(parse_lines, text)
        with pytest.raises(ParseError, match="duplicate edge 1 2") as exc:
            parse_temporal_graph(text)
        assert exc.value.line == 6

    def test_an_irregular_line_costs_only_its_step(self):
        """A comment or a blank line sends the one step it is in through the
        line-by-line read, besides the first step."""
        graph = gen_random_deficient(GenSpec(n=12, lifetime=400, k=1, seed=3, tree_shape="random")).graph
        text = serialize_temporal_graph(graph)
        middle = "".join(next(_tg1_chunks(graph, 200)))
        for irregular in ("# c\n", "\n", "  \n"):
            variant = middle + irregular + text[len(middle):]
            assert steps_read_line_by_line(variant) == 2
            assert read_whole(variant) == graph

    @given(repeating_snapshots(), st.data())
    def test_fast_parser_on_repeated_blocks(self, drawn, data):
        n, snapshots = drawn
        graph = TemporalGraph.build(n, snapshots)
        written = f"{n} {len(snapshots)}\n" + "".join(
            f"{len(snap)}\n" + "".join(f"{u} {v}\n" for u, v in snap) for snap in snapshots
        )
        assert read_whole(written) == graph
        text = serialize_temporal_graph(graph)
        assert read_whole(text) == graph
        assert steps_read_line_by_line(written) == steps_read_line_by_line(text) == 1
        last_block = text.count("\n") - 1 - len(snapshots[-1])  # its count line
        text = perturb_tg1(text, n, data, start=last_block)
        assert parse_outcome(parse_temporal_graph, text) == parse_outcome(parse_lines, text)

    @given(distinct_snapshots(), st.data())
    def test_fast_parser_on_distinct_blocks_of_varying_size(self, drawn, data):
        # no block repeats, so every block step misses the memo and finds
        # its end by counting newlines from a guess that is mostly wrong
        n, snapshots = drawn
        graph = TemporalGraph.build(n, snapshots)
        written = f"{n} {len(snapshots)}\n" + "".join(
            f"{len(snap)}\n" + "".join(f"{u} {v}\n" for u, v in snap) for snap in snapshots
        )
        text = serialize_temporal_graph(graph)
        for variant in (written, text):
            assert read_whole(variant) == graph
            assert steps_read_line_by_line(variant) == 1
        text = perturb_tg1(text, n, data)
        assert parse_outcome(parse_temporal_graph, text) == parse_outcome(parse_lines, text)

    def test_fast_parser_without_final_newline(self):
        """Only the first step and the unterminated last one are read line by line."""
        for text, line_by_line in (("3 2\n2\n0 1\n1 2\n1\n0 1", 2), ("3 2\n2\n0 1\n1 2\n0", 2), ("2 1\n0", 1)):
            assert parse_outcome(parse_temporal_graph, text) == parse_outcome(parse_lines, text)
            assert steps_read_line_by_line(text) == line_by_line

    def test_fast_parser_empty_blocks_and_first_block_repeated(self):
        for text in (
            "3 3\n0\n0\n0\n",
            "3 4\n0\n1\n0 1\n0\n1\n0 1\n",
            "3 5\n2\n1 2\n0 1\n0\n2\n1 2\n0 1\n1\n1 2\n2\n1 2\n0 1\n",
        ):
            assert parse_outcome(parse_temporal_graph, text) == parse_outcome(parse_lines, text)
            assert steps_read_line_by_line(text) == 1

    def test_fast_parser_blocks_longer_or_shorter_than_guessed(self):
        """A block's end is guessed from the previous block's mean line length,
        and a step with the previous step's count is first looked up in the
        memo by the previous block's length; lines shorter or longer than that
        must not move the end."""
        for text in (
            "12 3\n1\n10 11\n1\n0 1\n1\n0 2\n",  # shorter lines: the guess overshoots
            "12 3\n1\n0 1\n1\n10 11\n1\n0 2\n",  # longer lines: the guess falls short
            "12 3\n3\n0 1\n0 2\n10 11\n1\n10 11\n2\n0 1\n1 2\n",  # the count falls, then rises
            # step 4 has step 3's count, 2, and its first 8 bytes are step 2's
            # remembered 1-line block: a memo hit with another line count
            "102 5\n2\n0 1\n2 3\n1\n100 101\n2\n0 1\n2 3\n2\n100 101\n0 1\n1\n0 1\n",
            # the last step repeats step 2's block, shorter than step 3's
            "12 4\n1\n0 2\n1\n0 1\n1\n10 11\n1\n0 1\n",
        ):
            assert parse_outcome(parse_temporal_graph, text) == parse_outcome(parse_lines, text)
            assert steps_read_line_by_line(text) == 1

    def test_fast_parser_peak_memory_stays_near_the_text(self):
        """The reader walks the text without splitting it into lines, also
        when a comment follows the header."""
        graph = gen_random_deficient(GenSpec(n=40, lifetime=3000, k=1, seed=5, tree_shape="random")).graph
        text = serialize_temporal_graph(graph)
        header = text.index("\n") + 1
        for variant in (text, text[:header] + "# c\n" + text[header:]):
            tracemalloc.start()
            try:
                parsed = parse_temporal_graph(variant)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert parsed == graph
            assert peak < 3 * len(text)

    def test_writer_peak_memory_stays_near_the_text(self):
        """The writer joins slices of the base text and never lists every line."""
        graph = gen_random_deficient(GenSpec(n=40, lifetime=3000, k=1, seed=5, tree_shape="random")).graph
        tracemalloc.start()
        try:
            text = serialize_temporal_graph(graph)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert text == sorted_lines_tg1(graph)
        assert peak < 2.5 * len(text)

    @given(temporal_graphs())
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_file_writer_writes_the_serialized_text(self, tmp_path, graph):
        path = tmp_path / "g.tg"
        with path.open("w") as file:
            write_temporal_graph(graph, file)
        assert path.read_text() == serialize_temporal_graph(graph)

    def test_file_writer_peak_memory_is_a_fraction_of_the_text(self, tmp_path):
        """The file writer holds a few steps' text at a time, never all of it."""
        graph = gen_random_deficient(GenSpec(n=40, lifetime=3000, k=1, seed=5, tree_shape="random")).graph
        path = tmp_path / "g.tg"
        with path.open("w") as file:
            tracemalloc.start()
            try:
                write_temporal_graph(graph, file)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        text = path.read_text()
        assert text == serialize_temporal_graph(graph)
        assert peak < len(text) / 4

    def test_constructor_rejects_tuple_snapshot(self):
        with pytest.raises(ValueError, match="frozenset"):
            TemporalGraph(3, ((0, 1), (1, 2)), ((),), ((),))
        with pytest.raises(ValueError, match="sorted tuples"):
            TemporalGraph(3, frozenset({(0, 1)}), ((),), (frozenset({(1, 2)}),))
        TemporalGraph(3, frozenset({(0, 1), (1, 2)}), ((),), ((),))

    def test_tree_file_round_trip(self):
        tree = SpanningTree(4, frozenset({(0, 2), (1, 2), (2, 3)}))
        text = serialize_spanning_tree(tree)
        assert parse_spanning_tree(text, 4) == tree

    def test_tree_file_wrong_count(self):
        with pytest.raises(ValueError):
            parse_spanning_tree("0 1\n", 3)


class TestLazyRead:
    """A parsed graph reads its steps past the first READ_CHUNK only when asked."""

    @given(near_static_snapshots(max_lifetime=24), st.integers(1, 4), st.data())
    def test_answers_as_the_whole_text_in_any_order(self, drawn, chunk, data):
        n, tree, ref = drawn
        graph = TemporalGraph.build(n, ref)
        text = serialize_temporal_graph(graph)
        step = st.integers(1, len(ref))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", chunk)
            lazy = parse_temporal_graph(text)
            for _ in range(data.draw(st.integers(1, 6))):
                op = data.draw(st.sampled_from(
                    ["edge_set", "has_edge", "missing", "absences", "snapshots", "eq", "hash"]
                ))
                if op == "edge_set":
                    t = data.draw(step)
                    assert lazy.edge_set(t) == graph.edge_set(t)
                elif op == "has_edge":
                    t, e = data.draw(step), data.draw(st.sampled_from(pairs))
                    assert lazy.has_edge(t, e) == graph.has_edge(t, e)
                elif op == "absences":
                    prefix = data.draw(step)
                    assert lazy.absences(prefix) == graph.absences(prefix)
                elif op in ("missing", "snapshots"):
                    # reading more steps, up to the last one, in the middle
                    # of the iteration must not change what it yields
                    if op == "missing":
                        steps = data.draw(st.lists(step, min_size=1, max_size=2 * len(ref)))
                        got, want = lazy.missing(tree.edges, steps), list(graph.missing(tree.edges, steps))
                    else:
                        got, want = lazy.snapshots, list(graph.snapshots)
                    head = [next(got) for _ in range(data.draw(st.integers(0, len(want))))]
                    lazy.edge_set(data.draw(step))
                    assert head + list(got) == want
                elif op == "eq":
                    assert lazy == graph
                else:
                    assert hash(lazy) == hash(graph)
            assert lazy == graph
            assert (lazy.base, lazy.removed, lazy.added) == (graph.base, graph.removed, graph.added)

    @given(near_static_snapshots(max_lifetime=24), st.integers(1, 4), st.data())
    def test_a_running_count_is_each_prefixs_absences(self, drawn, chunk, data):
        n, _, ref = drawn
        graph = TemporalGraph.build(n, ref)
        prefixes = sorted(data.draw(st.lists(st.integers(0, len(ref)), min_size=1, max_size=5)))
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", chunk)
            lazy = parse_temporal_graph(serialize_temporal_graph(graph))
            count = lazy.absence_counter()
            for prefix in prefixes:
                assert count(prefix) == (graph.absences(prefix) if prefix else dict.fromkeys(graph.base, 0))
            if prefixes[-1]:
                with pytest.raises(ValueError, match="outside"):
                    count(prefixes[-1] - 1)
            with pytest.raises(ValueError, match="outside"):
                count(len(ref) + 1)

    def test_garbage_past_the_steps_the_run_reads_changes_nothing(self):
        n, k, delta = 100, 2, 99
        spec = GenSpec(n=n, lifetime=paper_budget(n, k, delta), k=k, seed=7000, tree_shape="random")
        result = gen_random_deficient(spec)
        text = serialize_temporal_graph(result.graph)

        def outputs(graph):
            run = explore_detailed(graph, k, delta, 0, result.tree)
            return serialize_schedule(run.schedule), run.stats

        clean = parse_temporal_graph(text)
        schedule, stats = outputs(clean)
        read = stats.span + core.READ_CHUNK
        assert read < result.graph.lifetime
        prefix = "".join(next(_tg1_chunks(result.graph, read)))
        rest = "garbage\n" + text[len(prefix):]
        header = text.index("\n") + 1
        for before, after in (
            (prefix, rest),
            (prefix[:header] + "# c\n" + prefix[header:], rest),  # a comment after the header
            (prefix.replace("\n", "\r\n"), rest.replace("\n", "\r\n")),
        ):
            garbage = parse_temporal_graph(before + after)
            assert outputs(garbage) == (schedule, stats)
            with pytest.raises(ParseError, match="edge count: expected integer, got 'garbage'") as exc:
                garbage.read_all()
            assert exc.value.line == before.count("\n") + 1

    @given(temporal_graphs(min_lifetime=4, max_lifetime=10), st.integers(1, 3), st.data())
    def test_text_irregular_after_the_first_chunk_reads_as_the_line_parser(self, graph, chunk, data):
        text = serialize_temporal_graph(graph)
        first = "".join(next(_tg1_chunks(graph, chunk)))
        kind = data.draw(st.sampled_from(["perturb", "comment", "crlf"]))
        if kind == "perturb":
            text = perturb_tg1(text, graph.n, data, start=first.count("\n"))
        elif kind == "comment":
            text = first + "# a comment\n" + text[len(first):]
        else:
            text = first + text[len(first):].replace("\n", "\r\n")

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", chunk)
            assert parse_outcome(parse_temporal_graph, text) == parse_outcome(parse_lines, text)

    @given(temporal_graphs(min_lifetime=2, max_lifetime=10), st.integers(1, 3), st.booleans())
    def test_reading_keeps_the_base(self, graph, chunk, irregular):
        """The base is the first snapshot's edges from the first read on, also
        when the text turns irregular after the first chunk."""
        text = serialize_temporal_graph(graph)
        if irregular:
            first = "".join(next(_tg1_chunks(graph, chunk)))
            text = first + text[len(first):].replace("\n", "\r")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", chunk)
            lazy = parse_temporal_graph(text)
            base = lazy.base
            lazy.read_all()
        assert lazy.base is base
        assert base == graph.edge_set(1)
        assert lazy == graph

    def test_a_generated_graph_equals_its_parsed_text(self):
        """Generated on its tree, parsed on its first snapshot: the same graph."""
        result = gen_random_deficient(GenSpec(n=12, lifetime=300, k=2, seed=2, tree_shape="random"))
        graph = result.graph
        assert graph.base == result.tree.edges != graph.edge_set(1)
        text = serialize_temporal_graph(graph)
        parsed = parse_temporal_graph(text)
        assert parsed.base == graph.edge_set(1)
        assert hash(parsed) == hash(graph)
        assert parsed == graph and graph == parsed
        emptied = TemporalGraph.build(graph.n, [*graph.snapshots][:-1] + [[]])  # differs at the last step only
        assert graph != emptied and parsed != emptied

    def test_hash_reads_only_the_first_chunk(self, monkeypatch):
        monkeypatch.setattr(core, "READ_CHUNK", 2)
        graph = TemporalGraph.build(3, [[(0, 1)], [(1, 2)], [(0, 1)], [(0, 2)], [(0, 1)]])
        text = serialize_temporal_graph(graph)
        lazy = parse_temporal_graph(text.replace("0 2\n", "0 3\n"))  # step 4 is malformed
        assert hash(lazy) == hash(graph)
        assert repr(lazy).endswith("steps read=2 of 5)")
        with pytest.raises(ParseError, match="vertex id out of range"):
            lazy.read_all()

    def test_a_malformed_line_is_reported_only_once_read(self, monkeypatch):
        monkeypatch.setattr(core, "READ_CHUNK", 2)
        text = "3 5\n1\n0 1\n1\n0 1\n1\n0 1\n1\n0 1\n1\n0 3\n"
        graph = parse_temporal_graph(text)
        assert graph.edge_set(4) == {(0, 1)}
        for _ in range(2):  # the error stays, and is raised again
            with pytest.raises(ParseError, match="vertex id out of range") as exc:
                graph.edge_set(5)
            assert exc.value.line == 11
        assert graph.edge_set(2) == {(0, 1)}
        trailing = parse_temporal_graph(text.replace("0 3\n", "1 2\n") + "x\n")
        for _ in range(2):  # content after the last step is raised again too
            with pytest.raises(ParseError, match="unexpected trailing content 'x'") as exc:
                trailing.read_all()
            assert exc.value.line == 12
        assert repr(trailing).endswith("steps read=4 of 5)")


class TestSpanningTree:
    @pytest.mark.parametrize("edges", [
        {(0, 1), (1, 2), (0, 2)},  # a triangle through the root, 3 unreached
        {(1, 2), (2, 3), (1, 3)},  # a triangle the root is not on
    ])
    def test_cycle_is_not_connected(self, edges):
        with pytest.raises(ValueError, match="spanning tree is not connected"):
            SpanningTree(4, frozenset(edges))

    @given(spanning_trees(min_n=1, max_n=12), st.data())
    def test_rooting_at_zero(self, tree, data):
        perm = data.draw(st.permutations(range(tree.n)))
        tree = SpanningTree(tree.n, frozenset(canonical_edge(perm[u], perm[v]) for u, v in tree.edges))
        parent, order, pre, end = tree.parent, tree.preorder, tree.pre, tree.end
        assert parent[0] == -1 and order[0] == 0 and sorted(order) == list(range(tree.n))
        assert {canonical_edge(v, parent[v]) for v in range(1, tree.n)} == tree.edges
        for v in range(tree.n):
            assert order[pre[v]] == v
            below = {w for w in range(tree.n) if v in ancestors(parent, w)}
            assert set(order[pre[v]:end[v]]) == below and end[v] - pre[v] == len(below)
            children = [w for w in order if parent[w] == v]
            assert children == sorted(children)

    def test_rooting_is_not_part_of_equality(self):
        a = SpanningTree(3, frozenset({(0, 1), (1, 2)}))
        b = SpanningTree(3, frozenset({(1, 2), (0, 1)}))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == f"SpanningTree(n=3, edges={a.edges!r})"


def ancestors(parent, v):
    """v and every vertex above it, up to the root."""
    chain = [v]
    while parent[chain[-1]] != -1:
        chain.append(parent[chain[-1]])
    return chain


class TestDeficiency:
    def test_full_tree_present(self, path3_tree):
        assert deficiency_count({(0, 1), (1, 2)}, path3_tree) == 0

    def test_one_missing(self, path3_tree):
        assert deficiency_count({(0, 1)}, path3_tree) == 1

    def test_non_tree_edges_do_not_compensate(self, path3_tree):
        assert deficiency_count({(0, 2)}, path3_tree) == 2

    @given(temporal_graphs(min_n=2, max_n=6), st.data())
    def test_range_and_zero_iff_subset(self, graph, data):
        edges = set()
        for child in range(1, graph.n):
            parent = data.draw(st.integers(0, child - 1))
            edges.add((parent, child))
        tree = SpanningTree(graph.n, frozenset(edges))
        for t in range(1, graph.lifetime + 1):
            d = deficiency_count(graph.edge_set(t), tree)
            assert 0 <= d <= graph.n - 1
            assert (d == 0) == tree.edges.issubset(graph.edge_set(t))


class TestDeltaForm:
    @given(near_static_snapshots(), st.data())
    def test_accessors_match_frozenset_reference(self, drawn, data):
        n, tree, ref = drawn
        g = TemporalGraph.build(n, ref)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        assert g.lifetime == len(ref)
        assert tuple(g.snapshots) == tuple(ref)
        for t, snap in enumerate(ref, start=1):
            assert type(g.edge_set(t)) is frozenset
            assert g.edge_set(t) == snap
            assert [g.has_edge(t, e) for e in pairs] == [e in snap for e in pairs]
        assert g.underlying() == frozenset().union(*ref)
        every = range(1, len(ref) + 1)
        assert list(g.missing(tree.edges, every)) == [tuple(sorted(tree.edges - snap)) for snap in ref]
        assert list(map(len, g.missing(tree.edges, every))) == [deficiency_count(snap, tree) for snap in ref]
        steps = data.draw(st.lists(st.integers(1, len(ref)), max_size=2 * len(ref)))
        assert list(g.missing(tree.edges, steps)) == [
            tuple(sorted(tree.edges - ref[t - 1])) for t in steps
        ]
        prefix = data.draw(st.integers(1, len(ref)))
        assert absence_weights(g, prefix).weights == {  # the base is the first snapshot
            e: sum(e not in snap for snap in ref[:prefix]) for e in frozenset().union(*ref[:prefix])
        }

    @given(repeating_snapshots(), st.integers(1, 3))
    def test_parse_and_build_agree_field_for_field(self, drawn, chunk):
        """Both are based on the first snapshot, also when a step after the
        first chunk is read line by line."""
        n, snapshots = drawn
        built = TemporalGraph.build(n, snapshots)
        text = serialize_temporal_graph(built)
        first = "".join(next(_tg1_chunks(built, chunk)))
        commented = first + "# c\n" + text[len(first):]
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(core, "READ_CHUNK", chunk)
            for parsed in (parse_temporal_graph(text), parse_temporal_graph(commented), parse_lines(text)):
                parsed.read_all()
                assert (parsed.n, parsed.lifetime) == (built.n, built.lifetime)
                assert (parsed.base, parsed.removed, parsed.added) == (built.base, built.removed, built.added)
        assert built.base == frozenset(canonical_edge(u, v) for u, v in snapshots[0])

    @given(near_static_snapshots(), st.data())
    def test_any_base_gives_the_same_graph(self, drawn, data):
        n, _, ref = drawn
        base = ref[data.draw(st.integers(0, len(ref) - 1))]
        g = TemporalGraph(
            n,
            base,
            tuple(tuple(sorted(base - snap)) for snap in ref),
            tuple(tuple(sorted(snap - base)) for snap in ref),
        )
        assert g == TemporalGraph.build(n, ref)
        assert hash(g) == hash(TemporalGraph.build(n, ref))

    def test_constructor_checks_the_diffs(self):
        base = frozenset({(0, 1), (1, 2)})
        with pytest.raises(ValueError, match="not in the base"):
            TemporalGraph(3, base, (((0, 2),),), ((),))
        with pytest.raises(ValueError, match="already in the base"):
            TemporalGraph(3, base, ((),), (((0, 1),),))
        with pytest.raises(ValueError, match="sorted"):
            TemporalGraph(3, base, (((1, 2), (0, 1)),), ((),))
        with pytest.raises(ValueError, match="one entry per time step"):
            TemporalGraph(3, base, ((), ()), ((),))
        with pytest.raises(ValueError, match="bad edge"):
            TemporalGraph(3, base, ((),), (((0, 3),),))
        with pytest.raises(ValueError, match="in no snapshot"):
            TemporalGraph(3, base, (((0, 1),), ((0, 1), (1, 2))), ((), ()))
        TemporalGraph(3, base, (((0, 1),), ((1, 2),)), ((), ()))

    def test_missing_inside_and_outside_the_base(self):
        g = TemporalGraph.build(3, [[(0, 1), (1, 2)], [(0, 1), (0, 2)], [(0, 1), (1, 2)], [(1, 2)]])
        assert g.base == frozenset({(0, 1), (1, 2)})
        inside = frozenset({(0, 1), (1, 2)})
        assert list(g.missing(inside, [4, 2, 1, 2])) == [((0, 1),), ((1, 2),), (), ((1, 2),)]
        assert next(g.missing(inside, [2])) is g.removed[1]
        outside = frozenset({(0, 2), (1, 2)})  # (0, 2) is only in snapshot 2
        assert list(g.missing(outside, [1, 2, 3, 4])) == [((0, 2),), ((1, 2),), ((0, 2),), ((0, 2),)]
        with pytest.raises(ValueError):
            list(g.missing(inside, [5]))

    def test_unchanged_step_shares_the_base(self):
        g = TemporalGraph.build(3, [[(0, 1), (1, 2)], [(0, 1)], [(0, 1), (1, 2)]])
        assert g.base == frozenset({(0, 1), (1, 2)})
        assert g.removed == ((), ((1, 2),), ())
        assert g.edge_set(1) is g.base and g.edge_set(3) is g.base
        assert g.has_edge(1, (1, 2)) and not g.has_edge(2, (1, 2))
        with pytest.raises(ValueError):
            g.has_edge(4, (0, 1))


def assert_foremost_route(graph, window, source, sweep, v):
    """walk_to(v) starts at the source, each move leaves the current vertex
    along an edge present at its time, times strictly increase inside the
    window, and the walk ends at v at its arrival time."""
    cur, last = source, window[0] - 1
    for t, (u, w) in sweep.walk_to(v):
        assert u == cur
        assert last < t <= window[1]
        assert graph.has_edge(t, canonical_edge(u, w))
        cur, last = w, t
    assert cur == v
    assert last == sweep.arrival[v]


class TestForemost:
    def test_path_two_steps(self):
        g = TemporalGraph.build(3, [[(0, 1)], [(1, 2)]])
        res = foremost_walk(g, (1, 2), 0)
        assert res.arrival == (0, 1, 2)
        assert res.walk_to(2) == ((1, (0, 1)), (2, (1, 2)))
        assert_foremost_route(g, (1, 2), 0, res, 2)

    def test_single_step_window(self):
        g = TemporalGraph.build(4, [[(0, 1), (2, 3)]])
        res = foremost_walk(g, (1, 1), 0)
        assert res.arrival[0] == 0
        assert res.arrival[1] == 1
        assert res.arrival[2] is None
        assert res.arrival[3] is None

    def test_swapped_order_unreachable(self):
        g = TemporalGraph.build(3, [[(1, 2)], [(0, 1)]])
        res = foremost_walk(g, (1, 2), 0)
        assert res.arrival == (0, 2, None)
        assert res.walk_to(2) is None

    def test_window_validation(self, path3_full):
        with pytest.raises(ValueError):
            foremost_walk(path3_full, (0, 1), 0)
        with pytest.raises(ValueError):
            foremost_walk(path3_full, (1, 99), 0)

    def test_witness_ties_prefer_smaller_vertex(self):
        # both 0 and 1 can reach 3 at time 2; witness must come from 0
        g = TemporalGraph.build(4, [[(2, 0), (2, 1)], [(0, 3), (1, 3)]])
        res = foremost_walk(g, (1, 2), 2)
        assert res.walk_to(3) == ((1, (2, 0)), (2, (0, 3)))

    @given(temporal_graphs(min_n=2, max_n=7, max_lifetime=8), st.data())
    def test_matches_time_expanded_oracle(self, graph, data):
        source = data.draw(st.integers(0, graph.n - 1))
        t0 = data.draw(st.integers(1, graph.lifetime))
        t1 = data.draw(st.integers(t0, graph.lifetime))
        sweep = foremost_walk(graph, (t0, t1), source)
        expanded = foremost_arrival_oracle(graph, (t0, t1), source)
        assert sweep.arrival == expanded
        assert sweep.walk_to(source) == ()
        for v in range(graph.n):
            if sweep.arrival[v] is None:
                assert sweep.walk_to(v) is None
            else:
                assert_foremost_route(graph, (t0, t1), source, sweep, v)


class TestDeltaConnectivity:
    def test_always_full_path(self, path3_full):
        assert verify_delta_connectivity(path3_full, 2).ok

    def test_violation_witness(self):
        g = TemporalGraph.build(3, [[(0, 1)], [(0, 1), (1, 2)]])
        report = verify_delta_connectivity(g, 1)
        assert not report.ok
        assert report.witness == (1, (0, 2))

    def test_single_window_degenerate(self, path3_full):
        report = verify_delta_connectivity(path3_full, path3_full.lifetime)
        assert report.ok
        assert report.windows_checked == 1

    def test_window_connected_only_at_its_last_snapshot(self):
        # 2 reaches 1 at step 2 and 0 only at step 3
        g = TemporalGraph.build(3, [[(0, 1)], [(1, 2)], [(0, 1), (1, 2)]])
        assert verify_delta_connectivity(g, 3) == ConnectivityReport(True, None, 1, "exhaustive")
        assert verify_delta_connectivity(g, 2).witness == (1, (2, 0))

    def test_one_edge_per_step(self):
        # both path edges present at once: a walk still crosses only one
        g = TemporalGraph.build(3, [[(0, 1), (1, 2)]])
        report = verify_delta_connectivity(g, 1)
        assert report == ConnectivityReport(False, (1, (0, 2)), 1, "exhaustive")

    @given(temporal_graphs(), st.data())
    def test_matches_per_source_reference(self, graph, data):
        samples = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**32))
        for delta in range(1, graph.lifetime + 1):
            for mode in ("exhaustive", "sampled"):
                got = verify_delta_connectivity(graph, delta, mode, samples, seed)
                assert got == per_source_delta_check(graph, delta, mode, samples, seed)

    @given(temporal_graphs())
    def test_later_windows_connect_no_earlier(self, graph):
        # the shared sweep retires windows in start order because of this
        def connected_at(w):
            last = 0
            for source in range(graph.n):
                for arrival in foremost_walk(graph, (w, graph.lifetime), source).arrival:
                    if arrival is None:
                        return float("inf")
                    last = max(last, arrival)
            return last

        steps = [connected_at(w) for w in range(1, graph.lifetime + 1)]
        assert steps == sorted(steps)

    def test_wide_masks_every_window_live_to_its_last_step(self):
        # n=70 path: source 0 reaches 69 exactly at step n-1 of a window
        n, lifetime = 70, 100
        graph = TemporalGraph.build(n, [[(i, i + 1) for i in range(n - 1)]] * lifetime)
        report = verify_delta_connectivity(graph, n - 1)
        assert report == ConnectivityReport(True, None, lifetime - n + 2, "exhaustive")
        report = verify_delta_connectivity(graph, n - 2)
        assert report == ConnectivityReport(False, (1, (0, 69)), 1, "exhaustive")

    def test_no_step_is_marked_when_no_window_fits_a_run(self, monkeypatch):
        # delta < n-1: no window holds n-1 steps, so the sweep checks them all
        n = 6
        graph = TemporalGraph.build(n, [[(i, i + 1) for i in range(n - 1)]] * 12)
        monkeypatch.setattr(core, "_step_connectivity", None)
        report = verify_delta_connectivity(graph, n - 2)
        assert report == ConnectivityReport(False, (1, (0, 5)), 1, "exhaustive")

    @pytest.mark.parametrize("delta, ok", [(7, False), (20, True)])
    def test_sampled_windows_far_apart(self, delta, ok):
        spec = GenSpec(n=8, lifetime=2000, k=2, seed=3, tree_shape="random",
                       connectivity="delta-only", delta=20)
        graph = gen_random_deficient(spec).graph
        starts = chosen_starts(graph.lifetime, delta, "sampled", 5, 18)
        assert all(b - a >= delta for a, b in zip(starts, starts[1:]))
        got = verify_delta_connectivity(graph, delta, "sampled", 5, 18)
        assert got == per_source_delta_check(graph, delta, "sampled", 5, 18)
        assert got.ok == ok

    @given(mixed_window_graphs(), st.data())
    def test_mixed_windows_match_per_source_reference(self, graph, data):
        # windows that hold a whole connected run are certified, the others swept
        samples = data.draw(st.integers(1, 4))
        seed = data.draw(st.integers(0, 2**32))
        for delta in range(1, graph.lifetime + 1):
            for mode in ("exhaustive", "sampled"):
                got = verify_delta_connectivity(graph, delta, mode, samples, seed)
                assert got == per_source_delta_check(graph, delta, mode, samples, seed)

    def test_first_violation_after_a_certified_stretch(self):
        # steps 1-4 are the path 0-1-2, steps 5-8 lack (1, 2): windows 1-3 hold
        # two connected steps and are certified; window 4 holds one and fails
        path, cut = [(0, 1), (1, 2)], [(0, 1)]
        graph = TemporalGraph.build(3, [path] * 4 + [cut] * 4)
        assert core._uncertified(graph, list(range(1, 7)), 3) == [4, 5, 6]
        report = verify_delta_connectivity(graph, 3)
        assert report == ConnectivityReport(False, (4, (0, 2)), 4, "exhaustive")
        assert report == per_source_delta_check(graph, 3, "exhaustive", 32, 0)

    @given(st.one_of(mixed_window_graphs(), temporal_graphs()))
    def test_n_minus_1_connected_snapshots_connect_a_window(self, graph):
        # the certification lemma: each connected step grows every source's
        # reached set by one vertex until it holds all n
        n = graph.n
        connected = [snapshot_is_connected(n, snap) for snap in graph.snapshots]
        for delta in range(max(n - 1, 1), graph.lifetime + 1):
            for w in range(1, graph.lifetime - delta + 2):
                window = connected[w - 1:w - 1 + delta]
                if not any(all(window[i:i + n - 1]) for i in range(delta - n + 2)):
                    continue
                for source in range(n):
                    arrival = foremost_walk(graph, (w, w + delta - 1), source).arrival
                    assert None not in arrival

    @given(st.one_of(mixed_window_graphs(), temporal_graphs()))
    def test_step_flag_matches_depth_first_search(self, graph):
        connected = core._step_connectivity(graph)
        for t in range(1, graph.lifetime + 1):
            assert connected(t) == snapshot_is_connected(graph.n, graph.edge_set(t))

    @pytest.mark.parametrize("base, diffs, flags", [
        # on the path 0-1-2-3: nothing removed; more added than removed;
        # nested cuts both joined; three pieces with {1} left alone; a cut
        # with nothing added; an added edge and nothing removed
        ([(0, 1), (1, 2), (2, 3)], [
            ((), ()),
            (((1, 2),), ((0, 2), (0, 3))),
            (((0, 1), (2, 3)), ((0, 2), (1, 3))),
            (((0, 1), (1, 2)), ((0, 2), (0, 3))),
            (((1, 2),), ()),
            ((), ((0, 3),)),
        ], [True, True, True, False, False, True]),
        # n-1 edges holding a cycle, so not a tree: a union-find per snapshot
        ([(0, 1), (0, 2), (1, 2)], [
            ((), ()),
            ((), ((2, 3),)),
            (((1, 2),), ((0, 3),)),
            (((0, 1), (0, 2)), ((0, 3), (1, 3), (2, 3))),
        ], [False, True, True, True]),
    ])
    def test_step_flag_on_hand_built_steps(self, base, diffs, flags):
        removed, added = zip(*diffs)
        graph = TemporalGraph(4, frozenset(base), removed, added)
        connected = core._step_connectivity(graph)
        assert [connected(t) for t in range(1, graph.lifetime + 1)] == flags
        assert flags == [snapshot_is_connected(4, snap) for snap in graph.snapshots]

    @pytest.mark.parametrize("delta, seed, read", [(20, 3, 768), (40, 3, 1024), (7, 4, 1280)])
    def test_sampled_check_reads_no_step_after_its_last_window(self, delta, seed, read):
        # `read` is the READ_CHUNK multiple holding the last chosen window's
        # end: the steps that sweeping these windows alone reads too
        spec = GenSpec(n=8, lifetime=2000, k=2, seed=3, tree_shape="random",
                       connectivity="delta-only", delta=20)
        graph = parse_temporal_graph(serialize_temporal_graph(gen_random_deficient(spec).graph))
        last = chosen_starts(graph.lifetime, delta, "sampled", 3, seed)[-1] + delta - 1
        assert read - core.READ_CHUNK < last <= read
        assert verify_delta_connectivity(graph, delta, "sampled", 3, seed).ok
        assert repr(graph).endswith(f"steps read={read} of 2000)")

    def test_delta_above_lifetime(self, path3_full):
        with pytest.raises(ValueError):
            verify_delta_connectivity(path3_full, 99)

    @pytest.mark.parametrize("samples", [0, -1])
    def test_sampled_mode_needs_a_sample(self, path3_full, samples):
        with pytest.raises(ValueError, match="samples >= 1"):
            verify_delta_connectivity(path3_full, 2, mode="sampled", samples=samples)

    def test_sampled_mode_is_deterministic(self):
        spec = GenSpec(n=5, lifetime=40, k=1, seed=4, tree_shape="path")
        graph = gen_random_deficient(spec).graph
        a = verify_delta_connectivity(graph, 4, mode="sampled", samples=8, seed=1)
        b = verify_delta_connectivity(graph, 4, mode="sampled", samples=8, seed=1)
        assert (a.ok, a.witness, a.windows_checked) == (b.ok, b.witness, b.windows_checked)

    @pytest.mark.parametrize("seed", range(4))
    def test_per_snapshot_instances_are_n_minus_1_connected(self, seed):
        spec = GenSpec(n=6, lifetime=12, k=2, seed=seed, tree_shape="random",
                       connectivity="per-snapshot", extra_edge_rate=0.2)
        graph = gen_random_deficient(spec).graph
        assert verify_delta_connectivity(graph, graph.n - 1).ok
