"""End-to-end tests for the command-line interface."""

import argparse
import io
import json
import math
import os
import random
import tempfile
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (
    ConeSequenceReport,
    CriticalGroup,
    Graph,
    InputError,
    IntPoly,
    JoinOrderReport,
    complete,
    cone,
    format_edge_list,
    path,
    random_connected_graph,
    reduced_laplacian,
    spanning_tree_count,
)
from chipfire import cli, intlinalg, sandpile
from chipfire.cli import main
from oracles import from_diagonal, smith_normal_form

GOEL = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
FORK_TREE = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


@pytest.fixture
def graph_file(tmp_path):
    def write(name, g):
        target = tmp_path / name
        target.write_text(format_edge_list(g))
        return str(target)

    return write


def run(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def run_json(argv):
    code, text = run(argv)
    records = [json.loads(line) for line in text.splitlines() if line]
    return code, records


class TestGroupCommand:
    def test_fan_file(self, graph_file):
        fan = graph_file("fan.txt", cone(path(5), 1))
        code, records = run_json(["group", fan])
        assert code == 0
        result = records[0]["result"]
        assert result["invariant_factors"] == ["55"]
        assert result["order"] == "55"
        assert result["spanning_trees"] == "55"

    def test_k4_file(self, graph_file):
        k4 = graph_file("k4.txt", complete(4))
        code, records = run_json(["group", k4])
        assert code == 0
        assert records[0]["result"]["invariant_factors"] == ["4", "4"]
        assert records[0]["result"]["order"] == "16"

    def test_single_vertex(self, graph_file):
        k1 = graph_file("k1.txt", complete(1))
        code, records = run_json(["group", k1])
        assert code == 0
        result = records[0]["result"]
        assert result["invariant_factors"] == []
        assert result["order"] == "1"
        assert result["char_poly_str"] == "1"

    def test_cone_flag_composition(self, graph_file):
        p5 = graph_file("p5.txt", path(5))
        code, records = run_json(["group", p5, "--cone", "1"])
        assert code == 0
        assert records[0]["result"]["invariant_factors"] == ["55"]

    def test_group_does_not_depend_on_the_deleted_vertex(self, graph_file):
        # the reported group is the cokernel of the reduced Laplacian with any
        # vertex deleted, not just the one the library deletes
        goel = graph_file("goel.txt", GOEL)
        factors = run_json(["group", goel])[1][0]["result"]["invariant_factors"]
        for v in range(GOEL.vertex_count):
            direct = smith_normal_form(reduced_laplacian(GOEL, v)).diagonal
            group = from_diagonal(direct)
            assert factors == [str(d) for d in group.invariant_factors]

    def test_remove_vertex_flag_is_rejected(self, graph_file):
        goel = graph_file("goel.txt", GOEL)
        for argv in (["group", goel], ["cone", goel, "2"], ["join", goel, goel]):
            with pytest.raises(SystemExit) as exc:
                run(argv + ["--remove-vertex", "1"])
            assert exc.value.code == 2

    def test_parse_failure_exits_2(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("2 5\n0 1\n")
        code, _ = run(["group", str(bad)])
        assert code == 2

    @pytest.mark.parametrize(
        "text",
        ["1_0 0\n", "3 1\n+1 2\n", "3 1\n\uff11 2\n"],
        ids=["underscore", "plus", "fullwidth-digit"],
    )
    def test_non_decimal_token_exits_2(self, tmp_path, capsys, text):
        bad = tmp_path / "bad.txt"
        bad.write_text(text, encoding="utf-8")
        code, out = run(["group", str(bad)])
        assert (code, out) == (2, "")
        assert "must" in capsys.readouterr().err

    def test_missing_file_exits_2(self):
        code, _ = run(["group", "does-not-exist.txt"])
        assert code == 2

    def test_disconnected_exits_3(self, graph_file):
        disc = graph_file("disc.txt", Graph(4, [(0, 1), (2, 3)]))
        code, _ = run(["group", disc])
        assert code == 3

    def test_byte_identical_reruns(self, graph_file):
        goel = graph_file("goel.txt", GOEL)
        assert run(["group", goel]) == run(["group", goel])


class TestSpanningTreesField:
    """``spanning_trees`` is read off the restricted characteristic
    polynomial, |P(0)| = k * tau, not off a determinant of its own."""

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32), st.integers(1, 8), st.integers(0, 3))
    def test_equals_spanning_tree_count(self, seed, vertices, cone_size):
        g = random_connected_graph(random.Random(seed), vertices)
        if cone_size:
            g = cone(g, cone_size)
        with tempfile.TemporaryDirectory() as tmp:
            target = os.path.join(tmp, "g.txt")
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(format_edge_list(g))
            code, records = run_json(["group", target])
        assert code == 0
        assert records[0]["result"]["spanning_trees"] == str(spanning_tree_count(g))


class TestConeAndJoinCommands:
    def test_cone_of_point_is_complete(self, graph_file):
        k1 = graph_file("k1.txt", complete(1))
        code, records = run_json(["cone", k1, "5"])
        assert code == 0
        result = records[0]["result"]
        assert result["vertices"] == 6
        assert result["invariant_factors"] == ["6", "6", "6", "6"]

    def test_fan_via_cone_command(self, graph_file):
        p5 = graph_file("p5.txt", path(5))
        code, records = run_json(["cone", p5, "1"])
        assert code == 0
        assert records[0]["result"]["order"] == "55"

    def test_join_of_points(self, graph_file):
        k1 = graph_file("k1.txt", complete(1))
        code, records = run_json(["join", k1, k1])
        assert code == 0
        result = records[0]["result"]
        assert result["vertices"] == 2
        assert result["invariant_factors"] == []


class TestVerifyCommand:
    def test_goel_cone_verification(self, graph_file):
        goel = graph_file("goel.txt", GOEL)
        code, records = run_json(["verify", "cone", goel, "-n", "3"])
        assert code == 0
        result = records[0]["result"]
        assert result["order_formula_holds"] is True
        assert result["subgroup_is_expected"] is True
        assert result["splits"] is False
        assert result["pic0_factors"] == ["144", "8208"]

    def test_cone_flag_verifies_the_built_cone(self, graph_file):
        # --cone M builds cone(g, M) and verifies it as the base; it is the
        # (M + 2)-cone over P5, so its 2 new cone vertices split off Z/10
        p5 = graph_file("p5.txt", path(5))
        built = graph_file("cone3.txt", cone(path(5), 3))
        code, records = run_json(["verify", "cone", p5, "-n", "2", "--cone", "3"])
        assert code == 0
        result = records[0]["result"]
        assert result == run_json(["verify", "cone", built, "-n", "2"])[1][0]["result"]
        assert result["base_vertices"] == 8
        assert result["subgroup_factors"] == ["10"]
        assert result["quotient_factors"] == ["10", "10", "22550"]
        assert result["splits"] is True

    def test_tree_verification(self, graph_file):
        tree = graph_file("tree.txt", FORK_TREE)
        code, records = run_json(["verify", "tree", tree, "-n", "1"])
        assert code == 0
        result = records[0]["result"]
        assert result["leaf_count"] == 3
        assert result["h_generators"] == 1
        assert result["holds"] is True

    def test_eigen_verification(self, graph_file):
        p2 = graph_file("p2.txt", path(2))
        code, records = run_json(["verify", "eigen", p2, "-n", "1"])
        assert code == 0
        assert records[0]["result"]["holds"] is True

    def test_join_verification(self, graph_file):
        a = graph_file("a.txt", path(3))
        b = graph_file("b.txt", path(2))
        code, records = run_json(["verify", "join", a, b])
        assert code == 0
        assert records[0]["result"]["holds"] is True
        assert records[0]["result"]["lhs"] == records[0]["result"]["rhs"]

    def test_join_needs_two_files(self, graph_file):
        a = graph_file("a.txt", path(3))
        code, _ = run(["verify", "join", a])
        assert code == 2

    def test_multiple_files_in_order(self, graph_file):
        a = graph_file("a.txt", path(3))
        b = graph_file("b.txt", path(4))
        code, records = run_json(["verify", "eigen", a, b, "-n", "2"])
        assert code == 0
        assert [r["input_summary"].split(":")[0] for r in records] == [a, b]

    def test_sample_mode(self):
        code, records = run_json(["verify", "cone", "--sample", "4", "--seed", "9", "-n", "2"])
        assert code == 0
        assert len(records) == 4
        assert all(r["result"]["holds"] for r in records)

    def test_sample_mode_join(self):
        code, records = run_json(["verify", "join", "--sample", "3", "--seed", "1"])
        assert code == 0
        assert len(records) == 3

    def test_sample_is_deterministic(self):
        first = run(["verify", "tree", "--sample", "3", "--seed", "4", "-n", "1"])
        second = run(["verify", "tree", "--sample", "3", "--seed", "4", "-n", "1"])
        assert first == second

    def test_sample_and_files_conflict(self, graph_file):
        a = graph_file("a.txt", path(3))
        code, _ = run(["verify", "cone", a, "--sample", "2"])
        assert code == 2

    def test_no_input_rejected(self):
        code, _ = run(["verify", "cone"])
        assert code == 2

    def test_tree_verify_on_non_tree_exits_2(self, graph_file):
        c4 = graph_file("c4.txt", Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)]))
        code, _ = run(["verify", "tree", c4, "-n", "1"])
        assert code == 2

    def test_failed_check_exits_1(self, graph_file, monkeypatch):
        # the theorems hold on real inputs, so force a failing check to
        # exercise the exit-code wiring
        import chipfire.cli as cli_module

        monkeypatch.setattr(cli_module, "verify_eigenvectors", lambda g, n: False)
        p3 = graph_file("p3.txt", path(3))
        code, records = run_json(["verify", "eigen", p3, "-n", "1"])
        assert code == 1
        assert records[0]["result"]["holds"] is False


def _one_more(real):
    return lambda *args: real(*args) + 1


def _trivial_subgroup(real):
    def wrong(g, n):
        pic0, _, quotient_h = real(g, n)
        return pic0, CriticalGroup(()), quotient_h

    return wrong


def _too_many_generators(real):
    return lambda g, n: real(g, n)[:2] + (CriticalGroup((2,) * g.vertex_count),)


def _first_entry_one_more(real):
    def wrong(rows, n, x):
        y = real(rows, n, x)
        return (y[0] + 1,) + y[1:]

    return wrong


class TestFailingVerdicts:
    """A wrong side inside the real verifier turns into exit code 1."""

    @pytest.mark.parametrize(
        "which, attr, wrong",
        [
            ("cone", "_cone_groups", _trivial_subgroup),
            ("tree", "_cone_groups", _too_many_generators),
            ("join", "_restricted_char_value", _one_more),
            ("eigen", "_cone_laplacian_times", _first_entry_one_more),
        ],
    )
    def test_wrong_side_exits_1(self, graph_file, monkeypatch, which, attr, wrong):
        import chipfire.theorems as theorems

        monkeypatch.setattr(theorems, attr, wrong(getattr(theorems, attr)))
        p3 = graph_file("p3.txt", path(3))
        code, records = run_json(["verify", which, p3, p3, "-n", "2"])
        assert code == 1
        assert records and all(r["result"]["holds"] is False for r in records)


class TestOutputFormats:
    def test_table_format(self, graph_file):
        k4 = graph_file("k4.txt", complete(4))
        code, text = run(["group", k4, "--format", "table"])
        assert code == 0
        assert "invariant_factors" in text
        assert "4 4" in text

    def test_json_lines_are_parseable(self, graph_file):
        a = graph_file("a.txt", path(3))
        b = graph_file("b.txt", path(4))
        _, text = run(["verify", "cone", a, b, "-n", "1"])
        lines = [line for line in text.splitlines() if line]
        assert len(lines) == 2
        for line in lines:
            json.loads(line)


def json_ints(value):
    """Every JSON number in a decoded record, booleans excluded."""
    if isinstance(value, dict):
        return [x for v in value.values() for x in json_ints(v)]
    if isinstance(value, list):
        return [x for v in value for x in json_ints(v)]
    return [value] if isinstance(value, int) and not isinstance(value, bool) else []


class TestJsonContract:
    def test_no_json_int_above_2_53(self, graph_file):
        # Pic0 of this graph has a cyclic factor of about 2**70, and the
        # second cone over it factors beyond 2**53 as well
        g = graph_file("g.txt", random_connected_graph(random.Random(1), 18, 0.6))
        code, group = run_json(["group", g])
        assert code == 0
        code, verify = run_json(["verify", "cone", g, "-n", "2"])
        assert code == 0
        for record in group + verify:
            assert all(abs(x) <= 2**53 for x in json_ints(record))
        result = group[0]["result"]
        assert result["vertices"] == 18
        assert math.prod(int(d) for d in result["invariant_factors"]) == int(result["order"])
        assert max(int(d) for d in result["invariant_factors"]) > 2**53
        assert max(abs(int(c)) for c in result["char_poly"]) > 2**53
        result = verify[0]["result"]
        assert result["subgroup_factors"] == ["20"]
        assert math.prod(int(d) for d in result["pic0_factors"]) == int(result["pic0_order"])
        assert math.prod(int(d) for d in result["quotient_factors"]) == int(result["quotient_order"])
        assert (result["base_vertices"], result["cone_size"]) == (18, 2)


class TestRegressions:
    def test_group_summary_pluralizes_vertices(self, graph_file):
        for g, expected in (
            (complete(4), "4 vertices, 6 edges"),
            (path(2), "2 vertices, 1 edge"),
            (Graph(1, []), "1 vertex, 0 edges"),
        ):
            name = graph_file("g.txt", g)
            code, records = run_json(["group", name])
            assert code == 0
            assert records[0]["input_summary"] == f"{name}: {expected}"

    def test_sample_summary_pluralizes_vertices(self):
        code, records = run_json(["verify", "cone", "--sample", "5", "--seed", "3"])
        assert code == 0
        for r in records:
            assert "vertexs" not in r["input_summary"]
            assert r["input_summary"].split(": ")[1].split(",")[0].endswith(" vertices")

    def test_sample_count_below_one_rejected(self):
        for which in ("cone", "tree", "join", "eigen"):
            for count in ("0", "-3"):
                code, text = run(["verify", which, "--sample", count])
                assert code == 2
                assert text == ""

    def test_huge_cone_size_is_a_size_error(self, graph_file):
        p2 = graph_file("p2.txt", path(2))
        huge = str(10**20)
        for argv in (
            ["verify", "cone", p2, "-n", huge],
            ["verify", "tree", p2, "-n", huge],
            ["verify", "eigen", p2, "-n", huge],
            ["cone", p2, huge],
            ["group", p2, "--cone", huge],
        ):
            assert run(argv) == (3, "")

    def test_huge_edgeless_header_is_over_budget_without_allocating(self, tmp_path):
        huge = tmp_path / "huge.txt"
        huge.write_text("100000000000 0\n")
        tracemalloc.start()
        try:
            for argv in (["group", str(huge)], ["verify", "cone", str(huge)]):
                assert run(argv) == (3, "")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_huge_header_join_is_a_size_error(self, tmp_path, graph_file):
        huge = tmp_path / "huge.txt"
        huge.write_text("100000000000 0\n")
        huge = str(huge)
        p2 = graph_file("p2.txt", path(2))
        tracemalloc.start()
        try:
            for argv in (
                ["cone", huge, "1"],
                ["group", huge, "--cone", "1"],
                ["verify", "eigen", huge],
                ["verify", "join", p2, huge],
                ["join", huge, p2],
            ):
                assert run(argv) == (3, "")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_over_budget_inputs_are_size_errors_without_allocating(
        self, tmp_path, graph_file, capsys
    ):
        # each of these ran out of memory before graphs had a vertex budget
        p2 = graph_file("p2.txt", path(2))
        big, bigger, long_path = (tmp_path / name for name in ("big", "bigger", "path"))
        big.write_text("2097152 0\n")
        bigger.write_text("4194304 0\n")
        long_path.write_text("4097 4096\n" + "".join(f"{i} {i + 1}\n" for i in range(4096)))
        for cases, limit in (
            (
                [
                    ["verify", "join", p2, str(big)],
                    ["join", p2, str(big)],
                    ["cone", str(big), "2"],
                    ["group", str(bigger), "--cone", "1"],
                    ["verify", "eigen", str(bigger)],
                ],
                1_000_000,
            ),
            ([["group", str(long_path)]], 5_000_000),
        ):
            tracemalloc.start()
            try:
                for argv in cases:
                    assert run(argv) == (3, "")
                    assert len(capsys.readouterr().err.splitlines()) == 1
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < limit

    def test_verify_join_checks_the_join_before_coning_a_factor(self, graph_file, capsys):
        # two 2048-cones of P5 have 4106 vertices: the join command and
        # verify join, on files and on samples, refuse that before any
        # K_2048 exists, with the size line the join command prints
        p5 = graph_file("p5.txt", path(5))
        line = "error: graph on 4106 vertices exceeds the limit of 4096\n"
        tracemalloc.start()
        try:
            for argv in (["join", p5, p5], ["verify", "join", p5, p5]):
                assert run(argv + ["--cone", "2048"]) == (3, "")
                assert capsys.readouterr().err == line
            # the first sample of seed 0 has a join too large as well
            assert run(["verify", "join", "--sample", "3", "--cone", "2048"]) == (3, "")
            assert "exceeds the limit of 4096" in capsys.readouterr().err
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5_000_000

    def test_cone_size_below_one_rejected(self, graph_file):
        p3 = graph_file("p3.txt", path(3))
        for which in ("cone", "tree", "eigen"):
            assert run(["verify", which, p3, "-n", "0"]) == (2, "")

    def test_non_utf8_file_is_an_input_error(self, tmp_path, graph_file, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe3 2\n0 1\n1 2\n")
        a = graph_file("a.txt", path(3))
        for argv in (["group", str(bad)], ["verify", "join", a, str(bad)]):
            assert run(argv) == (2, "")
            assert str(bad) in capsys.readouterr().err
        # a cut-off byte-order mark is invalid UTF-8, not an empty file, and
        # the offset of a bad byte after a full mark counts the mark
        for content, where in (
            (b"\xef", "at byte 0"),
            (b"\xef\xbb", "at byte 0"),
            (b"\xef\xbb\xbf\xff", "at byte 3"),
        ):
            bad.write_bytes(content)
            assert run(["group", str(bad)]) == (2, "")
            err = capsys.readouterr().err
            assert "not UTF-8 text" in err and where in err

    def test_byte_order_mark_is_ignored(self, tmp_path, graph_file):
        p5 = graph_file("p5.txt", path(5))
        with_bom = tmp_path / "bom.txt"
        with_bom.write_bytes(b"\xef\xbb\xbf" + (tmp_path / "p5.txt").read_bytes())
        bom = str(with_bom)
        for plain_argv, bom_argv in (
            (["group", p5], ["group", bom]),
            (["verify", "join", p5, p5], ["verify", "join", bom, p5]),
        ):
            code, records = run_json(bom_argv)
            assert code == 0
            for record in records:
                record["input_summary"] = record["input_summary"].replace(bom, p5)
            assert (code, records) == run_json(plain_argv)

    @pytest.mark.parametrize(
        "target, argv",
        [
            ("critical_group", ["group", "{}"]),
            ("verify_cone_theorem", ["verify", "cone", "{}", "-n", "1"]),
        ],
    )
    def test_out_of_memory_is_a_precondition_error(
        self, target, argv, graph_file, monkeypatch, capsys
    ):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, target, exhausted)
        p5 = graph_file("p5.txt", path(5))
        assert run([arg.format(p5) for arg in argv]) == (3, "")
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: out of memory\n"

    @pytest.mark.parametrize(
        "big, digits, five_times",
        [
            (10**5000, "1" + "0" * 5000, "5" + "0" * 5000),
            (10**4300 - 1, "9" * 4300, "4" + "9" * 4299 + "5"),
        ],
        ids=["10**5000", "10**4300-1"],
    )
    def test_integers_past_the_str_digit_limit_are_written_out(
        self, graph_file, monkeypatch, big, digits, five_times
    ):
        # str() refuses ints of more than 4300 digits on Python >= 3.11;
        # every decimal field goes through one converter that splits them
        assert cli._decimals([big, -big, 7]) == [digits, "-" + digits, "7"]
        assert str(CriticalGroup((big,))) == f"Z/{digits}"
        assert str(IntPoly([big, 1])) == f"x + {digits}"
        assert str(IntPoly([0, -big])) == f"-{digits}*x"
        with pytest.raises(InputError, match="does not divide"):
            CriticalGroup((big, big + 1))

        p5 = graph_file("p5.txt", path(5))
        monkeypatch.setattr(cli, "critical_group", lambda g: CriticalGroup((big,)))
        monkeypatch.setattr(cli, "_cone_char_poly", lambda g, n: IntPoly([5 * big, 1]))
        code, records = run_json(["group", p5])
        assert code == 0
        result = records[0]["result"]
        assert result["invariant_factors"] == [digits] and result["group"] == f"Z/{digits}"
        assert result["order"] == result["spanning_trees"] == digits
        assert result["char_poly"] == [five_times, "1"]
        assert result["char_poly_str"] == f"x + {five_times}"

        group = CriticalGroup((big,))
        report = ConeSequenceReport(5, 3, group, group, group, big, True, True, True, 1)
        cone_result = cli._cone_report_result(report)
        assert cone_result["pic0_factors"] == [digits]
        assert cone_result["pic0_order"] == cone_result["quotient_order"] == digits
        assert cone_result["p_at_minus_n"] == digits
        join_result = cli._join_report_result(JoinOrderReport((2, 3), 5, big, -big, False))
        assert (join_result["lhs"], join_result["rhs"]) == (digits, "-" + digits)

    def test_each_number_is_converted_to_decimal_once(self, graph_file, monkeypatch):
        # char_poly_str is written from the decimal strings of char_poly
        converted = []

        def spy(x):
            converted.append(x)
            return str(x)

        monkeypatch.setattr(cli, "_decimal", spy)
        monkeypatch.setattr(intlinalg, "_decimal", spy)
        p5 = graph_file("p5.txt", path(5))
        for argv in (["group", p5], ["cone", p5, "16"], ["group", p5, "--cone", "4"]):
            converted.clear()
            code, records = run_json(argv)
            assert code == 0
            result = records[0]["result"]
            numbers = result["char_poly"] + result["invariant_factors"] + [result["order"], result["spanning_trees"]]
            assert sorted(converted) == sorted(map(int, numbers))

    def test_parser_is_built_once_per_process(self, graph_file, monkeypatch):
        p5 = graph_file("p5.txt", path(5))
        assert run(["group", p5])[0] == 0
        built = []
        real_init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            real_init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert run(["group", p5])[0] == 0
        assert run(["verify", "eigen", p5, "-n", "2"])[0] == 0
        assert built == []

    def test_presentations_do_not_outlive_the_command(self, graph_file):
        # the benchmark's loop: group, cone FILE 2 and verify cone on
        # distinct files; each presentation goes with the graph it presents
        before = sandpile._reduced_snf.cache_info()
        rng = random.Random(29)
        for i in range(20):
            name = graph_file(f"g{i}.txt", random_connected_graph(rng, rng.randint(4, 14), 0.4))
            for argv in (["group", name], ["cone", name, "2"], ["verify", "cone", name, "-n", "2"]):
                assert run(argv)[0] == 0
        after = sandpile._reduced_snf.cache_info()
        assert after.misses >= before.misses + 20
        assert after.currsize == before.currsize



JUNK_TOKENS = st.sampled_from(["x", "1.5", "#", "--", "0x1", "-3", "15"])


@st.composite
def edge_list_bytes(draw):
    """An edge-list file on at most 8 vertices: well formed two times in
    three, otherwise with one fault (bad header, out-of-range endpoint, wrong
    edge count, an inserted junk or comment line, or invalid UTF-8)."""
    n = draw(st.integers(1, 8))
    endpoints = st.integers(0, n - 1)
    pairs = st.tuples(endpoints, endpoints).filter(lambda e: e[0] != e[1])
    edges = draw(st.lists(pairs, max_size=16)) if n > 1 else []
    lines = [f"{u} {v}" for u, v in edges]
    header = [str(n), str(len(edges))]
    fault = draw(st.integers(0, 14))
    if fault == 10:
        header[0] = str(draw(st.integers(-3, 8)))
    elif fault == 11 and lines:
        bad = draw(st.tuples(st.integers(-3, 15), st.integers(-3, 15)))
        lines[draw(st.integers(0, len(lines) - 1))] = f"{bad[0]} {bad[1]}"
    elif fault == 12:
        header[1] = str(len(edges) + draw(st.sampled_from([-1, 1])))
    elif fault == 13:
        junk = st.lists(JUNK_TOKENS, max_size=3).map(" ".join)
        extra = draw(st.one_of(st.sampled_from(["# comment", "", "  "]), junk))
        lines.insert(draw(st.integers(0, len(lines))), extra)
    text = "\n".join([" ".join(header)] + lines) + "\n"
    prefix = draw(st.sampled_from([b"\xff\xfe", b"\x80", b"\xc3("])) if fault == 14 else b""
    return prefix + text.encode()


@st.composite
def cli_argvs(draw, paths):
    command = draw(st.sampled_from(
        ["group", "cone", "join", "verify cone", "verify tree", "verify join", "verify eigen"]
    ))
    files = draw(st.lists(st.sampled_from(paths), min_size=1, max_size=3))
    if command == "group":
        argv = ["group", files[0]]
    elif command == "cone":
        argv = ["cone", files[0], str(draw(st.integers(-1, 4)))]
    elif command == "join":
        argv = ["join", *files]
    else:
        argv = [*command.split(), *files, "-n", str(draw(st.integers(-1, 4)))]
    if draw(st.booleans()):
        argv += ["--cone", str(draw(st.integers(-1, 3)))]
    if draw(st.integers(0, 4)) == 0:
        argv += ["--format", "table"]
    return argv


class TestCliFuzz:
    """Every generated command line ends in a documented exit code; nothing
    else escapes ``main``."""

    @settings(max_examples=120, deadline=None)
    @given(st.lists(edge_list_bytes(), min_size=1, max_size=3), st.data())
    def test_generated_inputs_end_in_a_documented_exit_code(self, contents, data):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for index, content in enumerate(contents):
                paths.append(os.path.join(tmp, f"g{index}.txt"))
                with open(paths[-1], "wb") as fh:
                    fh.write(content)
            if data.draw(st.integers(0, 9)) == 0:
                paths.append(os.path.join(tmp, "missing.txt"))
            argv = data.draw(cli_argvs(paths))
            try:
                code, text = run(argv)
            except SystemExit as exc:
                code, text = exc.code, ""
        assert code in (0, 1, 2, 3)
        if code == 0 and "table" not in argv:
            assert all(json.loads(line) for line in text.splitlines())
