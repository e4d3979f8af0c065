"""The cone route against the explicit cone.

The library presents Pic0 of cone(g, n) by a (k+1)-square matrix and takes
its characteristic polynomial from g's, so K_n is never built; the oracles
build cone(g, n) and ask the graph-level functions of the library.
"""

import io
import json
import os
import random
import tempfile
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (
    CriticalGroup,
    Graph,
    char_poly,
    char_poly_restricted,
    complete,
    cone,
    format_edge_list,
    is_connected,
    join,
    laplacian,
    path,
    random_connected_graph,
    random_tree,
    verify_cone_theorem,
    verify_tree_bound,
)
from chipfire import cli
from chipfire.cli import main
from chipfire.sandpile import _cone_char_poly, _cone_groups
import oracles

GOEL = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])

# (g, n) with gcd(k + n, |P(-n)|) > 1, where Pic0 of the cone does not split
SHARED_PRIMES = [
    (GOEL, 3),
    (Graph(6, [(0, 1), (0, 4), (0, 5), (1, 4), (1, 5), (2, 3), (3, 4), (3, 5), (4, 5)]), 2),
    (Graph(5, [(0, 2), (0, 3), (1, 2), (3, 4)]), 5),
    (Graph(4, [(0, 3)]), 2),
    (Graph(3, [(1, 2)]), 3),
    (Graph(5, [(0, 1), (0, 3), (0, 4), (1, 4), (3, 4)]), 5),
]
# a point (k = 1), disconnected bases, and n = 1 and 2
SMALL_CASES = [
    (complete(1), 1),
    (complete(1), 2),
    (complete(1), 6),
    (Graph(2), 1),
    (Graph(5, [(0, 1), (2, 3)]), 1),
    (Graph(5, [(0, 1), (2, 3)]), 2),
    (path(5), 1),
    (path(5), 2),
]
FIXED = SMALL_CASES + SHARED_PRIMES


@st.composite
def graphs(draw, max_vertices=9, connected=False):
    """Erdos-Renyi graphs on 1..max_vertices vertices from a drawn seed,
    disconnected ones included unless ``connected`` is set."""
    k = draw(st.integers(1, max_vertices))
    p = draw(st.sampled_from((0.1, 0.3, 0.5, 0.8)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if connected:
        return random_connected_graph(rng, k, max(p, 0.3))
    return Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p])


@st.composite
def trees(draw):
    return random_tree(random.Random(draw(st.integers(0, 2**32))), draw(st.integers(2, 9)))


cone_sizes = st.integers(1, 8)


class TestConeGroupsAgainstExplicitCone:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), cone_sizes)
    def test_random_bases(self, g, n):
        assert _cone_groups(g, n) == oracles.cone_groups(g, n)

    @pytest.mark.parametrize("g, n", FIXED)
    def test_fixed_bases(self, g, n):
        assert _cone_groups(g, n) == oracles.cone_groups(g, n)

    @pytest.mark.parametrize("g, n", SHARED_PRIMES)
    def test_shared_primes_do_not_split(self, g, n):
        pic0, subgroup, quotient_h = _cone_groups(g, n)
        assert pic0.order == subgroup.order * quotient_h.order
        assert pic0 != CriticalGroup.from_cyclic_orders(
            subgroup.invariant_factors + quotient_h.invariant_factors
        )


class TestReportsAgainstExplicitCone:
    @settings(max_examples=120, deadline=None)
    @given(graphs(connected=True), cone_sizes)
    def test_cone_report(self, g, n):
        assert verify_cone_theorem(g, n) == oracles.verify_cone_theorem(g, n)

    @pytest.mark.parametrize("g, n", [(g, n) for g, n in FIXED if is_connected(g)])
    def test_cone_report_fixed(self, g, n):
        assert verify_cone_theorem(g, n) == oracles.verify_cone_theorem(g, n)

    @settings(max_examples=80, deadline=None)
    @given(trees(), cone_sizes)
    def test_tree_report(self, g, n):
        assert verify_tree_bound(g, n) == oracles.verify_tree_bound(g, n)


class TestCharPolyIdentity:
    """P of cone(g, n) is Q(x - n) (x - k - n)^n with Q = det(xI - L) / x of
    g, and n = 0 gives Q itself, disconnected bases included."""

    @staticmethod
    def expected(g, n):
        if n == 0:
            return oracles.divide_by_x(char_poly(laplacian(g)))
        return char_poly_restricted(cone(g, n))

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.integers(0, 8))
    def test_random_bases(self, g, n):
        assert _cone_char_poly(g, n) == self.expected(g, n)

    @pytest.mark.parametrize(
        "g, n",
        FIXED
        + [(path(3), 24), (complete(1), 30)]
        + [(g, 0) for g in dict.fromkeys(g for g, _ in FIXED)],
    )
    def test_fixed_bases(self, g, n):
        assert _cone_char_poly(g, n) == self.expected(g, n)


def run_json(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, [json.loads(line) for line in out.getvalue().splitlines()]


def cli_results(g, argvs):
    with tempfile.TemporaryDirectory() as tmp:
        name = os.path.join(tmp, "g.txt")
        with open(name, "w", encoding="utf-8") as fh:
            fh.write(format_edge_list(g))
        for argv in argvs:
            code, records = run_json([arg.format(name) for arg in argv])
            assert code == 0
            yield records[0]["result"]


class TestConeCommandAgainstExplicitCone:
    """``cone FILE N``, ``group FILE --cone N`` and the one-file
    ``join FILE --cone N`` give the result of ``group`` on the file of the
    built cone, disconnected bases included."""

    @staticmethod
    def check(g, n):
        expected = oracles.group_result(cone(g, n))
        argvs = [
            ["cone", "{}", str(n)],
            ["group", "{}", "--cone", str(n)],
            ["join", "{}", "--cone", str(n)],
        ]
        for result in cli_results(g, argvs):
            assert result == expected

    @settings(max_examples=80, deadline=None)
    @given(graphs(), cone_sizes)
    def test_random_bases(self, g, n):
        self.check(g, n)

    @pytest.mark.parametrize("g, n", FIXED)
    def test_fixed_bases(self, g, n):
        self.check(g, n)

    @settings(max_examples=30, deadline=None)
    @given(graphs(max_vertices=6), st.integers(1, 4), st.integers(1, 4))
    def test_cone_of_a_cone(self, g, m, n):
        expected = oracles.group_result(cone(cone(g, m), n))
        (result,) = cli_results(g, [["cone", "{}", str(n), "--cone", str(m)]])
        assert result == expected


def write_files(tmp, gs):
    names = []
    for i, g in enumerate(gs):
        names.append(os.path.join(tmp, f"g{i}.txt"))
        with open(names[-1], "w", encoding="utf-8") as fh:
            fh.write(format_edge_list(g))
    return names


class TestJoinConeAgainstExplicitJoin:
    """``join FILE... --cone N`` builds no cone: every cone vertex is
    adjacent to every other vertex, so the join of l N-cones is the
    (l N)-cone over the join of the files' graphs, disconnected ones
    included.  Size errors come at the same step as with the built join."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(graphs(max_vertices=5), min_size=1, max_size=3), st.integers(1, 4))
    def test_random_factors(self, gs, n):
        expected = oracles.group_result(reduce(join, [cone(g, n) for g in gs]))
        with tempfile.TemporaryDirectory() as tmp:
            names = write_files(tmp, gs)
            code, records = run_json(["join", *names, "--cone", str(n)])
        assert code == 0
        assert records == [
            {"command": "join", "input_summary": " + ".join(names), "result": expected}
        ]

    def test_no_cone_is_built(self, monkeypatch):
        def refuse(g, n):
            raise AssertionError("a cone was built")

        monkeypatch.setattr(cli, "cone", refuse)
        (result,) = cli_results(path(5), [["join", "{}", "{}", "--cone", "256"]])
        assert (result["vertices"], len(result["char_poly"])) == (522, 522)
        assert result["order"] == result["spanning_trees"]

    @pytest.mark.parametrize(
        "sizes, n, code, message",
        [
            # the cones fit, but the join of the first two does not
            ((2047, 2047), 2, 3, "graph on 4098 vertices exceeds the limit of 4096"),
            ((1400, 1400, 1400), 1, 3, "graph on 4203 vertices exceeds the limit of 4096"),
            # the first factor's cone is refused before the next file is read
            (
                (4000, None),
                200,
                3,
                "cone of a graph on 4000 vertices with 200 cone vertices has 4200 "
                "vertices, more than the limit of 4096",
            ),
            ((5, 5), 0, 2, "cone size must be at least 1"),
            ((5, 5), 2049, 3, "complete graph on 2049 vertices exceeds the limit of 2048"),
        ],
        ids=["second-join", "third-join", "first-cone", "cone-0", "cone-2049"],
    )
    def test_oversize(self, tmp_path, capsys, sizes, n, code, message):
        # a size of None names a file that does not exist
        names = write_files(tmp_path, [Graph(k) for k in sizes if k is not None])
        names += [str(tmp_path / "missing.txt")] * sizes.count(None)
        out = io.StringIO()
        assert main(["join", *names, "--cone", str(n)], out=out) == code
        assert out.getvalue() == ""
        assert capsys.readouterr().err == f"error: {message}\n"


def as_int(text):
    """A JSON decimal string as an int, past the str digit limit of
    Python >= 3.11."""
    digits = text.lstrip("-")
    value = 0
    for i in range(0, len(digits), 4000):
        chunk = digits[i : i + 4000]
        value = value * 10 ** len(chunk) + int(chunk)
    return -value if text.startswith("-") else value


class TestLargeCones:
    """Cone sizes up to the K_n cap, which the explicit cone cannot reach
    in test time."""

    def test_cone_theorem_at_2048(self):
        report = verify_cone_theorem(path(5), 2048)
        assert report.holds
        assert report.subgroup == CriticalGroup((2053,) * 2047)
        assert report.pic0.order == 2053**2047 * report.p_at_minus_n

    def test_cone_command_at_2048(self):
        k, n = 5, 2048
        (result,) = cli_results(path(k), [["cone", "{}", str(n)]])
        assert (result["vertices"], result["edges"]) == (k + n, 4 + k * n + n * (n - 1) // 2)
        assert len(result["char_poly"]) == k + n
        assert abs(as_int(result["char_poly"][0])) == (k + n) * as_int(result["order"])
        assert result["order"] == result["spanning_trees"]
