"""Tests for graph construction, queries, and the edge-list format."""

import random
import re
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (
    Graph,
    InputError,
    IntMatrix,
    SizeError,
    complete,
    cone,
    cone_difference_divisors,
    cycle,
    format_edge_list,
    is_connected,
    is_tree,
    join,
    leaves,
    parse_edge_list,
    path,
    random_connected_graph,
    random_tree,
    verify_cone_theorem,
    verify_eigenvectors,
    verify_tree_bound,
)
from oracles import has_conformity_property
from chipfire.graphs import MAX_COMPLETE_VERTICES, MAX_VERTICES

GOEL_EDGES = [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)]
FORK_TREE_EDGES = [(0, 1), (1, 2), (2, 3), (2, 4)]


class TestConstruction:
    def test_single_edge(self):
        g = Graph(2, [(0, 1)])
        assert g == path(2)

    def test_goel_graph(self):
        g = Graph(6, GOEL_EDGES)
        assert g.vertex_count == 6 and g.edge_count == 10

    def test_duplicate_edges_merge(self):
        assert Graph(3, [(0, 1), (0, 1)]) == Graph(3, [(0, 1)])
        assert Graph(3, [(0, 1), (1, 0)]) == Graph(3, [(0, 1)])

    def test_out_of_range(self):
        with pytest.raises(InputError):
            Graph(2, [(0, 2)])
        with pytest.raises(InputError):
            Graph(2, [(-1, 0)])

    def test_self_loop(self):
        with pytest.raises(InputError):
            Graph(2, [(1, 1)])

    @pytest.mark.parametrize("edge", [(0, 1, 2), 5, (0,)])
    def test_malformed_edge_names_the_edge(self, edge):
        # tuple unpacking alone raises a bare ValueError or TypeError here
        with pytest.raises(InputError, match=re.escape(f"edge {edge!r}")):
            Graph(3, [edge])

    @pytest.mark.parametrize("edge", [(0, 1.0), ("0", 1)])
    def test_non_integer_endpoint_rejected(self, edge):
        with pytest.raises(InputError, match="integers"):
            Graph(3, [edge])

    def test_empty_graph_rejected(self):
        with pytest.raises(InputError):
            Graph(0)

    def test_bools_are_not_integers(self):
        # True counts as 1 but prints as True, which parse_edge_list rejects
        for build in (
            lambda: Graph(True),
            lambda: Graph(2, [(False, True)]),
            lambda: Graph(2, [(0, True)]),
            lambda: path(2).neighbors(True),
            lambda: cone(path(3), True),
        ):
            with pytest.raises(InputError):
                build()

    def test_complete(self):
        assert complete(1).edge_count == 0
        assert complete(3).edge_count == 3
        assert complete(4).edge_count == 6
        with pytest.raises(InputError):
            complete(0)

    def test_huge_complete_graph_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            for build in (
                lambda: complete(10**20),
                lambda: cone(path(2), 10**20),
                lambda: complete(MAX_COMPLETE_VERTICES + 1),
            ):
                with pytest.raises(SizeError):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_huge_join_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            for build in (
                lambda: join(Graph(10**11), path(2)),
                lambda: join(path(2), Graph(10**11)),
                lambda: cone(Graph(10**11), 1),
                lambda: join(Graph(MAX_COMPLETE_VERTICES**2 + 1), Graph(1)),
            ):
                with pytest.raises(SizeError):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_vertex_budget(self):
        assert MAX_VERTICES == 2 * MAX_COMPLETE_VERTICES
        assert Graph(MAX_VERTICES).vertex_count == MAX_VERTICES
        # the budget is checked before the first edge is read
        unread = (pytest.fail("an edge was read") for _ in range(1))
        with pytest.raises(SizeError):
            Graph(MAX_VERTICES + 1, unread)

    def test_over_budget_rejected_before_allocating(self):
        tracemalloc.start()
        try:
            for build in (
                lambda: Graph(MAX_VERTICES + 1),
                lambda: join(Graph(MAX_VERTICES - 1), path(2)),
                lambda: cone(Graph(4000), 2000),
                lambda: verify_eigenvectors(Graph(MAX_VERTICES - 1), 2),
            ):
                with pytest.raises(SizeError):
                    build()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2 * MAX_VERTICES), st.data())
    def test_join_refuses_every_size_the_cross_edge_cap_refused(self, k1, data):
        # the budget k1 + k2 <= 2 * MAX_COMPLETE_VERTICES implies the old cap
        # k1 * k2 <= MAX_COMPLETE_VERTICES**2; only refused sizes are drawn
        least = MAX_COMPLETE_VERTICES**2 // k1 + 1
        k2 = data.draw(st.integers(least, least + MAX_VERTICES))
        for a, b in ((k1, k2), (k2, k1)):
            with pytest.raises(SizeError):
                join(Graph(a), Graph(b))

    def test_path_and_cycle(self):
        assert path(5).edge_count == 4
        assert path(1) == complete(1)
        assert cycle(3) == complete(3)
        assert cycle(6).edge_count == 6
        with pytest.raises(InputError):
            cycle(2)
        with pytest.raises(InputError):
            path(0)

    def test_join_of_singletons(self):
        assert join(complete(1), complete(1)) == complete(2)

    def test_join_path_and_apex(self):
        assert join(path(2), complete(1)) == complete(3)

    def test_join_of_completes(self):
        assert join(complete(2), complete(3)) == complete(5)

    def test_join_index_layout(self):
        g = join(path(2), path(2))
        # second factor shifted by 2, plus all four cross edges
        assert g.edges == frozenset({(0, 1), (2, 3), (0, 2), (0, 3), (1, 2), (1, 3)})

    def test_cone_of_point(self):
        for n in (1, 2, 4):
            assert cone(complete(1), n) == complete(n + 1)

    def test_cone_composition(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert cone(cone(g, 2), 3) == cone(g, 5)

    def test_cone_zero_rejected(self):
        with pytest.raises(InputError):
            cone(path(3), 0)


class TestQueries:
    def test_connectivity(self):
        assert is_connected(path(4))
        assert not is_connected(Graph(2))
        assert is_connected(complete(1))
        assert not is_connected(Graph(4, [(0, 1), (2, 3)]))

    def test_join_of_disconnected_is_connected(self):
        assert is_connected(join(Graph(2), Graph(3)))

    def test_degree(self):
        g = cone(path(3), 2)
        assert g.degree(1) == 4  # middle of the path plus both cone vertices
        assert g.degree(3) == 4  # cone vertex: 3 base + 1 cone neighbor

    def test_leaves(self):
        assert leaves(path(5)) == (0, 4)
        assert leaves(Graph(5, FORK_TREE_EDGES)) == (0, 3, 4)
        assert leaves(cycle(4)) == ()

    def test_is_tree(self):
        assert is_tree(path(6))
        assert is_tree(Graph(5, FORK_TREE_EDGES))
        assert not is_tree(cycle(4))
        assert not is_tree(Graph(3, [(0, 1)]))  # right edge count needs connectivity too


class TestConformity:
    def test_cone_vertices_conform(self):
        g = cone(path(3), 3)
        assert has_conformity_property(g, [3, 4, 5])

    def test_edgeless_pair_on_path(self):
        assert has_conformity_property(path(3), [0, 2])

    def test_adjacent_pair_on_path_fails(self):
        assert not has_conformity_property(path(3), [0, 1])

    def test_singletons_always_conform(self):
        g = Graph(6, GOEL_EDGES)
        for v in range(6):
            assert has_conformity_property(g, [v])

    def test_mixed_induced_subgraph_fails(self):
        # {0, 1, 3} in P4 induces exactly one edge: neither complete nor edgeless
        assert not has_conformity_property(path(4), [0, 1, 3])

    def test_empty_set_rejected(self):
        with pytest.raises(InputError):
            has_conformity_property(path(3), [])

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            has_conformity_property(path(3), [0, 0])

    def test_out_of_range_rejected(self):
        with pytest.raises(InputError):
            has_conformity_property(path(3), [5])

    @settings(max_examples=50)
    @given(st.integers(min_value=1, max_value=5), st.integers(min_value=2, max_value=4))
    def test_cone_vertices_conform_generally(self, k, n):
        g = cone(path(k), n)
        cone_vertices = list(range(k, k + n))
        assert has_conformity_property(g, cone_vertices)
        for v in cone_vertices:
            assert g.degree(v) == k + n - 1


class TestEdgeListFormat:
    def test_parse_basic(self):
        g = parse_edge_list("3 2\n0 1\n1 2\n")
        assert g == path(3)

    def test_parse_comments_and_blanks(self):
        text = "# a triangle\n3 3\n0 1\n\n# middle comment\n1 2\n0 2\n\n\n"
        assert parse_edge_list(text) == complete(3)

    def test_parse_single_vertex(self):
        assert parse_edge_list("1 0\n") == complete(1)

    def test_roundtrip(self):
        g = cone(Graph(5, FORK_TREE_EDGES), 2)
        assert parse_edge_list(format_edge_list(g)) == g

    def test_edge_count_mismatch(self):
        with pytest.raises(InputError):
            parse_edge_list("3 2\n0 1\n")
        with pytest.raises(InputError):
            parse_edge_list("3 1\n0 1\n1 2\n")

    def test_bad_header(self):
        with pytest.raises(InputError):
            parse_edge_list("3\n")
        with pytest.raises(InputError):
            parse_edge_list("three 2\n0 1\n1 2\n")

    def test_bad_edge_line(self):
        with pytest.raises(InputError):
            parse_edge_list("2 1\n0 1 2\n")
        with pytest.raises(InputError):
            parse_edge_list("2 1\na b\n")

    def test_empty_file(self):
        with pytest.raises(InputError):
            parse_edge_list("# nothing here\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            ("1_0 0\n", "header must contain two integers"),
            ("3 1\n+1 2\n", "edge endpoints must be integers"),
            ("3 1\n\uff11 2\n", "edge endpoints must be integers"),
        ],
        ids=["underscore", "plus", "fullwidth-digit"],
    )
    def test_tokens_must_be_ascii_decimal_integers(self, text, message):
        # int() reads these as 10, 1 and 1
        with pytest.raises(InputError, match=message):
            parse_edge_list(text)

    def test_negative_tokens_keep_their_messages(self):
        with pytest.raises(InputError, match="vertex count must be a positive integer, got -2"):
            parse_edge_list("-2 0\n")
        with pytest.raises(InputError, match=re.escape("edge (-1, 0) out of range")):
            parse_edge_list("2 1\n-1 0\n")


SIZE_ENTRY_POINTS = {
    "complete": complete,
    "path": path,
    "cycle": cycle,
    "cone": lambda n: cone(path(3), n),
    "cone_difference_divisors-k": lambda k: cone_difference_divisors(k, 2),
    "cone_difference_divisors-n": lambda n: cone_difference_divisors(3, n),
    "verify_cone_theorem": lambda n: verify_cone_theorem(path(3), n),
    "verify_tree_bound": lambda n: verify_tree_bound(path(3), n),
    "verify_eigenvectors": lambda n: verify_eigenvectors(path(3), n),
    "random_tree": lambda m: random_tree(random.Random(0), m),
    "random_connected_graph": lambda m: random_connected_graph(random.Random(0), m),
    "random_connected_graph-p": lambda p: random_connected_graph(random.Random(0), 3, p),
    "IntMatrix-rows": lambda m: IntMatrix(m, 1, []),
    "IntMatrix-cols": lambda m: IntMatrix(1, m, []),
}


@pytest.mark.parametrize("size", [1.5, "3", None], ids=["float", "str", "None"])
@pytest.mark.parametrize("call", SIZE_ENTRY_POINTS.values(), ids=list(SIZE_ENTRY_POINTS))
def test_every_size_argument_is_checked_as_input(call, size):
    # one rule per size: a non-int count is an InputError, never a TypeError
    with pytest.raises(InputError):
        call(size)
