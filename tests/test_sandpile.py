"""Tests for Laplacians, critical groups, and divisor-class arithmetic.

The SNF-witness route used by the library is checked against an independent
oracle: a divisor is principal iff Cramer's rule on the reduced Laplacian
system gives an all-integer solution, which needs nothing but determinants.
"""

import itertools
import operator
import random
import tracemalloc
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from chipfire import (
    CriticalGroup,
    Graph,
    InputError,
    IntMatrix,
    IntPoly,
    NotConnectedError,
    char_poly,
    char_poly_restricted,
    class_order,
    complete,
    cone,
    critical_group,
    cycle,
    determinant,
    direct_sum,
    fire_vertex,
    is_connected,
    is_principal,
    join,
    laplacian,
    path,
    poly_eval,
    quotient_by_classes,
    random_connected_graph,
    random_tree,
    reduced_laplacian,
    spanning_tree_count,
    subgroup_invariants,
)
from oracles import has_conformity_property, smith_normal_form
from chipfire import errors, graphs, intlinalg, sandpile, theorems

GOEL = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
FORK_TREE = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


PETERSEN = Graph(
    10,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    + [(i, i + 5) for i in range(5)],
)


def torus(a, b):
    at = lambda i, j: (i % a) * b + j % b
    return Graph(
        a * b,
        [(at(i, j), at(i, j + 1)) for i in range(a) for j in range(b)]
        + [(at(i, j), at(i + 1, j)) for i in range(a) for j in range(b)],
    )


def grid(a, b):
    at = lambda i, j: i * b + j
    return Graph(
        a * b,
        [(at(i, j), at(i + 1, j)) for i in range(a - 1) for j in range(b)]
        + [(at(i, j), at(i, j + 1)) for i in range(a) for j in range(b - 1)],
    )


def hypercube(d):
    return Graph(2**d, [(v, v | 1 << i) for v in range(2**d) for i in range(d) if not v >> i & 1])


def reduced_laplacian_rows(g, remove=0):
    """Reduced Laplacian built directly from adjacency, for the oracle."""
    keep = [v for v in range(g.vertex_count) if v != remove]
    return [
        [g.degree(u) if u == v else (-1 if v in g.neighbors(u) else 0) for v in keep]
        for u in keep
    ]


def cramer_is_principal(g, d):
    """Principality decided by Cramer integrality, no SNF involved."""
    rows = reduced_laplacian_rows(g)
    rhs = [c for v, c in enumerate(d) if v != 0]
    det0 = determinant(IntMatrix.from_rows(rows)) if rows else 1
    assert det0 != 0
    for i in range(len(rows)):
        replaced = [row[:i] + [rhs[j]] + row[i + 1 :] for j, row in enumerate(rows)]
        if determinant(IntMatrix.from_rows(replaced)) % det0 != 0:
            return False
    return True


def oracle_class_order(g, d):
    m = 1
    while not cramer_is_principal(g, [m * c for c in d]):
        m += 1
    return m


def fresh(g):
    """A graph equal to g but no other object, so it has no presentation
    yet: presentations are keyed by the graph object."""
    return Graph(g.vertex_count, g.edges)


def vertex_difference(g, a, b):
    d = [0] * g.vertex_count
    d[a] = 1
    d[b] = -1
    return tuple(d)


class TestLaplacian:
    def test_path3(self):
        assert laplacian(path(3)) == IntMatrix.from_rows(
            [[1, -1, 0], [-1, 2, -1], [0, -1, 1]]
        )

    def test_triangle(self):
        assert laplacian(complete(3)) == IntMatrix.from_rows(
            [[2, -1, -1], [-1, 2, -1], [-1, -1, 2]]
        )

    def test_single_vertex(self):
        assert laplacian(complete(1)) == IntMatrix.from_rows([[0]])

    def test_rows_and_columns_sum_to_zero(self):
        lap = laplacian(GOEL)
        for row, column in zip(lap, zip(*lap)):
            assert sum(row) == 0
            assert sum(column) == 0

    def test_reduced(self):
        assert reduced_laplacian(complete(3), 0) == IntMatrix.from_rows([[2, -1], [-1, 2]])
        assert reduced_laplacian(path(2), 1) == IntMatrix.from_rows([[1]])
        assert reduced_laplacian(path(3), 1) == IntMatrix.from_rows([[1, 0], [0, 1]])

    def test_reduced_requires_connected(self):
        with pytest.raises(NotConnectedError):
            reduced_laplacian(Graph(3, [(0, 1)]), 0)


class TestCriticalGroupType:
    def test_divisibility_chain_enforced(self):
        with pytest.raises(InputError):
            CriticalGroup((4, 6))
        with pytest.raises(InputError):
            CriticalGroup((1, 2))

    def test_trivial(self):
        g = CriticalGroup()
        assert g.order == 1 and g.is_trivial and str(g) == "trivial"

    # the group of a diagonal, as the SNF checks read it:
    # CriticalGroup.from_cyclic_orders(map(abs, d))
    def test_from_diagonal_drops_units(self):
        assert oracles.from_diagonal((1, 1, 4, 4)).invariant_factors == (4, 4)

    def test_from_diagonal_rejects_zero(self):
        with pytest.raises(InputError):
            oracles.from_diagonal((1, 0))

    def test_from_cyclic_orders_worked_example(self):
        # Z/9 + Z/27 + (Z/16)^2 + Z/19 recombines to [144, 8208]
        g = CriticalGroup.from_cyclic_orders([9, 27, 16, 16, 19])
        assert g.invariant_factors == (144, 8208)

    def test_str(self):
        assert str(CriticalGroup((4, 4))) == "Z/4 x Z/4"


# primes below 1000, so trial division factors a product of them at once
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 31, 97, 101, 997)


@st.composite
def smooth_orders(draw):
    """Orders up to 2**70 whose prime factors are all below 1000."""
    n = 1
    for p in draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=40)):
        if n * p > 2**70:
            break
        n *= p
    return n


@st.composite
def order_lists(draw):
    """0-12 cyclic orders: 1s, small values, values up to 10**6 and smooth
    values up to 2**70, with repeats."""
    order = st.one_of(st.integers(1, 12), st.integers(1, 10**6), smooth_orders())
    orders = draw(st.lists(order, max_size=12))
    if orders:
        orders += draw(st.lists(st.sampled_from(orders), max_size=12 - len(orders)))
    return draw(st.permutations(orders))


class TestCanonicalForm:
    """The gcd/lcm sweep against the SNF of the diagonal matrix of orders and
    against elementary divisors found by trial division."""

    @settings(max_examples=300, deadline=None)
    @given(order_lists())
    def test_from_cyclic_orders(self, orders):
        group = CriticalGroup.from_cyclic_orders(orders)
        assert group == oracles.from_cyclic_orders(orders)
        assert group == oracles.elementary_divisor_group(orders)

    @settings(max_examples=200, deadline=None)
    @given(order_lists(), st.data())
    def test_from_diagonal_takes_signs_and_rejects_zero(self, orders, data):
        diagonal = [o * data.draw(st.sampled_from((1, -1))) for o in orders]
        group = oracles.from_diagonal(diagonal)
        assert group == oracles.from_cyclic_orders(orders)
        assert group == oracles.elementary_divisor_group(orders)
        diagonal.insert(data.draw(st.integers(0, len(diagonal))), 0)
        with pytest.raises(InputError):
            oracles.from_diagonal(diagonal)

    @settings(max_examples=200, deadline=None)
    @given(order_lists(), order_lists())
    def test_direct_sum(self, a_orders, b_orders):
        a = oracles.from_cyclic_orders(a_orders)
        b = oracles.elementary_divisor_group(b_orders)
        total = direct_sum(a, b)
        assert total == oracles.from_cyclic_orders(a_orders + b_orders)
        assert total == oracles.elementary_divisor_group(a_orders + b_orders)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 2**70), max_size=12))
    def test_arbitrary_orders_up_to_2_70(self, orders):
        # too slow to factor by trial division: the SNF oracle only
        assert CriticalGroup.from_cyclic_orders(orders) == oracles.from_cyclic_orders(orders)

    def test_302_random_orders(self):
        # the SNF of the 302 x 302 diagonal takes minutes, because its
        # witnesses grow: elementary divisors only
        rng = random.Random(302)
        orders = [rng.randint(1, 10**6) for _ in range(302)]
        assert CriticalGroup.from_cyclic_orders(orders) == oracles.elementary_divisor_group(orders)

    def test_many_equal_orders_in_little_memory(self):
        orders = [2050] * 1999 + [3, 5, 7]
        tracemalloc.start()
        try:
            group = CriticalGroup.from_cyclic_orders(orders)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert group.invariant_factors == (5,) + (2050,) * 1998 + (2050 * 3 * 7,)
        assert group == oracles.elementary_divisor_group(orders)

    def test_diagonal_need_not_be_a_chain(self):
        assert oracles.from_diagonal((2, 3)).invariant_factors == (6,)
        assert oracles.from_diagonal((-4, 6, 1)).invariant_factors == (2, 12)

    def test_rejects_orders_that_are_not_positive_integers(self):
        for bad in ([0], [4, -3], [2.0], ["6"]):
            with pytest.raises(InputError):
                CriticalGroup.from_cyclic_orders(bad)


class TestCriticalGroup:
    def test_complete_four(self):
        assert critical_group(complete(4)).invariant_factors == (4, 4)

    def test_cycle_five(self):
        assert critical_group(cycle(5)).invariant_factors == (5,)

    def test_fan(self):
        assert critical_group(cone(path(5), 1)).invariant_factors == (55,)

    def test_single_vertex(self):
        g = critical_group(complete(1))
        assert g.is_trivial and g.order == 1

    def test_complete_graphs_structure(self):
        for m in range(2, 7):
            expected = (m,) * (m - 2)
            assert critical_group(complete(m)).invariant_factors == expected

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            critical_group(Graph(2))

    def test_independent_of_removed_vertex(self):
        # the library deletes vertex 0; every other choice gives the same group
        for g in (GOEL, cone(FORK_TREE, 1), cycle(6)):
            for v in range(g.vertex_count):
                reduced = reduced_laplacian(g, v)
                direct = smith_normal_form(reduced).diagonal
                assert critical_group(g) == oracles.from_diagonal(direct)
                assert spanning_tree_count(g) == abs(determinant(reduced))

    def test_order_counts_spanning_trees(self):
        for g in (GOEL, complete(5), cycle(7), cone(path(4), 2)):
            assert critical_group(g).order == spanning_tree_count(g)

    def test_join_order_does_not_matter(self):
        rng = random.Random(13)
        for _ in range(10):
            a = random_connected_graph(rng, rng.randint(1, 5))
            b = random_connected_graph(rng, rng.randint(1, 5))
            assert critical_group(join(a, b)) == critical_group(join(b, a))


class TestSpanningTreeCount:
    def test_cayley(self):
        assert spanning_tree_count(complete(4)) == 16

    def test_tree_has_one(self):
        assert spanning_tree_count(path(5)) == 1
        assert spanning_tree_count(FORK_TREE) == 1

    def test_fan(self):
        assert spanning_tree_count(cone(path(5), 1)) == 55

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            spanning_tree_count(Graph(4, [(0, 1), (2, 3)]))


class TestCharPolyRestricted:
    def test_single_vertex_is_one(self):
        assert char_poly_restricted(complete(1)) == IntPoly([1])

    def test_complete_graphs(self):
        for n in range(2, 7):
            p = char_poly_restricted(complete(n))
            for t in range(-4, 5):
                assert abs(poly_eval(p, t)) == abs((n - t) ** (n - 1))

    def test_path2(self):
        assert char_poly_restricted(path(2)) == IntPoly([-2, 1])
        for n in range(1, 6):
            assert abs(poly_eval(char_poly_restricted(path(2)), -n)) == n + 2

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            char_poly_restricted(Graph(2))

    def test_matrix_tree_at_zero(self):
        for g in (GOEL, cycle(6), cone(path(3), 2), FORK_TREE):
            value = abs(poly_eval(char_poly_restricted(g), 0))
            assert value == g.vertex_count * spanning_tree_count(g)

    def test_builds_no_laplacian_matrix(self, monkeypatch):
        monkeypatch.setattr(sandpile, "laplacian", None)
        monkeypatch.setattr(sandpile, "IntMatrix", None)
        assert char_poly_restricted(path(3)) == IntPoly([3, -4, 1])


class TestFireVertex:
    def test_lend_on_edge(self):
        assert fire_vertex(path(2), [1, -1], 0, "lend") == (0, 0)

    def test_borrow_on_triangle(self):
        assert fire_vertex(complete(3), [0, 0, 0], 1, "borrow") == (-1, 2, -1)

    def test_lend_then_borrow_is_identity(self):
        g = GOEL
        d = (3, -1, 0, 2, -4, 0)
        for v in range(6):
            assert fire_vertex(g, fire_vertex(g, d, v, "lend"), v, "borrow") == d

    def test_degree_preserved(self):
        g = cone(path(4), 2)
        d = [5, -2, 0, 1, -3, -1]
        for v in range(g.vertex_count):
            for direction in ("lend", "borrow"):
                assert sum(fire_vertex(g, d, v, direction)) == sum(d)

    def test_bad_direction(self):
        with pytest.raises(InputError):
            fire_vertex(path(2), [0, 0], 0, "push")

    def test_bad_length(self):
        with pytest.raises(InputError):
            fire_vertex(path(2), [0, 0, 0], 0, "lend")

    def test_non_integer_coefficient(self):
        with pytest.raises(InputError, match="not an integer"):
            fire_vertex(path(2), [0, 0.5], 0, "lend")


class TestIsPrincipal:
    def test_zero_divisor(self):
        assert is_principal(GOEL, [0] * 6)

    def test_triangle_difference_is_not_principal(self):
        assert not is_principal(complete(3), vertex_difference(complete(3), 0, 1))

    def test_laplacian_columns_are_principal(self):
        for g in (GOEL, cycle(5), cone(path(3), 2)):
            lap = laplacian(g)
            for v in range(g.vertex_count):
                assert is_principal(g, [row[v] for row in lap])

    def test_nonzero_degree_rejected(self):
        with pytest.raises(InputError):
            is_principal(path(3), [1, 0, 0])

    def test_disconnected_rejected(self):
        with pytest.raises(NotConnectedError):
            is_principal(Graph(2), [1, -1])

    def test_firing_moves_preserve_class(self):
        g = cone(path(3), 2)
        d = vertex_difference(g, 0, 4)
        moved = fire_vertex(g, fire_vertex(g, d, 1, "lend"), 3, "borrow")
        diff = [a - b for a, b in zip(moved, d)]
        assert is_principal(g, diff)

    def test_matches_cramer_oracle(self):
        rng = random.Random(11)
        for _ in range(40):
            g = random_connected_graph(rng, rng.randint(2, 6))
            coeffs = [rng.randint(-3, 3) for _ in range(g.vertex_count - 1)]
            d = coeffs + [-sum(coeffs)]
            assert is_principal(g, d) == cramer_is_principal(g, d)


class TestClassOrder:
    def test_zero_divisor(self):
        assert class_order(GOEL, [0] * 6) == 1

    def test_adjacent_conformal_pair(self):
        # cone vertices of cone(g, n) have degree k+n-1 and are adjacent
        for k, n in ((3, 2), (4, 2), (2, 3), (5, 3)):
            g = cone(path(k), n)
            d = vertex_difference(g, k, k + 1)
            assert has_conformity_property(g, list(range(k, k + n)))
            assert class_order(g, d) == k + n

    def test_non_adjacent_conformal_pair(self):
        # complete bipartite K_{2,m}: the 2-side is conformal, non-adjacent, degree m
        for m in (2, 3, 4):
            g = join(Graph(2), Graph(m))
            assert has_conformity_property(g, [0, 1])
            assert class_order(g, vertex_difference(g, 0, 1)) == m

    def test_matches_oracle_and_minimality(self):
        rng = random.Random(23)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(3, 6))
            a, b = rng.sample(range(g.vertex_count), 2)
            d = vertex_difference(g, a, b)
            order = class_order(g, d)
            assert order == oracle_class_order(g, d)
            for m in range(1, order):
                assert not is_principal(g, [m * c for c in d])
            assert is_principal(g, [order * c for c in d])

    def test_order_divides_group_order(self):
        rng = random.Random(31)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 6))
            coeffs = [rng.randint(-2, 2) for _ in range(g.vertex_count - 1)]
            d = coeffs + [-sum(coeffs)]
            assert critical_group(g).order % class_order(g, d) == 0


class TestQuotientByClasses:
    def test_empty_generators(self):
        for g in (complete(4), GOEL, cycle(5)):
            assert quotient_by_classes(g, []) == critical_group(g)

    def test_spanning_generators_give_trivial_quotient(self):
        g = complete(3)
        gens = [vertex_difference(g, 0, 1), vertex_difference(g, 1, 2)]
        assert quotient_by_classes(g, gens).is_trivial

    def test_single_vertex(self):
        assert quotient_by_classes(complete(1), [(0,)]).is_trivial

    def test_quotient_order_divides_group_order(self):
        g = cone(GOEL, 2)
        gens = [vertex_difference(g, 6, 7)]
        q = quotient_by_classes(g, gens)
        assert critical_group(g).order % q.order == 0

    def test_goel_cone_quotient_order(self):
        # quotient by the cone-vertex differences has order |P(-3)|,
        # which is |Pic0| / 9^2 for this 6-vertex base with n = 3
        g = cone(GOEL, 3)
        gens = [vertex_difference(g, 7, 6), vertex_difference(g, 8, 6)]
        q = quotient_by_classes(g, gens)
        assert q.order == abs(poly_eval(char_poly_restricted(GOEL), -3))
        assert q.order == critical_group(g).order // 9**2

    def test_degree_checked(self):
        with pytest.raises(InputError):
            quotient_by_classes(complete(3), [(1, 0, 0)])


class TestSubgroupInvariants:
    def test_empty(self):
        assert subgroup_invariants(GOEL, []).is_trivial

    def test_single_generator_is_cyclic_of_class_order(self):
        rng = random.Random(7)
        for _ in range(15):
            g = random_connected_graph(rng, rng.randint(3, 6))
            a, b = rng.sample(range(g.vertex_count), 2)
            d = vertex_difference(g, a, b)
            expected_order = class_order(g, d)
            sub = subgroup_invariants(g, [d])
            assert sub.order == expected_order
            assert len(sub.invariant_factors) <= 1

    def test_cone_vertex_differences_on_small_cone(self):
        g = cone(path(3), 3)
        gens = [vertex_difference(g, 4, 3), vertex_difference(g, 5, 3)]
        assert subgroup_invariants(g, gens).invariant_factors == (6, 6)

    def test_small_cone_subgroup_by_enumeration(self):
        # independent check of the (6, 6) structure: the 36 combinations of
        # the two generators are pairwise distinct classes
        g = cone(path(3), 3)
        g1 = vertex_difference(g, 4, 3)
        g2 = vertex_difference(g, 5, 3)
        assert oracle_class_order(g, g1) == 6
        assert oracle_class_order(g, g2) == 6
        combos = [
            tuple(m1 * a + m2 * b for a, b in zip(g1, g2))
            for m1 in range(6)
            for m2 in range(6)
        ]
        for x, y in itertools.combinations(combos, 2):
            assert not cramer_is_principal(g, [a - b for a, b in zip(x, y)])

    def test_subgroup_times_quotient_is_group_order(self):
        rng = random.Random(41)
        for _ in range(10):
            g = random_connected_graph(rng, rng.randint(3, 6))
            a, b = rng.sample(range(g.vertex_count), 2)
            gens = [vertex_difference(g, a, b)]
            sub = subgroup_invariants(g, gens)
            quo = quotient_by_classes(g, gens)
            assert sub.order * quo.order == critical_group(g).order

    def test_conformity_sets_give_independent_cyclic_parts(self):
        # two disjoint conformity sets that do not cover the graph: the
        # generated subgroup is the direct sum of the separate cyclic groups
        g = cone(path(3), 2)  # vertices 0,1,2 path; 3,4 cone
        assert has_conformity_property(g, [3, 4])
        assert has_conformity_property(g, [0, 2])
        e_cone = vertex_difference(g, 3, 4)
        e_base = vertex_difference(g, 0, 2)
        order_cone = class_order(g, e_cone)
        order_base = class_order(g, e_base)
        assert order_cone == 5  # adjacent pair of degree 4
        assert order_base == 3  # non-adjacent pair of degree 3
        sub = subgroup_invariants(g, [e_cone, e_base])
        expected = direct_sum(
            CriticalGroup.from_cyclic_orders([order_cone]),
            CriticalGroup.from_cyclic_orders([order_base]),
        )
        assert sub == expected

    def test_three_conformity_sets_stay_independent(self):
        # apex over the complete tripartite K_{2,2,2}: three disjoint
        # non-adjacent conformal pairs, apex left uncovered
        g = cone(join(Graph(2), join(Graph(2), Graph(2))), 1)
        pairs = [(0, 1), (2, 3), (4, 5)]
        gens = []
        orders = []
        for a, b in pairs:
            assert has_conformity_property(g, [a, b])
            d = vertex_difference(g, a, b)
            gens.append(d)
            orders.append(class_order(g, d))
        assert orders == [5, 5, 5]  # non-adjacent pairs of degree 5
        sub = subgroup_invariants(g, gens)
        assert sub == CriticalGroup.from_cyclic_orders(orders)


class TestGroupCombinators:
    def test_isomorphism_is_factor_equality(self):
        assert CriticalGroup((2, 4)) == CriticalGroup((2, 4))
        assert CriticalGroup((8,)) != CriticalGroup((2, 4))

    def test_direct_sum_coprime(self):
        assert direct_sum(CriticalGroup((2,)), CriticalGroup((3,))).invariant_factors == (6,)

    def test_direct_sum_equal(self):
        assert direct_sum(CriticalGroup((2,)), CriticalGroup((2,))).invariant_factors == (2, 2)

    def test_direct_sum_with_trivial(self):
        g = CriticalGroup((4, 12))
        assert direct_sum(g, CriticalGroup()) == g

    def test_direct_sum_order_multiplies(self):
        rng = random.Random(3)
        for _ in range(25):
            a = CriticalGroup.from_cyclic_orders([rng.randint(1, 30) for _ in range(3)])
            b = CriticalGroup.from_cyclic_orders([rng.randint(1, 30) for _ in range(2)])
            assert direct_sum(a, b).order == a.order * b.order


@st.composite
def connected_graphs(draw, max_vertices=14):
    """Erdos-Renyi graphs drawn by random_connected_graph from a drawn seed."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    p = draw(st.sampled_from((0.3, 0.5, 0.8)))
    return random_connected_graph(random.Random(draw(st.integers(0, 2**32))), n, p)


@st.composite
def blown_up_graphs(draw, max_vertices=9):
    """A random graph with each vertex replaced by 1-4 twins, adjacent or
    not, and the vertices relabelled at random."""
    sizes = draw(st.lists(st.integers(1, 4), min_size=1, max_size=max_vertices))
    while sum(sizes) > max_vertices:
        sizes.pop()
    pairs = list(itertools.combinations(range(len(sizes)), 2))
    base = {e for e in pairs if draw(st.booleans())}
    cliques = [draw(st.booleans()) for _ in sizes]
    owner = [b for b, m in enumerate(sizes) for _ in range(m)]
    n = len(owner)
    label = draw(st.permutations(range(n)))
    edges = [
        (label[u], label[v])
        for u, v in itertools.combinations(range(n), 2)
        if (owner[u], owner[v]) in base or (owner[u] == owner[v] and cliques[owner[u]])
    ]
    return Graph(n, edges)


@st.composite
def degree_zero_divisors(draw, g, max_count):
    count = draw(st.integers(min_value=0, max_value=max_count))
    divisors = []
    for _ in range(count):
        size = g.vertex_count - 1
        coeffs = draw(st.lists(st.integers(-6, 6), min_size=size, max_size=size))
        divisors.append(tuple(coeffs) + (-sum(coeffs),))
    return divisors


@st.composite
def principal_divisors(draw, g):
    firing = draw(st.lists(st.integers(-3, 3), min_size=g.vertex_count, max_size=g.vertex_count))
    return tuple(sum(map(operator.mul, row, firing)) for row in laplacian(g))


@st.composite
def generator_lists(draw, g):
    """Random classes, some repeated and some principal, in any order; the
    list may be empty."""
    generators = draw(degree_zero_divisors(g, 3))
    if generators:
        generators += draw(st.lists(st.sampled_from(generators), max_size=2))
    generators += draw(st.lists(principal_divisors(g), max_size=2))
    return draw(st.permutations(generators))


def assert_matches_oracles(g, divisors, generators):
    for d in divisors:
        assert is_principal(g, d) == oracles.is_principal(g, d)
        assert class_order(g, d) == oracles.class_order(g, d)
    assert quotient_by_classes(g, generators) == oracles.quotient_by_classes(g, generators)
    assert subgroup_invariants(g, generators) == oracles.subgroup_invariants(g, generators)


class TestPresentationAgainstWitnessOracles:
    """Queries answered from the cached presentation of Pic0 against the
    earlier full-Laplacian and augmented-matrix SNF routes."""

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_random_connected_graphs(self, data):
        # cones with n >= 3 carry (Z/(n+k))^(n-1), so several factors of
        # the presentation share primes
        g = data.draw(
            connected_graphs()
            | st.builds(cone, connected_graphs(max_vertices=6), st.integers(3, 6))
        )
        divisors = data.draw(degree_zero_divisors(g, 4))
        # principal divisors too, which random ones almost never are
        principal = data.draw(principal_divisors(g))
        assert is_principal(g, principal)
        assert_matches_oracles(g, divisors + [principal], data.draw(generator_lists(g)))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_blown_up_graphs(self, data):
        # a twin class leaves pivots that divide their row and column once
        # the +-1 pivots are gone, and the presentation splits them off
        g = data.draw(blown_up_graphs().filter(is_connected))
        divisors = data.draw(degree_zero_divisors(g, 4))
        assert_matches_oracles(g, divisors, data.draw(generator_lists(g)))

    def test_non_split_goel_cone(self):
        g = cone(GOEL, 3)
        assert critical_group(g).invariant_factors == (144, 8208)
        gens = [vertex_difference(g, 7, 6), vertex_difference(g, 8, 6)]
        differences = [vertex_difference(g, a, b) for a, b in itertools.combinations(range(9), 2)]
        for count in range(4):
            assert_matches_oracles(g, differences, (gens + differences)[:count])
        assert subgroup_invariants(g, gens).invariant_factors == (9, 9)

    def test_single_vertex(self):
        g = Graph(1)
        assert critical_group(g).is_trivial
        for count in range(4):
            assert_matches_oracles(g, [(0,)], [(0,)] * count)
        assert class_order(g, (0,)) == 1

    def test_trees_have_trivial_presentation(self):
        rng = random.Random(5)
        for _ in range(10):
            g = random_tree(rng, rng.randint(2, 9))
            assert critical_group(g).is_trivial
            differences = [vertex_difference(g, 0, v) for v in range(1, g.vertex_count)]
            assert all(is_principal(g, d) for d in differences)
            for count in range(4):
                assert_matches_oracles(g, differences, differences[:count])
                assert quotient_by_classes(g, differences[:count]).is_trivial

    def test_complete_graphs_have_the_largest_presentation(self):
        for n in range(2, 9):
            g = complete(n)
            assert critical_group(g).invariant_factors == (n,) * (n - 2)
            differences = [vertex_difference(g, 0, v) for v in range(1, n)]
            assert all(class_order(g, d) == (n if n > 2 else 1) for d in differences)
            for count in range(4):
                assert_matches_oracles(g, differences, differences[:count])

    @pytest.mark.parametrize(
        "g",
        [PETERSEN, torus(6, 6), hypercube(4), grid(8, 8)]
        + [random_connected_graph(random.Random(seed), 30 + 2 * seed, 0.3) for seed in (0, 4, 5)],
        ids=["petersen", "torus-6x6", "q4", "grid-8x8", "gnp-30", "gnp-38", "gnp-40"],
    )
    def test_twin_free_graphs_with_many_factors(self, g):
        # all but gnp-30 reach the extended-gcd steps modulo the determinant
        direct = smith_normal_form(reduced_laplacian(g, 0)).diagonal
        assert critical_group(g) == oracles.from_diagonal(direct)
        rng = random.Random(g.vertex_count)
        n = g.vertex_count
        spread = [tuple(rng.randint(-3, 3) for _ in range(n - 1)) for _ in range(2)]
        divisors = [vertex_difference(g, 0, n - 1), vertex_difference(g, 1, n // 2)]
        divisors += [d + (-sum(d),) for d in spread]
        for count in (0, 3):
            assert_matches_oracles(g, divisors, divisors[:count])

    def test_petersen_group(self):
        assert critical_group(PETERSEN).invariant_factors == (2, 10, 10, 10)

    def test_no_presentation_runs_the_exact_snf(self):
        # no module of the library binds a witnessed SNF: Pic0 comes from
        # the kernel, its subgroups and quotients from diagonalizations mod N
        import chipfire
        import chipfire.cli

        for module in (chipfire, chipfire.cli, errors, graphs, intlinalg, sandpile, theorems):
            assert not hasattr(module, "smith_normal_form"), module.__name__
            assert not hasattr(module, "SnfResult"), module.__name__

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(connected_graphs(max_vertices=30), blown_up_graphs().filter(is_connected)))
    def test_rows_from_the_adjacency_give_the_dense_presentation(self, g):
        # the same sparse rows, in the same order, as the nonzero entries of
        # reduced_laplacian(g, 0): identical orders and rows
        dense = intlinalg._cokernel_rows(
            {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(reduced_laplacian(g, 0))}
        )
        assert sandpile._reduced_snf(fresh(g)) == sandpile._Presentation(*dense)

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            connected_graphs(max_vertices=30),
            blown_up_graphs().filter(is_connected),
            st.builds(cone, connected_graphs(max_vertices=12), st.integers(1, 12)),
            st.builds(complete, st.integers(1, 40)),
        ).map(lambda g: [list(row) for row in reduced_laplacian(g, 0)])
    )
    # the nonsingular matrices written out in TestCokernelModDeterminant
    @example([[3, 4], [3, 8]])
    @example([[2, 0], [2, 4]])
    @example([[2, 2], [1, 3]])
    @example([[2, 3], [1, 2]])
    @example([[5]])
    @example([])
    def test_replayed_rows_present_the_witnessed_group(self, a):
        # the same sparse rows into the kernel that replays its row
        # operations and into the one that carries a row witness: the same
        # group, and rows that present it; with no residual block left
        # (paths, K_n) there is no solve, and orders and rows are identical
        def sparse_rows():
            return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)}

        with mock.patch.object(intlinalg, "_solve_rows", wraps=intlinalg._solve_rows) as solve:
            orders, rows = intlinalg._cokernel_rows(sparse_rows())
        witnessed = oracles.cokernel_rows_witnessed(sparse_rows())
        if not solve.called:
            assert (orders, rows) == witnessed
        assert CriticalGroup.from_cyclic_orders(orders) == CriticalGroup.from_cyclic_orders(witnessed[0])
        oracles.assert_presents_cokernel(a, orders, rows)

    def test_presentation_builds_no_dense_laplacian(self, monkeypatch):
        monkeypatch.setattr(sandpile, "laplacian", None)
        monkeypatch.setattr(sandpile, "reduced_laplacian", None)
        assert critical_group(path(300)).is_trivial
        assert critical_group(cycle(300)).invariant_factors == (300,)
        with pytest.raises(NotConnectedError):
            critical_group(Graph(3, [(0, 1)]))

    def test_critical_group_for_every_removed_vertex(self):
        rng = random.Random(17)
        for g in [GOEL, cone(GOEL, 3), complete(6), Graph(1)] + [
            random_connected_graph(rng, rng.randint(2, 10), 0.4) for _ in range(10)
        ]:
            for v in range(g.vertex_count):
                direct = smith_normal_form(reduced_laplacian(g, v)).diagonal
                assert critical_group(g) == oracles.from_diagonal(direct)


class TestCharPolyRestrictedRows:
    """char_poly_restricted builds the Laplacian's rows from the graph and
    hands them to the rows-level entry of char_poly."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.one_of(
            connected_graphs(max_vertices=30),
            blown_up_graphs().filter(is_connected),
            st.builds(cone, connected_graphs(max_vertices=12), st.integers(1, 12)),
        )
    )
    def test_rows_from_the_graph_give_the_laplacians_polynomial(self, g):
        assert char_poly_restricted(g) == oracles.divide_by_x(char_poly(laplacian(g)))


class TestNoMatrixAdapters:
    """The library hands rows to Bareiss, the char_poly lane and the Pic0
    kernel: an IntMatrix is built only where a public function returns one."""

    @staticmethod
    def constructions(monkeypatch):
        calls = []
        real = IntMatrix.__init__

        def spy(self, *args):
            calls.append(args)
            real(self, *args)

        monkeypatch.setattr(IntMatrix, "__init__", spy)
        return calls

    def test_library_paths_build_none(self, monkeypatch):
        calls = self.constructions(monkeypatch)
        for g in (GOEL, PETERSEN, FORK_TREE, cone(FORK_TREE, 3), torus(3, 4)):
            g = fresh(g)  # so the kernel runs
            d = vertex_difference(g, 1, g.vertex_count - 1)
            critical_group(g)
            char_poly_restricted(g)
            spanning_tree_count(g)
            is_principal(g, d)
            class_order(g, d)
            quotient_by_classes(g, [d])
            subgroup_invariants(g, [d])
        theorems.verify_cone_theorem(fresh(GOEL), 3)
        theorems.verify_join_theorem([path(3), fresh(GOEL), cycle(4)])
        theorems.verify_tree_bound(fresh(FORK_TREE), 4)
        assert calls == []

    def test_one_construction_per_returned_matrix(self, monkeypatch):
        calls = self.constructions(monkeypatch)
        for g in (path(1), GOEL, PETERSEN, cone(FORK_TREE, 3)):
            laplacian(g)
            assert len(calls) == 1
            for v in range(g.vertex_count):
                calls.clear()
                reduced_laplacian(g, v)
                assert len(calls) == 1
            calls.clear()


class TestPresentationLifetime:
    """One presentation per live Graph object: every query on a held graph
    shares it, and it goes when the graph is collected."""

    @staticmethod
    def kernel_calls(monkeypatch):
        calls = []
        real = sandpile._cokernel_rows

        def counting(rows):
            calls.append(len(rows))
            return real(rows)

        monkeypatch.setattr(sandpile, "_cokernel_rows", counting)
        return calls

    def test_a_held_graph_is_presented_once(self, monkeypatch):
        calls = self.kernel_calls(monkeypatch)
        g = random_connected_graph(random.Random(29), 12, 0.4)
        d = vertex_difference(g, 1, 11)
        critical_group(g)
        is_principal(g, d)
        class_order(g, d)
        quotient_by_classes(g, [d])
        subgroup_invariants(g, [d])
        assert calls == [11]

    def test_presentation_goes_with_its_graph(self):
        before = sandpile._reduced_snf.cache_info()
        g = random_connected_graph(random.Random(30), 12, 0.4)
        presentation = weakref.ref(sandpile._reduced_snf(g))
        assert sandpile._reduced_snf(g) is presentation()
        after = sandpile._reduced_snf.cache_info()
        assert after.currsize == before.currsize + 1
        assert after.misses == before.misses + 1 and after.maxsize is None
        assert after.hits == before.hits + 1
        assert presentation() is not None
        del g
        assert sandpile._reduced_snf.cache_info().currsize == before.currsize
        assert presentation() is None

    def test_dropped_graphs_leave_nothing_behind(self):
        before = sandpile._reduced_snf.cache_info().currsize
        for seed in range(300):
            rng = random.Random(seed)
            g = random_connected_graph(rng, rng.randint(1, 12), 0.4)
            fresh = sandpile._Presentation(*intlinalg._cokernel_rows(sandpile._reduced_rows(g)))
            assert sandpile._reduced_snf(g) == fresh
            assert sandpile._reduced_snf.cache_info().currsize == before + 1
            del g
        assert sandpile._reduced_snf.cache_info().currsize == before

    def test_equal_graphs_built_separately_are_presented_alike(self):
        edges = random_connected_graph(random.Random(31), 10, 0.5).edges
        first, second = Graph(10, edges), Graph(10, edges)
        assert first == second and first is not second
        before = sandpile._reduced_snf.cache_info()
        assert sandpile._reduced_snf(first) == sandpile._reduced_snf(second)
        after = sandpile._reduced_snf.cache_info()
        assert (after.misses, after.currsize) == (before.misses + 2, before.currsize + 2)
