"""Tests for the verification harness and its brute-force oracles."""

import itertools
import math
import operator
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (
    CriticalGroup,
    Graph,
    InputError,
    NotConnectedError,
    SizeError,
    char_poly,
    complete,
    cone,
    cone_difference_divisors,
    critical_group,
    cycle,
    direct_sum,
    is_connected,
    is_tree,
    join,
    laplacian,
    path,
    poly_eval,
    quotient_by_classes,
    random_connected_graph,
    random_tree,
    spanning_tree_count,
    subgroup_invariants,
    tree_from_pruefer,
    verify_cone_theorem,
    verify_eigenvectors,
    verify_join_theorem,
    verify_tree_bound,
)
import oracles
from oracles import brute_force_spanning_trees
from chipfire import intlinalg, sandpile, theorems
from chipfire.graphs import MAX_COMPLETE_VERTICES, MAX_VERTICES
from chipfire.theorems import _cone_laplacian_times, _restricted_char_value

GOEL = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
FORK_TREE = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])


def all_connected_labeled_graphs(max_vertices):
    for n in range(1, max_vertices + 1):
        possible = list(itertools.combinations(range(n), 2))
        for size in range(len(possible) + 1):
            for edges in itertools.combinations(possible, size):
                g = Graph(n, edges)
                if is_connected(g):
                    yield g


def restricted_char_value_by_poly(g, x):
    """P(x) through the whole characteristic polynomial, the oracle for the
    single-determinant value |P(x)| the verifiers use."""
    return poly_eval(oracles.divide_by_x(char_poly(laplacian(g))), x)


@st.composite
def graphs(draw, max_vertices=14, connected=False):
    """Erdos-Renyi graphs from a drawn seed, disconnected ones included unless
    ``connected`` asks for random_connected_graph."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    p = draw(st.sampled_from((0.3, 0.5, 0.8) if connected else (0.1, 0.3, 0.5, 0.8)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if connected:
        return random_connected_graph(rng, n, p)
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


nonzero_points = st.one_of(st.integers(-40, -1), st.integers(1, 10))


class TestRestrictedCharValueAgainstCharPoly:
    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.lists(nonzero_points, min_size=1, max_size=5))
    def test_random_graphs(self, g, points):
        for x in points:
            assert _restricted_char_value(g, x) == abs(restricted_char_value_by_poly(g, x))

    def test_fixed_cases(self):
        for g in (Graph(1), Graph(5), path(2), complete(6), GOEL, cone(FORK_TREE, 2)):
            for x in list(range(-40, 0)) + list(range(1, 11)):
                assert _restricted_char_value(g, x) == abs(restricted_char_value_by_poly(g, x))

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_vertices=9, connected=True), st.integers(1, 4))
    def test_cone_report(self, g, n):
        report = verify_cone_theorem(g, n)
        assert report.p_at_minus_n == abs(restricted_char_value_by_poly(g, -n))

    @settings(max_examples=60, deadline=None)
    @given(st.lists(graphs(max_vertices=6), min_size=2, max_size=3))
    def test_join_report(self, factors):
        k = sum(g.vertex_count for g in factors)
        rhs = k ** (len(factors) - 2)
        for g in factors:
            rhs *= abs(restricted_char_value_by_poly(g, g.vertex_count - k))
        report = verify_join_theorem(factors)
        assert report.rhs == rhs
        assert report.holds


class TestSparseRoutesAgainstDenseBareiss:
    """|P(x)| and the matrix-tree count from sparse rows, by the exact stage
    of the Pic0 kernel and Bareiss on its residual, against Bareiss on the
    dense matrices."""

    @settings(max_examples=150, deadline=None)
    @given(graphs(), st.lists(st.integers(-40, 16).filter(bool), min_size=1, max_size=6))
    def test_restricted_char_value(self, g, points):
        # points up to 16 include Laplacian eigenvalues, where P(x) = 0
        for x in points:
            assert _restricted_char_value(g, x) == abs(oracles.restricted_char_value(g, x))

    @settings(max_examples=80, deadline=None)
    @given(graphs(max_vertices=16, connected=True))
    def test_spanning_tree_count(self, g):
        assert spanning_tree_count(g) == oracles.spanning_tree_count(g)

    @pytest.mark.parametrize(
        "g, x",
        [
            (complete(4), 4),
            (cycle(4), 2),
            (path(2), 2),
            (Graph(5, [(0, 1), (2, 3)]), 2),
            (cone(FORK_TREE, 2), 7),
        ],
        ids=["K4-at-4", "C4-at-2", "P2-at-2", "disconnected-at-2", "cone-at-7"],
    )
    def test_a_singular_matrix_gives_zero(self, g, x):
        assert oracles.restricted_char_value(g, x) == 0
        assert _restricted_char_value(g, x) == 0

    def test_a_4000_vertex_path_needs_no_bareiss(self, monkeypatch):
        # L + I of a path is tridiagonal with -1 off the diagonal, so the
        # exact stage splits it off entirely; its determinant is the
        # continuant D_k = a_k D_(k-1) - D_(k-2) of the diagonal a
        monkeypatch.setattr(sandpile, "_dense_laplacian", None)
        monkeypatch.setattr(intlinalg, "_solve_rows", None)
        m = 4000
        before, current = 1, 2
        for a in [3] * (m - 2) + [2]:
            before, current = current, a * current - before
        assert _restricted_char_value(path(m), -1) == current
        assert spanning_tree_count(path(m)) == 1


class TestVerifyConeTheorem:
    def test_goel_counterexample(self):
        report = verify_cone_theorem(GOEL, 3)
        assert report.pic0.invariant_factors == (144, 8208)
        assert report.pic0 == CriticalGroup.from_cyclic_orders([9, 27, 16, 16, 19])
        assert report.subgroup.invariant_factors == (9, 9)
        assert report.order_formula_holds
        assert report.subgroup_is_expected
        assert not report.splits
        assert report.holds

    def test_point_cones_are_complete_graphs(self):
        for n in range(1, 6):
            report = verify_cone_theorem(complete(1), n)
            assert report.pic0.invariant_factors == (n + 1,) * (n - 1)
            assert report.quotient_h.is_trivial
            assert report.p_at_minus_n == 1
            assert report.splits
            assert report.holds

    def test_fan(self):
        report = verify_cone_theorem(path(5), 1)
        assert report.pic0.invariant_factors == (55,)
        assert report.subgroup.is_trivial  # n - 1 == 0 generators
        assert report.quotient_h.invariant_factors == (55,)
        assert report.splits and report.holds

    def test_group_order_factors_exactly(self):
        rng = random.Random(17)
        for _ in range(12):
            g = random_connected_graph(rng, rng.randint(2, 6))
            n = rng.randint(1, 4)
            report = verify_cone_theorem(g, n)
            assert report.holds
            assert report.pic0.order == report.subgroup.order * report.quotient_h.order
            assert report.pic0.order == (n + g.vertex_count) ** (n - 1) * report.p_at_minus_n

    def test_exhaustive_small_graphs(self):
        # every connected labeled graph on up to 4 vertices, every n <= 4
        for g in all_connected_labeled_graphs(4):
            for n in range(1, 5):
                report = verify_cone_theorem(g, n)
                assert report.holds
                assert report.pic0.order == report.subgroup.order * report.quotient_h.order

    @settings(max_examples=60, deadline=None)
    @given(graphs(max_vertices=7), st.integers(1, 4), st.integers(1, 4))
    def test_iterated_cone_splits(self, g, m, n):
        # cone(cone(g, M), N) is the (M + N)-cone over g, and its N new cone
        # vertices are part of the twin basis of that cone: their
        # differences span a direct summand (Z/lam)^(N - 1), lam = k + M + N,
        # so H = (Z/lam)^(M - 1) + coker M'_(M + N) and the sequence splits
        lam = g.vertex_count + m + n
        report = verify_cone_theorem(cone(g, m), n)
        factors, _ = intlinalg._cokernel_rows(sandpile._cone_rows(g, m + n))
        assert report.holds and report.splits
        assert report.quotient_h == CriticalGroup.from_cyclic_orders([lam] * (m - 1) + list(factors))

    def test_disconnected_base_rejected(self):
        with pytest.raises(NotConnectedError):
            verify_cone_theorem(Graph(2), 2)

    def test_bad_cone_size(self):
        with pytest.raises(InputError):
            verify_cone_theorem(path(3), 0)


class TestConeTheoremSharesOneSnf:
    """verify_cone_theorem presents the cone once, by the (k+1)-square
    matrix M'_n rather than the reduced Laplacian of the cone, reads the
    subgroup off the order of one class and H_n off one diagonalization."""

    def test_one_kernel_call_on_k_plus_1_rows(self, monkeypatch):
        kernels, shapes = [], []
        real_kernel, real_diagonalize = sandpile._cokernel_rows, sandpile._diagonalize_mod

        def kernel(rows):
            size = len(rows)
            factors, out = real_kernel(rows)
            kernels.append((size, len(factors)))
            return factors, out

        def diagonalize(m, n, *args):
            shapes.append((len(m), len(m[0])))
            return real_diagonalize(m, n, *args)

        monkeypatch.setattr(sandpile, "_cokernel_rows", kernel)
        monkeypatch.setattr(sandpile, "_diagonalize_mod", diagonalize)
        # the kernel finishes through intlinalg's binding, so the one
        # diagonalization seen is the cokernel of [c | diag(d)] for H_n
        for g, n in ((GOEL, 3), (path(5), 1), (complete(1), 4), (FORK_TREE, 2), (path(5), 64)):
            k = g.vertex_count
            kernels.clear()
            shapes.clear()
            cached = sandpile._reduced_snf.cache_info()
            verify_cone_theorem(g, n)
            assert sandpile._reduced_snf.cache_info() == cached  # no graph is presented
            ((size, s),) = kernels
            assert size == (k if n == 1 else k + 1)
            assert shapes == ([] if n == 1 else [(s, 1 + s)])

    @settings(max_examples=40, deadline=None)
    @given(graphs(max_vertices=8, connected=True), st.integers(1, 5))
    def test_report_equals_public_function_route(self, g, n):
        coned = cone(g, n)
        generators = cone_difference_divisors(g.vertex_count, n)
        subgroup = subgroup_invariants(coned, generators)
        quotient_h = quotient_by_classes(coned, generators)
        report = verify_cone_theorem(g, n)
        assert report.subgroup == subgroup
        assert report.quotient_h == quotient_h
        assert report.splits == (critical_group(coned) == direct_sum(subgroup, quotient_h))
        assert report.order_formula_holds == (quotient_h.order == report.p_at_minus_n)
        assert report.h_generator_count == len(quotient_h.invariant_factors)


class TestVerifyJoinTheorem:
    def test_three_points_make_triangle(self):
        report = verify_join_theorem([complete(1)] * 3)
        assert report.lhs == 3 and report.rhs == 3 and report.holds

    def test_join_with_complete_reproduces_cone_formula(self):
        for g, n in ((path(3), 2), (GOEL, 3), (cycle(4), 1)):
            report = verify_join_theorem([g, complete(n)])
            k = g.vertex_count
            assert report.holds
            assert report.lhs == spanning_tree_count(cone(g, n))
            assert report.lhs == critical_group(cone(g, n)).order

    def test_two_paths(self):
        assert verify_join_theorem([path(3), path(2)]).holds

    def test_random_tuples(self):
        rng = random.Random(29)
        for _ in range(20):
            factors = [
                random_connected_graph(rng, rng.randint(1, 5))
                for _ in range(rng.randint(2, 3))
            ]
            assert verify_join_theorem(factors).holds

    def test_disconnected_factors_exploratory(self):
        # the formula extends to disconnected factors with P = char_poly / x
        rng = random.Random(37)
        for _ in range(15):
            n1, n2 = rng.randint(1, 4), rng.randint(2, 4)
            edges = [
                (u, v)
                for u in range(n2)
                for v in range(u + 1, n2)
                if rng.random() < 0.3
            ]
            factors = [random_connected_graph(rng, n1), Graph(n2, edges)]
            assert verify_join_theorem(factors).holds

    def test_single_factor_rejected(self):
        with pytest.raises(InputError):
            verify_join_theorem([path(3)])


def poly_times(a, b):
    """The product of two ascending coefficient lists."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def poly_shift(q, c):
    """The coefficients of q(x - c), each (x - c)^i expanded binomially."""
    out = [0] * len(q)
    for i, a in enumerate(q):
        for j in range(i + 1):
            out[j] += a * math.comb(i, j) * (-c) ** (i - j)
    return out


class TestJoinCharPoly:
    """P of a join (Merris 1994), which a char_poly that splits joins would
    rely on: det(xI - L) of join(g1, g2) is x (x - k) Q1(x - k2) Q2(x - k1),
    with k = k1 + k2 and Q_i = det(xI - L_i) / x, connected or not."""

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=6), graphs(max_vertices=6))
    def test_product_of_shifted_factors(self, g1, g2):
        k1, k2 = g1.vertex_count, g2.vertex_count
        q1, q2 = (oracles.divide_by_x(char_poly(laplacian(g))).coefficients for g in (g1, g2))
        outer = poly_times([0, 1], [-(k1 + k2), 1])
        expected = poly_times(outer, poly_times(poly_shift(q1, k2), poly_shift(q2, k1)))
        assert char_poly(laplacian(join(g1, g2))).coefficients == tuple(expected)


class TestVerifyTreeBound:
    def test_fork_tree(self):
        report = verify_tree_bound(FORK_TREE, 1)
        assert report == (3, 1, True)

    def test_two_vertex_tree(self):
        for n in (1, 2, 3):
            report = verify_tree_bound(path(2), n)
            assert report.leaf_count == 2
            assert report.h_generators <= 1
            assert report.holds

    def test_random_trees(self):
        rng = random.Random(43)
        for _ in range(25):
            g = random_tree(rng, rng.randint(2, 8))
            n = rng.randint(1, 5)
            assert verify_tree_bound(g, n).holds

    def test_star_needs_many_leaves(self):
        star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        report = verify_tree_bound(star, 2)
        assert report.leaf_count == 4 and report.holds

    def test_non_tree_rejected(self):
        with pytest.raises(InputError):
            verify_tree_bound(cycle(4), 1)
        with pytest.raises(InputError):
            verify_tree_bound(complete(1), 1)


class TestVerifyEigenvectors:
    def test_small_cases(self):
        assert verify_eigenvectors(path(3), 4)
        assert verify_eigenvectors(complete(1), 3)
        assert verify_eigenvectors(GOEL, 3)

    def test_n_one_has_only_balanced_vector(self):
        assert verify_eigenvectors(path(5), 1)

    def test_random_cases(self):
        rng = random.Random(47)
        for _ in range(25):
            g = random_connected_graph(rng, rng.randint(1, 7))
            assert verify_eigenvectors(g, rng.randint(1, 5))

    def test_disconnected_base_still_exact(self):
        # the identities are degree computations and hold without connectivity
        assert verify_eigenvectors(Graph(3, [(0, 1)]), 2)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=10), st.integers(1, 8))
    def test_random_graphs(self, g, n):
        assert verify_eigenvectors(g, n)

    @settings(max_examples=150, deadline=None)
    @given(graphs(max_vertices=8), st.integers(1, 6), st.data())
    def test_implicit_product_equals_explicit_laplacian(self, g, n, data):
        # half the vectors vanish on the base, as every cone difference does
        k = g.vertex_count
        entries = st.integers(-10**6, 10**6)
        if data.draw(st.booleans()):
            base = [0] * k
        else:
            base = data.draw(st.lists(entries, min_size=k, max_size=k))
        x = base + data.draw(st.lists(entries, min_size=n, max_size=n))
        explicit = tuple(sum(map(operator.mul, row, x)) for row in laplacian(cone(g, n)))
        assert _cone_laplacian_times(sandpile._sparse_laplacian(g, n), n, x) == explicit

    def test_large_cone_memory_is_linear(self):
        # the explicit cone Laplacian at n = 1024 holds about a million entries
        tracemalloc.start()
        try:
            assert verify_eigenvectors(path(5), 1024)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 5 * 2**20


class TestVerdictsCanFail:
    """Each verdict is computed, not assumed: one wrong side injected into
    the verifier turns it False."""

    def test_cone_order_formula(self, monkeypatch):
        real = _restricted_char_value
        monkeypatch.setattr(theorems, "_restricted_char_value", lambda g, x: real(g, x) + 1)
        report = verify_cone_theorem(path(3), 2)
        assert report.subgroup_is_expected
        assert not report.order_formula_holds and not report.holds

    def test_cone_subgroup(self, monkeypatch):
        real = sandpile._cone_groups

        def trivial_subgroup(g, n):
            pic0, _, quotient_h = real(g, n)
            return pic0, CriticalGroup(()), quotient_h

        monkeypatch.setattr(theorems, "_cone_groups", trivial_subgroup)
        report = verify_cone_theorem(path(3), 2)
        assert report.order_formula_holds
        assert not report.subgroup_is_expected and not report.holds

    def test_join_order_formula(self, monkeypatch):
        real = _restricted_char_value
        monkeypatch.setattr(theorems, "_restricted_char_value", lambda g, x: real(g, x) + 1)
        assert not verify_join_theorem([path(2), path(3)]).holds

    def test_tree_bound(self, monkeypatch):
        real = sandpile._cone_groups
        monkeypatch.setattr(
            theorems,
            "_cone_groups",
            lambda g, n: real(g, n)[:2] + (CriticalGroup((2,) * g.vertex_count),),
        )
        assert not verify_tree_bound(FORK_TREE, 2).holds

    def test_eigenvectors(self, monkeypatch):
        def wrong(rows, n, x):
            y = _cone_laplacian_times(rows, n, x)
            return (y[0] + 1,) + y[1:]

        monkeypatch.setattr(theorems, "_cone_laplacian_times", wrong)
        assert not verify_eigenvectors(path(3), 2)


class TestBruteForceSpanningTrees:
    def test_complete_four(self):
        assert brute_force_spanning_trees(complete(4)) == 16

    def test_cycle(self):
        assert brute_force_spanning_trees(cycle(6)) == 6

    def test_trees_have_one(self):
        assert brute_force_spanning_trees(FORK_TREE) == 1
        assert brute_force_spanning_trees(path(7)) == 1

    def test_single_vertex(self):
        assert brute_force_spanning_trees(complete(1)) == 1

    def test_disconnected_graph_has_none(self):
        assert brute_force_spanning_trees(Graph(3, [(0, 1)])) == 0

    def test_size_guard(self):
        with pytest.raises(SizeError):
            brute_force_spanning_trees(path(11))

    def test_agrees_with_matrix_tree(self):
        rng = random.Random(53)
        for _ in range(20):
            g = random_connected_graph(rng, rng.randint(2, 7))
            assert brute_force_spanning_trees(g) == spanning_tree_count(g)


class TestConeDifferenceDivisors:
    @pytest.mark.parametrize("k, n", [(-5, 3), (0, 3), (3, 0), (3, -5)])
    def test_sizes_below_one_rejected(self, k, n):
        with pytest.raises(InputError):
            cone_difference_divisors(k, n)

    @pytest.mark.parametrize("k, n", [(3, MAX_COMPLETE_VERTICES + 1), (MAX_VERTICES, 1)])
    def test_size_rules_checked_before_any_divisor(self, k, n, monkeypatch):
        monkeypatch.setattr(theorems, "_cone_differences", None)
        with pytest.raises(SizeError):
            cone_difference_divisors(k, n)


class Untouchable:
    """Fails the test if it is used at all: an rng that must not be drawn
    from, or a sequence that must not be read."""

    def __getattr__(self, name):
        raise AssertionError(f"read .{name} before the vertex budget was checked")

    def __len__(self):
        raise AssertionError("read the length before the vertex budget was checked")

    def __iter__(self):
        raise AssertionError("iterated before the vertex budget was checked")


class TestRandomGenerators:
    def test_random_tree_is_tree(self):
        rng = random.Random(59)
        for _ in range(30):
            g = random_tree(rng, rng.randint(1, 9))
            assert is_tree(g) or g.vertex_count == 1

    def test_random_connected_graph_is_connected(self):
        rng = random.Random(61)
        for _ in range(30):
            assert is_connected(random_connected_graph(rng, rng.randint(1, 8)))

    def test_random_connected_graph_rejects_zero_probability(self):
        with pytest.raises(InputError, match="probability 0"):
            random_connected_graph(random.Random(1), 3, 0.0)
        assert random_connected_graph(random.Random(1), 1, 0.0) == Graph(1)

    def test_random_connected_graph_gives_up_after_capped_draws(self):
        with pytest.raises(InputError, match=r"2 vertices with edge probability 1e-12"):
            random_connected_graph(random.Random(1), 2, 1e-12)

    def test_random_connected_graph_bounds_the_pairs_it_draws(self):
        class Counting(random.Random):
            calls = 0

            def random(self):
                self.calls += 1
                return super().random()

        # every size that verify --sample draws keeps its 1000 draws
        rng = Counting(0)
        with pytest.raises(InputError, match="in 1000 draws"):
            random_connected_graph(rng, 7, 1e-5)
        assert rng.calls == 1000 * 21
        # 4096 vertices: one draw, within the pair bound, not 1000
        rng = Counting(0)
        with pytest.raises(InputError, match="in 1 draw$"):
            random_connected_graph(rng, 4096, 1e-5)
        assert rng.calls == 4096 * 4095 // 2 <= theorems._CONNECTED_PAIR_LIMIT

    @pytest.mark.parametrize(
        "draw",
        [
            lambda rng: random_connected_graph(rng, 0),
            lambda rng: random_connected_graph(rng, 3, -0.1),
            lambda rng: random_connected_graph(rng, 3, 1.5),
            lambda rng: random_tree(rng, 0),
        ],
    )
    def test_out_of_contract_arguments_rejected(self, draw):
        with pytest.raises(InputError):
            draw(random.Random(1))

    @pytest.mark.parametrize(
        "build",
        [
            lambda untouchable: random_tree(untouchable, 10**8),
            lambda untouchable: random_connected_graph(untouchable, 10**5, 0.5),
            lambda untouchable: tree_from_pruefer(untouchable, 10**8),
        ],
        ids=["random_tree", "random_connected_graph", "tree_from_pruefer"],
    )
    def test_vertex_budget_is_checked_before_drawing(self, build):
        with pytest.raises(SizeError):
            build(Untouchable())

    def test_determinism(self):
        assert random_tree(random.Random(5), 8) == random_tree(random.Random(5), 8)
        assert random_connected_graph(random.Random(5), 6) == random_connected_graph(
            random.Random(5), 6
        )

    def test_pruefer_decode_matches_cayley(self):
        n = 5
        trees = {
            tree_from_pruefer(seq, n)
            for seq in itertools.product(range(n), repeat=n - 2)
        }
        assert len(trees) == n ** (n - 2)

    def test_pruefer_small_cases(self):
        assert tree_from_pruefer((), 1) == complete(1)
        assert tree_from_pruefer((), 2) == path(2)
        with pytest.raises(InputError):
            tree_from_pruefer((0,), 2)
        for sequence, n in (((), 0), ((0,), 1), ((3,), 3)):
            with pytest.raises(InputError):
                tree_from_pruefer(sequence, n)

    @pytest.mark.parametrize("entry", [1.0, "1", None])
    def test_pruefer_entries_must_be_integers(self, entry):
        with pytest.raises(InputError, match="Pruefer entry"):
            tree_from_pruefer([entry], 3)
