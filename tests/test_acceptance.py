"""Acceptance suite.

Runs every acceptance criterion at its stated bound and prints one PASS/FAIL
line per criterion (visible with ``pytest -s`` or in captured output).  All
checks are exact integer equalities; the only tolerances are the stated
runtime limits.

The shared fixed sample is 200 random connected graphs on 2..7 vertices, 20
random connected graphs on 8 vertices, and every labeled tree on up to 6
vertices (1442 trees via exhaustive Pruefer enumeration).
"""

import itertools
import random
import time

import pytest

from chipfire import (
    CriticalGroup,
    Graph,
    class_order,
    complete,
    cone,
    cone_difference_divisors,
    critical_group,
    char_poly_restricted,
    path,
    poly_eval,
    quotient_by_classes,
    random_connected_graph,
    spanning_tree_count,
    subgroup_invariants,
    tree_from_pruefer,
    verify_cone_theorem,
    verify_eigenvectors,
    verify_join_theorem,
    verify_tree_bound,
)
from oracles import brute_force_spanning_trees, matmul, smith_normal_form
from chipfire.intlinalg import IntMatrix, determinant

GOEL = Graph(6, [(0, 1), (0, 2), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
FORK_TREE = Graph(5, [(0, 1), (1, 2), (2, 3), (2, 4)])

SAMPLE_SEED = 20260809
RANDOM_SAMPLE_SIZE = 200
EIGHT_VERTEX_COUNT = 20
CONE_SIZES = (1, 2, 3, 4)


def _verdict(name, failures, elapsed=None, limit=None):
    ok = not failures
    if limit is not None:
        ok = ok and elapsed < limit
        timing = f" ({elapsed:.3f}s, limit {limit}s)"
    else:
        timing = ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{timing}")
    assert not failures, f"{name}: first failures: {failures[:5]}"
    if limit is not None:
        assert elapsed < limit, f"{name}: took {elapsed:.3f}s, limit {limit}s"


def all_labeled_trees(max_vertices: int):
    trees = []
    for n in range(1, max_vertices + 1):
        if n <= 2:
            trees.append(tree_from_pruefer((), n))
        else:
            for seq in itertools.product(range(n), repeat=n - 2):
                trees.append(tree_from_pruefer(seq, n))
    return trees


@pytest.fixture(scope="module")
def random_small_graphs():
    rng = random.Random(SAMPLE_SEED)
    return [random_connected_graph(rng, rng.randint(2, 7)) for _ in range(RANDOM_SAMPLE_SIZE)]


@pytest.fixture(scope="module")
def eight_vertex_graphs():
    rng = random.Random(SAMPLE_SEED + 1)
    return [random_connected_graph(rng, 8, 0.35) for _ in range(EIGHT_VERTEX_COUNT)]


@pytest.fixture(scope="module")
def all_trees():
    return all_labeled_trees(6)


@pytest.fixture(scope="module")
def formula_sample(random_small_graphs, all_trees):
    """The sample criteria 4, 5, 8, and 9 quantify over."""
    return random_small_graphs + all_trees


def test_criterion_01_goel_counterexample():
    start = time.perf_counter()
    report = verify_cone_theorem(GOEL, 3)
    elapsed = time.perf_counter() - start
    failures = []
    if report.pic0.invariant_factors != (144, 8208):
        failures.append(f"pic0 = {report.pic0.invariant_factors}")
    expected = CriticalGroup.from_cyclic_orders([9, 27, 16, 16, 19])
    if report.pic0 != expected:
        failures.append("pic0 does not match Z/9 + Z/27 + (Z/16)^2 + Z/19")
    if report.splits:
        failures.append("sequence reported as split")
    _verdict("1 (Goel counterexample)", failures, elapsed, 1.0)


def test_criterion_02_fan_graph():
    start = time.perf_counter()
    group = critical_group(cone(path(5), 1))
    elapsed = time.perf_counter() - start
    failures = [] if group.invariant_factors == (55,) else [str(group)]
    _verdict("2 (fan graph Z/55)", failures, elapsed, 0.1)


def test_criterion_03_tree_example():
    start = time.perf_counter()
    group = critical_group(cone(FORK_TREE, 1))
    bound = verify_tree_bound(FORK_TREE, 1)
    elapsed = time.perf_counter() - start
    failures = []
    if group.invariant_factors != (52,):
        failures.append(f"group = {group}")
    if bound != (3, 1, True):
        failures.append(f"bound = {bound}")
    _verdict("3 (tree example Z/52, bound 1 <= 2)", failures, elapsed, 0.1)


def test_criterion_04_corollary_order_formula(formula_sample):
    start = time.perf_counter()
    failures = []
    for g in formula_sample:
        k = g.vertex_count
        p = char_poly_restricted(g)
        for n in CONE_SIZES:
            lhs = spanning_tree_count(cone(g, n))
            rhs = (n + k) ** (n - 1) * abs(poly_eval(p, -n))
            if lhs != rhs:
                failures.append((g, n, lhs, rhs))
    elapsed = time.perf_counter() - start
    _verdict(
        f"4 (order formula on {len(formula_sample)} graphs x n=1..4)",
        failures,
        elapsed,
        30.0,
    )


def test_criterion_05_cone_sequence_structure(formula_sample):
    failures = []
    for g in formula_sample:
        k = g.vertex_count
        p = char_poly_restricted(g)
        for n in CONE_SIZES:
            coned = cone(g, n)
            generators = cone_difference_divisors(k, n)
            subgroup = subgroup_invariants(coned, generators)
            if subgroup.invariant_factors != (n + k,) * (n - 1):
                failures.append((g, n, "subgroup", subgroup.invariant_factors))
                continue
            quotient = quotient_by_classes(coned, generators)
            if quotient.order != abs(poly_eval(p, -n)):
                failures.append((g, n, "quotient order", quotient.order))
    _verdict("5 (subgroup (Z/(n+k))^(n-1) and |H_n| = |P(-n)|)", failures)


def test_criterion_06_join_order_formula():
    rng = random.Random(SAMPLE_SEED + 2)
    failures = []
    count = 100
    for _ in range(count):
        factors = [
            random_connected_graph(rng, rng.randint(1, 5))
            for _ in range(rng.randint(2, 3))
        ]
        report = verify_join_theorem(factors)
        if not report.holds:
            failures.append((report.factor_vertex_counts, report.lhs, report.rhs))
    _verdict(f"6 (join order formula on {count} tuples)", failures)


def test_criterion_07_oracle_equivalence(random_small_graphs, eight_vertex_graphs, all_trees):
    failures = []
    for g in random_small_graphs + eight_vertex_graphs + all_trees:
        fast = spanning_tree_count(g)
        slow = brute_force_spanning_trees(g)
        if fast != slow:
            failures.append((g, fast, slow))
        if abs(poly_eval(char_poly_restricted(g), 0)) != g.vertex_count * fast:
            failures.append((g, "matrix-tree eigenvalue identity"))
    _verdict("7 (matrix-tree vs brute-force enumeration)", failures)


def _with_twin(g: Graph, v: int) -> Graph:
    """Append a new vertex with the same neighborhood as v (not adjacent to
    v): a non-adjacent conformal pair of degree deg(v)."""
    k = g.vertex_count
    extra = [(w, k) for w in g.neighbors(v)]
    return Graph(k + 1, list(g.edges) + extra)


def test_criterion_08_conformal_pair_orders(formula_sample):
    failures = []
    for g in formula_sample:
        k = g.vertex_count
        for n in (2, 3, 4):
            coned = cone(g, n)
            d = [0] * (k + n)
            d[k] = 1
            d[k + 1] = -1
            if class_order(coned, d) != n + k:
                failures.append((g, n, "adjacent pair"))
    # non-adjacent conformal pairs built by doubling a vertex
    for g in formula_sample:
        if g.vertex_count < 2:
            continue
        twin = _with_twin(g, 0)
        d = [0] * twin.vertex_count
        d[0] = 1
        d[-1] = -1
        if class_order(twin, d) != g.degree(0):
            failures.append((g, "twin pair"))
    _verdict("8 (conformal pair orders: d+1 adjacent, d otherwise)", failures)


def test_criterion_09_eigenvector_identities(formula_sample):
    failures = []
    for g in formula_sample:
        for n in CONE_SIZES:
            if not verify_eigenvectors(g, n):
                failures.append((g, n))
    _verdict("9 (exact eigenvector identities)", failures)


def test_criterion_10_snf_self_consistency():
    rng = random.Random(SAMPLE_SEED + 3)
    failures = []
    count = 500
    for index in range(count):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        a = IntMatrix(
            rows, cols, [rng.randint(-9, 9) for _ in range(rows * cols)]
        )
        result = smith_normal_form(a)
        if matmul(matmul(result.u, a), result.v) != result.s:
            failures.append((index, "witness identity"))
            continue
        if abs(determinant(result.u)) != 1 or abs(determinant(result.v)) != 1:
            failures.append((index, "witnesses not unimodular"))
        diag = result.diagonal
        nonzero = [d for d in diag if d != 0]
        if any(d < 0 for d in diag) or list(diag[: len(nonzero)]) != nonzero:
            failures.append((index, "diagonal not canonical"))
        if any(y % x for x, y in zip(nonzero, nonzero[1:])):
            failures.append((index, "divisibility chain broken"))
        if rows == cols:
            det = determinant(a)
            product = 1
            for d in diag:
                product *= d
            if det != 0 and product != abs(det):
                failures.append((index, "diagonal product vs determinant"))
    _verdict(f"10 (SNF self-consistency on {count} random matrices)", failures)
