"""Verification harness for the structural facts about cones and joins.

Each verifier recomputes both sides of a claimed identity through independent
code paths and reports whether they agree.  On the Pic0 side, the cone and
tree checks never build the cone: a change of basis on the n cone vertices,
which are twins, splits (Z/(k+n))^(n-2) off Pic0 of the cone and leaves a
(k+1)-square presentation, on which the subgroup is the order of one class
and H_n one diagonalization modulo the exponent; the join check takes the
matrix-tree count.  The other side of each order check is |P(x)|,
which sandpile takes as |det(L - xI)| / |x| from the sparse rows of
L - xI: exact elimination on the pivots that divide their row and column,
then Bareiss on the block left.  Everything is exact integer arithmetic,
so "holds" means equality, not closeness.
"""

from __future__ import annotations

import heapq
import itertools
import numbers
import random
from dataclasses import dataclass
from functools import reduce
from typing import Iterator, List, NamedTuple, Sequence

from .errors import InputError, NotConnectedError
from .graphs import Graph, is_connected, is_tree, join, leaves
from .graphs import _check_cone_size, _check_vertex_count
from .sandpile import (
    CriticalGroup,
    _cone_groups,
    _restricted_char_value,
    _sparse_laplacian,
    direct_sum,
    spanning_tree_count,
)

__all__ = [
    "ConeSequenceReport",
    "JoinOrderReport",
    "TreeBoundReport",
    "cone_difference_divisors",
    "verify_cone_theorem",
    "verify_join_theorem",
    "verify_tree_bound",
    "verify_eigenvectors",
    "random_connected_graph",
    "random_tree",
    "tree_from_pruefer",
]


@dataclass(frozen=True)
class ConeSequenceReport:
    """Verified data of the cone exact sequence for one (graph, n) instance.

    ``subgroup`` is generated by the differences of cone vertices against the
    first cone vertex, ``quotient_h`` is Pic0 of the cone modulo those
    classes, and ``p_at_minus_n`` is |P(-n)| for the base graph.
    """

    base_vertices: int
    cone_size: int
    pic0: CriticalGroup
    subgroup: CriticalGroup
    quotient_h: CriticalGroup
    p_at_minus_n: int
    order_formula_holds: bool
    subgroup_is_expected: bool
    splits: bool
    h_generator_count: int

    @property
    def holds(self) -> bool:
        """The two checkable claims; splitness is reported, not required."""
        return self.order_formula_holds and self.subgroup_is_expected


@dataclass(frozen=True)
class JoinOrderReport:
    """Order formula check for the join of several graphs."""

    factor_vertex_counts: tuple
    total_vertices: int
    lhs: int
    rhs: int
    holds: bool


class TreeBoundReport(NamedTuple):
    leaf_count: int
    h_generators: int
    holds: bool


def cone_difference_divisors(k: int, n: int) -> List[tuple]:
    """The n-1 degree-zero divisors on cone(g, n) of the form
    (cone vertex i) - (first cone vertex); k is checked as a vertex count and
    n as a cone size before any divisor is built."""
    _check_vertex_count(k)
    _check_cone_size(k, n)
    return list(_cone_differences(k, n))


def _cone_differences(k: int, n: int) -> Iterator[tuple]:
    for i in range(1, n):
        d = [0] * (k + n)
        d[k + i] = 1
        d[k] = -1
        yield tuple(d)


def verify_cone_theorem(g: Graph, n: int) -> ConeSequenceReport:
    """Check the exact-sequence structure of Pic0 of the nth cone over g.

    Confirms that the cone-vertex differences generate (Z/(n+k))^(n-1), that
    the quotient by them has order |P(-n)|, and decides whether the sequence
    splits for this instance.  The three groups come from the
    (k+1)-square presentation of the cone, |P(-n)| from the sparse rows of
    L + nI of g.
    """
    k = g.vertex_count
    _check_cone_size(k, n)
    if not is_connected(g):
        raise NotConnectedError("cone theorem verification needs a connected base graph")
    pic0, subgroup, quotient_h = _cone_groups(g, n)
    p_at_minus_n = _restricted_char_value(g, -n)
    return ConeSequenceReport(
        base_vertices=k,
        cone_size=n,
        pic0=pic0,
        subgroup=subgroup,
        quotient_h=quotient_h,
        p_at_minus_n=p_at_minus_n,
        order_formula_holds=quotient_h.order == p_at_minus_n,
        subgroup_is_expected=subgroup == CriticalGroup((n + k,) * (n - 1)),
        splits=pic0 == direct_sum(subgroup, quotient_h),
        h_generator_count=len(quotient_h.invariant_factors),
    )


def verify_join_theorem(gs: Sequence[Graph]) -> JoinOrderReport:
    """Check |Pic0(join)| == k^(l-2) * prod |P_i(k_i - k)| for l >= 2 factors."""
    gs = list(gs)
    if len(gs) < 2:
        raise InputError("join order formula needs at least two factors")
    counts = tuple(g.vertex_count for g in gs)
    k = sum(counts)
    joined = reduce(join, gs)
    lhs = spanning_tree_count(joined)
    rhs = k ** (len(gs) - 2)
    for g_i, k_i in zip(gs, counts):
        rhs *= _restricted_char_value(g_i, k_i - k)
    return JoinOrderReport(
        factor_vertex_counts=counts,
        total_vertices=k,
        lhs=lhs,
        rhs=rhs,
        holds=lhs == rhs,
    )


def verify_tree_bound(g: Graph, n: int) -> TreeBoundReport:
    """For a tree with l+1 leaves, H_n needs at most l generators."""
    if g.vertex_count < 2 or not is_tree(g):
        raise InputError("tree bound applies to trees with at least two vertices")
    leaf_count = len(leaves(g))
    _check_cone_size(g.vertex_count, n)
    h_n = _cone_groups(g, n)[2]
    h_generators = len(h_n.invariant_factors)
    return TreeBoundReport(leaf_count, h_generators, h_generators <= leaf_count - 1)


def _cone_laplacian_times(rows: dict, n: int, x: Sequence[int]) -> tuple:
    """L(cone(g, n)) x from the sparse rows of L + nI of g, in O(|E| + k + n)
    time and memory: neither K_n nor the Laplacian of the cone is built.

    Base row v is ((L + nI) x)_v - (sum of x over the cone); cone row c is
    (k + n) x_c - (sum of all x).  A vector that vanishes on the base, such
    as a cone difference, has every base row equal to -(sum over the cone),
    and the rows of g are not read.
    """
    k = len(rows)
    cone_sum = sum(x[k:])
    total = sum(x[:k]) + cone_sum
    if any(x[:k]):
        y = []
        for row in rows.values():
            acc = -cone_sum
            for w, a in row.items():
                acc += a * x[w]
            y.append(acc)
    else:
        y = [-cone_sum] * k
    y += [(k + n) * c - total for c in x[k:]]
    return tuple(y)


def verify_eigenvectors(g: Graph, n: int) -> bool:
    """Exact eigenvector identities on the cone Laplacian.

    Each difference of two cone vertices, and the balanced vector
    n*(sum of base vertices) - k*(sum of cone vertices), must be an integer
    eigenvector of L(cone(g, n)) with eigenvalue n + k.  The cone Laplacian
    is applied implicitly to one vector at a time, so memory stays linear in
    the size of the cone.  The size rules are ``cone``'s own: an n above
    MAX_COMPLETE_VERTICES or k + n above MAX_VERTICES raises ``SizeError``.
    """
    k = g.vertex_count
    _check_cone_size(k, n)
    eigenvalue = n + k
    balanced = tuple([n] * k + [-k] * n)
    rows = _sparse_laplacian(g, n)
    for d in itertools.chain(_cone_differences(k, n), [balanced]):
        if _cone_laplacian_times(rows, n, d) != tuple(eigenvalue * c for c in d):
            return False
    return True


def tree_from_pruefer(sequence: Sequence[int], vertex_count: int) -> Graph:
    """Decode a Pruefer sequence into the labeled tree it encodes."""
    n = vertex_count
    _check_vertex_count(n)
    if n == 1:
        if len(sequence) != 0:
            raise InputError("a one-vertex tree has an empty Pruefer sequence")
        return Graph(1)
    if len(sequence) != n - 2:
        raise InputError(f"Pruefer sequence for {n} vertices must have length {n - 2}")
    degree = [1] * n
    for x in sequence:
        if not isinstance(x, int) or not 0 <= x < n:
            raise InputError(f"Pruefer entry {x!r} is not a vertex in [0, {n})")
        degree[x] += 1
    leaf_heap = [v for v in range(n) if degree[v] == 1]
    heapq.heapify(leaf_heap)
    edges = []
    for x in sequence:
        leaf = heapq.heappop(leaf_heap)
        edges.append((leaf, x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaf_heap, x)
    u = heapq.heappop(leaf_heap)
    v = heapq.heappop(leaf_heap)
    edges.append((u, v))
    return Graph(n, edges)


def random_tree(rng: random.Random, vertex_count: int) -> Graph:
    """Uniform random labeled tree via a random Pruefer sequence."""
    _check_vertex_count(vertex_count)
    sequence = [rng.randrange(vertex_count) for _ in range(vertex_count - 2)]
    return tree_from_pruefer(sequence, vertex_count)


_CONNECTED_DRAW_LIMIT = 1000
# vertex pairs drawn over all draws: 1000 draws up to 141 vertices, one draw
# of 4096 vertices (8386560 pairs)
_CONNECTED_PAIR_LIMIT = 10**7


def random_connected_graph(
    rng: random.Random, vertex_count: int, edge_probability: float = 0.5
) -> Graph:
    """Erdos-Renyi sample, retried until connected.

    Gives up with ``InputError`` after 1000 disconnected draws, or fewer
    where those would draw more than ``_CONNECTED_PAIR_LIMIT`` vertex pairs
    (but at least one), so an edge probability too small for the vertex
    count cannot hang.
    """
    _check_vertex_count(vertex_count)
    if not isinstance(edge_probability, numbers.Real) or not 0.0 <= edge_probability <= 1.0:
        raise InputError("edge probability must lie in [0, 1]")
    if edge_probability == 0.0 and vertex_count > 1:
        raise InputError(
            f"edge probability 0 never connects {vertex_count} vertices"
        )
    pairs = vertex_count * (vertex_count - 1) // 2
    draws = max(1, min(_CONNECTED_DRAW_LIMIT, _CONNECTED_PAIR_LIMIT // (pairs or 1)))
    for _ in range(draws):
        edges = [
            (u, v)
            for u in range(vertex_count)
            for v in range(u + 1, vertex_count)
            if rng.random() < edge_probability
        ]
        g = Graph(vertex_count, edges)
        if is_connected(g):
            return g
    raise InputError(
        f"no connected graph on {vertex_count} vertices with edge probability "
        f"{edge_probability} in {draws} draw{'s' * (draws > 1)}"
    )
