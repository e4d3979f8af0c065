"""Chip-firing groups and divisor arithmetic.

The chip-firing (critical) group of a connected graph is the cokernel of the
reduced Laplacian Lred, the Laplacian with vertex 0 deleted (the group is
the same whichever vertex is deleted).  One presentation per graph writes
it as a direct sum Z/d_1 x ... x Z/d_s of cyclic groups (any such
decomposition, not only the invariant factors), kept as long as the Graph
object it presents and no longer, so every query on a held graph shares
it and a dropped graph leaves nothing behind; an equal graph built again is
presented again.  The class of a degree-zero divisor has coordinates
(U_i . x) mod d_i, where x is the divisor with vertex 0 dropped and U_i is
the row of the presentation matching d_i.
Every divisor-class question (is this divisor principal, what is the order
of its class, what group do some classes generate or leave over) is then
answered in those coordinates: a subgroup or a quotient takes one
diagonalization of an s-row matrix modulo N = lcm(d_1, ..., d_s), the
exponent of Pic0, rather than an SNF of the graph's size.

The presentation eliminates exactly on every pivot d that divides its row
and its column, which splits off Z/|d|: the +-1 entries first, then such
pivots as the multiples of lam that a class of m >= 3 twins leaves once its
+-1 pivots are gone (lam is the twins' degree, plus one for adjacent twins,
and the class forces (Z/lam)^(m-2) into Pic0).  On the small block R left,
one fraction-free solve gives tau = |det R| and a coordinate row onto
Z/tau1, tau1 the part of tau prime to the row's gcd with tau: all of
coker R when it is cyclic and the row is a unit mod tau, as it is for most
random graphs.  Only the rest, of order tau2 = tau / tau1, is finished
modulo tau2, and Z/tau1 joins one of its factors by CRT.  No column witness
is kept, so the d_i need not form a divisibility chain.

Every matrix taken from a graph is a shift L + cI of its Laplacian, read
off the adjacency by one builder, _sparse_laplacian, as sparse rows that
the reduced and dense forms derive from.  |det Lred| and |P(x)| =
|det(L - xI)| / |x| run the kernel's exact stage on such rows, and Bareiss
only on the block left, which is empty on a path.

The cone over g with n vertices, cone(g, n) on k + n vertices, need not be
built for its groups or its characteristic polynomial.  Its cone vertices
are twins, so a change of basis on them splits (Z/(k+n))^(n-2) off Pic0
and leaves the kernel a (k+1)-square matrix, and P of the cone is
Q(x - n) (x - k - n)^n with Q of g.  Neither result is cached.

Divisors are plain integer vectors indexed by vertex; the degree-zero
constraint is a checked precondition rather than a separate type.
"""

from __future__ import annotations

import math
import weakref
from collections import namedtuple
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .errors import InputError, NotConnectedError
from .graphs import Graph, is_connected
from .intlinalg import (
    IntMatrix,
    IntPoly,
    _abs_determinant,
    _char_poly_rows,
    _cokernel_rows,
    _decimal,
    _diagonalize_mod,
)

__all__ = [
    "CriticalGroup",
    "laplacian",
    "reduced_laplacian",
    "critical_group",
    "spanning_tree_count",
    "char_poly_restricted",
    "fire_vertex",
    "is_principal",
    "class_order",
    "quotient_by_classes",
    "subgroup_invariants",
    "direct_sum",
]


@dataclass(frozen=True)
class CriticalGroup:
    """Finite abelian group in canonical invariant-factor form.

    Factors are each at least 2 and each divides the next, so isomorphism is
    plain equality of factor lists (the trivial group is the empty tuple).
    Direct sums of cyclic groups reach this form by Z/a x Z/b = Z/gcd x Z/lcm.
    """

    invariant_factors: tuple

    def __init__(self, invariant_factors: Iterable[int] = ()):
        factors = tuple(invariant_factors)
        for d in factors:
            if not isinstance(d, int) or d < 2:
                raise InputError(f"invariant factor {d!r} must be an integer >= 2")
        for a, b in zip(factors, factors[1:]):
            if b % a != 0:
                raise InputError(
                    "invariant factors must form a divisibility chain: "
                    f"{_decimal(a)} does not divide {_decimal(b)}"
                )
        object.__setattr__(self, "invariant_factors", factors)

    @property
    def order(self) -> int:
        return math.prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    @classmethod
    def from_cyclic_orders(cls, orders: Iterable[int]) -> "CriticalGroup":
        """Canonicalize a direct sum of cyclic groups of the given orders.  In
        ascending order, each order joins the chain and moves left as
        (a, b) -> (gcd, lcm) while its left neighbour a does not divide it."""
        orders = [o for o in orders]
        for o in orders:
            if not isinstance(o, int) or o < 1:
                raise InputError(f"cyclic order {o!r} must be a positive integer")
        chain = sorted(orders)
        for end in range(len(chain)):
            i = end
            while i > 0 and chain[i] % chain[i - 1] != 0:
                g = math.gcd(chain[i - 1], chain[i])
                chain[i - 1], chain[i] = g, chain[i - 1] // g * chain[i]
                i -= 1
        return cls(o for o in chain if o > 1)

    def __str__(self):
        if self.is_trivial:
            return "trivial"
        return " x ".join(f"Z/{_decimal(d)}" for d in self.invariant_factors)


def _sparse_laplacian(g: Graph, shift: int = 0) -> dict:
    """The sparse rows {v: {w: a_vw}} of L + shift*I, the one place where
    rows are read off the graph, with no zero entries (a diagonal
    deg v + shift = 0 is left out) and the keys of a row in no fixed order."""
    rows = {}
    for v in range(g.vertex_count):
        neighbors = g.neighbors(v)
        row = dict.fromkeys(neighbors, -1)
        row[v] = len(neighbors) + shift
        if not row[v]:
            del row[v]
        rows[v] = row
    return rows


def _reduced_rows(g: Graph, shift: int = 0) -> dict:
    """The sparse rows of L + shift*I with vertex 0 deleted, so vertex v is
    index v - 1."""
    rows = _sparse_laplacian(g, shift)
    del rows[0]
    return {v - 1: {w - 1: a for w, a in row.items() if w} for v, row in rows.items()}


def _dense_laplacian(g: Graph, shift: int = 0) -> list:
    """The rows of L + shift*I as lists, from the sparse rows."""
    dense = [[0] * g.vertex_count for _ in range(g.vertex_count)]
    for v, row in _sparse_laplacian(g, shift).items():
        for w, a in row.items():
            dense[v][w] = a
    return dense


def laplacian(g: Graph) -> IntMatrix:
    """Degree matrix minus adjacency matrix."""
    return IntMatrix.from_rows(_dense_laplacian(g))


def _require_connected(g: Graph):
    if not is_connected(g):
        raise NotConnectedError(f"graph with {g.vertex_count} vertices is not connected")


def reduced_laplacian(g: Graph, remove: int) -> IntMatrix:
    """Laplacian with one row and column deleted (the matrix-tree device)."""
    g._check_vertex(remove)
    _require_connected(g)
    rows = _dense_laplacian(g)
    del rows[remove]
    return IntMatrix.from_rows([row[:remove] + row[remove + 1 :] for row in rows])


@dataclass(frozen=True)
class _Presentation:
    """Pic0 as Z/d_1 x ... x Z/d_s, any decomposition into cyclic groups.

    ``factors`` are the orders d_i >= 2, not necessarily a divisibility
    chain, and ``rows[i]`` is a row vector U_i reduced mod d_i such that
    x -> ((U_i . x) mod d_i) maps coker Lred (vertex 0 deleted)
    isomorphically onto the sum.
    """

    factors: tuple
    rows: tuple

    def coordinates(self, d: Sequence[int]) -> list:
        """Coordinates (U_i . x) mod d_i of the class of a degree-zero divisor."""
        x = d[1:]
        return [sum(map(mul, row, x)) % m for row, m in zip(self.rows, self.factors)]


def _class_order(factors: Sequence[int], coordinates: Sequence[int]) -> int:
    """Order of the element of Z/d_1 x ... x Z/d_s with these coordinates."""
    return math.lcm(*(d // math.gcd(d, c) for d, c in zip(factors, coordinates)))


_CacheInfo = namedtuple("CacheInfo", "hits misses maxsize currsize")
_presentations = {}  # id(g) -> (weak reference to g, presentation of g)
_hits = _misses = 0


def _reduced_snf(g: Graph) -> _Presentation:
    """The presentation of Pic0(g), from the cokernel of Lred, kept as long
    as the object g lives.

    The entry is keyed by id(g), so a hit hashes no edges, and a weak
    reference to g pops it when g is collected, before its id can be reused.
    An equal graph built again is another object and is presented again.
    """
    global _hits, _misses
    key = id(g)
    entry = _presentations.get(key)
    if entry is not None:
        _hits += 1
        return entry[1]
    _misses += 1
    _require_connected(g)
    pic0 = _Presentation(*_cokernel_rows(_reduced_rows(g)))
    pop = _presentations.pop  # bound here: module globals may be gone at exit
    _presentations[key] = (weakref.ref(g, lambda _: pop(key, None)), pic0)
    return pic0


def _cache_info() -> _CacheInfo:
    """hits, misses, maxsize (None: no bound) and currsize, the number of
    live graphs with a presentation, as functools.lru_cache reports them."""
    return _CacheInfo(_hits, _misses, None, len(_presentations))


_reduced_snf.cache_info = _cache_info


def critical_group(g: Graph) -> CriticalGroup:
    """Pic0(g) as the cokernel of the reduced Laplacian with vertex 0 deleted."""
    return CriticalGroup.from_cyclic_orders(_reduced_snf(g).factors)


def spanning_tree_count(g: Graph) -> int:
    """Number of spanning trees, equal to the critical group order: |det Lred|,
    from the exact stage of the Pic0 kernel and Bareiss on its residual."""
    _require_connected(g)
    return _abs_determinant(_reduced_rows(g))


def char_poly_restricted(g: Graph) -> IntPoly:
    """Characteristic polynomial of the Laplacian restricted to degree zero.

    Equals det(xI - L) / x, which is exact because the Laplacian of a
    connected graph has one-dimensional kernel; a single vertex yields the
    constant polynomial 1.
    """
    _require_connected(g)
    return _cone_char_poly(g, 0)


def _restricted_char_value(g: Graph, x: int) -> int:
    """|P(x)| = |det(xI - L)| / |x| for x != 0; g may be disconnected (join
    factors).  The callers use only the absolute value, so this is
    |det(L - xI)| from the sparse rows of L - xI, by the exact stage of the
    Pic0 kernel and Bareiss on its residual, with no dense matrix."""
    return _abs_determinant(_sparse_laplacian(g, -x)) // abs(x)


def _cone_rows(g: Graph, n: int) -> dict:
    """The sparse rows of M'_n, the (k+1)-square presentation of Pic0 of
    cone(g, n) with its twin block split off (k rows for n = 1).

    Rows are the coordinates e_1..e_(k-1) (base vertex v is index v - 1),
    s_c = sum of the cone vertices (index k - 1) and e_c2 (index k).  The
    columns are the base columns of L + nI, -1 in the s_c row; the sum of
    the cone columns, -n in the base rows and k in the s_c row; and the
    column of c2, -1 in the base rows and the s_c row and k + n in its own.
    """
    k = g.vertex_count
    s = k - 1
    rows = _reduced_rows(g, n)
    for row in rows.values():
        row[s] = -n
    rows[s] = dict.fromkeys(range(s), -1)
    rows[s][s] = k
    if n > 1:
        for row in rows.values():
            row[k] = -1
        rows[k] = {k: k + n}
    return rows


def _cone_groups(g: Graph, n: int) -> tuple:
    """(Pic0, the cone-difference subgroup, H_n) of cone(g, n), g on k
    vertices and possibly disconnected, without building the cone.

    The n cone vertices are twins of degree k + n - 1.  Written in the basis
    e_b, s_c, e_c2 and e_ci - e_c2 (i >= 3), the cone columns c_i - c_2 are
    (k + n)(e_ci - e_c2) and touch no other coordinate, so
    Pic0 = (Z/(k+n))^(n-2) + coker M'_n with M'_n from _cone_rows.  The
    differences of cone vertices span those n - 2 summands and
    g = s_c - n e_c2, so the subgroup is (Z/(k+n))^(n-2) + <g> and
    H_n = coker M'_n / <g>.  For n = 1 there are no differences and
    H_1 = Pic0.
    """
    k = g.vertex_count
    factors, rows = _cokernel_rows(_cone_rows(g, n))
    twins = [k + n] * (n - 2)
    pic0 = CriticalGroup.from_cyclic_orders(twins + list(factors))
    if n == 1:
        return pic0, CriticalGroup(), pic0
    coordinates = [(u[k - 1] - n * u[k]) % d for u, d in zip(rows, factors)]
    subgroup = CriticalGroup.from_cyclic_orders(twins + [_class_order(factors, coordinates)])
    return pic0, subgroup, _quotient(factors, [[c] for c in coordinates])


def _cone_char_poly(g: Graph, n: int) -> IntPoly:
    """P of cone(g, n) as Q(x - n) (x - k - n)^n, Q(x) = det(xI - L) / x of
    g, which may be disconnected; n = 0 gives Q, the P of g itself.

    The Laplacian of the cone acts as L + nI on the vectors of the base
    that sum to zero and as k + n on the n vectors that the cone vertices
    add.  Q(x - n) is det(xI - L - nI) / (x - n), and (x - c)^n comes from
    the binomial recurrence.
    """
    k, c = g.vertex_count, g.vertex_count + n
    p = _char_poly_rows(_dense_laplacian(g, n)).coefficients
    q = [0] * k  # p / (x - n) by synthetic division
    q[-1] = p[k]
    for i in range(k - 1, 0, -1):
        q[i - 1] = p[i] + n * q[i]
    binomial = [0] * n + [1]  # (x - c)^n
    for j in range(n, 0, -1):
        binomial[j - 1] = -binomial[j] * c * j // (n - j + 1)
    out = [0] * (k + n)
    for i, a in enumerate(q):
        out[i : i + n + 1] = [x + a * b for x, b in zip(out[i : i + n + 1], binomial)]
    return IntPoly(out)


def _check_divisor(g: Graph, d: Sequence[int]) -> tuple:
    coeffs = tuple(d)
    if len(coeffs) != g.vertex_count:
        raise InputError(
            f"divisor has {len(coeffs)} coefficients for a graph on {g.vertex_count} vertices"
        )
    for c in coeffs:
        if not isinstance(c, int):
            raise InputError(f"divisor coefficient {c!r} is not an integer")
    return coeffs


def _check_degree_zero(g: Graph, d: Sequence[int]) -> tuple:
    coeffs = _check_divisor(g, d)
    if sum(coeffs) != 0:
        raise InputError(f"divisor has degree {sum(coeffs)}, expected 0")
    return coeffs


def fire_vertex(g: Graph, d: Sequence[int], v: int, direction: str) -> tuple:
    """One chip-firing move at v.

    ``lend`` sends a chip along each incident edge (subtracts the Laplacian
    column of v), ``borrow`` is the inverse.  The divisor degree is preserved.
    """
    coeffs = list(_check_divisor(g, d))
    g._check_vertex(v)
    if direction not in ("lend", "borrow"):
        raise InputError(f"direction must be 'lend' or 'borrow', got {direction!r}")
    sign = -1 if direction == "lend" else 1
    coeffs[v] += sign * g.degree(v)
    for w in g.neighbors(v):
        coeffs[w] -= sign
    return tuple(coeffs)


def is_principal(g: Graph, d: Sequence[int]) -> bool:
    """Whether d lies in the image of the Laplacian, i.e. is reachable from
    the zero divisor by chip-firing moves."""
    coeffs = _check_degree_zero(g, d)
    return not any(_reduced_snf(g).coordinates(coeffs))


def class_order(g: Graph, d: Sequence[int]) -> int:
    """Order of the class of d in Pic0(g): the least m with m*d principal."""
    coeffs = _check_degree_zero(g, d)
    pic0 = _reduced_snf(g)
    return _class_order(pic0.factors, pic0.coordinates(coeffs))


def _generated_coordinates(g: Graph, generators: Iterable[Sequence[int]]) -> tuple:
    """The orders d of the presentation of Pic0 and the generators' class
    coordinates C as rows: rows[i][j] is coordinate i of generator j."""
    gens = [_check_degree_zero(g, d) for d in generators]
    pic0 = _reduced_snf(g)
    columns = [pic0.coordinates(d) for d in gens]
    return pic0.factors, [[col[i] for col in columns] for i in range(len(pic0.factors))]


def _quotient(factors: tuple, rows: list) -> CriticalGroup:
    """Z/d_1 x ... x Z/d_s modulo the columns of C: the cokernel of
    [C | diag(d)].  N = lcm(d) annihilates it, so it is the cokernel mod N,
    the sum of Z/gcd(pivot, N) over the pivots left by diagonalizing mod N."""
    n = math.lcm(*factors)
    s = len(factors)
    m = [
        row + [d % n if j == i else 0 for j in range(s)]
        for i, (d, row) in enumerate(zip(factors, rows))
    ]
    return CriticalGroup.from_cyclic_orders(math.gcd(p, n) for _, p in _diagonalize_mod(m, n))


def _subgroup(factors: tuple, rows: list) -> CriticalGroup:
    """The span of the columns of C in Z/d_1 x ... x Z/d_s.  With
    N = lcm(d), scaling coordinate i by N/d_i embeds the sum in (Z/N)^s,
    and the span of the scaled columns is the sum of pivot * Z/N, of order
    N/gcd(pivot, N), over the pivots left by diagonalizing mod N."""
    n = math.lcm(*factors)
    m = [[c * (n // d) for c in row] for d, row in zip(factors, rows)]
    return CriticalGroup.from_cyclic_orders(n // math.gcd(p, n) for _, p in _diagonalize_mod(m, n))


def quotient_by_classes(g: Graph, generators: Iterable[Sequence[int]]) -> CriticalGroup:
    """Pic0(g) modulo the subgroup generated by the given divisor classes."""
    return _quotient(*_generated_coordinates(g, generators))


def subgroup_invariants(g: Graph, generators: Iterable[Sequence[int]]) -> CriticalGroup:
    """Structure of the subgroup of Pic0(g) generated by the given classes."""
    return _subgroup(*_generated_coordinates(g, generators))


def direct_sum(a: CriticalGroup, b: CriticalGroup) -> CriticalGroup:
    return CriticalGroup.from_cyclic_orders(a.invariant_factors + b.invariant_factors)
