"""Reference implementations kept as test oracles.

Each function here is a slower, independent route to a result that the
library computes another way; tests assert that both agree.  Three small
helpers (matmul, from_diagonal, divide_by_x) serve the checks themselves.
"""

import heapq
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

from chipfire import (
    ConeSequenceReport,
    CriticalGroup,
    Graph,
    InputError,
    IntMatrix,
    IntPoly,
    SizeError,
    TreeBoundReport,
    cone,
    cone_difference_divisors,
    determinant,
    direct_sum,
    laplacian,
    leaves,
    reduced_laplacian,
    sandpile,
)
from chipfire.intlinalg import _decimal, _xgcd
from chipfire.sandpile import _check_degree_zero, _require_connected


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - a) with integer coefficients.

    Computed by evaluating det(tI - a) at t = 0..m with Bareiss and then
    interpolating through Newton forward differences.  The difference-table
    coefficients expand the polynomial in the binomial basis, and clearing the
    m! denominator keeps everything in integers; the final division is exact
    because the target polynomial has integer coefficients.
    """
    if not a.is_square:
        raise InputError(f"char_poly needs a square matrix, got {a.rows}x{a.cols}")
    m = a.rows
    if m == 0:
        return IntPoly([1])

    values = []
    for t in range(m + 1):
        shifted = IntMatrix(
            m,
            m,
            [
                (t if i == j else 0) - a[i, j]
                for i in range(m)
                for j in range(m)
            ],
        )
        values.append(determinant(shifted))

    # forward differences: diffs[k] == Delta^k f(0)
    diffs = []
    level = values
    for _ in range(m + 1):
        diffs.append(level[0])
        level = [level[i + 1] - level[i] for i in range(len(level) - 1)]

    m_fact = math.factorial(m)
    scaled = [0] * (m + 1)  # coefficients of m! * det(xI - a)
    falling = [1]  # x(x-1)...(x-k+1), ascending coefficients
    for k in range(m + 1):
        weight = diffs[k] * (m_fact // math.factorial(k))
        for i, c in enumerate(falling):
            scaled[i] += weight * c
        # falling *= (x - k)
        falling = [0] + falling
        for i in range(len(falling) - 1):
            falling[i] -= k * falling[i + 1]

    coeffs = []
    for c in scaled:
        q, r = divmod(c, m_fact)
        if r != 0:
            raise AssertionError("interpolation produced a non-integer coefficient")
        coeffs.append(q)
    return IntPoly(coeffs)


# Smith normal form with unimodular witnesses, the library's earlier route
# to Pic0 and to its subgroups and quotients.  The divisor-class oracles
# below use it, and the tests check its witnesses and its chain.


@dataclass(frozen=True)
class SnfResult:
    """Smith normal form u @ a @ v == s with unimodular u and v.

    ``diagonal`` holds the nonnegative diagonal of ``s``; every nonzero entry
    divides the next and zeros come last.
    """

    u: IntMatrix
    s: IntMatrix
    v: IntMatrix
    diagonal: tuple


def _nearest_quotient(a: int, b: int) -> int:
    """Quotient q with |a - q*b| <= |b| / 2."""
    q, r = divmod(a, b)
    if 2 * abs(r) > abs(b):
        q += 1
    return q


def smith_normal_form(a: IntMatrix) -> SnfResult:
    """Diagonalize an integer matrix by unimodular row and column operations.

    Pivots are always chosen with minimal absolute value over the remaining
    submatrix, which keeps intermediate entries small at desk scale.  The
    returned witnesses satisfy u @ a @ v == s exactly.

    The witnesses are reduced in the same array as the matrix: for an m x n
    input, row i < m holds [row i of S | row i of U] and the n rows of V
    follow.  So each row operation updates S and U together, and each column
    operation (on columns below n only) updates S and V together.
    """
    m, n = a.rows, a.cols
    aug = [list(row) + [1 if i == j else 0 for j in range(m)] for i, row in enumerate(a)]
    aug += [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_add(dst, src, q):
        # row dst += q * row src, across S and U
        aug_dst, aug_src = aug[dst], aug[src]
        for j in range(n + m):
            aug_dst[j] += q * aug_src[j]

    def col_add(dst, src, q):
        # column dst += q * column src, down S and V
        for row in aug:
            row[dst] += q * row[src]

    t = 0
    limit = min(m, n)
    while t < limit:
        # minimal-absolute-value nonzero pivot over the working submatrix
        best = None
        for i in range(t, m):
            row = aug[i]
            for j in range(t, n):
                x = row[j]
                if x != 0 and (best is None or abs(x) < best[0]):
                    best = (abs(x), i, j)
        if best is None:
            break
        _, pi, pj = best
        if pi != t:
            aug[t], aug[pi] = aug[pi], aug[t]
        if pj != t:
            for row in aug:
                row[t], row[pj] = row[pj], row[t]
        p = aug[t][t]

        dirty = False
        for i in range(t + 1, m):
            if aug[i][t] != 0:
                row_add(i, t, -_nearest_quotient(aug[i][t], p))
                if aug[i][t] != 0:
                    dirty = True
        for j in range(t + 1, n):
            if aug[t][j] != 0:
                col_add(j, t, -_nearest_quotient(aug[t][j], p))
                if aug[t][j] != 0:
                    dirty = True
        if dirty:
            continue  # leftover remainders are smaller than p; rescan

        # pivot must divide the rest of the submatrix for the divisibility chain
        offender = None
        for i in range(t + 1, m):
            row = aug[i]
            for j in range(t + 1, n):
                if row[j] % p != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            row_add(t, offender, 1)  # drags the bad entry into row t
            continue

        if p < 0:
            aug[t] = [-x for x in aug[t]]
        t += 1

    return SnfResult(
        u=IntMatrix(m, m, [x for row in aug[:m] for x in row[n:]]),
        s=IntMatrix(m, n, [x for row in aug[:m] for x in row[:n]]),
        v=IntMatrix(n, n, [x for row in aug[m:] for x in row]),
        diagonal=tuple(aug[i][i] for i in range(limit)),
    )


# Helpers that the checks need and the library does not: the product that
# checks the SNF witnesses, the group of an SNF diagonal, and P = det(xI - L)
# / x from the Laplacian's characteristic polynomial.


def matmul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    """The product a b."""
    if a.cols != b.rows:
        raise InputError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    columns = list(zip(*b)) if b.rows else [()] * b.cols
    return IntMatrix(a.rows, b.cols, [sum(map(operator.mul, row, col)) for row in a for col in columns])


def from_diagonal(diagonal: Iterable[int]) -> CriticalGroup:
    """Cokernel of a nonsingular integer diagonal matrix, in canonical form;
    a zero entry is an InputError."""
    return CriticalGroup.from_cyclic_orders(map(abs, diagonal))


def divide_by_x(p: IntPoly) -> IntPoly:
    """Exact quotient p / x; a nonzero constant term is an InputError."""
    if p.coefficients and p.coefficients[0]:
        raise InputError("polynomial has a nonzero constant term, not divisible by x")
    return IntPoly(p.coefficients[1:])


# The library's earlier diagonalization mod n: an inverse for every unit
# pivot and an extended gcd for every column step, even where no other row
# is left to use them, and a log of its row operations.  The library skips
# both there and keeps no log, and must leave the pivots and the rows of
# every call with two or more rows as they were, a carried block included.


def diagonalize_mod_xgcd(m: list, n: int, width: int = None) -> tuple:
    """(pivots, log): the pivots of intlinalg._diagonalize_mod for the
    matrix m of residues mod n, given as its rows, which are consumed, and
    its row operations in order, (dst, src, c) for row dst -= c * row src
    and (p, i, s, t, e, f) for rows (p, i) <- (s*p + t*i, e*i - f*p).  Only
    the first width columns (all by default) are diagonalized; row
    operations carry the other columns along, so they can record the
    operations.

    A unit pivot clears its column with its inverse; otherwise the least
    nonzero entry is the pivot, an entry it divides is cleared by plain
    elimination, and any other is merged with it by a 2x2 extended-gcd step,
    by rows in its column and by columns in its row.
    """
    if width is None:
        width = len(m[0]) if m else 0
    log = []

    def combine(dst, src, c):
        m[dst] = [(x - c * y) % n for x, y in zip(m[dst], m[src])]
        log.append((dst, src, c))

    def merge(p, i, s, t, e, f):
        x, y = m[p], m[i]
        m[p] = [(s * v + t * w) % n for v, w in zip(x, y)]
        m[i] = [(e * w - f * v) % n for v, w in zip(x, y)]
        log.append((p, i, s, t, e, f))

    pivots = []
    active = list(range(len(m)))
    while active:
        pivot = next(
            (
                (i, j)
                for i in active
                for j in range(width)
                if m[i][j] and math.gcd(m[i][j], n) == 1
            ),
            None,
        )
        if pivot is not None:
            p, q = pivot
            inv = pow(m[p][q], -1, n)
            active.remove(p)
            for i in active:
                if m[i][q]:
                    combine(i, p, m[i][q] * inv % n)
            pivots.append((p, m[p][q]))
            continue
        entries = [(m[i][j], i, j) for i in active for j in range(width) if m[i][j]]
        if not entries:
            break
        _, p, q = min(entries)
        active.remove(p)
        while True:
            for i in active:
                b = m[i][q]
                if not b:
                    continue
                d = m[p][q]
                if b % d == 0:
                    combine(i, p, b // d)
                else:
                    g, s, t = _xgcd(d, b)
                    merge(p, i, s, t, d // g, b // g)
            d = m[p][q]
            j = next((j for j in range(width) if j != q and m[p][j] % d), None)
            if j is None:
                break
            # column step on (q, j); column q is zero outside row p
            b = m[p][j]
            g, s, t = _xgcd(d, b)
            e, f = d // g, b // g
            for row in [m[i] for i in active] + [m[p]]:
                v, w = row[q], row[j]
                row[q], row[j] = (s * v + t * w) % n, (e * w - f * v) % n
        pivots.append((p, m[p][q]))
    pivots += [(i, 0) for i in active]
    return pivots, log


# The Pic0 kernel with its row witness carried along: every exact row
# operation also updates a sparse row of U, and every row mod tau carries
# the operations done on it as [R | P].  The library keeps no U: it
# replays the exact operations only for factors of order >= 2, and
# it reads the part of the residual whose primes a solve certifies cyclic
# off that solve, finishing only the rest modulo tau2.  Coordinate rows are
# not unique, so the two agree on rows only when no residual block is left;
# both must present the same group, which assert_presents_cokernel checks.


def cokernel_rows_witnessed(rows: dict) -> tuple:
    """Orders and coordinate rows of coker a, for a nonsingular k x k matrix a
    given as sparse rows {i: {j: a_ij}} of its nonzero entries, i and j in
    0..k-1, which are consumed.

    Returns (orders, rows): coker a is the direct sum of Z/o over the orders
    o >= 2, which need not form a divisibility chain, and the class of x has
    coordinates (rows[i] . x) mod orders[i].  No column witness is built.

    First, while some row has an entry d that divides every entry of its
    row and of its column (a +-1 entry always does; d then has the least
    absolute value in its row), multiples of its row clear its column and
    column operations, not tracked, clear its row.  That splits off Z/|d|
    with coordinate row U_p mod |d| and leaves the same cokernel on the
    other rows and columns.  These row operations are tracked exactly in U,
    sparse rows keep the fill low, and the residual block R is small on
    graph Laplacians: a class of twins leaves rows whose entries are
    multiples of one of them, and those split off here.  With
    tau = |det R|, tau * Z^r lies in im R, so coker R is (Z/tau)^r modulo
    the columns of R mod tau.  R is finished mod tau by
    diagonalize_mod_xgcd, whose row operations are tracked in P.  A pivot d
    leaves the factor Z/gcd(d, tau) with coordinate row (P U)_d, and a row
    that is zero mod tau leaves Z/tau.
    """
    k = len(rows)
    cols = {j: set() for j in range(k)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    u_rows = {i: {i: 1} for i in range(k)}

    # shortest row first, then its pivot in the shortest column, ties to
    # the least index; a row is queued again whenever an elimination changes it
    orders, out = [], []
    queue = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(queue)
    while queue:
        length, p = heapq.heappop(queue)
        if p not in rows or len(rows[p]) != length:
            continue
        least = min(map(abs, rows[p].values()))
        if least > 1 and any(x % least for x in rows[p].values()):
            continue
        candidates = [
            j
            for j, x in rows[p].items()
            if abs(x) == least and (least == 1 or all(rows[i][j] % least == 0 for i in cols[j]))
        ]
        if not candidates:
            continue
        q = min(candidates, key=lambda j: (len(cols[j]), j))
        prow, pu = rows.pop(p), u_rows.pop(p)
        pivot = prow.pop(q)
        for j in prow:
            cols[j].discard(p)
        for i in cols.pop(q) - {p}:
            row, u = rows[i], u_rows[i]
            c = row.pop(q) // pivot
            for j, x in prow.items():
                y = row.get(j, 0) - c * x
                if y:
                    if j not in row:
                        cols[j].add(i)
                    row[j] = y
                else:
                    del row[j]
                    cols[j].discard(i)
            for j, x in pu.items():
                y = u.get(j, 0) - c * x
                if y:
                    u[j] = y
                else:
                    del u[j]
            heapq.heappush(queue, (len(row), i))
        if least > 1:  # column operations clear the rest of row p
            orders.append(least)
            out.append(tuple(pu.get(j, 0) % least for j in range(k)))

    left, top = sorted(rows), sorted(cols)
    r = len(left)
    if not r:
        return tuple(orders), tuple(out)
    tau = abs(determinant(IntMatrix(r, r, [rows[i].get(j, 0) for i in left for j in top])))
    # row l is [R_l | P_l], P the row operations done mod tau
    m = [
        [rows[i].get(j, 0) % tau for j in top] + [int(l == c) for c in range(r)]
        for l, i in enumerate(left)
    ]
    pivots, _ = diagonalize_mod_xgcd(m, tau, r)
    pivots = [(p, math.gcd(pivot, tau)) for p, pivot in pivots]

    for p, order in pivots:
        if order == 1:
            continue
        coords = [0] * k  # P_p times the exact U rows of the residual
        for l, c in enumerate(m[p][r:]):
            if c:
                for j, x in u_rows[left[l]].items():
                    coords[j] += c * x
        orders.append(order)
        out.append(tuple(x % order for x in coords))
    return tuple(orders), tuple(out)


# Canonical forms of direct sums of cyclic groups.  The library sweeps the
# orders with (a, b) -> (gcd(a, b), lcm(a, b)); these are two routes that do
# not: the SNF of the diagonal matrix of orders (the library's earlier code),
# and elementary divisors from a factorization of every order.


def assert_presents_cokernel(a: Sequence[Sequence[int]], orders: tuple, rows: tuple):
    """Assert that x -> ((rows[i] . x) mod orders[i]) maps coker a, for a
    nonsingular k x k matrix a given as its rows, isomorphically onto the
    sum of the Z/orders[i]: every order is >= 2, the orders multiply to
    |det a|, every column of a maps to 0, and the images of the unit
    vectors leave no quotient.  Onto plus equal orders makes the map an
    isomorphism."""
    k = len(a)
    assert all(o >= 2 for o in orders)
    assert math.prod(orders) == abs(determinant(IntMatrix(k, k, [x for row in a for x in row])))
    for o, row in zip(orders, rows):
        assert len(row) == k
        assert all(sum(map(operator.mul, row, column)) % o == 0 for column in zip(*a))
    s = len(orders)
    if s:
        images = IntMatrix.from_rows(
            [list(row) + [o * (l == i) for l in range(s)] for i, (o, row) in enumerate(zip(orders, rows))]
        )
        assert all(d == 1 for d in smith_normal_form(images).diagonal)


def from_cyclic_orders(orders: Iterable[int]) -> CriticalGroup:
    """Canonicalize a direct sum of cyclic groups of the given orders."""
    orders = [o for o in orders]
    for o in orders:
        if not isinstance(o, int) or o < 1:
            raise InputError(f"cyclic order {o!r} must be a positive integer")
    if not orders:
        return CriticalGroup(())
    diag = IntMatrix(
        len(orders),
        len(orders),
        [orders[i] if i == j else 0 for i in range(len(orders)) for j in range(len(orders))],
    )
    # the SNF diagonal is already a chain: keep the factors >= 2 and let the
    # constructor check the chain, rather than canonicalize it a second time
    return CriticalGroup(d for d in smith_normal_form(diag).diagonal if d > 1)


def _prime_exponents(n: int) -> dict:
    """{p: e} with n = prod p**e, by trial division."""
    exponents = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            exponents[p] = exponents.get(p, 0) + 1
            n //= p
        p += 1
    if n > 1:
        exponents[n] = exponents.get(n, 0) + 1
    return exponents


def elementary_divisor_group(orders: Iterable[int]) -> CriticalGroup:
    """Canonical group from the elementary divisors of the given orders.

    Z/o splits into Z/p**e over the prime powers p**e exactly dividing o.
    For each prime, its exponents sorted descending fill the invariant
    factors from the largest down.  Trial division makes this practical for
    orders up to about 10**12 or with small prime factors only.
    """
    by_prime = {}
    for o in orders:
        for p, e in _prime_exponents(o).items():
            by_prime.setdefault(p, []).append(e)
    length = max((len(es) for es in by_prime.values()), default=0)
    factors = [1] * length
    for p, es in by_prime.items():
        for i, e in enumerate(sorted(es, reverse=True)):
            factors[length - 1 - i] *= p**e
    return CriticalGroup(factors)


# Divisor-class queries through the witnessed SNF of the full Laplacian and
# through Laplacian-sized augmented matrices.  The library answers the same
# questions from one cached presentation of Pic0; these are the earlier
# implementations, with the SNF no longer cached.


def _full_laplacian_snf(g: Graph):
    return smith_normal_form(laplacian(g))


def _snf_coordinates(g: Graph, d: Sequence[int]) -> list:
    """Pairs (s_i, c_i) with c = U d for the full-Laplacian SNF U L V = S."""
    _require_connected(g)
    snf = _full_laplacian_snf(g)
    c = [sum(x * y for x, y in zip(row, d)) for row in snf.u]
    return list(zip(snf.diagonal, c))


def is_principal(g: Graph, d: Sequence[int]) -> bool:
    """Whether d lies in the image of the Laplacian, i.e. is reachable from
    the zero divisor by chip-firing moves."""
    coeffs = _check_degree_zero(g, d)
    for s_i, c_i in _snf_coordinates(g, coeffs):
        if s_i == 0:
            if c_i != 0:
                return False
        elif c_i % s_i != 0:
            return False
    return True


def class_order(g: Graph, d: Sequence[int]) -> int:
    """Order of the class of d in Pic0(g): the least m with m*d principal."""
    coeffs = _check_degree_zero(g, d)
    order = 1
    for s_i, c_i in _snf_coordinates(g, coeffs):
        if s_i == 0:
            # the zero row of S corresponds to the all-ones left kernel, and
            # c_i is +-degree(d) = 0 after the precondition check
            if c_i != 0:
                raise InputError("divisor class has infinite order")
            continue
        order = math.lcm(order, s_i // math.gcd(s_i, c_i))
    return order


def _reduced_coordinates(d: Sequence[int], remove: int) -> list:
    return [c for v, c in enumerate(d) if v != remove]


def _checked_generators(g: Graph, generators: Iterable[Sequence[int]]) -> list:
    return [_check_degree_zero(g, d) for d in generators]


def quotient_by_classes(g: Graph, generators: Iterable[Sequence[int]]) -> CriticalGroup:
    """Pic0(g) modulo the subgroup generated by the given divisor classes.

    Presented as the cokernel of the reduced Laplacian augmented with the
    generators' reduced coordinate columns.
    """
    gens = _checked_generators(g, generators)
    _require_connected(g)
    remove = 0
    reduced = reduced_laplacian(g, remove)
    columns = [_reduced_coordinates(d, remove) for d in gens]
    rows = [list(row) + [col[i] for col in columns] for i, row in enumerate(reduced)]
    if not rows:  # single-vertex graph: Pic0 is trivial
        return CriticalGroup()
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    return from_diagonal(snf.diagonal)


def subgroup_invariants(g: Graph, generators: Iterable[Sequence[int]]) -> CriticalGroup:
    """Structure of the subgroup of Pic0(g) generated by the given classes.

    The subgroup is Z^r modulo the relation lattice of the generators; the
    lattice is the projection onto the first r coordinates of the kernel of
    [G | Lred], read off the SNF column witness.
    """
    gens = _checked_generators(g, generators)
    _require_connected(g)
    r = len(gens)
    if r == 0:
        return CriticalGroup()
    remove = 0
    reduced = reduced_laplacian(g, remove)
    columns = [_reduced_coordinates(d, remove) for d in gens]
    k = reduced.rows
    if k == 0:  # single-vertex graph: every class is trivial
        return CriticalGroup()
    rows = [[col[i] for col in columns] + list(row) for i, row in enumerate(reduced)]
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    rank = sum(1 for d in snf.diagonal if d != 0)
    # kernel basis of [G | Lred]: columns of V past the rank
    relation_rows = [row[rank:] for row in snf.v.to_rows()[:r]]
    relations = smith_normal_form(IntMatrix.from_rows(relation_rows))
    if any(d == 0 for d in relations.diagonal) or len(relations.diagonal) < r:
        raise AssertionError("relation lattice of finite classes must have full rank")
    return from_diagonal(relations.diagonal)


class _UnionFind:
    def __init__(self, n: int):
        self.parent = list(range(n))

    def find(self, x: int) -> int:
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a: int, b: int) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def brute_force_spanning_trees(g: Graph) -> int:
    """Count spanning trees by enumerating edge subsets of size n-1.

    Deliberately the dumbest correct algorithm; it is the oracle the fast
    matrix-tree path is checked against.
    """
    n = g.vertex_count
    if n > 10:
        raise SizeError(f"brute force is limited to 10 vertices, got {n}")
    edges = g.edge_list()
    count = 0
    for subset in itertools.combinations(edges, n - 1):
        uf = _UnionFind(n)
        if all(uf.union(u, v) for u, v in subset):
            count += 1
    return count


# P(x) and the matrix-tree count by Bareiss on dense matrices, the library's
# earlier route.  The library now builds sparse rows from the adjacency,
# splits off the pivots that divide their row and column exactly, and runs
# Bareiss only on the block left, so it returns |P(x)|.


def restricted_char_value(g: Graph, x: int) -> int:
    """P(x) = det(xI - L) / x for x != 0, with its sign; g may be
    disconnected."""
    rows = [[x * (i == j) - e for j, e in enumerate(row)] for i, row in enumerate(laplacian(g))]
    return determinant(IntMatrix.from_rows(rows)) // x


def spanning_tree_count(g: Graph) -> int:
    """|det Lred| with vertex 0 deleted, for a connected g."""
    _require_connected(g)
    return abs(determinant(reduced_laplacian(g, 0)))


def has_conformity_property(g: Graph, s: Iterable[int]) -> bool:
    """True iff s induces a complete or edgeless subgraph and all members of
    s have identical neighborhoods outside s.

    The direct check of the twin condition, kept for a future twin finder
    that hashes neighbourhoods.
    """
    members = sorted(s)
    if not members:
        raise InputError("conformity set must be nonempty")
    if len(set(members)) != len(members):
        raise InputError("conformity set has duplicate vertices")
    for v in members:
        g._check_vertex(v)
    member_set = set(members)
    inside_edges = sum(
        1 for i, u in enumerate(members) for v in members[i + 1 :] if v in g.neighbors(u)
    )
    m = len(members)
    if inside_edges not in (0, m * (m - 1) // 2):
        return False
    outside = [g.neighbors(v) - member_set for v in members]
    return all(nbhd == outside[0] for nbhd in outside[1:])


# The cone verifiers and the CLI's cone result on the explicit cone, the
# library's earlier route: cone(g, n) is built with all of K_n, and Pic0,
# the subgroup of cone-vertex differences and H_n come from the presentation
# of its reduced Laplacian, P from its whole Laplacian.  The library now
# presents the cone by a (k+1)-square matrix and never builds it.


def cone_groups(g: Graph, n: int) -> tuple:
    """(Pic0, the cone-difference subgroup, H_n) of the built cone(g, n)."""
    coned = cone(g, n)
    generators = cone_difference_divisors(g.vertex_count, n)
    return (
        sandpile.critical_group(coned),
        sandpile.subgroup_invariants(coned, generators),
        sandpile.quotient_by_classes(coned, generators),
    )


def verify_cone_theorem(g: Graph, n: int) -> ConeSequenceReport:
    k = g.vertex_count
    pic0, subgroup, quotient_h = cone_groups(g, n)
    p_at_minus_n = abs(restricted_char_value(g, -n))
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


def verify_tree_bound(g: Graph, n: int) -> TreeBoundReport:
    leaf_count = len(leaves(g))
    coned = cone(g, n)
    h_n = sandpile.quotient_by_classes(coned, cone_difference_divisors(g.vertex_count, n))
    h_generators = len(h_n.invariant_factors)
    return TreeBoundReport(leaf_count, h_generators, h_generators <= leaf_count - 1)


def group_result(g: Graph) -> dict:
    """The result dict of ``chipfire group`` on g, from g itself."""
    group = sandpile.critical_group(g)
    poly = sandpile.char_poly_restricted(g)
    return {
        "vertices": g.vertex_count,
        "edges": g.edge_count,
        "invariant_factors": [_decimal(d) for d in group.invariant_factors],
        "group": str(group),
        "order": _decimal(group.order),
        "spanning_trees": _decimal(abs(poly.coefficients[0]) // g.vertex_count),
        "char_poly": [_decimal(c) for c in poly.coefficients],
        "char_poly_str": str(poly),
    }
