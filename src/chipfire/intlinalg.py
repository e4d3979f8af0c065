"""Exact linear algebra over the integers.

Everything in this module runs on plain Python ints, so there is no
coefficient-size limit and no floating point anywhere.  The two public
workhorses are the Bareiss fraction-free determinant and an exact
characteristic polynomial computed by one Hessenberg reduction modulo 2**e,
where 2**e exceeds twice the bound prod_i (1 + ceil(|row_i|_2)) on every
coefficient.  That bound holds because
the coefficient of x^(m-j) is a signed sum of j x j principal minors and
Hadamard's inequality bounds each of them.  The lane runs on a - sI, with
s = trace // m, whenever that matrix has the narrower bound (on a Laplacian
the diagonal dominates every row), and an exact Taylor shift x -> x - s over
Z takes its polynomial back to det(xI - a).  A symmetric a, such as every
L + nI the Laplacian routes hand over, has real eigenvalues, and for those
two traces give a second bound, S = (1 + (2|p1| + p2)/m)^(m/2) on a - rI
with r the integer nearest trace / m, p1 = trace(a - rI) and p2 the sum of
the squares of the entries of a - rI: each coefficient is +-e_j(mu), the
z^j coefficient of prod_i (1 + mu_i z) over the eigenvalues mu of a - rI,
and on |z| = 1, |1 + mu_i z|^2 = 1 + 2 mu_i cos(t) + mu_i^2, so Cauchy's
estimate and AM-GM bound it by S.  The lane takes the narrowest modulus,
with its own shift, and only symmetric input takes S.  Similarity
transforms and the Hessenberg recurrence are identities over any
commutative ring, and in Z/2**e the pivot of least 2-adic valuation
divides every entry of its column, so the reduction mod 2**e is exact for
every matrix.  Up to a crossover of e, each column is packed into one int
of wide slots, so a row
elimination costs one big-int product per column and the interpreter loops
over columns instead of entries; up to the same crossover, the recurrence
packs each polynomial the same way.  A private kernel presents the cokernel
of a nonsingular matrix: it splits off exactly every pivot that divides its
row and column, and on the block R left it runs one Bareiss pass with two
fixed right-hand sides.  That gives tau = |det R| and two solution rows
y1 and y2; of the candidates y1 and y1 + y2, the row y of smaller
gcd(y, tau) maps coker R onto Z/tau1, tau1 the part of tau prime to that
gcd, so only the rest, of order tau2 = tau / tau1, is finished modulo tau2.
The kernel breaks every tie by row and column index, so its output
depends only on its matrix, not on the key order of its rows.  It keeps no
column witness and no row witness: the finish carries its row transform
beside R mod tau2, and each factor of order >= 2 replays its row through
the exact row operations once.  The finish is one private diagonalization
of a rectangular matrix modulo a given N, which sandpile also runs for the
subgroups and quotients of Pic0.  The kernel's exact stage also gives
|det| of sparse rows, with Bareiss only on the block it leaves: sandpile
takes |P(x)| and the matrix-tree count that way, with no dense matrix.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Sequence

from .errors import InputError

__all__ = [
    "IntMatrix",
    "IntPoly",
    "determinant",
    "char_poly",
    "poly_eval",
]


# ints of at most this many bits have at most 3914 decimal digits, below the
# 4300 that CPython (3.11 and later) converts with str() by default
_STR_BITS = 13_000


def _decimal(x: int) -> str:
    """str(x) for an int of any size: above _STR_BITS bits, the digits are
    split at a power of ten and each half converted on its own."""
    if x.bit_length() <= _STR_BITS:
        return str(x)
    if x < 0:
        return "-" + _decimal(-x)
    k = x.bit_length() * 3 // 20  # about half the digits, log10(2) > 0.3
    high, low = divmod(x, 10**k)
    return _decimal(high) + _decimal(low).zfill(k)


def _list_repr(xs) -> str:
    """repr(list(xs)) for ints of any size."""
    return f"[{', '.join(map(_decimal, xs))}]"


def _check_int(value) -> int:
    if not isinstance(value, int):
        raise InputError(f"expected an integer entry, got {value!r}")
    return value


@dataclass(frozen=True, slots=True)
class IntMatrix:
    """Dense integer matrix, immutable after construction."""

    rows: int
    cols: int
    _data: tuple

    def __init__(self, rows: int, cols: int, entries: Iterable[int]):
        entries = tuple(_check_int(e) for e in entries)
        if not (isinstance(rows, int) and isinstance(cols, int) and rows >= 0 and cols >= 0):
            raise InputError("matrix dimensions must be nonnegative integers")
        if len(entries) != rows * cols:
            raise InputError(
                f"{rows}x{cols} matrix needs {rows * cols} entries, got {len(entries)}"
            )
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(
            self, "_data", tuple(entries[i * cols : (i + 1) * cols] for i in range(rows))
        )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]]) -> "IntMatrix":
        rows = [list(r) for r in rows]
        n_rows = len(rows)
        n_cols = len(rows[0]) if rows else 0
        if any(len(r) != n_cols for r in rows):
            raise InputError("ragged rows")
        return cls(n_rows, n_cols, [e for r in rows for e in r])

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __getitem__(self, ij) -> int:
        i, j = ij
        return self._data[i][j]

    def to_rows(self) -> list:
        """Mutable list-of-lists copy of the entries."""
        return [list(row) for row in self._data]

    def __iter__(self):
        return iter(self._data)

    def __repr__(self):
        if not self.rows:  # from_rows([]) would lose the column count
            return f"IntMatrix(0, {self.cols}, [])"
        return f"IntMatrix.from_rows([{', '.join(map(_list_repr, self._data))}])"


@dataclass(frozen=True, slots=True)
class IntPoly:
    """Integer polynomial stored as ascending coefficients, no trailing zeros."""

    coefficients: tuple

    def __init__(self, coefficients: Iterable[int] = ()):
        coeffs = [_check_int(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        object.__setattr__(self, "coefficients", tuple(coeffs))

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coefficients) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coefficients

    def __repr__(self):
        return f"IntPoly({_list_repr(self.coefficients)})"

    def __str__(self):
        return _poly_str([_decimal(c) for c in self.coefficients])


def _poly_str(digits: Sequence[str]) -> str:
    """The text of a polynomial, highest power first, from the decimal
    strings of its ascending coefficients, the last one nonzero."""
    terms = []
    for power in range(len(digits) - 1, -1, -1):
        d = digits[power]
        if d == "0":
            continue
        negative = d[0] == "-"
        body = d[1:] if negative else d
        if power:
            x = "x" if power == 1 else f"x^{power}"
            body = x if body == "1" else f"{body}*{x}"
        if terms:
            terms.append(f" - {body}" if negative else f" + {body}")
        else:
            terms.append(f"-{body}" if negative else body)
    return "".join(terms) or "0"


def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with g = gcd(a, b) = s*a + t*b, for a, b > 0."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return a, s0, t0


def _replay_exact(start: dict, sources: list, popped: list, order: int) -> tuple:
    """The row y E_t ... E_1 mod order, y = start as {row: coefficient} and
    E_1 .. E_t the exact row operations: sources[j] lists (i, c) for each
    row j -= c * row i, and every i is in popped.

    A row is a source only after every operation that changed it, when it
    is popped, so walking popped backwards from the rows of start, which
    come last, each row of y is final when reached and passes it on as
    y[i] -= c * y[j].
    """
    y = [0] * len(sources)
    for j, c in start.items():
        y[j] = c
    for j in reversed(popped):
        if y[j]:
            v = y[j] = y[j] % order
            for i, c in sources[j]:
                y[i] -= c * v
    return tuple(y)


def _diagonalize_mod(m: list, n: int, width: int = None) -> list:
    """Diagonalize the first width columns (all by default) of the matrix m
    of residues mod n, given as its rows, by row operations invertible mod
    n and column operations (not tracked) among those columns.  The rows
    are consumed; row operations carry the other columns along, so a block
    that starts as the identity ends holding the row transform.

    A unit pivot clears its column with its inverse, which is computed only
    when some active row has a nonzero entry there; otherwise the least
    nonzero entry is the pivot, an entry it divides is cleared by plain
    elimination, and any other is merged with it by a 2x2 extended-gcd step,
    by rows in its column and by columns in its row.  A column step on the
    last active row, with no other row to carry along, only sets the pair
    (d, b) to (gcd(d, b) mod n, 0).  Each step leaves a smaller pivot, so
    the loop ends.  Once a pivot's row and column are done, its other
    entries are multiples of it, which column operations would clear
    without touching another row, so the finished rows are left as they
    are.  Column steps alone diagonalize a single row, so one row gives the
    pivot gcd(row) mod n and no row operation.

    Returns pivots: (row, pivot) for every row, in the order the rows were
    finished, with pivot 0 for a row that ends zero mod n: the cokernel of
    m over Z/n is isomorphic to the sum of the Z/gcd(pivot, n), and its
    column span to the sum of the pivot * Z/n.  A pivot matters only up to
    a unit mod n, through gcd(pivot, n).
    """
    if width is None:
        width = len(m[0]) if m else 0
    if len(m) == 1:
        return [(0, math.gcd(*m[0][:width]) % n)]

    def combine(dst, src, c):
        m[dst] = [(x - c * y) % n for x, y in zip(m[dst], m[src])]

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
            active.remove(p)
            below = [i for i in active if m[i][q]]
            if below:
                inv = pow(m[p][q], -1, n)
                for i in below:
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
                else:  # rows (p, i) <- (s*p + t*i, e*i - f*p)
                    g, s, t = _xgcd(d, b)
                    e, f = d // g, b // g
                    x, y = m[p], m[i]
                    m[p] = [(s * v + t * w) % n for v, w in zip(x, y)]
                    m[i] = [(e * w - f * v) % n for v, w in zip(x, y)]
            d = m[p][q]
            j = next((j for j in range(width) if j != q and m[p][j] % d), None)
            if j is None:
                break
            # column step on (q, j); column q is zero outside row p
            b = m[p][j]
            if not active:
                m[p][q], m[p][j] = math.gcd(d, b) % n, 0
                continue
            g, s, t = _xgcd(d, b)
            e, f = d // g, b // g
            for row in [m[i] for i in active] + [m[p]]:
                v, w = row[q], row[j]
                row[q], row[j] = (s * v + t * w) % n, (e * w - f * v) % n
        pivots.append((p, m[p][q]))
    pivots += [(i, 0) for i in active]
    return pivots


def _split_exact(rows: dict) -> tuple:
    """The exact stage of the cokernel kernel, on a k x k matrix a given as
    sparse rows {i: {j: a_ij}} of its nonzero entries, i and j in 0..k-1,
    which are consumed.

    While some row has an entry d that divides every entry of its row and
    of its column (a +-1 entry always does; d then has the least absolute
    value in its row), multiples of its row clear its column and column
    operations, not tracked, clear its row.  That splits off Z/|d| and
    leaves the same cokernel on the other rows and columns, and it takes
    the factor |d| out of |det a|.  Sparse rows keep the fill low: shortest
    row first, then its pivot in the shortest column, and a row is queued
    again whenever an elimination changes it.  Ties go to the least row
    and then the least column index, so the result depends only on a, not
    on the order of the keys.

    Returns (pivots, sources, residual).  pivots lists (p, |d|) for each row
    p split off, in order; sources[i] lists (p, c) for each row operation
    row i -= c * row p, in order; residual is R as {i: dense row i of R}
    over the rows left and the columns left, both in ascending order.  A
    row that ends zero is listed with pivot 0, and the stage stops there
    with no residual: a is singular.
    """
    k = len(rows)
    cols = {j: set() for j in range(k)}
    for i, row in rows.items():
        for j in row:
            cols[j].add(i)
    sources = [[] for _ in range(k)]
    pivots = []
    queue = [(len(row), i) for i, row in rows.items()]
    heapq.heapify(queue)
    while queue:
        length, p = heapq.heappop(queue)
        if p not in rows or len(rows[p]) != length:
            continue
        if not length:
            pivots.append((p, 0))
            return pivots, sources, {}
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
        prow = rows.pop(p)
        pivot = prow.pop(q)
        for j in prow:
            cols[j].discard(p)
        pivots.append((p, least))
        for i in cols.pop(q) - {p}:
            row = rows[i]
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
            sources[i].append((p, c))
            heapq.heappush(queue, (len(row), i))
    top = sorted(cols)
    return pivots, sources, {i: [rows[i].get(j, 0) for j in top] for i in sorted(rows)}


def _abs_determinant(rows: dict) -> int:
    """|det a| for a square matrix a given as sparse rows, as _split_exact
    takes them, which are consumed: the product of the pivots the exact
    stage splits off times |det R| of the residual block R by Bareiss, and
    0 for a singular a."""
    pivots, _, residual = _split_exact(rows)
    product = math.prod(d for _, d in pivots)
    if product and residual:
        product *= abs(_solve_rows(list(residual.values()))[0])
    return product


def _cokernel_rows(rows: dict) -> tuple:
    """Orders and coordinate rows of coker a, for a nonsingular k x k matrix a
    given as sparse rows {i: {j: a_ij}} of its nonzero entries, i and j in
    0..k-1, which are consumed.  The result depends only on a.

    Returns (orders, rows): coker a is the direct sum of Z/o over the orders
    o >= 2, which need not form a divisibility chain, and the class of x has
    coordinates (rows[i] . x) mod orders[i].  No column witness is built,
    and no row witness either: each factor of order >= 2 takes its row back
    through the exact row operations once.

    First the exact stage, _split_exact, splits off Z/|d| for every pivot d
    that divides its row and its column.  The residual block R, r x r, is
    small on graph Laplacians: a class of twins leaves rows whose entries
    are multiples of one of them, and those split off there.

    One Bareiss pass on [R^T | c_1 c_2], c_1 and c_2 two fixed columns of
    small integers, gives D = +-tau, tau = |det R| = |coker R|, and by
    fraction-free back substitution integer rows y_i with y_i R = D c_i^T
    (the way Eberly, Giesbrecht and Villard read the largest invariant
    factor off solves).  So y_1 and y_1 + y_2 both map the columns of R to
    0 mod tau, and the one of least g = gcd(y, tau) is kept, y_1 on a tie.
    tau = tau1 * tau2, where repeated gcds divide every prime of g out of
    tau to leave tau1; nothing is factored.
    - x -> y . x mod tau1 kills the columns of R and is onto Z/tau1, since
      g is prime to tau1, and the tau1-primary part of coker R has order
      tau1: that part is Z/tau1, with coordinate row y.
    - The tau2-primary part is coker R / tau2 coker R, the cokernel of
      R mod tau2 over Z/tau2, and _diagonalize_mod finishes it on
      [R mod tau2 | I_r], whose identity block ends holding the row
      transform P: a pivot d on row p leaves Z/gcd(d, tau2) with row P_p,
      and a row that is zero mod tau2 leaves Z/tau2.  When y is a unit
      mod tau, as it usually is for a cyclic coker R, tau2 = 1 and no
      finish runs.
    tau1 and tau2 are coprime, so Z/tau1 joins the finish's largest factor
    Z/o as Z/(tau1 * o) by CRT, and the split adds no factor.

    Each factor is (order, start), start its row as {row: coefficient}
    before the exact row operations E_1 .. E_t: e_p for the factor split
    off at row p, its row over R for a factor of R.  Its coordinate row,
    start E_t ... E_1 mod its order, is replayed by _replay_exact.
    """
    pivots, sources, block = _split_exact(rows)
    # column operations cleared the rest of each pivot row p
    factors = [(least, {p: 1}) for p, least in pivots if least > 1]
    left = list(block)
    r = len(left)
    if r:
        # R^T y_i = D c_i, so y_i R = D c_i^T with D = +-tau
        fixed = _fixed_columns(r)
        det, (y1, y2) = _solve_rows(
            [list(column) + [c[l] for c in fixed] for l, column in enumerate(zip(*block.values()))]
        )
        tau = abs(det)
        y, g = y1, math.gcd(tau, *y1)
        if g > 1:
            y12 = [a + b for a, b in zip(y1, y2)]
            h = math.gcd(tau, *y12)
            if h < g:
                y, g = y12, h
        # tau = tau1 * tau2, tau1 prime to g: y is onto Z/tau1
        tau1 = tau
        d = math.gcd(tau1, g)
        while d > 1:
            tau1 //= d
            d = math.gcd(tau1, d)
        tau2 = tau // tau1
        residual = []  # (order, coordinate row over the residual rows)
        if tau2 > 1:
            m = [
                [x % tau2 for x in row] + [int(l == c) for c in range(r)]
                for l, row in enumerate(block.values())
            ]
            for p, pivot in _diagonalize_mod(m, tau2, r):
                order = math.gcd(pivot, tau2)
                if order > 1:
                    residual.append((order, [c % order for c in m[p][r:]]))
        if tau1 > 1:
            if residual:  # Z/tau1 x Z/o = Z/(tau1 * o), o the largest order
                i = max(range(len(residual)), key=lambda k: residual[k][0])
                o, z = residual[i]
                u, v = o * pow(o, -1, tau1), tau1 * pow(tau1, -1, o)
                residual[i] = (o * tau1, [a * u + b * v for a, b in zip(y, z)])
            else:
                residual.append((tau1, y))
        factors += [(o, {left[l]: c for l, c in enumerate(z) if c % o}) for o, z in residual]
    # the rows in the order they were split off, then the residual rows,
    # which no exact operation has as its source; a row split off after p
    # passes nothing back to p, so one replay serves every factor
    popped = [p for p, _ in pivots] + left
    orders = tuple(order for order, _ in factors)
    return orders, tuple(_replay_exact(start, sources, popped, order) for order, start in factors)


def _fixed_columns(r: int) -> tuple:
    """Two columns of r integers in -9..9, the same on every call: the
    right-hand sides of the residual's solve."""
    x, columns = 1, ([], [])
    for _ in range(r):
        for column in columns:
            x = (x * 1103515245 + 12345) & 0x7FFFFFFF
            column.append((x >> 16) % 19 - 9)
    return columns


def determinant(a: IntMatrix) -> int:
    """Exact determinant by Bareiss fraction-free elimination.

    All intermediate divisions are exact, so no rationals appear.  The empty
    0x0 matrix has determinant 1.
    """
    if not a.is_square:
        raise InputError(f"determinant needs a square matrix, got {a.rows}x{a.cols}")
    return _solve_rows(a.to_rows())[0]


def _solve_rows(m: list) -> tuple:
    """Bareiss on [A | b_1 ... b_t], given as its n rows of n + t entries,
    which are consumed: (det A, [x_1, ..., x_t]) with A x_i = det(A) b_i,
    integer columns, or (0, []) for a singular A.

    Row k of the eliminated matrix U holds (k+1) x (k+1) minors, and its
    last diagonal entry is +-det A.  Each row of U is a combination of rows
    of [A | b], so U x = (det A) u_b holds for the column u_b of U that b
    became, and x_i = ((det A) u_bi - sum_(j>i) U_ij x_j) / U_ii is exact
    back to front, since every x_i is an integer by Cramer's rule.
    """
    if not m:
        return 1, []
    n, width = len(m), len(m[0])
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot_row = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if pivot_row is None:
                return 0, []
            m[k], m[pivot_row] = m[pivot_row], m[k]
            sign = -sign
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i, row_k = m[i], m[k]
            head = row_i[k]
            for j in range(k + 1, width):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
        prev = pivot
    det = sign * m[n - 1][n - 1]
    if not det:
        return 0, []
    solutions = []
    for b in range(n, width):
        x = [0] * n
        for i in range(n - 1, -1, -1):
            row = m[i]
            x[i] = (det * row[b] - sum(row[j] * x[j] for j in range(i + 1, n))) // row[i]
        solutions.append(x)
    return det, solutions


# Moduli of at most this many bits take the packed Hessenberg reduction and
# recurrence, wider ones the scalar pair (see char_poly for the measurements).
_PACKED_MAX_BITS = 300


def _hessenberg_scalar(rows: list, e: int) -> list:
    """Hessenberg band of a mod 2**e, a given as its rows, one int per entry.

    band[c] holds the rows 0..c+1 of column c of H (fewer in the last
    column); the entries below the band are zero mod 2**e.
    """
    mask = (1 << e) - 1
    m = len(rows)
    h = [[x & mask for x in row] for row in rows]
    # reduce to upper Hessenberg form by similarity transforms; the pivot of
    # least 2-adic valuation v divides every entry below it mod 2**e
    for j in range(m - 2):
        pivot = min(
            (i for i in range(j + 1, m) if h[i][j]),
            key=lambda i: h[i][j] & -h[i][j],
            default=None,
        )
        if pivot is None:
            continue
        k = j + 1
        if pivot != k:
            h[pivot], h[k] = h[k], h[pivot]
            for row in h:
                row[pivot], row[k] = row[k], row[pivot]
        a = h[k][j]
        v = (a & -a).bit_length() - 1
        inv = pow(a >> v, -1, 1 << e)
        tail = h[k][j:]
        multipliers = []
        for i in range(k + 1, m):
            b = h[i][j]
            if b:
                u = (b >> v) * inv & mask
                h[i][j:] = [(x - u * y) & mask for x, y in zip(h[i][j:], tail)]
                multipliers.append((i, u))
        if multipliers:
            # the inverse column operations, all folded into column k
            for row in h:
                row[k] = (row[k] + sum(u * row[i] for i, u in multipliers)) & mask
    return [[h[r][c] for r in range(min(c + 2, m))] for c in range(m)]


def _hessenberg_packed(rows: list, e: int) -> list:
    """The band of _hessenberg_scalar, the same pivots and entries, with each
    column of a packed into one int.

    Slot s of a column, bits w*s .. w*s + w - 1, holds one entry mod 2**e;
    pos[r] is the slot of row r, so a row swap only swaps two slot numbers.
    Before each mask every slot is below 2**e + m * 2**(2e) <= 2**w, so no
    carry crosses a slot and each masked slot is the scalar entry.
    """
    mask = (1 << e) - 1
    m = len(rows)
    size = (2 * e + m.bit_length() + 8) // 8  # bytes per slot, w = 8 * size
    w = 8 * size
    ones = int.from_bytes((1).to_bytes(size, "little") * m, "little")
    masks = mask * ones
    # row r starts in slot m-1-r, so the rows still to be eliminated mostly
    # sit in the low slots and the multiplier column stays short
    encoded = {x: (x & mask).to_bytes(size, "little") for x in set(chain.from_iterable(rows))}
    cols = [int.from_bytes(b"".join(map(encoded.__getitem__, column)), "little") for column in zip(*reversed(rows))]
    pos = list(range(m - 1, -1, -1))
    below = masks  # the slots of rows j+1 .. m-1 at step j
    for j in range(m - 2):
        below ^= mask << w * pos[j]
        column = cols[j] & below
        if not column:
            continue
        # the least valuation v of the column, and the first row that has it
        v = 0
        while not column & ones << v:
            v += 1
        lowest = column >> v & ones
        k = j + 1
        pivot = next(r for r in range(k, m) if lowest >> w * pos[r] & 1)
        if pivot != k:
            pos[pivot], pos[k] = pos[k], pos[pivot]
            cols[pivot], cols[k] = cols[k], cols[pivot]
        shift = w * pos[k]
        a = column >> shift & mask
        rest = column ^ a << shift
        if not rest:
            continue
        # u_i = (b_i >> v) / (a >> v) in the slot of each row i, all at once
        units = (rest >> v & masks) * pow(a >> v, -1, 1 << e) & masks
        negated = (masks + ones - units) & masks
        # row i -= u_i * row k for every row i below k, one product per column
        for c in range(j, m):
            s = cols[c] >> shift & mask
            if s:
                cols[c] = (cols[c] + s * negated) & masks
        # the inverse column operations, all folded into column k
        multipliers = ((i, units >> w * pos[i] & mask) for i in range(k + 1, m))
        cols[k] = (cols[k] + sum(u * cols[i] for i, u in multipliers if u)) & masks
    shifts = [w * p for p in pos]
    return [[column >> t & mask for t in shifts[: c + 2]] for c, column in enumerate(cols)]


def _recurrence_factors(band: list, k: int, mask: int):
    """(i, f_i mod 2**e) for the nonzero terms f_i * P_i that step k of the
    recurrence subtracts, f_i = h_ik * h_(k,k-1) * ... * h_(i+1,i)."""
    column = band[k]
    # rows above the first nonzero entry of column k add nothing
    first = next((i for i in range(k) if column[i]), k)
    product = 1  # h[k][k-1] * ... * h[i+1][i]
    for i in range(k - 1, first - 1, -1):
        product = product * band[i][i + 1] & mask
        if not product:
            return
        factor = column[i] * product & mask
        if factor:
            yield i, factor


def _recurrence_scalar(band: list, e: int) -> list:
    """Ascending coefficients of det(xI - H) mod 2**e, H given by its band,
    one int per coefficient."""
    mask = (1 << e) - 1
    # polys[k] = det(xI - H_k) for the leading k x k block of H
    polys = [[1]]
    for k, column in enumerate(band):
        prev = polys[k]
        diag = column[k]
        current = [0] + prev  # x * prev, reduced mod 2**e once at the end
        for i, c in enumerate(prev):
            current[i] -= diag * c
        for i, factor in _recurrence_factors(band, k, mask):
            for d, c in enumerate(polys[i]):
                current[d] -= factor * c
        polys.append([c & mask for c in current])
    return polys[-1]


def _recurrence_packed(band: list, e: int) -> list:
    """The coefficients of _recurrence_scalar, with each det(xI - H_k)
    packed into one int, coefficient d mod 2**e in slot d.

    The slots are as wide as _hessenberg_packed's, and before the mask each
    slot is below 2**e + m * 2**(2e) <= 2**w, so no carry crosses a slot.
    """
    mask = (1 << e) - 1
    m = len(band)
    size = (2 * e + m.bit_length() + 8) // 8  # bytes per slot, w = 8 * size
    w = 8 * size
    masks = int.from_bytes(mask.to_bytes(size, "little") * (m + 1), "little")
    polys = [1]
    for k, column in enumerate(band):
        prev = polys[k]
        current = (prev << w) + (-column[k] & mask) * prev  # (x - h_kk) * P_k
        for i, factor in _recurrence_factors(band, k, mask):
            current += (-factor & mask) * polys[i]
        polys.append(current & masks)
    packed = polys[-1].to_bytes((m + 1) * size, "little")
    return [int.from_bytes(packed[d * size : (d + 1) * size], "little") for d in range(m + 1)]


def _char_poly_mod(rows: list, e: int) -> list:
    """Ascending coefficients of det(xI - a) mod 2**e, a given as its rows:
    the packed reduction and recurrence for e <= _PACKED_MAX_BITS, the
    scalar pair above it."""
    if e <= _PACKED_MAX_BITS:
        return _recurrence_packed(_hessenberg_packed(rows, e), e)
    return _recurrence_scalar(_hessenberg_scalar(rows, e), e)


def char_poly(a: IntMatrix) -> IntPoly:
    """Monic characteristic polynomial det(xI - a) with integer coefficients.

    One lane modulo 2**e: a is reduced to upper Hessenberg form H by
    similarity, and det(xI - H) follows from the O(m^3) Hessenberg
    recurrence.  Both are identities over any commutative ring; eliminating
    below a pivot needs only that the pivot divide its column.  In Z/2**e
    the ideals form a chain, so the entry of least 2-adic valuation v
    divides the others: an entry b has the multiplier (b >> v) times the
    inverse of the pivot's odd part.  The lane is exact for every matrix.

    e is the bit length of 2B with B = prod_i (1 + ceil(|row_i|_2)).  The
    coefficient of x^(m-j) is +-(sum of the j x j principal minors), each
    at most the product of its rows' norms by Hadamard's inequality, so
    every coefficient is at most e_j(row norms) <= B < 2**(e-1), and the
    symmetric residues modulo 2**e are the exact coefficients.

    The argument holds for any integer matrix, so the lane may run on
    a - sI instead, with s = trace // m (floor division; s = 0 for m = 0):
    det(xI - a) = det((x - s)I - (a - sI)), so with Q(y) = det(yI - (a - sI))
    from the lane, P(x) = Q(x - s) follows from an exact Taylor shift over Z,
    m(m + 1)/2 updates q_j -= s * q_(j+1).  The bound B' of a - sI differs
    from B only in the diagonal term of each row's sum of squares, so it
    costs O(m) more, and the lane takes a - sI only when the bit length of
    2B' is below e, so no matrix gets a wider modulus.  On a Laplacian the
    diagonal dominates: row v has norm sqrt(d_v^2 + d_v), and about
    sqrt(d_v) after subtracting the mean degree, so dense G(40, 0.3) goes
    from about 150 to 102 bits and a cycle from 2m + 2 to about 1.59m.

    A symmetric a has real eigenvalues, and for those two traces bound the
    coefficients more tightly.  With r the integer nearest trace / m,
    p1 = trace - m r and p2 = trace((a - rI)^2), the sum of the squares of
    the entries of a - rI, every coefficient of det(yI - (a - rI)) is at
    most S = (1 + (2|p1| + p2)/m)^(m/2):
    - it is +-e_j(mu) for the real eigenvalues mu of a - rI, the z^j
      coefficient of prod_i (1 + mu_i z);
    - on |z| = 1, |1 + mu_i z|^2 = 1 + 2 mu_i cos(t) + mu_i^2, so Cauchy's
      estimate and AM-GM bound it by S.
    The coefficients are integers, so each is at most
    isqrt(ceil(N^m / m^m)) with N = m + 2|p1| + p2, and the lane runs on
    a - rI when that modulus is narrower than the one above.  Checking
    that row i equals column i costs O(m^2) comparisons, and a matrix that
    is not symmetric keeps the Hadamard modulus.  Every L + nI that the
    Laplacian routes hand over is symmetric: dense G(40, 0.3) goes from
    about 102 to 89 bits, the sparse 40-vertex trees plus 4 chords from 69
    to 49, and a cycle or a path from about 1.59m to 0.79m.  A star keeps
    the Hadamard modulus, since its hub's eigenvalue m sits far from the
    mean degree.  Below, e is always the modulus the lanes receive, the
    narrowest one; the e in the two tables are the moduli the centered
    Hadamard bound gave those inputs before S was added.

    The reduction runs in one of two forms with the same pivots and the
    same entries.  For e <= _PACKED_MAX_BITS, column c is one int C_c of m
    slots of w = 8 * ceil((2e + bitlen(m) + 1) / 8) bits, one entry mod 2**e
    per slot.  With U holding -u_i mod 2**e in the slot of each row i below
    the pivot row k, all the row eliminations of a step are
    C_c = (C_c + a_kc * U) & MASKS, one product per column, and the inverse
    column operation is C_k = (C_k + sum_i u_i * C_i) & MASKS.  Before a
    mask a slot is below 2**e + m * 2**(2e) <= 2**w, so no carry crosses
    into the next slot.  Rows are swapped through a slot permutation, and
    only the band that the recurrence reads is unpacked.  So a step costs
    O(m) big-int operations instead of O(m^2) interpreted ones, but its
    products do twice the digit work of the scalar form (the slots are 2e
    bits wide), so wider moduli keep one int per entry.  The reductions
    alone on centered Laplacians, scalar time / packed time, best of 5
    alternating runs (Python 3.11, shared 2-vCPU guest); trees are random
    recursive trees:

        G(82, 0.3) plus a path       e = 244   1.97
        G(90, 0.3) plus a path       e = 272   1.84
        G(100, 0.3) plus a path      e = 302   1.46
        G(105, 0.3) plus a path      e = 323   1.30
        G(115, 0.3) plus a path      e = 364   1.19
        G(125, 0.3) plus a path      e = 403   1.06
        tree + 14 chords, 148        e = 252   1.37
        tree + 16 chords, 164        e = 278   1.33
        tree + 18 chords, 180        e = 305   1.06
        tree + 20 chords, 200        e = 338   1.06
        tree + 22 chords, 220        e = 370   0.87
        tree, 180                    e = 264   1.06
        tree, 200                    e = 293   1.11
        tree, 220                    e = 326   1.00
        tree, 250                    e = 367   0.82
        path, 190                    e = 301   0.47 (7 ms scalar)

    A path is already in Hessenberg form, so its scalar reduction only
    scans, and the packed one loses a few ms there.  Centering lets a
    dense matrix reach the same e only at a larger m, where the packed form
    saves more interpreted steps: dense ones won up to 403 bits, but trees
    broke even from about 305 bits on and lost from 367, so the crossover
    stays at 300 bits.

    The recurrence P_(k+1) = (x - h_kk) P_k - sum_(i<k) f_i P_i, with
    P_k = det(xI - H_k) for the leading k x k block and f_i = h_ik *
    h_(k,k-1) * ... * h_(i+1,i), is packed the same way, and below the
    same crossover: P_k is one int with coefficient d mod 2**e in slot d,
    of the reduction's width w, and a step is
    (P_k << w) + (-h_kk mod 2**e) * P_k + sum_i (-f_i mod 2**e) * P_i,
    masked once: one product per pair (k, i) instead of i + 1.  Only the
    last polynomial is unpacked.  The recurrence alone on the bands of
    centered Laplacians, scalar time / packed time, best of 5 alternating
    runs (same guest):

        star, 135                    e = 143   2.46
        star, 240                    e = 248   2.26
        star, 270                    e = 279   2.04
        path, 90                     e = 143   1.80
        path, 120                    e = 191   1.36
        path, 152                    e = 241   0.97
        path, 170                    e = 270   0.89
        path, 188                    e = 298   0.79 (6 ms scalar)
        tree, 180                    e = 265   1.19 (87 ms scalar)
        tree, 200                    e = 295   1.16 (163 ms scalar)
        tree + 14 chords, 148        e = 250   1.27
        tree + 16 chords, 164        e = 276   1.27 (113 ms scalar)
        G(86, 0.3) plus a path       e = 254   1.24
        G(90, 0.3) plus a path       e = 272   1.37
        G(96, 0.3) plus a path       e = 291   1.17

    A path's band costs the scalar form about 2k multiply-adds per step,
    and there the packed products, twice as wide, lose a few ms from about
    240 bits on, as they do in the reduction; every band that fills in
    wins up to 300 bits, by tens of ms on trees, so both lanes switch at
    the one crossover.
    """
    if not a.is_square:
        raise InputError(f"char_poly needs a square matrix, got {a.rows}x{a.cols}")
    return _char_poly_rows(a.to_rows())


def _ceil_norm(squares: int) -> int:
    """ceil(sqrt(squares)) for a sum of squares >= 0."""
    return math.isqrt(squares - 1) + 1 if squares else 0


def _char_poly_rows(rows: list) -> IntPoly:
    """char_poly of the square matrix given as its rows, which are consumed.

    Up to three moduli, the narrowest taken, ties to the earlier: the
    Hadamard bound B of a; with s = trace // m, the bound B' of a - sI,
    which differs from B only in the diagonal term of each row's sum of
    squares; and for a symmetric a, whose eigenvalues are real, the bound
    S of a - rI, r the integer nearest trace / m.  The lane runs on a
    minus the chosen shift, and P(x) = Q(x - shift) follows from a Taylor
    shift over Z.

    S is (1 + (2|p1| + p2)/m)^(m/2) with p1 = trace(a - rI) and
    p2 = trace((a - rI)^2), for a symmetric a the sum of the squares of
    the entries of a - rI.  Each coefficient of det(yI - (a - rI)) is
    +-e_j(mu), the z^j coefficient of prod_i (1 + mu_i z) over the real
    eigenvalues mu of a - rI, and on |z| = 1,
    |1 + mu_i z|^2 = 1 + 2 mu_i cos(t) + mu_i^2, so Cauchy's estimate and
    AM-GM bound it by S.  The coefficients are integers, so each is at most
    isqrt(ceil(N^m / m^m)) with N = m + 2|p1| + p2.  A matrix that is not
    symmetric never takes S.
    """
    m = len(rows)
    trace = sum(row[i] for i, row in enumerate(rows))
    s = trace // m if m else 0
    symmetric = m and all(tuple(row) == column for row, column in zip(rows, zip(*rows)))
    bound = centered = 1
    total = 0  # the sum of the squares of all entries
    for i, row in enumerate(rows):
        squares = sum(x * x for x in row)
        total += squares
        d = row[i]
        bound *= 1 + _ceil_norm(squares)
        centered *= 1 + _ceil_norm(squares - d * d + (d - s) * (d - s))
    e, narrower = (2 * bound).bit_length(), (2 * centered).bit_length()
    if narrower < e:
        e = narrower
    else:
        s = 0
    if symmetric:
        r = (2 * trace + m) // (2 * m)
        p1 = trace - m * r
        p2 = total - 2 * r * trace + m * r * r  # (d - r)^2 in place of each d^2
        n = m + 2 * abs(p1) + p2
        real = (2 * math.isqrt(-(-(n**m) // m**m))).bit_length()
        if real < e:
            e, s = real, r
    if s:
        for i, row in enumerate(rows):
            row[i] -= s
    modulus = 1 << e
    q = [c - modulus if 2 * c >= modulus else c for c in _char_poly_mod(rows, e)]
    if s:  # q(y) = det(yI - (a - sI)); P(x) = q(x - s)
        for i in range(m):
            c = q[m]
            for j in range(m - 1, i - 1, -1):
                c = q[j] = q[j] - s * c
    return IntPoly(q)


def poly_eval(p: IntPoly, x: int) -> int:
    """Evaluate at an integer point by Horner's rule."""
    _check_int(x)
    acc = 0
    for c in reversed(p.coefficients):
        acc = acc * x + c
    return acc
