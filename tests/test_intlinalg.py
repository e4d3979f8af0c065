"""Tests for the exact integer linear algebra kernel."""

import contextlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from oracles import smith_normal_form
from chipfire import (
    CriticalGroup,
    Graph,
    InputError,
    IntMatrix,
    IntPoly,
    char_poly,
    complete,
    cone,
    cycle,
    determinant,
    intlinalg,
    laplacian,
    path,
    poly_eval,
    random_connected_graph,
    reduced_laplacian,
    sandpile,
)


def cofactor_determinant(rows):
    """Naive cofactor expansion, the independent determinant oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1 :] for row in rows[1:]]
        term = rows[0][j] * cofactor_determinant(minor)
        total += term if j % 2 == 0 else -term
    return total


small_entries = st.integers(min_value=-9, max_value=9)


def matrices(max_rows=6, max_cols=6, min_rows=0, min_cols=0):
    return st.tuples(
        st.integers(min_value=min_rows, max_value=max_rows),
        st.integers(min_value=min_cols, max_value=max_cols),
    ).flatmap(
        lambda rc: st.lists(
            small_entries, min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]
        ).map(lambda entries: IntMatrix(rc[0], rc[1], entries))
    )


class TestIntMatrix:
    def test_entry_count_validation(self):
        with pytest.raises(InputError):
            IntMatrix(2, 2, [1, 2, 3])
        with pytest.raises(InputError):
            IntMatrix(-1, 0, [])

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            IntMatrix(1, 1, [1.0])

    def test_ragged_rows_rejected(self):
        with pytest.raises(InputError):
            IntMatrix.from_rows([[1, 2], [3]])

    # the product of the SNF witness checks: IntMatrix has none
    def test_matmul_and_identity(self):
        a = IntMatrix.from_rows([[1, 2], [3, 4]])
        one = IntMatrix.from_rows([[1, 0], [0, 1]])
        assert oracles.matmul(one, a) == a
        assert oracles.matmul(a, one) == a

    def test_matmul_shapes(self):
        a = IntMatrix.from_rows([[1, 2, 3]])
        b = IntMatrix.from_rows([[1], [0], [-1]])
        assert oracles.matmul(a, b) == IntMatrix.from_rows([[-2]])
        assert oracles.matmul(IntMatrix(2, 0, []), IntMatrix(0, 3, [])) == IntMatrix(2, 3, [0] * 6)
        with pytest.raises(InputError):
            oracles.matmul(b, b)

    def test_immutability(self):
        a = IntMatrix.from_rows([[1, 0], [0, 1]])
        with pytest.raises(AttributeError):
            a.rows = 5


class TestIntPoly:
    def test_trailing_zeros_stripped(self):
        assert IntPoly([1, 2, 0, 0]) == IntPoly([1, 2])

    def test_zero_polynomial(self):
        p = IntPoly([0, 0])
        assert p.is_zero and p.degree == -1 and str(p) == "0"

    def test_str(self):
        assert str(IntPoly([0, -2, 1])) == "x^2 - 2*x"
        assert str(IntPoly([1])) == "1"
        assert str(IntPoly([-330, 595, -396, 123, -18, 1])).startswith("x^5 - 18*x^4")

    def test_rejects_floats(self):
        with pytest.raises(InputError):
            IntPoly([0.5])

    def test_rejects_bools(self):
        for build in (lambda: IntPoly([True, 1]), lambda: IntMatrix(1, 1, [False])):
            with pytest.raises(InputError):
                build()
        with pytest.raises(InputError):
            poly_eval(IntPoly([0, 1]), True)


def decimal_by_chunks(x):
    """str(x), built from 1000-digit chunks split off its low end."""
    sign, x = ("-", -x) if x < 0 else ("", x)
    chunks = []
    while True:
        x, low = divmod(x, 10**1000)
        chunks.append(str(low))
        if not x:
            break
    return sign + chunks[-1] + "".join(c.zfill(1000) for c in reversed(chunks[:-1]))


class TestDecimal:
    def test_ints_past_the_str_digit_limit(self):
        cases = [0, 7, 10**999, 10**1000, 2**13000 - 1, 2**13000, 10**4300 - 1, 10**4300, 10**5000]
        cases += [3**20000, 7**40000 + 1]
        for x in cases:
            for y in (x, -x):
                assert intlinalg._decimal(y) == decimal_by_chunks(y)
        assert intlinalg._decimal(10**5000) == "1" + "0" * 5000
        assert intlinalg._decimal(10**4300 - 1) == "9" * 4300


def assert_smith_form(a):
    result = smith_normal_form(a)
    assert oracles.matmul(oracles.matmul(result.u, a), result.v) == result.s
    assert abs(determinant(result.u)) == 1
    assert abs(determinant(result.v)) == 1
    diag = result.diagonal
    assert all(d >= 0 for d in diag)
    nonzero = [d for d in diag if d != 0]
    assert list(diag[: len(nonzero)]) == nonzero, "zeros must come last"
    for x, y in zip(nonzero, nonzero[1:]):
        assert y % x == 0


class TestSmithNormalForm:
    def test_worked_example(self):
        a = IntMatrix.from_rows([[2, 4], [6, 8]])
        assert smith_normal_form(a).diagonal == (2, 4)

    def test_identity(self):
        one = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert smith_normal_form(one).diagonal == (1, 1, 1)

    def test_zero_matrix(self):
        assert smith_normal_form(IntMatrix(2, 3, [0] * 6)).diagonal == (0, 0)

    def test_empty_matrix(self):
        result = smith_normal_form(IntMatrix(0, 0, []))
        assert result.diagonal == ()

    @settings(max_examples=200)
    @given(matrices())
    def test_witnesses_and_chain(self, a):
        assert_smith_form(a)

    @settings(max_examples=150)
    @given(matrices(max_rows=5, max_cols=5, min_rows=1, min_cols=1).filter(lambda m: m.is_square))
    def test_diagonal_product_is_determinant(self, a):
        diag = smith_normal_form(a).diagonal
        assert math.prod(diag) == abs(determinant(a))


class TestDeterminant:
    def test_singular_laplacian(self):
        assert determinant(IntMatrix.from_rows([[1, -1], [-1, 1]])) == 0

    def test_reduced_triangle(self):
        assert determinant(IntMatrix.from_rows([[2, -1], [-1, 2]])) == 3

    def test_empty(self):
        assert determinant(IntMatrix(0, 0, [])) == 1

    def test_non_square(self):
        with pytest.raises(InputError):
            determinant(IntMatrix(2, 3, [0] * 6))

    @settings(max_examples=200)
    @given(matrices(max_rows=5, max_cols=5).filter(lambda m: m.is_square))
    def test_against_cofactor_oracle(self, a):
        assert determinant(a) == cofactor_determinant(a.to_rows())

    def test_big_entries_stay_exact(self):
        rng = random.Random(5)
        rows = [[rng.randint(-10**12, 10**12) for _ in range(6)] for _ in range(6)]
        a = IntMatrix.from_rows(rows)
        assert determinant(a) == cofactor_determinant(rows)


class TestAbsDeterminantOfSparseRows:
    """|det a| by the exact stage of the cokernel kernel and Bareiss on its
    residual, against the cofactor expansion."""

    @staticmethod
    def sparse(rows):
        return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(rows)}

    @settings(max_examples=300, deadline=None)
    @given(matrices(max_rows=6, max_cols=6).filter(lambda m: m.is_square), st.data())
    def test_against_cofactor_oracle(self, a, data):
        rows = a.to_rows()
        if rows and data.draw(st.booleans()):  # a repeated row makes a singular
            rows[-1] = list(rows[0])
        assert intlinalg._abs_determinant(self.sparse(rows)) == abs(cofactor_determinant(rows))

    def test_zero_rows_and_the_empty_matrix(self):
        assert intlinalg._abs_determinant({}) == 1
        assert intlinalg._abs_determinant({0: {0: 2}, 1: {}}) == 0
        # row 1 ends zero after row 0 clears the shared column
        assert intlinalg._abs_determinant(self.sparse([[1, 2], [2, 4]])) == 0


class TestCharPoly:
    def test_worked_example(self):
        a = IntMatrix.from_rows([[1, -1], [-1, 1]])
        assert char_poly(a) == IntPoly([0, -2, 1])

    def test_one_by_one(self):
        assert char_poly(IntMatrix.from_rows([[5]])) == IntPoly([-5, 1])

    def test_identity(self):
        assert char_poly(IntMatrix.from_rows([[1, 0], [0, 1]])) == IntPoly([1, -2, 1])

    def test_empty(self):
        assert char_poly(IntMatrix(0, 0, [])) == IntPoly([1])

    def test_non_square(self):
        with pytest.raises(InputError):
            char_poly(IntMatrix(3, 2, [0] * 6))

    @settings(max_examples=100)
    @given(matrices(max_rows=5, max_cols=5).filter(lambda m: m.is_square))
    def test_monic_and_matches_determinant_at_zero(self, a):
        p = char_poly(a)
        assert p.degree == a.rows
        assert p.coefficients[-1] == 1
        assert poly_eval(p, 0) == (-1) ** a.rows * determinant(a)

    @settings(max_examples=60)
    @given(
        matrices(max_rows=4, max_cols=4).filter(lambda m: m.is_square),
        st.integers(min_value=-6, max_value=6),
    )
    def test_evaluation_matches_shifted_determinant(self, a, t):
        m = a.rows
        shifted = IntMatrix(
            m,
            m,
            [(t if i == j else 0) - a[i, j] for i in range(m) for j in range(m)],
        )
        assert poly_eval(char_poly(a), t) == determinant(shifted)


def poly_mul(p, q):
    out = [0] * (len(p.coefficients) + len(q.coefficients) - 1)
    for i, a in enumerate(p.coefficients):
        for j, b in enumerate(q.coefficients):
            out[i + j] += a * b
    return IntPoly(out)


@st.composite
def square_matrices(draw, min_size=0, entry_bits=(4, 32, 64, 128)):
    """Non-symmetric square matrices up to 9x9, dense or about 1 in 4 nonzero."""
    m = draw(st.integers(min_value=min_size, max_value=9))
    bound = 2 ** draw(st.sampled_from(entry_bits))
    entry = st.integers(min_value=-bound, max_value=bound)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    return IntMatrix(m, m, draw(st.lists(entry, min_size=m * m, max_size=m * m)))


@st.composite
def connected_graphs(draw, max_vertices=30):
    """A random spanning tree plus random extra edges."""
    n = draw(st.integers(min_value=1, max_value=max_vertices))
    edges = {(draw(st.integers(min_value=0, max_value=v - 1)), v) for v in range(1, n)}
    if n > 1:
        vertex = st.integers(min_value=0, max_value=n - 1)
        extra = draw(st.lists(st.tuples(vertex, vertex), max_size=n * (n - 1) // 4))
        edges.update((u, v) for u, v in extra if u != v)
    return Graph(n, edges)


class TestCharPolyAgainstInterpolation:
    """The modular char_poly against the evaluation/interpolation oracle."""

    @settings(max_examples=150, deadline=None)
    @given(square_matrices())
    def test_random_square_matrices(self, a):
        assert char_poly(a) == oracles.char_poly(a)

    @settings(max_examples=25, deadline=None)
    @given(square_matrices(min_size=6, entry_bits=(128,)))
    def test_128_bit_entries_in_six_to_nine_rows(self, a):
        assert char_poly(a) == oracles.char_poly(a)

    @settings(max_examples=30, deadline=None)
    @given(connected_graphs())
    def test_laplacians_of_connected_graphs(self, g):
        lap = laplacian(g)
        assert char_poly(lap) == oracles.char_poly(lap)


@st.composite
def snf_matrices(draw):
    """Matrices of 0-9 rows and 0-9 columns, empty shapes included, with
    small, sparse or +-2**70 entries."""
    rows, cols = draw(st.integers(0, 9)), draw(st.integers(0, 9))
    bound = draw(st.sampled_from((9, 2**70)))
    entry = st.integers(min_value=-bound, max_value=bound)
    if draw(st.booleans()):
        entry = st.one_of(st.just(0), st.just(0), st.just(0), entry)
    return IntMatrix(rows, cols, draw(st.lists(entry, min_size=rows * cols, max_size=rows * cols)))


@st.composite
def reduced_laplacians(draw):
    """Reduced Laplacians of connected graphs and of cones over them, up to
    about 40 vertices, with a drawn vertex removed."""
    g = draw(connected_graphs(max_vertices=40))
    if draw(st.booleans()):
        g = cone(draw(connected_graphs(max_vertices=12)), draw(st.integers(1, 28)))
    return reduced_laplacian(g, draw(st.integers(0, g.vertex_count - 1)))


class TestSmithNormalFormWitnesses:
    """The SNF oracle on wide entries, on reduced Laplacians and on empty
    shapes: unimodular witnesses and a divisibility chain."""

    @settings(max_examples=300, deadline=None)
    @given(snf_matrices())
    def test_random_matrices(self, a):
        assert_smith_form(a)

    @settings(max_examples=25, deadline=None)
    @given(reduced_laplacians())
    def test_reduced_laplacians(self, a):
        assert_smith_form(a)

    def test_empty_shapes(self):
        for rows, cols in ((0, 0), (0, 4), (3, 0)):
            a = IntMatrix(rows, cols, [0] * (rows * cols))
            assert_smith_form(a)
            result = smith_normal_form(a)
            assert (result.u.rows, result.s.rows, result.s.cols, result.v.rows) == (
                rows, rows, cols, cols,
            )


@st.composite
def nonsingular_matrices(draw):
    """Square matrices over a drawn entry set; the sets with few units push
    the residual block into the extended-gcd steps."""
    size = draw(st.integers(0, 7))
    entries = draw(
        st.sampled_from(((0, 2, 4, 6, -2, 8), (0, 1, -1, 2, 3, 6, 9), (0, 0, 3, 6, 9, 12, 18)))
        | st.just(tuple(range(-12, 13)))
    )
    cells = st.lists(st.sampled_from(entries), min_size=size * size, max_size=size * size)
    a = IntMatrix(size, size, draw(cells))
    assume(determinant(a) != 0)
    return a


def spy_xgcd(monkeypatch) -> list:
    """Record the arguments (a, b) of every _xgcd call in intlinalg."""
    real, steps = intlinalg._xgcd, []

    def spy(a, b):
        steps.append((a, b))
        return real(a, b)

    monkeypatch.setattr(intlinalg, "_xgcd", spy)
    return steps


class TestCokernelModDeterminant:
    """The presentation of coker a built modulo |det a|, without a column
    witness, against the exact SNF."""

    @staticmethod
    def assert_presents_cokernel(a):
        def sparse_rows():
            return {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)}

        orders, rows = intlinalg._cokernel_rows(sparse_rows())
        # the presentation depends only on a: the rows in reverse order,
        # each with its keys reversed, give the same orders and rows
        reordered = {i: dict(reversed(row.items())) for i, row in reversed(sparse_rows().items())}
        assert intlinalg._cokernel_rows(reordered) == (orders, rows)
        # coordinate rows are not unique, so the witnessed kernel is matched
        # on the group, and the rows are checked to present it
        witnessed, _ = oracles.cokernel_rows_witnessed(sparse_rows())
        assert CriticalGroup.from_cyclic_orders(orders) == CriticalGroup.from_cyclic_orders(witnessed)
        assert CriticalGroup.from_cyclic_orders(orders) == oracles.from_diagonal(
            smith_normal_form(a).diagonal
        )
        oracles.assert_presents_cokernel(a.to_rows(), orders, rows)

    @settings(max_examples=300, deadline=None)
    @given(nonsingular_matrices())
    def test_random_matrices(self, a):
        self.assert_presents_cokernel(a)

    @settings(max_examples=25, deadline=None)
    @given(reduced_laplacians())
    def test_reduced_laplacians(self, a):
        self.assert_presents_cokernel(a)

    def test_entry_equal_to_the_pivot_is_cleared_by_plain_elimination(self, monkeypatch):
        # no entry is a unit mod 12: the pivot 3 divides the 3 below it, so
        # row 1 loses row 0 and row 0 stays the pivot row; an extended-gcd
        # step would swap the rows' roles instead.  The column step (3, 4)
        # leaves the pivot 1, and row 1 loses 4 more times row 0, so
        # [m | I] ends with row 0 carrying [1, 0] and row 1 carrying
        # e_1 - 5 e_0 = [7, 1] mod 12
        steps = spy_xgcd(monkeypatch)
        m = [[3, 4, 1, 0], [3, 8, 0, 1]]
        pivots = intlinalg._diagonalize_mod(m, 12, 2)
        assert [row[2:] for row in m] == [[1, 0], [7, 1]]
        assert steps == [(3, 4)]
        assert pivots == [(0, 1), (1, 0)]
        assert intlinalg._diagonalize_mod([[3, 4], [3, 8]], 12) == pivots
        # in the kernel no entry divides its row, so the 2 x 2 block is
        # the residual, with tau = 12
        self.assert_presents_cokernel(IntMatrix.from_rows([[3, 4], [3, 8]]))

    def test_entries_the_pivot_divides_are_cleared_by_plain_elimination_mod_n(self, monkeypatch):
        # (g, s, t) = _xgcd(d, d) is (d, 0, 1), so an extended-gcd step on an
        # entry equal to the pivot would swap the two rows' roles; a pivot
        # rule that took it looped forever on m mod 7.  Doubled, m has no
        # unit mod 14, and the least entry meets entries equal to it
        m = [
            [1, 0, 0, 0, 0, 0, 0, 0, 0],
            [2, 6, 3, 2, 0, 0, 0, 0, 0],
            [1, 6, 4, 1, 0, 0, 0, 0, 0],
            [0, 6, 6, 0, 0, 0, 0, 0, 0],
            [0, 6, 2, 0, 0, 0, 0, 0, 0],
        ]
        steps = spy_xgcd(monkeypatch)
        for scale, n in ((1, 7), (2, 14)):
            rows = [[scale * x % n for x in row] for row in m]
            a = IntMatrix.from_rows([row + [n * (i == j) for j in range(5)] for i, row in enumerate(rows)])
            steps.clear()
            pivots = intlinalg._diagonalize_mod(rows, n)
            assert sorted(i for i, _ in pivots) == list(range(5))
            # every merge, by rows or by columns, takes _xgcd(d, b) of the
            # pivot d and an entry b; none is on an entry that d divides
            assert not [(d, b) for d, b in steps if b % d == 0]
            assert CriticalGroup.from_cyclic_orders(math.gcd(p, n) for _, p in pivots) == (
                oracles.from_diagonal(smith_normal_form(a).diagonal)
            )

    def test_pivots_that_divide_their_row_and_column_split_exactly(self, monkeypatch):
        a = IntMatrix.from_rows([[2, 0], [2, 4]])
        self.assert_presents_cokernel(a)
        # the 2 splits off Z/2 with row 0 of U, then the 4 of row 1 - row 0
        assert intlinalg._cokernel_rows({0: {0: 2}, 1: {0: 2, 1: 4}}) == ((2, 4), ((1, 0), (3, 1)))
        # after the +-1 pivots, every row of Lred(K_5) left is a multiple
        # of 5 by one entry, so no residual block and no determinant is left
        self.assert_presents_cokernel(reduced_laplacian(complete(5), 0))
        monkeypatch.setattr(intlinalg, "determinant", None)
        assert sandpile._reduced_snf(complete(5)).factors == (5, 5, 5)

    def test_pivot_must_divide_its_column(self):
        # row 0 is divisible by 2, but each column holds an odd entry, so
        # the 2 must not split off: the cokernel is Z/4, not Z/2 x Z/2
        a = IntMatrix.from_rows([[2, 2], [1, 3]])
        self.assert_presents_cokernel(a)
        assert intlinalg._cokernel_rows({0: {0: 2, 1: 2}, 1: {0: 1, 1: 3}})[0] == (4,)

    def test_unimodular_and_empty(self):
        assert intlinalg._cokernel_rows({}) == ((), ())
        assert intlinalg._cokernel_rows({0: {0: 2, 1: 3}, 1: {0: 1, 1: 2}}) == ((), ())
        assert intlinalg._cokernel_rows({0: {0: 5}}) == ((5,), ((1,),))

    def test_coordinate_rows_are_replayed_once_per_factor(self, monkeypatch):
        # no row witness: the exact row operations are replayed once for
        # each factor of order >= 2, so never on a path, whose Pic0 is
        # trivial, once on a cycle and 10 times on K_12, (Z/12)^10
        starts = []
        real = intlinalg._replay_exact

        def spy(start, *args):
            starts.append(start)
            return real(start, *args)

        monkeypatch.setattr(intlinalg, "_replay_exact", spy)
        for g, factors in ((path(300), 0), (cycle(300), 1), (complete(12), 10)):
            starts.clear()
            a = reduced_laplacian(g, 0)
            orders, _ = intlinalg._cokernel_rows(
                {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)}
            )
            assert len(orders) == len(starts) == factors
            assert CriticalGroup.from_cyclic_orders(orders) == oracles.from_diagonal(
                smith_normal_form(a).diagonal
            )


def residues_mod(max_rows=4, max_cols=5, min_rows=1):
    """(rows, n): a matrix of residues mod n, n with repeated primes."""
    moduli = st.sampled_from([4, 8, 9, 12, 18, 27, 32, 36, 72, 100, 125, 144, 2**5 * 3**3, 7 * 49])
    return st.tuples(
        st.integers(min_rows, max_rows), st.integers(0, max_cols), moduli
    ).flatmap(
        lambda rwn: st.tuples(
            st.lists(
                st.lists(st.integers(0, rwn[2] - 1), min_size=rwn[1], max_size=rwn[1]),
                min_size=rwn[0],
                max_size=rwn[0],
            ),
            st.just(rwn[2]),
        )
    )


class TestDiagonalizeMod:
    """_diagonalize_mod skips what no row uses: one row is only a gcd, a unit
    pivot with nothing below it computes no inverse, and the column steps of
    the last active row take a plain gcd."""

    @staticmethod
    def spy_pow(monkeypatch):
        calls = []

        def spy(*args):
            calls.append(args)
            return pow(*args)

        # a module global shadows the builtin for every call in intlinalg
        monkeypatch.setattr(intlinalg, "pow", spy, raising=False)
        return calls

    @pytest.mark.parametrize(
        "row, n, order",
        [([4, 3, 6], 12, 1), ([4, 6, 0], 12, 2), ([], 12, 12), ([0, 0, 0], 12, 12), ([9, 6], 27, 3)],
        ids=["unit", "no-unit", "width-0", "all-zero", "prime-power"],
    )
    def test_one_row_is_its_gcd(self, monkeypatch, row, n, order):
        calls = self.spy_pow(monkeypatch)
        pivots = intlinalg._diagonalize_mod([list(row)], n)
        assert len(pivots) == 1 and pivots[0][0] == 0
        assert math.gcd(pivots[0][1], n) == order
        # with [row | 1], the carried block is still the identity
        m = [row + [1]]
        assert intlinalg._diagonalize_mod(m, n, len(row)) == pivots
        assert m[0][len(row) :] == [1] and calls == []

    def test_a_unit_pivot_with_nothing_below_computes_no_inverse(self, monkeypatch):
        calls = self.spy_pow(monkeypatch)
        # the units 1 and 3 have only zeros below them, so the block
        # carried beside them is still the identity
        m = [[1, 2, 1, 0], [0, 3, 0, 1]]
        pivots = intlinalg._diagonalize_mod(m, 5, 2)
        assert pivots == [(0, 1), (1, 3)] and calls == []
        assert [row[2:] for row in m] == [[1, 0], [0, 1]]
        # the 3 under the 1 needs its inverse, and the last row none: row 1
        # loses 3 times row 0, so it carries [-3, 1] mod 5
        m = [[1, 2, 1, 0], [3, 4, 0, 1]]
        pivots = intlinalg._diagonalize_mod(m, 5, 2)
        assert calls == [(1, -1, 5)]
        assert pivots == [(0, 1), (1, 3)] and [row[2:] for row in m] == [[1, 0], [2, 1]]

    def test_the_last_rows_column_steps_take_a_plain_gcd(self, monkeypatch):
        # no unit mod 12: row 0 finishes on its 2, then row 1 alone merges
        # its 4 and 6 to gcd 2 by a column step, which an extended gcd
        # (g, s, t) = (2, -1, 1) also gives: (s*4 + t*6, 2*6 - 3*4) = (2, 0)
        assert intlinalg._xgcd(4, 6) == (2, -1, 1)
        steps = spy_xgcd(monkeypatch)
        m = [[2, 0, 0, 1, 0], [0, 4, 6, 0, 1]]
        pivots = intlinalg._diagonalize_mod(m, 12, 3)
        assert pivots == [(0, 2), (1, 2)] and steps == []
        assert [row[3:] for row in m] == [[1, 0], [0, 1]]
        expected = [[2, 0, 0, 1, 0], [0, 4, 6, 0, 1]]
        assert pivots == oracles.diagonalize_mod_xgcd(expected, 12, 3)[0] and m == expected

    @settings(max_examples=400, deadline=None)
    @given(residues_mod(min_rows=2))
    def test_rows_pivots_and_log_as_with_every_inverse_and_xgcd(self, mn):
        # [m | I]: the pivots, the diagonalized block and the row transform
        # carried beside it are those of the oracle, which logs each step
        m, n = mn
        width = len(m[0])
        augmented = [row + [int(i == j) for j in range(len(m))] for i, row in enumerate(m)]
        expected = [list(row) for row in augmented]
        pivots, _ = oracles.diagonalize_mod_xgcd(expected, n, width)
        assert intlinalg._diagonalize_mod(augmented, n, width) == pivots
        assert augmented == expected
        assert intlinalg._diagonalize_mod([list(row) for row in m], n) == pivots

    @settings(max_examples=300, deadline=None)
    @given(residues_mod())
    def test_against_the_snf_of_m_beside_n_times_the_identity(self, mn):
        # coker m over Z/n is coker [m | nI] over Z, and the column span of
        # m in (Z/n)^r is the sum of the d * Z/n over its SNF diagonal d
        m, n = mn
        r = len(m)
        a = IntMatrix.from_rows([row + [n * (i == j) for j in range(r)] for i, row in enumerate(m)])
        diagonal = smith_normal_form(a).diagonal
        pivots = intlinalg._diagonalize_mod([list(row) for row in m], n)
        assert sorted(i for i, _ in pivots) == list(range(r))
        orders = [math.gcd(p, n) for _, p in pivots]
        assert CriticalGroup.from_cyclic_orders(orders) == oracles.from_diagonal(diagonal)
        assert CriticalGroup.from_cyclic_orders(n // o for o in orders) == (
            CriticalGroup.from_cyclic_orders(n // abs(d) for d in diagonal)
        )


class TestResidualSplit:
    """The residual block R after the exact stage: one solve y R = D c^T
    with D = +-tau, tau = tau1 * tau2 with tau1 free of the primes of
    gcd(y, tau), Z/tau1 read off y, and only R mod tau2 diagonalized."""

    @staticmethod
    def spy(monkeypatch):
        """Record each solve's |det| and each modulus _diagonalize_mod gets."""
        taus, moduli = [], []
        real_solve, real_diagonalize = intlinalg._solve_rows, intlinalg._diagonalize_mod

        def solve(m):
            det, solutions = real_solve(m)
            taus.append(abs(det))
            return det, solutions

        def diagonalize(m, n, *args):
            moduli.append(n)
            return real_diagonalize(m, n, *args)

        monkeypatch.setattr(intlinalg, "_solve_rows", solve)
        monkeypatch.setattr(intlinalg, "_diagonalize_mod", diagonalize)
        return taus, moduli

    @pytest.mark.parametrize(
        "a, moduli, orders",
        [
            # coker R = Z/5: y is a unit mod 5, so tau2 = 1 and no finish runs
            ([[2, 3], [3, 7]], [], (5,)),
            # Z/2 x Z/18: every y is even, so tau2 = 4 is finished, to
            # Z/2 x Z/2, and tau1 = 9 joins the first Z/2 by CRT
            ([[4, 6], [6, 0]], [4], (18, 2)),
            # Z/2 x Z/8: tau = 16 has only the prime of g, so tau1 = 1 and
            # the finish runs modulo the whole of tau
            ([[4, 6], [0, 4]], [16], (2, 8)),
            # det R = 1: no factor and no finish
            ([[3, 2], [4, 3]], [], ()),
        ],
        ids=["tau2-is-1", "crt-merge", "tau1-is-1", "tau-is-1"],
    )
    def test_one_input_per_branch(self, monkeypatch, a, moduli, orders):
        taus, seen = self.spy(monkeypatch)
        presentation = intlinalg._cokernel_rows(
            {i: {j: x for j, x in enumerate(row) if x} for i, row in enumerate(a)}
        )
        # no entry divides its row and column, so all of a is the residual
        assert taus == [abs(cofactor_determinant(a))]
        assert seen == moduli
        assert presentation[0] == orders
        oracles.assert_presents_cokernel(a, *presentation)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_a_cyclic_gnp_is_never_finished_modulo_the_whole_determinant(self, monkeypatch, seed):
        # seeded G(40, 0.3) with cyclic Pic0 and a residual of about 20
        # rows: seed 3 finishes only a small tau2, seed 4 nothing at all
        taus, moduli = self.spy(monkeypatch)
        g = random_connected_graph(random.Random(seed), 40, 0.3)
        group = sandpile.critical_group(g)
        assert len(group.invariant_factors) == 1
        assert taus == [group.order]
        assert len(moduli) == (seed == 3)
        assert all(n < taus[0] and taus[0] % n == 0 for n in moduli)


class TestCharPolyModularEdgeCases:
    def test_entries_vanish_mod_the_modulus(self):
        # every pivot is even, and with the second matrix some products of
        # entries vanish mod 2**e on the way
        q = 2**70
        a = IntMatrix.from_rows([[q, q, 0], [q, -q, q], [0, q, q]])
        assert char_poly(a) == IntPoly([3 * q**3, -3 * q**2, -q, 1])
        b = IntMatrix.from_rows(
            [[-512, 0, 256, 0], [2, -256, 0, 0], [0, -512, 0, -512], [2, -512, 0, -256]]
        )
        assert char_poly(b) == oracles.char_poly(b)

    def test_reversal_permutation_needs_pivot_swaps(self):
        for m in range(1, 8):
            a = IntMatrix(m, m, [1 if i + j == m - 1 else 0 for i in range(m) for j in range(m)])
            expected = IntPoly([1])
            for sign in [-1] * ((m + 1) // 2) + [1] * (m // 2):
                expected = poly_mul(expected, IntPoly([sign, 1]))
            assert char_poly(a) == expected == oracles.char_poly(a)

    def test_block_diagonal_has_zero_subdiagonal(self):
        top = IntMatrix.from_rows([[2, 7, -1], [3, 0, 5], [1, -4, 6]])
        bottom = IntMatrix.from_rows([[0, 1], [-9, 4]])
        rows = [list(r) + [0, 0] for r in top] + [[0, 0, 0] + list(r) for r in bottom]
        a = IntMatrix.from_rows(rows)
        assert char_poly(a) == poly_mul(char_poly(top), char_poly(bottom))
        assert char_poly(a) == oracles.char_poly(a)

    def test_strictly_upper_triangular_is_nilpotent(self):
        rng = random.Random(11)
        m = 7
        a = IntMatrix(m, m, [rng.randint(-50, 50) if j > i else 0 for i in range(m) for j in range(m)])
        assert char_poly(a) == IntPoly([0] * m + [1])

    def test_one_by_one_with_a_300_bit_entry(self):
        assert char_poly(IntMatrix.from_rows([[-(2**300)]])) == IntPoly([2**300, 1])

    def test_wide_modulus(self):
        # a 1x1 entry of this size needs a modulus of more than 1000 bits
        big = 3 * 2**1000 + 12345
        a = IntMatrix.from_rows([[big, 1], [-1, -big]])
        assert char_poly(a) == IntPoly([1 - big * big, 0, 1])


def hadamard_bits(a):
    """e = (2B).bit_length() for the Hadamard bound B = prod_i (1 +
    ceil(|row_i|_2)) on the coefficients of det(xI - a), a given as rows or
    as an IntMatrix."""
    bound = 1
    for row in a:
        squares = sum(x * x for x in row)
        bound *= 1 + (math.isqrt(squares - 1) + 1 if squares else 0)
    return (2 * bound).bit_length()


def shifted_rows(a, s):
    """The rows of a - sI."""
    return [[x - s if i == j else x for j, x in enumerate(row)] for i, row in enumerate(a)]


def hadamard_lane(a):
    """(e, s) from the Hadamard bound alone: the modulus of a - sI with
    s = trace(a) // m when it is narrower than a's, else a's and s = 0."""
    m = a.rows
    s = sum(a[i, i] for i in range(m)) // m if m else 0
    e, centered = hadamard_bits(a), hadamard_bits(shifted_rows(a, s))
    return (centered, s) if centered < e else (e, 0)


def real_eigenvalue_bits(a, r):
    """e = (2S).bit_length() for S = isqrt(ceil(N**m / m**m)), the bound on
    the coefficients of det(yI - (a - rI)) for a symmetric a of m >= 1
    rows: N = m + 2|p1| + p2 with p1 and p2 the traces of a - rI and of its
    square."""
    m = a.rows
    b = shifted_rows(a, r)
    p1 = sum(b[i][i] for i in range(m))
    p2 = sum(b[i][j] * b[j][i] for i in range(m) for j in range(m))
    n = m + 2 * abs(p1) + p2
    return (2 * math.isqrt(math.ceil(Fraction(n, m) ** m))).bit_length()


def hadamard_or_real_eigenvalue_bits(a):
    """A modulus char_poly must never be wider than: the Hadamard lane's,
    or, when a is symmetric, the real-eigenvalue modulus at the integer
    nearest trace(a) / m if that is narrower."""
    e = hadamard_lane(a)[0]
    m = a.rows
    if m and all(a[i, j] == a[j, i] for i in range(m) for j in range(i)):
        r = math.floor(Fraction(sum(a[i, i] for i in range(m)), m) + Fraction(1, 2))
        e = min(e, real_eigenvalue_bits(a, r))
    return e


def lemma_bound(a, t):
    """min(R, T), the lemma's bound on every coefficient squared of
    det(yI - b), b = a - tI: R = prod_i (1 + |b_i|^2 + 2|b_ii|) and
    T = ceil(((m + |b|_F^2 + 2|trace b|) / m)^m), with T = 1 for m = 0."""
    m = a.rows
    b = shifted_rows(a, t)
    row_bound = math.prod(1 + sum(x * x for x in row) + 2 * abs(row[i]) for i, row in enumerate(b))
    frobenius = sum(x * x for row in b for x in row)
    trace = sum(b[i][i] for i in range(m))
    trace_bound = math.ceil(Fraction(m + frobenius + 2 * abs(trace), m) ** m) if m else 1
    return min(row_bound, trace_bound)


def lane(a):
    """(e, s), the modulus and the shift char_poly gives its lane: of the
    shifts 0, floor(trace / m) and the integer nearest trace / m, the first
    with the least lemma_bound, and e = (2 isqrt(that bound)).bit_length()."""
    m = a.rows
    mean = Fraction(sum(a[i, i] for i in range(m)), m) if m else 0
    bounds = {t: lemma_bound(a, t) for t in (0, math.floor(mean), math.floor(mean + Fraction(1, 2)))}
    s = min(bounds, key=bounds.get)  # dicts keep their first key, min its first least
    return (2 * math.isqrt(bounds[s])).bit_length(), s


def centered_rows(a):
    """(rows, s): the rows of a - sI that char_poly's lane runs on, and s."""
    s = lane(a)[1]
    return shifted_rows(a, s), s


def modulus_bits(a):
    """The e that char_poly passes to _char_poly_mod."""
    return lane(a)[0]


@contextlib.contextmanager
def recorded_lanes(keep_rows=False):
    """Records the exponent e of every call of intlinalg._char_poly_mod, or
    (rows, e) with a copy of the rows it receives when keep_rows is set."""
    calls = []
    real = intlinalg._char_poly_mod

    def spy(rows, e):
        calls.append(([list(row) for row in rows], e) if keep_rows else e)
        return real(rows, e)

    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(intlinalg, "_char_poly_mod", spy)
        yield calls


# small ints mixed with +-2**t and +-3 * 2**t
entries_rich_in_powers_of_two = st.one_of(
    st.integers(-3, 3),
    st.tuples(st.sampled_from((1, -1, 3, -3)), st.integers(min_value=0, max_value=80)).map(
        lambda ct: ct[0] << ct[1]
    ),
)


@st.composite
def matrices_rich_in_powers_of_two(draw):
    """Square 0-8 matrices whose entries mix small ints with +-2**t and
    +-3 * 2**t, so that pivots are often even and the entry of least 2-adic
    valuation is often not the first nonzero one."""
    m = draw(st.integers(min_value=0, max_value=8))
    entries = st.lists(entries_rich_in_powers_of_two, min_size=m * m, max_size=m * m)
    return IntMatrix(m, m, draw(entries))


class TestCharPolyOneLane:
    """char_poly runs one Hessenberg lane modulo 2**e, with the pivot of
    least 2-adic valuation, whatever the pivots are."""

    def test_connected_laplacian_takes_one_lane(self):
        q = 2**70
        even = IntMatrix.from_rows([[q, q, 0], [q, -q, q], [0, q, q]])
        cases = [even] + [
            laplacian(random_connected_graph(random.Random(n), n, 0.3)) for n in (5, 20, 40)
        ]
        for a in cases:
            with recorded_lanes() as calls:
                result = char_poly(a)
            assert calls == [modulus_bits(a)]
            assert result == oracles.char_poly(a)

    @settings(max_examples=60, deadline=None)
    @given(square_matrices(entry_bits=(4, 64)), st.integers(min_value=1, max_value=80))
    def test_scaling_by_a_power_of_two(self, a, t):
        # every pivot of 2**t * a is even; the coefficient of x^(m-j) scales
        # by 2**(t*j)
        m = a.rows
        scaled = IntMatrix(m, m, [x << t for row in a for x in row])
        expected = [c << (t * (m - i)) for i, c in enumerate(char_poly(a).coefficients)]
        assert char_poly(scaled) == IntPoly(expected)

    @settings(max_examples=150, deadline=None)
    @given(matrices_rich_in_powers_of_two())
    def test_powers_of_two_against_interpolation(self, a):
        assert char_poly(a) == oracles.char_poly(a)


@st.composite
def scaled_identities_plus_noise(draw):
    """c * I plus entries in -3..3, 0-7 rows, c up to +-2**200: the trace
    sits almost all on the diagonal, so centering removes nearly all of it."""
    m = draw(st.integers(min_value=0, max_value=7))
    c = draw(st.one_of(st.integers(-50, 50), st.integers(-(2**200), 2**200)))
    noise = draw(st.lists(st.integers(-3, 3), min_size=m * m, max_size=m * m))
    return IntMatrix(m, m, [x + (c if k % (m + 1) == 0 else 0) for k, x in enumerate(noise)])


class TestCenteredModulus:
    """char_poly runs its lane on a - sI, with s one of 0, trace(a) // m
    and the integer nearest trace(a) / m, whichever has the narrowest
    modulus, and shifts the result back by x -> x - s."""

    @settings(max_examples=150, deadline=None)
    @given(
        st.one_of(
            square_matrices(),
            matrices_rich_in_powers_of_two(),
            scaled_identities_plus_noise(),
            connected_graphs(max_vertices=40).map(laplacian),
        )
    )
    def test_modulus_never_exceeds_the_uncentered_one(self, a):
        with recorded_lanes() as calls:
            char_poly(a)
        assert calls == [modulus_bits(a)]
        assert calls[0] <= hadamard_lane(a)[0] <= hadamard_bits(a)

    @settings(max_examples=100, deadline=None)
    @given(scaled_identities_plus_noise())
    def test_scaled_identity_plus_noise_against_interpolation(self, a):
        assert char_poly(a) == oracles.char_poly(a)

    def test_empty_and_one_by_one(self):
        cases = [
            ([], IntPoly([1]), 2),
            ([[0]], IntPoly([0, 1]), 2),
            ([[5]], IntPoly([-5, 1]), 2),
            ([[-(2**300)]], IntPoly([2**300, 1]), 2),  # 302 bits uncentered
        ]
        for rows, expected, e in cases:
            a = IntMatrix.from_rows(rows)
            with recorded_lanes() as calls:
                assert char_poly(a) == expected
            assert calls == [e] == [modulus_bits(a)]

    def test_a_graph_laplacian_centers_on_its_mean_degree(self):
        # K_40 - 39 I has zero diagonal: 40 rows of norm sqrt(39), against
        # sqrt(39**2 + 39) uncentered, so R = 40**40; with trace 0 and
        # |b|_F**2 = 40 * 39, T = (1 + 39)**40 as well
        a = laplacian(complete(40))
        rows, s = centered_rows(a)
        assert s == 39 and all(row[i] == 0 for i, row in enumerate(rows))
        assert (modulus_bits(a), hadamard_lane(a), hadamard_bits(a)) == (108, (122, 39), 216)
        with recorded_lanes() as calls:
            assert char_poly(a) == oracles.char_poly(a)
        assert calls == [108]


@st.composite
def symmetric_matrices(draw):
    """Symmetric 0-8 matrices: entries in -9..9, entries mixed with
    +-2**t and +-3 * 2**t, or c * I plus symmetric noise in -3..3 with c up
    to +-2**200."""
    m = draw(st.integers(min_value=0, max_value=8))
    kind = draw(st.sampled_from(("small", "powers", "scaled")))
    entry = {"small": small_entries, "powers": entries_rich_in_powers_of_two}.get(kind, st.integers(-3, 3))
    c = 0
    if kind == "scaled":
        c = draw(st.one_of(st.integers(-50, 50), st.integers(-(2**200), 2**200)))
    upper = {(i, j): draw(entry) for i in range(m) for j in range(i, m)}
    return IntMatrix(
        m, m, [upper[min(i, j), max(i, j)] + (c if i == j else 0) for i in range(m) for j in range(m)]
    )


@st.composite
def shifted_laplacians(draw):
    """L + nI, n in 0..6, for a graph on 1-10 vertices, connected or not."""
    k = draw(st.integers(min_value=1, max_value=10))
    p = draw(st.sampled_from((0.1, 0.3, 0.5, 0.8)))
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        g = random_connected_graph(rng, k, max(p, 0.3))
    else:
        g = Graph(k, [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p])
    return IntMatrix.from_rows(shifted_rows(laplacian(g), -draw(st.integers(0, 6))))


@st.composite
def skew_symmetric_matrices(draw):
    """Skew-symmetric 0-8 matrices, entries in -9..9 or mixed with +-2**t
    and +-3 * 2**t: the eigenvalues are imaginary and the trace is 0."""
    m = draw(st.integers(min_value=0, max_value=8))
    entry = draw(st.sampled_from((small_entries, entries_rich_in_powers_of_two)))
    upper = {(i, j): draw(entry) for i in range(m) for j in range(i + 1, m)}
    return IntMatrix(
        m, m, [0 if i == j else upper[i, j] if i < j else -upper[j, i] for i in range(m) for j in range(m)]
    )


class TestRealEigenvalueModulus:
    """The lemma of _char_poly_rows holds for every real matrix, symmetric
    or not: at the chosen shift s, 2**(e-1) exceeds every coefficient of
    det(yI - (a - sI)), and e is never wider than the rule it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            symmetric_matrices(),
            shifted_laplacians(),
            square_matrices(),
            skew_symmetric_matrices(),
            matrices_rich_in_powers_of_two(),
            scaled_identities_plus_noise(),
        )
    )
    def test_the_modulus_covers_the_coefficients_the_lane_computes(self, a):
        m = a.rows
        with recorded_lanes(keep_rows=True) as calls:
            assert char_poly(a) == oracles.char_poly(a)
        [(rows, e)] = calls
        s = a[0, 0] - rows[0][0] if m else 0
        assert rows == shifted_rows(a, s)
        assert (e, s) == lane(a)
        shifted = oracles.char_poly(IntMatrix.from_rows(rows)).coefficients
        assert 2 ** (e - 1) > max(map(abs, shifted))
        assert e <= hadamard_or_real_eigenvalue_bits(a)

    def test_the_bound_is_tight_on_a_rotation(self):
        # P = x**2 + 10000, and both R and T are 10001**2, so e = 15 with
        # 10000 < 2**14 <= 10001
        a = IntMatrix.from_rows([[0, 100], [-100, 0]])
        assert lemma_bound(a, 0) == 10001**2
        with recorded_lanes() as calls:
            assert char_poly(a) == IntPoly([10000, 0, 1])
        assert calls == [15] == [modulus_bits(a)]

    def test_a_star_takes_the_row_bound(self):
        # a leaf row of L - I is one -1 off a zero diagonal, so it puts the
        # factor 1 + 1 = 2 into R, where the square of the Hadamard bound
        # put (1 + 1)**2: about half the bits
        m = 240
        a = laplacian(Graph(m, [(0, v) for v in range(1, m)]))
        assert hadamard_or_real_eigenvalue_bits(a) == 248
        with recorded_lanes() as calls:
            result = char_poly(a)
        assert calls == [129] == [modulus_bits(a)]
        assert lane(a) == (129, 1)
        # eigenvalues 0, m and 1 with multiplicity m - 2
        ones = IntPoly([math.comb(m - 2, k) * (-1) ** (m - k) for k in range(m - 1)])
        assert result == IntPoly((0,) + poly_mul(ones, IntPoly([-m, 1])).coefficients)


@contextlib.contextmanager
def recorded_reductions():
    """Records (name, e) for every call of the two Hessenberg reductions
    and the two recurrences."""
    calls = []
    names = ("_hessenberg_packed", "_hessenberg_scalar", "_recurrence_packed", "_recurrence_scalar")
    with pytest.MonkeyPatch.context() as monkeypatch:
        for name in names:
            real = getattr(intlinalg, name)

            def spy(rows, e, name=name, real=real):
                calls.append((name, e))
                return real(rows, e)

            monkeypatch.setattr(intlinalg, name, spy)
        yield calls


CROSSOVER = intlinalg._PACKED_MAX_BITS


def assert_reductions_agree(a, e):
    """Both reductions give the same band mod 2**e, and when e is at least
    the Hadamard modulus of a, or the modulus char_poly picks for the rows
    it centers, the recurrence on those rows gives the exact coefficients."""
    rows = a.to_rows()
    band = intlinalg._hessenberg_packed(rows, e)
    assert band == intlinalg._hessenberg_scalar(rows, e)
    assert rows == a.to_rows()  # neither reduction touches its input
    assert [len(column) for column in band] == [min(c + 2, a.rows) for c in range(a.rows)]
    modulus = 1 << e
    for rows, bits in ((a.to_rows(), hadamard_bits(a)), (centered_rows(a)[0], modulus_bits(a))):
        if e >= bits:
            coefficients = intlinalg._char_poly_mod(rows, e)
            signed = [c - modulus if 2 * c >= modulus else c for c in coefficients]
            assert IntPoly(signed) == oracles.char_poly(IntMatrix.from_rows(rows))


class TestPackedReduction:
    """The packed Hessenberg reduction (one int per column) against the
    scalar one, called directly with e on both sides of the crossover."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.one_of(matrices_rich_in_powers_of_two(), square_matrices()),
        st.sampled_from(
            (None, 8, 65, 240, 241)
            + (CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, CROSSOVER + 101)
        ),
    )
    def test_random_matrices(self, a, e):
        # None is the modulus char_poly would use, and the uncentered one;
        # the fixed widths are narrower or wider than them
        for width in (modulus_bits(a), hadamard_bits(a)) if e is None else (e,):
            assert_reductions_agree(a, width)

    def test_zero_one_and_two_rows(self):
        for a in (IntMatrix(0, 0, []), IntMatrix.from_rows([[-7]]), IntMatrix.from_rows([[3, -2**90], [5, 0]])):
            for e in (hadamard_bits(a), CROSSOVER, CROSSOVER + 1):
                assert_reductions_agree(a, e)

    def test_zero_columns_have_no_pivot(self):
        a = IntMatrix.from_rows([[0, 4, 1, 0], [0, 0, 2, 0], [0, 0, 0, 0], [0, 8, 6, 0]])
        for e in (hadamard_bits(a), CROSSOVER, CROSSOVER + 1):
            assert_reductions_agree(a, e)

    def test_reversal_permutation_swaps_every_pivot(self):
        for m in range(1, 10):
            a = IntMatrix(m, m, [1 if i + j == m - 1 else 0 for i in range(m) for j in range(m)])
            for e in (hadamard_bits(a), CROSSOVER, CROSSOVER + 1):
                assert_reductions_agree(a, e)

    def test_largest_column_accumulation(self):
        # row 1 is (1, 0, ..., 0) and every other entry is -1, so step 0
        # has m - 2 multipliers u = -1 = 2**e - 1, and every entry it leaves
        # right of column 0 in rows 0 and 2.. is 2**e - 1: before its mask,
        # a slot of the column operation reaches its largest value
        # (2**e - 1) + (m - 2) * (2**e - 1)**2.  Four consecutive e fill the
        # last byte of a slot in every way.
        for m in (3, 4, 9, 17, 40):
            rows = [[-1] * m for _ in range(m)]
            rows[1] = [1] + [0] * (m - 1)
            a = IntMatrix.from_rows(rows)
            for e in list(range(CROSSOVER - 3, CROSSOVER + 5)) + [hadamard_bits(a)]:
                assert_reductions_agree(a, e)

    def test_benchmark_sized_laplacians_take_the_packed_reduction(self):
        # no Laplacian on at most 40 vertices has a wider uncentered modulus
        # than K_40's, and char_poly never passes a wider one than the
        # uncentered modulus, so they take the packed recurrence too
        graphs = [random_connected_graph(random.Random(n), n, 0.3) for n in (22, 31, 40)]
        graphs += [cone(random_connected_graph(random.Random(1), 26, 0.3), 2), complete(40)]
        for g in graphs:
            a = laplacian(g)
            e = modulus_bits(a)
            with recorded_reductions() as calls:
                result = char_poly(a)
            assert calls == [("_hessenberg_packed", e), ("_recurrence_packed", e)]
            assert result == oracles.char_poly(a)
        k40 = laplacian(complete(40))
        assert modulus_bits(k40) <= hadamard_bits(k40) <= CROSSOVER

    def test_a_400_cycle_takes_the_scalar_reduction(self):
        # the real-eigenvalue modulus of a cycle is about 0.79m bits, so a
        # 200-cycle (e = 160) stays packed and a 400-cycle does not
        assert modulus_bits(laplacian(cycle(200))) == 160
        a = laplacian(cycle(400))
        e = modulus_bits(a)
        with recorded_reductions() as calls:
            char_poly(a)
        assert calls == [("_hessenberg_scalar", e), ("_recurrence_scalar", e)]
        assert e == 318 > CROSSOVER

    def test_a_path_above_240_bits_takes_the_packed_pair(self):
        # one crossover picks both lanes: a path whose centered modulus
        # first exceeds 240 bits runs the packed reduction and recurrence
        n = next(n for n in range(2, 400) if modulus_bits(laplacian(path(n))) > 240)
        a = laplacian(path(n))
        e = modulus_bits(a)
        with recorded_reductions() as calls:
            result = char_poly(a)
        assert calls == [("_hessenberg_packed", e), ("_recurrence_packed", e)]
        assert (n, e) == (301, 241)
        # the scalar recurrence on the same band gives the same coefficients
        rows, s = centered_rows(a)
        assert s == 2  # the integer nearest the mean degree 600 / 301
        band = intlinalg._hessenberg_packed(rows, e)
        assert intlinalg._recurrence_scalar(band, e) == intlinalg._char_poly_mod(rows, e)
        # minus the trace, and n times the one spanning tree
        assert result.coefficients[-2] == -2 * (n - 1)
        assert result.coefficients[:2] == (0, (-1) ** (n - 1) * n)


@st.composite
def bands(draw, e):
    """Hessenberg bands of 0-30 columns: random residues mod 2**e mixed
    with 0, 1 and 2**e - 1."""
    m = draw(st.integers(0, 30))
    top = (1 << e) - 1
    entry = st.one_of(st.sampled_from((0, 1, top)), st.integers(0, top))
    return [[draw(entry) for _ in range(min(c + 2, m))] for c in range(m)]


class TestPackedRecurrence:
    """The packed Hessenberg recurrence (one int per polynomial) against
    the scalar one, called directly with e on both sides of the crossover."""

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(
            (8, 65, 239, 240, 241, CROSSOVER - 1, CROSSOVER, CROSSOVER + 1)
        ).flatmap(lambda e: st.tuples(st.just(e), bands(e)))
    )
    def test_random_bands(self, e_band):
        e, band = e_band
        assert intlinalg._recurrence_packed(band, e) == intlinalg._recurrence_scalar(band, e)

    def test_largest_slot_sums(self):
        # every entry 2**e - 1 = -1: no product vanishes, so step k adds
        # k + 1 products of two residues below 2**e into each slot; eight
        # consecutive e fill the last byte of a slot in every way
        for m in range(41):
            for e in (8, 65, *range(CROSSOVER - 3, CROSSOVER + 5)):
                band = [[(1 << e) - 1] * min(c + 2, m) for c in range(m)]
                assert intlinalg._recurrence_packed(band, e) == intlinalg._recurrence_scalar(band, e)


class TestPolyOps:
    def test_eval(self):
        assert poly_eval(IntPoly([0, -2, 1]), -1) == 3

    def test_eval_complete_graph_value(self):
        # (4 - x)^3 expanded: 64 at x = 0
        p = IntPoly([64, -48, 12, -1])
        assert poly_eval(p, 0) == 64

    # the division of the P = det(xI - L) / x checks: the library has none
    def test_divide_by_x(self):
        assert oracles.divide_by_x(IntPoly([0, -2, 1])) == IntPoly([-2, 1])

    def test_divide_by_x_zero_poly(self):
        assert oracles.divide_by_x(IntPoly([])) == IntPoly([])

    def test_divide_by_x_rejects_constant_term(self):
        with pytest.raises(InputError):
            oracles.divide_by_x(IntPoly([1, 1]))
