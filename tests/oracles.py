"""Reference implementations kept as test oracles.

Each function here is a slower, independent route to a result that the
library computes another way; tests assert that both agree.
"""

import math
from typing import Iterable, Sequence

from chipfire import (
    CriticalGroup,
    Graph,
    InputError,
    IntMatrix,
    IntPoly,
    determinant,
    laplacian,
    reduced_laplacian,
    smith_normal_form,
)
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
                (t if i == j else 0) - a.entry(i, j)
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
    c = snf.u.mul_vector(d)
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
    rows = [
        list(reduced.row(i)) + [col[i] for col in columns] for i in range(reduced.rows)
    ]
    if not rows:  # single-vertex graph: Pic0 is trivial
        return CriticalGroup.trivial()
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    return CriticalGroup.from_diagonal(snf.diagonal)


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
        return CriticalGroup.trivial()
    remove = 0
    reduced = reduced_laplacian(g, remove)
    columns = [_reduced_coordinates(d, remove) for d in gens]
    k = reduced.rows
    if k == 0:  # single-vertex graph: every class is trivial
        return CriticalGroup.trivial()
    rows = [
        [col[i] for col in columns] + list(reduced.row(i)) for i in range(k)
    ]
    snf = smith_normal_form(IntMatrix.from_rows(rows))
    rank = sum(1 for d in snf.diagonal if d != 0)
    total_cols = r + k
    # kernel basis of [G | Lred]: columns of V past the rank
    relation_rows = [
        [snf.v.entry(i, j) for j in range(rank, total_cols)] for i in range(r)
    ]
    relations = smith_normal_form(IntMatrix.from_rows(relation_rows))
    if any(d == 0 for d in relations.diagonal) or len(relations.diagonal) < r:
        raise AssertionError("relation lattice of finite classes must have full rank")
    return CriticalGroup.from_diagonal(relations.diagonal)
