"""Every public result type, and the SNF oracle's result, is an immutable
value.

Each one must survive ``pickle`` (so results can cross a process pool),
``copy.copy`` and ``copy.deepcopy`` with equal value and hash, and refuse
assignment to its fields.
"""

import copy
import pickle

import pytest

import oracles
from chipfire import (
    CriticalGroup,
    Graph,
    IntMatrix,
    IntPoly,
    char_poly_restricted,
    cycle,
    path,
    verify_cone_theorem,
    verify_join_theorem,
    verify_tree_bound,
)

VALUES = {
    "Graph": (Graph(3, [(0, 1), (1, 2)]), "vertex_count"),
    "IntMatrix": (IntMatrix.from_rows([[2, -1], [0, 3]]), "rows"),
    "IntPoly": (char_poly_restricted(cycle(5)), "coefficients"),
    "SnfResult": (oracles.smith_normal_form(IntMatrix.from_rows([[2, 4], [6, 8]])), "diagonal"),
    "CriticalGroup": (CriticalGroup([2, 4]), "invariant_factors"),
    "ConeSequenceReport": (verify_cone_theorem(path(3), 2), "pic0"),
    "JoinOrderReport": (verify_join_theorem([path(2), cycle(3)]), "holds"),
    "TreeBoundReport": (verify_tree_bound(Graph(4, [(0, 1), (0, 2), (0, 3)]), 2), "holds"),
}

COPIES = {
    "pickle": lambda x: pickle.loads(pickle.dumps(x)),
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
}


@pytest.mark.parametrize("name", VALUES)
@pytest.mark.parametrize("how", COPIES)
def test_round_trip_keeps_value_and_hash(name, how):
    value, _ = VALUES[name]
    twin = COPIES[how](value)
    assert type(twin) is type(value)
    assert twin == value
    assert hash(twin) == hash(value)
    assert repr(twin) == repr(value)


@pytest.mark.parametrize("name", VALUES)
def test_fields_cannot_be_assigned(name):
    value, field = VALUES[name]
    before = getattr(value, field)
    with pytest.raises(AttributeError):
        setattr(value, field, before)
    assert getattr(value, field) == before


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 3), (3, 0), (2, 3)])
def test_matrix_repr_evaluates_to_an_equal_matrix(rows, cols):
    m = IntMatrix(rows, cols, range(rows * cols))
    assert eval(repr(m)) == m


def test_repr_of_ints_past_the_str_digit_limit():
    # str() refuses ints of more than 4300 digits by default
    big = "1" + "0" * 5000
    assert repr(IntPoly([-1, 10**5000])) == f"IntPoly([-1, {big}])"
    assert repr(IntMatrix.from_rows([[10**5000, 0], [-(10**5000), 2]])) == (
        f"IntMatrix.from_rows([[{big}, 0], [-{big}, 2]])"
    )


class TestEquality:
    def test_matrix_shape_is_part_of_the_value(self):
        assert IntMatrix(0, 3, []) != IntMatrix(0, 2, [])
        assert hash(IntMatrix(0, 3, [])) == hash(IntMatrix(0, 3, []))

    def test_matrix_is_not_its_rows(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert m != tuple(m)
        assert tuple(m) != m

    def test_trailing_zero_coefficients_do_not_change_a_polynomial(self):
        assert IntPoly([1, 0]) == IntPoly([1])
        assert hash(IntPoly([1, 0])) == hash(IntPoly([1]))
        assert IntPoly([0, 0]) == IntPoly()

    def test_equal_fields_in_different_types_are_unequal(self):
        assert IntPoly() != CriticalGroup()
        assert CriticalGroup() != IntPoly()
