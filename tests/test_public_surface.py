"""The public names of ``chipfire`` and the public members of its value
types, pinned.

Adding, removing or re-exporting a public name or member is an API change,
so it has to be an edit of these lists as well.
"""

import dataclasses

import chipfire

PUBLIC_NAMES = [
    "ChipfireError",
    "ConeSequenceReport",
    "CriticalGroup",
    "Graph",
    "InputError",
    "IntMatrix",
    "IntPoly",
    "JoinOrderReport",
    "NotConnectedError",
    "SizeError",
    "TreeBoundReport",
    "char_poly",
    "char_poly_restricted",
    "class_order",
    "complete",
    "cone",
    "cone_difference_divisors",
    "critical_group",
    "cycle",
    "determinant",
    "direct_sum",
    "fire_vertex",
    "format_edge_list",
    "is_connected",
    "is_principal",
    "is_tree",
    "join",
    "laplacian",
    "leaves",
    "parse_edge_list",
    "path",
    "poly_eval",
    "quotient_by_classes",
    "random_connected_graph",
    "random_tree",
    "read_edge_list",
    "reduced_laplacian",
    "spanning_tree_count",
    "subgroup_invariants",
    "tree_from_pruefer",
    "verify_cone_theorem",
    "verify_eigenvectors",
    "verify_join_theorem",
    "verify_tree_bound",
]

# Graph(n, pairs), a == b on canonical groups and sum(d) replace the three
# aliases; the two oracles, and the SNF with its result type, live in
# tests/oracles.py (no library code runs an SNF); IntPoly(p.coefficients[1:])
# replaces poly_divide_by_x.
REMOVED_NAMES = [
    "from_edge_list",
    "groups_isomorphic",
    "divisor_degree",
    "brute_force_spanning_trees",
    "has_conformity_property",
    "SnfResult",
    "smith_normal_form",
    "poly_divide_by_x",
]


def test_public_names_are_pinned():
    assert sorted(chipfire.__all__) == PUBLIC_NAMES
    assert len(PUBLIC_NAMES) == 44
    for name in REMOVED_NAMES:
        assert not hasattr(chipfire, name), name


PUBLIC_MEMBERS = {
    "IntMatrix": ["cols", "from_rows", "is_square", "rows", "to_rows"],
    "IntPoly": ["coefficients", "degree", "is_zero"],
    "Graph": ["degree", "edge_count", "edge_list", "edges", "neighbors", "vertex_count"],
    "CriticalGroup": ["from_cyclic_orders", "invariant_factors", "is_trivial", "order"],
}

# Members no code under src/ called.  A matrix is built from its entries or
# rows and read by a[i, j], iteration or to_rows(); an edge is tested by
# v in g.neighbors(u); CriticalGroup() is the trivial group, and
# CriticalGroup.from_cyclic_orders(map(abs, d)) the group of a diagonal d.
REMOVED_MEMBERS = [
    ("IntMatrix", "identity"),
    ("IntMatrix", "zeros"),
    ("IntMatrix", "entries"),
    ("IntMatrix", "entry"),
    ("IntMatrix", "row"),
    ("IntMatrix", "column"),
    ("IntMatrix", "transpose"),
    ("IntMatrix", "mul_vector"),
    ("Graph", "has_edge"),
    ("CriticalGroup", "trivial"),
    ("CriticalGroup", "from_diagonal"),
    ("IntMatrix", "__matmul__"),
]


def public_members(cls):
    names = set(dir(cls)) | {field.name for field in dataclasses.fields(cls)}
    return sorted(name for name in names if not name.startswith("_"))


def test_public_members_of_the_value_types_are_pinned():
    for name, members in PUBLIC_MEMBERS.items():
        assert public_members(getattr(chipfire, name)) == members, name
    for name, member in REMOVED_MEMBERS:
        assert not hasattr(getattr(chipfire, name), member), f"{name}.{member}"


def test_the_presentation_cache_reports_and_does_not_clear():
    # the benchmark reads these four counters; a test that needs a
    # presentation computed again builds a fresh equal Graph instead
    info = chipfire.sandpile._reduced_snf.cache_info()
    assert info._fields == ("hits", "misses", "maxsize", "currsize")
    assert not hasattr(chipfire.sandpile._reduced_snf, "cache_clear")
