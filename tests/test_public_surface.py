"""The public names of ``chipfire``, pinned.

Adding, removing or re-exporting a public name is an API change, so it has
to be an edit of this list as well.
"""

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
    "SnfResult",
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
    "poly_divide_by_x",
    "poly_eval",
    "quotient_by_classes",
    "random_connected_graph",
    "random_tree",
    "read_edge_list",
    "reduced_laplacian",
    "smith_normal_form",
    "spanning_tree_count",
    "subgroup_invariants",
    "tree_from_pruefer",
    "verify_cone_theorem",
    "verify_eigenvectors",
    "verify_join_theorem",
    "verify_tree_bound",
]

# Graph(n, pairs), a == b on canonical groups and sum(d) replace the three
# aliases; the two oracles live in tests/oracles.py.
REMOVED_NAMES = [
    "from_edge_list",
    "groups_isomorphic",
    "divisor_degree",
    "brute_force_spanning_trees",
    "has_conformity_property",
]


def test_public_names_are_pinned():
    assert sorted(chipfire.__all__) == PUBLIC_NAMES
    for name in REMOVED_NAMES:
        assert not hasattr(chipfire, name), name
