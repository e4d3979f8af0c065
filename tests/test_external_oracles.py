"""Checks against independent third-party implementations.

sympy's Smith-form invariant factors and networkx's spanning-tree count are
test oracles only: each test skips when a library it needs is missing
(networkx's count also needs numpy and scipy), and the runtime stays
stdlib-only.  Graphs stay at 12 vertices or fewer, because networkx counts
spanning trees in floating point.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chipfire import (
    CriticalGroup,
    critical_group,
    random_connected_graph,
    reduced_laplacian,
    spanning_tree_count,
)


@st.composite
def small_connected_graphs(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from((0.3, 0.5, 0.8)))
    return random_connected_graph(rng, draw(st.integers(2, 12)), density)


def sympy_group(rows):
    """Canonical group from sympy's invariant factors, with the 1s dropped."""
    sympy = pytest.importorskip("sympy")
    normalforms = pytest.importorskip("sympy.matrices.normalforms")
    factors = normalforms.invariant_factors(sympy.Matrix(rows), domain=sympy.ZZ)
    return CriticalGroup(int(abs(d)) for d in factors if abs(d) != 1)


class TestAgainstSympy:
    @settings(max_examples=60, deadline=None)
    @given(small_connected_graphs())
    def test_critical_group(self, g):
        assert critical_group(g) == sympy_group(reduced_laplacian(g, 0).to_rows())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 10**6), min_size=1, max_size=12))
    def test_from_cyclic_orders(self, orders):
        diagonal = [[o if i == j else 0 for j in range(len(orders))] for i, o in enumerate(orders)]
        assert CriticalGroup.from_cyclic_orders(orders) == sympy_group(diagonal)


class TestAgainstNetworkx:
    @settings(max_examples=60, deadline=None)
    @given(small_connected_graphs())
    def test_spanning_tree_count(self, g):
        nx = pytest.importorskip("networkx")
        # number_of_spanning_trees builds a scipy sparse Laplacian
        pytest.importorskip("numpy")
        pytest.importorskip("scipy")
        h = nx.Graph()
        h.add_nodes_from(range(g.vertex_count))
        h.add_edges_from(g.edges)
        assert spanning_tree_count(g) == round(nx.number_of_spanning_trees(h))
