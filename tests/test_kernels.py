"""The search kernel against the all-permutations filter and against the
colour-matrix kernel it replaced."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccakit import kernels
from ccakit.graphs import (ColouredGraph, cayley_graph, complete_bipartite,
                           complete_colour_graph, line_graph, subdivision)
from ccakit.groups import (cyclic, dihedral, direct_product, inverse_classes,
                           quaternion)
from ccakit.speclang import elaborate, parse_expr

from bruteforce import (brute_colour_automorphisms, colour_matrix, edge_dict,
                        matrix_search, table_preserves)
from test_engine import ORDER_12_GROUPS

GRAPHS = [
    cayley_graph(cyclic(6), [1, 5]).graph,
    cayley_graph(cyclic(8), [1, 7, 4]).graph,
    complete_colour_graph(quaternion()).graph,
    complete_colour_graph(direct_product(cyclic(2), cyclic(2))).graph,
    cayley_graph(dihedral(4), [4, 5, 1, 3]).graph,
]


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
def test_search_matches_bruteforce(g):
    n = g.vertex_count
    found, _ = kernels.search(g.adjacency, range(n))
    assert set(found) == brute_colour_automorphisms(n, edge_dict(g))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
def test_search_fixing_vertex_0_matches_bruteforce(g):
    n = g.vertex_count
    found, _ = kernels.search(g.adjacency, (0,))
    brute = brute_colour_automorphisms(n, edge_dict(g))
    assert found == sorted(p for p in brute if p[0] == 0)


def test_search_output_sorted_and_counted():
    g = cayley_graph(cyclic(6), [1, 5]).graph
    n = g.vertex_count
    found, nodes = kernels.search(g.adjacency, range(n))
    assert found == sorted(found)
    assert len(found) == 12  # the 6-cycle: rotations and reflections
    # distinct leaves need distinct committed placements; prefixes are shared
    assert nodes >= max(len(found), n)


def test_search_rejects_disconnected():
    g = cayley_graph(cyclic(6), [2, 4]).graph
    with pytest.raises(ValueError):
        kernels.search(g.adjacency, range(6))


def test_check_assoc():
    c4 = cyclic(4)
    flat = [x for row in c4.table for x in row]
    assert kernels.check_assoc(4, flat) == -1
    broken = list(flat)
    broken[1 * 4 + 2] = 0  # r * r^2 = e breaks associativity somewhere
    assert kernels.check_assoc(4, broken) >= 0


def assert_matches_matrix_search(g):
    """Same sorted images and the same node count, for both root sets."""
    n = g.vertex_count
    m = colour_matrix(g if isinstance(g, ColouredGraph) else g.graph)
    for roots in ((0,), range(n)):
        assert kernels.search(g.adjacency, roots) == matrix_search(n, m, roots)


@pytest.mark.parametrize("expr", ORDER_12_GROUPS)
def test_search_matches_matrix_search_on_cayley_graphs(expr):
    """Every connected Cayley graph of the group, as the verdict path
    builds it from the table."""
    g = elaborate(parse_expr(expr), {})
    classes = inverse_classes(g)
    graphs = 0
    for size in range(1, len(classes) + 1):
        for combo in combinations(classes, size):
            conn = sorted(c for cls in combo for c in cls)
            if g.generates(conn):
                assert_matches_matrix_search(cayley_graph(g, conn))
                graphs += 1
    assert graphs > 0


K33 = complete_bipartite(3, 3)
S_K33 = subdivision(K33)[0]
OTHER_GRAPHS = [K33, S_K33, line_graph(S_K33)[0],
                ColouredGraph(5, {(0, 1): 0, (1, 2): 1, (2, 3): 0, (3, 4): 1,
                                  (4, 0): 2, (0, 2): 0})]


@pytest.mark.parametrize("g", OTHER_GRAPHS, ids=lambda g: repr(g))
def test_search_matches_matrix_search_on_other_graphs(g):
    assert_matches_matrix_search(g)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_search_matches_matrix_search_on_random_graphs(data):
    """Connected graphs: a random spanning tree plus random extra edges,
    each edge one of three colours; and the colour check of a random
    bijection on each."""
    n = data.draw(st.integers(1, 7), label="n")
    edges = {(data.draw(st.integers(0, v - 1)), v): 0 for v in range(1, n)}
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if pairs:
        for pair in data.draw(st.lists(st.sampled_from(pairs), max_size=8)):
            edges[pair] = 0
    for pair in edges:
        edges[pair] = data.draw(st.integers(0, 2))
    g = ColouredGraph(n, edges)
    assert_matches_matrix_search(g)
    found, _ = kernels.search(g.adjacency, range(n))
    assert set(found) == brute_colour_automorphisms(n, edge_dict(g))
    img = data.draw(st.permutations(range(n)), label="img")
    assert kernels.preserves(g.adjacency, img) == (tuple(img) in found) == \
        table_preserves(g.adjacency, img)
