"""The search kernel and the stabilizer chain of its first-leaf searches,
against the all-permutations filter and against the colour-matrix kernel
that listed every map."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccakit import engine, kernels
from ccakit.graphs import (ColouredGraph, cayley_graph, complete_bipartite,
                           complete_colour_graph, line_graph, subdivision)
from ccakit.groups import (cyclic, dihedral, direct_product, greedy_closure,
                           inverse_classes, quaternion)
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


def chain_closure(g, top: int) -> set:
    """The maps the chain's generators close to, as many as its order."""
    gens, order, _ = engine._searched_group(g, top)
    _, known = greedy_closure(gens, tuple(range(g.vertex_count)),
                              engine._After)
    assert len(known) == order
    return known


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
def test_search_matches_bruteforce(g):
    n = g.vertex_count
    assert chain_closure(g, 0) == brute_colour_automorphisms(n, edge_dict(g))


@pytest.mark.parametrize("g", GRAPHS, ids=lambda g: repr(g))
def test_search_fixing_vertex_0_matches_bruteforce(g):
    brute = brute_colour_automorphisms(g.vertex_count, edge_dict(g))
    assert chain_closure(g, 1) == {p for p in brute if p[0] == 0}


def test_search_output_sorted_and_counted():
    """Each search returns one map or none, and counts its placements."""
    adj = cayley_graph(cyclic(6), [1, 5]).graph.adjacency
    n = len(adj)
    tree = kernels.breadth_first(adj)
    for w in range(n):  # the 6-cycle: a rotation and a reflection each
        (found,), nodes = kernels.search(adj, tree, 0, w)
        assert found[0] == w and kernels.preserves(adj, found)
        assert nodes >= n
    assert kernels.search(adj, tree, 1, 5) == ([(0, 5, 4, 3, 2, 1)], 5)
    assert kernels.search(adj, tree, 1, 2) == ([], 0)
    assert kernels.search(adj, tree, 2, 5) == ([tuple(range(n))], 4)
    assert kernels.search(adj, tree, 2, 1) == ([], 0)  # 1 is fixed


def test_search_rejects_disconnected():
    g = cayley_graph(cyclic(6), [2, 4]).graph
    with pytest.raises(ValueError):
        kernels.breadth_first(g.adjacency)


def test_check_assoc():
    c4 = cyclic(4)
    flat = [x for row in c4.table for x in row]
    assert kernels.check_assoc(4, flat) == -1
    broken = list(flat)
    broken[1 * 4 + 2] = 0  # r * r^2 = e breaks associativity somewhere
    assert kernels.check_assoc(4, broken) >= 0


def assert_matches_matrix_search(g):
    """The chain's generators close to the listed maps, for the whole group
    and for the stabilizer of vertex 0, and each first-leaf search returns
    a listed map exactly when one fixes order[:k] and sends order[k] to w."""
    n = g.vertex_count
    m = colour_matrix(g if isinstance(g, ColouredGraph) else g.graph)
    listed, _ = matrix_search(n, m, range(n))
    assert chain_closure(g, 0) == set(listed)
    assert chain_closure(g, 1) == {p for p in listed if p[0] == 0}
    tree = order, _, _ = kernels.breadth_first(g.adjacency)
    for k in range(n):
        for w in range(n):
            want = [p for p in listed if p[order[k]] == w
                    and all(p[v] == v for v in order[:k])]
            found, _ = kernels.search(g.adjacency, tree, k, w)
            assert len(found) == bool(want) and set(found) <= set(want)


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
    found = chain_closure(g, 0)
    assert found == brute_colour_automorphisms(n, edge_dict(g))
    img = data.draw(st.permutations(range(n)), label="img")
    assert kernels.preserves(g.adjacency, img) == (tuple(img) in found) == \
        table_preserves(g.adjacency, img)
