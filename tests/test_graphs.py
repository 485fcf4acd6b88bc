import pytest

from ccakit.graphs import (Arc, ColouredGraph, arcs, cayley_graph,
                           complete_bipartite, complete_colour_graph,
                           is_connected)
from ccakit.groups import cyclic, dihedral, direct_product

from bruteforce import colour_matrix, line_graph, subdivision


def test_coloured_graph_basics():
    g = ColouredGraph(4, {(0, 1): 0, (1, 2): 0, (2, 3): 1})
    assert g.edge_count == 3
    assert g.has_edge(1, 0) and not g.has_edge(0, 2)
    assert g.edge_colour(3, 2) == 1
    assert g.neighbours(1) == (0, 2)
    assert len(g.adjacency[0]) == 1
    assert g.colours_used() == [0, 1]
    assert g.adjacency == [[(1, 0)], [(0, 0), (2, 0)], [(1, 0), (3, 1)],
                           [(2, 1)]]
    m = colour_matrix(g)
    assert m[0 * 4 + 1] == m[1 * 4 + 0] == 0
    assert m[0 * 4 + 2] == -1


def test_first_non_automorphism_ignores_colours():
    path = ColouredGraph(4, {(0, 1): 0, (1, 2): 0, (2, 3): 1})
    flip = (3, 2, 1, 0)  # swaps the colours, keeps the edges
    swap = (1, 0, 2, 3)  # sends {1, 2} onto the non-edge {0, 2}
    ident = (0, 1, 2, 3)
    assert path.first_non_automorphism([]) is None
    assert path.first_non_automorphism([ident, flip]) is None
    assert path.first_non_automorphism([ident, flip, swap, swap]) == 2


def test_coloured_graph_rejects_bad_edges():
    with pytest.raises(ValueError):
        ColouredGraph(3, {(0, 0): 0})
    with pytest.raises(ValueError):
        ColouredGraph(3, {(0, 3): 0})
    with pytest.raises(ValueError):
        ColouredGraph(3, {(0, 1): 0, (1, 0): 1})  # two colours, one edge


def test_cayley_graph_colours_by_inverse_pair():
    c6 = cyclic(6)
    cg = cayley_graph(c6, [1, 5, 3])
    assert cg.graph.vertex_count == 6
    assert cg.graph.edge_count == 9  # 6 from the hexagon pair + 3 diagonals
    # {r, r^5} is one class, {r^3} another
    assert cg.adjacency[0] == [(1, 1), (3, 3), (5, 1)]
    assert cg.adjacency[4] == [(1, 3), (3, 1), (5, 1)]
    assert cg.graph.edge_colour(0, 1) == 1
    assert cg.graph.edge_colour(0, 3) == 3


def test_cayley_graph_refusals():
    c6 = cyclic(6)
    with pytest.raises(ValueError, match="identity"):
        cayley_graph(c6, [0, 1, 5])
    with pytest.raises(ValueError, match="inverse-closed"):
        cayley_graph(c6, [1])
    with pytest.raises(ValueError, match="outside"):
        cayley_graph(c6, [9])


def test_complete_colour_graph():
    kg = complete_colour_graph(cyclic(3))
    assert kg.graph.vertex_count == 3
    assert kg.graph.edge_count == 3
    assert len(kg.graph.colours_used()) == 1  # {r, r^2} is a single class
    with pytest.raises(ValueError):
        complete_colour_graph(cyclic(1))


def test_complete_bipartite_and_subdivision_counts():
    k33 = complete_bipartite(3, 3)
    assert k33.vertex_count == 6
    assert k33.edge_count == 9
    s, prov = subdivision(k33)
    assert s.vertex_count == 15
    assert s.edge_count == 18
    assert prov[0] == ("vertex", 0)
    assert prov[6][0] == "edge"
    # every midpoint has degree 2, every original vertex keeps its degree
    for v in range(15):
        kind, src = prov[v]
        assert len(s.adjacency[v]) == (2 if kind == "edge"
                                      else len(k33.adjacency[src]))


def test_line_graph_of_subdivided_k33():
    s, _ = subdivision(complete_bipartite(3, 3))
    lg, edge_of_vertex = line_graph(s)
    assert lg.vertex_count == 18
    assert all(len(lg.adjacency[v]) == 3 for v in range(18))
    assert len(edge_of_vertex) == 18
    assert is_connected(lg)


def test_connectivity_tracks_generation():
    c6 = cyclic(6)
    assert not is_connected(cayley_graph(c6, [2, 4]).graph)
    assert is_connected(cayley_graph(c6, [1, 5]).graph)
    g18 = direct_product(cyclic(3), dihedral(3))
    conn = [g18.generators["r1"], g18.inverse[g18.generators["r1"]],
            g18.generators["s2"]]
    assert not g18.generates(conn)
    assert not is_connected(cayley_graph(g18, conn).graph)


def test_arcs_sorted_both_ways():
    g = ColouredGraph(3, {(0, 1): 0, (1, 2): 0})
    assert arcs(g) == [Arc(0, 1), Arc(1, 0), Arc(1, 2), Arc(2, 1)]
