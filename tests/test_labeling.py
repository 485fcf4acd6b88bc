"""Arc labellings: the bridge from an arc-regular action to a Cayley graph."""

from itertools import combinations

import pytest

from ccakit.graphs import Arc, ColouredGraph, arcs, cayley_graph, is_connected
from ccakit.labeling import arc_labeling, cayley_form, induced_vertex_map
from ccakit.engine import is_affine, is_colour_preserving
from ccakit.errors import InternalInconsistencyError
from ccakit.groups import closure
from ccakit.bipartite import knn_actors
from ccakit.perm import from_cycles

from bruteforce import (cayley_edges, line_graph_of_subdivision_by_label,
                        whole_row_equivariance)


def hexagon():
    from ccakit.groups import cyclic
    return cayley_graph(cyclic(6), [1, 5]).graph


def dihedral_action():
    rot = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    flip = (0, 5, 4, 3, 2, 1)
    return closure([rot, flip], names=["r", "s"])


def test_arc_labeling_bijective_and_equivariant():
    g = hexagon()
    grp = dihedral_action()
    lab = arc_labeling(g, grp)
    assert lab.base_arc == arcs(g)[0]
    assert lab.arc_to_elem[lab.base_arc] == grp.identity
    assert len(lab.arc_to_elem) == grp.order == 12
    # equivariance at one sampled pair
    p = grp.realization[5]
    for arc, elem in lab.arc_to_elem.items():
        moved = Arc(p[arc.tail], p[arc.head])
        assert lab.arc_to_elem[moved] == grp.table[5][elem]


def test_arc_labeling_refuses_a_table_with_two_entries_swapped():
    g = hexagon()
    grp = dihedral_action()
    row = grp.table[5]
    row[2], row[7] = row[7], row[2]
    with pytest.raises(InternalInconsistencyError,
                       match="labelling is not equivariant"):
        arc_labeling(g, grp)


def test_arc_labeling_refuses_a_corrupted_generator_row():
    """The unbuilt rows of a closure group are read through the
    generators' rows, so a wrong entry there must not pass unseen."""
    g = hexagon()
    for gen in ("r", "s"):
        grp = dihedral_action()
        row = grp.table[grp.generators[gen]]
        row[3] = row[4]
        with pytest.raises(InternalInconsistencyError,
                           match="labelling is not equivariant"):
            arc_labeling(g, grp)


def _labelled_action(n):
    """The hexagon under D_12 (n None) or K_{n,n} under C_n x D_2n: the
    graph, a maker of fresh copies of the group, and the base arc."""
    if n is None:
        return hexagon(), dihedral_action, None
    a = knn_actors(n)
    return a.graph, lambda: knn_actors(n).g, a.base_arc


@pytest.mark.parametrize("n", [None, 3, 5, 7])
def test_arc_labeling_agrees_with_the_whole_row_check(n):
    """arc_labeling compares only the generators' rows and the rows already
    built; it accepts and refuses what the check of every row does."""
    graph, action, base_arc = _labelled_action(n)
    grp = action()
    lab = arc_labeling(graph, grp, base_arc)
    assert whole_row_equivariance(grp, lab.base_arc)
    for i in (max(grp.generators.values()), grp.order - 1):
        bad = action()
        row = bad.table[i]
        row[0], row[1] = row[1], row[0]
        with pytest.raises(InternalInconsistencyError,
                           match="labelling is not equivariant"):
            arc_labeling(graph, bad, base_arc)
        assert not whole_row_equivariance(bad, lab.base_arc)


def test_arc_labeling_rejects_wrong_size():
    g = hexagon()
    rot_only = closure([from_cycles(6, [(0, 1, 2, 3, 4, 5)])])
    with pytest.raises(ValueError):
        arc_labeling(g, rot_only)


def test_arc_labeling_rejects_non_automorphisms_and_bad_bases():
    g = hexagon()
    swap = (1, 0, 2, 3, 4, 5)
    grp = closure([swap], names=["t"])
    with pytest.raises(ValueError,
                       match="element t is not a graph automorphism"):
        arc_labeling(g, grp)
    with pytest.raises(ValueError, match="not an arc"):
        arc_labeling(g, dihedral_action(), base_arc=Arc(0, 2))


def test_arc_labeling_checks_automorphisms_on_generators(monkeypatch):
    """On the 8-cycle, x -> 3x is a group automorphism of Z8 but sends the
    edge {0, 1} to {0, 3}; with the rotation it generates 16 elements, one
    per arc, and only the two generators are checked."""
    from ccakit.graphs import ColouredGraph
    from ccakit.groups import cyclic
    octagon = cayley_graph(cyclic(8), [1, 7]).graph
    rot = from_cycles(8, [tuple(range(8))])
    grp = closure([rot, tuple(3 * x % 8 for x in range(8))], names=["r", "m"])
    assert grp.order == len(arcs(octagon)) == 16
    sizes = []
    real = ColouredGraph.first_non_automorphism

    def recording(graph, perms):
        sizes.append(len(perms))
        return real(graph, perms)

    monkeypatch.setattr(ColouredGraph, "first_non_automorphism", recording)
    with pytest.raises(ValueError,
                       match="^element m is not a graph automorphism$"):
        arc_labeling(octagon, grp)
    assert sizes == [2]


def test_arc_labeling_respects_chosen_base():
    g = hexagon()
    grp = dihedral_action()
    lab = arc_labeling(g, grp, base_arc=Arc(2, 3))
    assert lab.arc_to_elem[Arc(2, 3)] == grp.identity


def test_cayley_form_of_hexagon():
    g = hexagon()
    grp = dihedral_action()
    cg = cayley_form(arc_labeling(g, grp))
    # L(S(hexagon)) is a 12-cycle, so the Cayley form has degree 2
    assert cg.graph.vertex_count == 12
    assert cg.graph.edge_count == 12
    assert len(cg.connection) == 2
    assert is_connected(cg.graph)


@pytest.mark.parametrize("n", [None, 3, 5, 7])
def test_cayley_form_agrees_with_the_generic_line_graph(n):
    """The arcs meeting each arc give the edges of L(S(X)) that the generic
    subdivision and line graph give, read back to arc labels."""
    graph, action, base_arc = _labelled_action(n)
    lab = arc_labeling(graph, action(), base_arc)
    assert (cayley_edges(cayley_form(lab))
            == line_graph_of_subdivision_by_label(lab))


def test_cayley_form_of_k4_under_a4_agrees_with_the_generic_line_graph():
    """A4 acts arc-regularly on K4, a graph that is not bipartite; each arc
    meets the two other arcs from its tail and its reverse."""
    k4 = ColouredGraph(4, {e: 0 for e in combinations(range(4), 2)})
    a4 = closure([from_cycles(4, [(0, 1, 2)]),
                  from_cycles(4, [(0, 1), (2, 3)])])
    lab = arc_labeling(k4, a4)
    cg = cayley_form(lab)
    assert cg.vertex_count == 12 and len(cg.connection) == 3
    assert cayley_edges(cg) == line_graph_of_subdivision_by_label(lab)


def test_cayley_form_refuses_a_corrupted_connection_column():
    g = hexagon()
    c = cayley_form(arc_labeling(g, dihedral_action())).connection[0]
    grp = dihedral_action()
    lab = arc_labeling(g, grp)
    col = grp.column(c)
    col[0], col[1] = col[1], col[0]
    with pytest.raises(InternalInconsistencyError,
                       match="line graph of the subdivision is not the "
                             "expected Cayley graph"):
        cayley_form(lab)


def test_induced_map_of_group_element_is_translation():
    g = hexagon()
    grp = dihedral_action()
    lab = arc_labeling(g, grp)
    cg = cayley_form(lab)
    for i in (1, 5, 7):
        induced = induced_vertex_map(grp.realization[i], lab)
        assert is_colour_preserving(cg.graph, induced)
        ok, decomp = is_affine(cg, induced)
        assert ok
        assert decomp.automorphism == tuple(range(grp.order))
        assert decomp.translation == i


def test_induced_map_rejects_non_automorphism():
    g = hexagon()
    lab = arc_labeling(g, dihedral_action())
    with pytest.raises(ValueError, match="permute the arcs"):
        induced_vertex_map((1, 0, 2, 3, 4, 5), lab)
    # a repeated image, an out-of-range image, a wrong length
    for bad in ((1, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), (0, 1)):
        with pytest.raises(ValueError):
            induced_vertex_map(bad, lab)
