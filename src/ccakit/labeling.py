"""Labelling arcs by group elements under an arc-regular action.

When a group acts arc-regularly on a graph, fixing one base arc names every
arc by the unique element carrying the base there.  The line graph of the
subdivision then has one vertex per arc, and the action transported along
the labels is left multiplication, which exhibits that line graph as a
Cayley graph.
"""

from __future__ import annotations

from typing import NamedTuple

from . import perm
from .errors import InternalInconsistencyError
from .graphs import Arc, CayleyColouredGraph, ColouredGraph, arcs, cayley_graph
from .groups import FiniteGroup, minimal_generating_sequence


class ArcLabeling(NamedTuple):
    """A bijection between arcs of ``graph`` and elements of ``group``."""

    graph: ColouredGraph
    group: FiniteGroup
    base_arc: Arc
    arc_to_elem: dict
    elem_to_arc: list


def arc_labeling(graph: ColouredGraph, group: FiniteGroup,
                 base_arc: Arc | None = None) -> ArcLabeling:
    """Label every arc by the group element that moves ``base_arc`` onto it.

    Verifies the whole package: the realization consists of graph
    automorphisms (checked on a generating sequence, since automorphisms
    form a group; a failing generator is named), the orbit map
    g -> g(base_arc) is a bijection onto the arcs (this is arc-regularity),
    and the labelling is equivariant, so label(g(a)) = g * label(a) for
    every g and every arc a: the labels of g's images of all arcs must equal
    g's row of the table.

    That is checked on the rows of the generators and on every row already
    built; a plain-list table counts as built, so its check is whole.  The
    unbuilt rows of a ``closure`` group, with closure's own realization,
    follow.  Say e_i = e_p g_k, p being i's BFS parent in closure: row i is
    row p read through x -> g_k x, and e_i's realization is e_p's composed
    with g_k.  Write a_x for the arc labelled x.  The row of g_k is that
    map, read off the identity row, so its check gives
    g_k(a_x) = a_(g_k x); then e_i(a_x) = e_p(a_(g_k x)), whose label is
    row p at g_k x, which is row i at x, once row p passes.  Row p is built
    and checked, or unbuilt and covered the same way, down to the identity
    row.  A built row is a stored, mutable list, so it is checked as it
    stands.
    """
    if group.realization is None:
        raise ValueError("group needs a permutation realization")
    if len(group.realization[0]) != graph.vertex_count:
        raise ValueError("realization degree does not match the graph")
    all_arcs = arcs(graph)
    if not all_arcs:
        raise ValueError("graph has no arcs to label")
    gens = minimal_generating_sequence(group)
    bad = graph.first_non_automorphism([group.realization[i] for i in gens])
    if bad is not None:
        raise ValueError(
            f"element {group.elements[gens[bad]]} is not a graph automorphism")
    if base_arc is None:
        base_arc = all_arcs[0]
    else:
        base_arc = Arc(*base_arc)
        if not graph.has_edge(*base_arc):
            raise ValueError(f"{base_arc} is not an arc of the graph")
    if group.order != len(all_arcs):
        raise ValueError(
            f"not arc-regular: |G| = {group.order}, {len(all_arcs)} arcs")
    v = graph.vertex_count
    label_of = [-1] * (v * v)  # the label of arc (t, h) at t*v + h
    elem_to_arc = []
    for i, p in enumerate(group.realization):
        a = Arc(p[base_arc.tail], p[base_arc.head])
        if label_of[a.tail * v + a.head] >= 0:
            raise ValueError("not arc-regular: two elements give one arc")
        label_of[a.tail * v + a.head] = i
        elem_to_arc.append(a)
    # orbit size |G| = arc count and no collisions, so this is a bijection
    table = group.table
    for i in group.generators.values():
        table[i]  # builds the generators' rows, which unbuilt rows rely on
    for row, imgs in zip(getattr(table, "built", table), group.realization):
        if row is not None and [label_of[imgs[t] * v + imgs[h]]
                                for t, h in elem_to_arc] != row:
            raise InternalInconsistencyError("labelling is not equivariant")
    arc_to_elem = {a: i for i, a in enumerate(elem_to_arc)}
    return ArcLabeling(graph, group, base_arc, arc_to_elem, elem_to_arc)


def cayley_form(labeling: ArcLabeling) -> CayleyColouredGraph:
    """Present the line graph of the subdivision as a coloured Cayley graph.

    Each edge {x, m_xw} of the subdivision, m_xw the midpoint of {x, w}, is
    the arc (x, w), so the line graph has one vertex per arc, named by its
    label.  Two such edges meet at x, when the arcs share their tail, or at
    the midpoint, when one arc is the other reversed; no other pair meets.
    The connection set C is then the labels of the arcs meeting the base
    arc, and the line graph is Cay(G, C) when, for every arc labelled x, the
    labels of the arcs meeting it are the heads x*c of x's edges.  That is
    verified arc by arc, so edge for edge.
    """
    g, label = labeling.graph, labeling.arc_to_elem
    leaving = [[label[t, w] for w in g.neighbours(t)]
               for t in range(g.vertex_count)]  # labels of the arcs from t

    def meeting(x: int) -> list[int]:
        t, h = labeling.elem_to_arc[x]
        return sorted([y for y in leaving[t] if y != x] + [label[h, t]])

    cg = cayley_graph(labeling.group, meeting(labeling.group.identity))
    for x, pairs in enumerate(cg.adjacency):
        if meeting(x) != [y for y, _ in pairs]:
            raise InternalInconsistencyError(
                "line graph of the subdivision is not the expected Cayley "
                "graph")
    return cg


def induced_vertex_map(h: tuple[int, ...], labeling: ArcLabeling
                       ) -> tuple[int, ...]:
    """Transport an automorphism of the base graph to the element indices.

    The image of element i is the label of h applied to the arc labelled i.
    Group elements themselves transport to the rows of the multiplication
    table; overgroup elements transport to new permutations.  ``h`` must be
    a bijection of the graph's vertices; one that sends every arc to an arc
    then permutes the arcs, so the result is a bijection too.
    """
    imgs = perm.bijection(h)
    if len(imgs) != labeling.graph.vertex_count:
        raise ValueError("degree does not match the labelled graph")
    out = []
    for a in labeling.elem_to_arc:
        key = Arc(imgs[a.tail], imgs[a.head])
        if key not in labeling.arc_to_elem:
            raise ValueError("map does not permute the arcs of the graph")
        out.append(labeling.arc_to_elem[key])
    return tuple(out)
