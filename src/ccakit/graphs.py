"""Edge-coloured simple graphs and the constructions the analysis needs."""

from __future__ import annotations

from functools import cached_property
from itertools import chain
from typing import NamedTuple

from .groups import FiniteGroup, greedy_closure


class Arc(NamedTuple):
    tail: int
    head: int


class ColouredGraph:
    """A finite simple graph with a colour id on every edge.

    Instances are immutable by convention; the adjacency lists that the
    search and the colour checks read are cached on first use.
    """

    def __init__(self, vertex_count: int, edge_colours, colour_names=None,
                 vertex_names=None):
        if vertex_count < 1:
            raise ValueError("a graph needs at least one vertex")
        self.vertex_count = vertex_count
        colour: dict[tuple[int, int], int] = {}
        for (u, v), cid in dict(edge_colours).items():
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge ({u},{v}) outside the vertex range")
            if cid < 0:
                raise ValueError("colour ids must be non-negative")
            key = (u, v) if u < v else (v, u)
            if key in colour and colour[key] != cid:
                raise ValueError(f"edge {key} given two colours")
            colour[key] = cid
        self._colour = colour
        self.colour_names = dict(colour_names or {})
        if vertex_names is not None and len(vertex_names) != vertex_count:
            raise ValueError("one name per vertex, please")
        self.vertex_names = vertex_names

    @property
    def edge_count(self) -> int:
        return len(self._colour)

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._colour)

    def has_edge(self, u: int, v: int) -> bool:
        return ((u, v) if u < v else (v, u)) in self._colour

    def edge_colour(self, u: int, v: int) -> int:
        return self._colour[(u, v) if u < v else (v, u)]

    def first_non_automorphism(self, perms) -> int | None:
        """Position in ``perms`` of the first vertex permutation that sends
        some edge off the edge set (colours ignored), or None if none does."""
        edges = self._colour
        for i, imgs in enumerate(perms):
            for (u, v) in edges:
                a, b = imgs[u], imgs[v]
                if ((a, b) if a < b else (b, a)) not in edges:
                    return i
        return None

    def colours_used(self) -> list[int]:
        return sorted(set(self._colour.values()))

    @cached_property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """``adjacency[v]``: the (neighbour, colour) pairs at v, ascending."""
        adj = [[] for _ in range(self.vertex_count)]
        for (a, b), cid in self._colour.items():
            adj[a].append((b, cid))
            adj[b].append((a, cid))
        for pairs in adj:
            pairs.sort()
        return adj

    def neighbours(self, v: int) -> tuple[int, ...]:
        return tuple(x for x, _ in self.adjacency[v])

    def vertex_label(self, v: int) -> str:
        if self.vertex_names is not None:
            return self.vertex_names[v]
        return str(v)

    def colour_label(self, cid: int) -> str:
        return self.colour_names.get(cid, f"c{cid}")

    def __repr__(self) -> str:
        return (f"<ColouredGraph |V|={self.vertex_count} "
                f"|E|={self.edge_count} colours={len(set(self._colour.values()))}>")


class CayleyColouredGraph:
    """A Cayley graph with its natural inverse-pair colouring.

    ``connection`` holds element indices, sorted; the graph joins g to g*c
    and colours the edge by min(index(c), index(c^-1)).  The rest is read
    off the group on first use: the search's adjacency lists and the named
    ``graph`` for reports and replay from the connection's columns, and a
    generating set from the rows of the elements it keeps.
    """

    def __init__(self, group: FiniteGroup, connection: tuple[int, ...]):
        self.group = group
        self.connection = connection

    @property
    def vertex_count(self) -> int:
        return self.group.order

    @cached_property
    def adjacency(self) -> list[list[tuple[int, int]]]:
        """``adjacency[g]``: the pairs (g*c, colour of c), c in the
        connection set, ascending: read off the connection's columns."""
        g = self.group
        cids = [min(c, g.inverse[c]) for c in self.connection]
        cols = [g.column(c) for c in self.connection]
        # with no connection, zip would give no vertex at all
        heads = zip(*cols) if cols else [()] * g.order
        return [sorted(zip(h, cids)) for h in heads]

    @cached_property
    def generating_set(self) -> list[int]:
        """Greedy generators of the connection set, topped up from the
        whole group when it does not generate."""
        g = self.group
        kept, _ = greedy_closure(chain(self.connection, range(g.order)),
                                 g.identity, g.table.__getitem__)
        return kept

    @cached_property
    def graph(self) -> ColouredGraph:
        g, inv = self.group, self.group.inverse
        names = {c: "{%s}" % ",".join(
                     g.elements[x] for x in sorted({c, inv[c]}))
                 for c in self.connection if c <= inv[c]}
        edge_colours = {}
        for c in self.connection:
            for i, j in enumerate(g.column(c)):
                edge_colours[(i, j) if i < j else (j, i)] = min(c, inv[c])
        return ColouredGraph(g.order, edge_colours, names,
                             vertex_names=g.elements)


def cayley_graph(g: FiniteGroup, connection) -> CayleyColouredGraph:
    """Cay(G, C) with the natural colouring; C must omit the identity and be
    inverse-closed (no silent closing: add inverses explicitly)."""
    conn = sorted(set(connection))
    for c in conn:
        if not 0 <= c < g.order:
            raise ValueError(f"connection element {c} outside the group")
        if c == g.identity:
            raise ValueError("identity in the connection set")
    missing = [c for c in conn if g.inverse[c] not in conn]
    if missing:
        names = ", ".join(g.elements[c] for c in missing)
        raise ValueError(
            f"connection set is not inverse-closed (missing inverses of "
            f"{names}); add them explicitly")
    return CayleyColouredGraph(g, tuple(conn))


def complete_colour_graph(g: FiniteGroup) -> CayleyColouredGraph:
    """Cay(G, G minus the identity): the complete graph, naturally coloured."""
    if g.order < 2:
        raise ValueError("the trivial group has no complete colour graph")
    return cayley_graph(g, [i for i in range(g.order) if i != g.identity])


def complete_bipartite(n: int, m: int) -> ColouredGraph:
    """K_{n,m} on one colour; vertices a0..a(n-1) then b0..b(m-1)."""
    if n < 1 or m < 1:
        raise ValueError("both parts must be non-empty")
    edge_colours = {(i, n + j): 0 for i in range(n) for j in range(m)}
    names = [f"a{i}" for i in range(n)] + [f"b{j}" for j in range(m)]
    return ColouredGraph(n + m, edge_colours, {0: "plain"}, vertex_names=names)


def subdivision(g: ColouredGraph):
    """One new vertex on every edge; colours are dropped (single colour 0).

    Returns (graph, provenance) where provenance[v] is ("vertex", original)
    for kept vertices and ("edge", (u, w)) for midpoints.
    """
    n = g.vertex_count
    edges = g.edges()
    provenance: list[tuple] = [("vertex", v) for v in range(n)]
    names = [g.vertex_label(v) for v in range(n)]
    edge_colours = {}
    for rank, (u, w) in enumerate(edges):
        mid = n + rank
        provenance.append(("edge", (u, w)))
        names.append(f"{g.vertex_label(u)}|{g.vertex_label(w)}")
        edge_colours[(u, mid)] = 0
        edge_colours[(w, mid)] = 0
    return (ColouredGraph(n + len(edges), edge_colours, {0: "plain"},
                          vertex_names=names), provenance)


def line_graph(g: ColouredGraph):
    """Vertices are the edges of g, adjacent when they share an endpoint.

    Returns (graph, provenance) with provenance[v] the edge (u, w) of g that
    vertex v stands for.  Single colour 0.
    """
    edges = g.edges()
    if not edges:
        raise ValueError("line graph of an edgeless graph is empty")
    by_vertex: dict[int, list[int]] = {}
    for rank, (u, w) in enumerate(edges):
        by_vertex.setdefault(u, []).append(rank)
        by_vertex.setdefault(w, []).append(rank)
    edge_colours = {}
    for ranks in by_vertex.values():
        for a in range(len(ranks)):
            for b in range(a + 1, len(ranks)):
                edge_colours[(ranks[a], ranks[b])] = 0
    names = [f"{g.vertex_label(u)}-{g.vertex_label(w)}" for u, w in edges]
    return (ColouredGraph(len(edges), edge_colours, {0: "plain"},
                          vertex_names=names), list(edges))


def is_connected(g: ColouredGraph) -> bool:
    n = g.vertex_count
    seen = [False] * n
    seen[0] = True
    stack = [0]
    count = 1
    while stack:
        u = stack.pop()
        for v in g.neighbours(u):
            if not seen[v]:
                seen[v] = True
                count += 1
                stack.append(v)
    return count == n


def arcs(g: ColouredGraph) -> list[Arc]:
    """Both orientations of every edge, in lexicographic order."""
    out = []
    for (u, v) in g.edges():
        out.append(Arc(u, v))
        out.append(Arc(v, u))
    out.sort()
    return out
