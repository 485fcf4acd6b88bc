"""Independent oracles the test suite trusts over the package under test.

Everything here is deliberately naive: filter all n! vertex permutations,
multiply tables entry by entry.  Usable up to 8 vertices or so.  A few
exceptions keep an older route of the package as a reference:
``full_route_verdict`` reads the CCA verdict off the whole colour-preserving
group, which the decision from the stabilizer of vertex 0 must agree with;
``closure_by_products`` builds a group table from all |G|^2 permutation
products, which ``groups.closure`` must reproduce; ``reclosing_scan`` closes
from scratch after every pick, which ``groups.greedy_closure`` must match;
``min_walk_verdict`` keeps one connection set per Aut(G) orbit by a
``min`` over every automorphism and examines every generating one, whose
verdicts and witnesses ``engine.is_cca_group`` must match, while
``minimal_walk_verdict`` examines only the inclusion-minimal ones, which the
walk must match set for set;
``reclosing_iso_candidates`` vets each generator image by re-closing
the images chosen so far and extends a homomorphism only at the leaf, which
the isomorphism search in ``groups`` must match map for map, and
``order_keyed_generators`` runs the stabilizer chain of Aut(G) over every
element of each generator's order with first maps read off that listing,
whose generators ``groups.automorphism_generators`` must match; and
``matrix_search`` runs the search kernel on a flat n*n colour matrix,
comparing each placement with every placed vertex and each leaf over all
vertex pairs, whose listing the stabilizer chain of ``kernels.search``
must close to, and which ``listed_stabilizer`` puts in place of that chain
to give the verdicts the element lists they read before it;
``table_preserves`` checks one map's edges against a flat n*n
colour lookup, which the lookup-free ``kernels.preserves`` must match; and
``set_built_pair_verdict`` builds the whole set of maps each pair shape
predicts and compares it with the colour group, which
``engine.is_complete_colour_pair`` must match kind, checks and witness;
``transported_colour_breaks`` transports every element of the overgroup
through the arc labelling, where ``engine.arc_lift_harness`` transports a
generating set; ``subdivision`` and ``line_graph`` build L(S(X)) as a
generic graph, whose edges, read back to arc labels by
``line_graph_of_subdivision_by_label``, ``labeling.cayley_form`` must give
without building either; ``whole_row_equivariance`` compares every row of
the table with the arc labels, where ``labeling.arc_labeling`` compares the rows of
the generators and those already built, and must agree with it; and
``model_table_pairs`` and ``model_wreath_elements`` identify the K_{n,n}
groups with model tables built by ``direct_product`` and ``wreath_c2``,
which the factor and wreath routes in ``bipartite`` must match element
for element; ``normal_forms_by_composition`` composes every word
rho1^i1 rho2^i2 tau^e gamma^d and ``phi_by_transport`` transports sigma2
along the arc labels, which the normal forms and the flip that
``bipartite.double_dihedral`` reads off its factor pairing must match.
"""

from itertools import combinations, permutations, product

from ccakit.engine import (Check, SearchStats, Verdict, VerdictKind, _After,
                           _point_element_dictionaries,
                           colour_preserving_automorphisms, is_affine,
                           is_cca_graph, is_colour_preserving)
from ccakit.errors import CapExceededError
from ccakit.graphs import ColouredGraph, cayley_graph, complete_colour_graph
from ccakit.groups import (_format_word, automorphisms, dihedral,
                           direct_product, extend_homomorphism,
                           greedy_closure, inverse_classes,
                           minimal_generating_sequence, q8_c2n_isomorphism,
                           recognize_dicyclic, stabilizer_chain, wreath_c2)
from ccakit.labeling import arc_labeling, cayley_form, induced_vertex_map
from ccakit.perm import compose, power


def brute_colour_automorphisms(n: int, edge_colour: dict) -> set:
    """Image tuples of every colour-preserving vertex bijection.

    ``edge_colour`` maps unordered vertex pairs (given in either order) to
    colour ids; absent pairs are non-edges.
    """
    norm = {}
    for (u, v), c in edge_colour.items():
        norm[(u, v) if u < v else (v, u)] = c
    out = set()
    for img in permutations(range(n)):
        ok = True
        for u in range(n):
            for v in range(u + 1, n):
                x, y = img[u], img[v]
                if norm.get((u, v)) != norm.get((x, y) if x < y else (y, x)):
                    ok = False
                    break
            if not ok:
                break
        if ok:
            out.add(img)
    return out


def brute_automorphisms(table) -> set:
    """Image tuples of every multiplication-preserving bijection of a table."""
    n = len(table)
    out = set()
    for img in permutations(range(n)):
        if all(img[table[i][j]] == table[img[i]][img[j]]
               for i in range(n) for j in range(n)):
            out.add(img)
    return out


def brute_affine_maps(table) -> set:
    """Image tuples of every left translation composed with an automorphism."""
    n = len(table)
    out = set()
    for alpha in brute_automorphisms(table):
        for a in range(n):
            out.add(tuple(table[a][alpha[i]] for i in range(n)))
    return out


def edge_dict(graph) -> dict:
    """Adapter: a ColouredGraph's edges as the dict the oracles expect."""
    return {(u, v): graph.edge_colour(u, v) for (u, v) in graph.edges()}


def colour_matrix(graph) -> list[int]:
    """Flattened n*n matrix: colour id for edges, -1 elsewhere."""
    n = graph.vertex_count
    m = [-1] * (n * n)
    for (u, v), cid in edge_dict(graph).items():
        m[u * n + v] = cid
        m[v * n + u] = cid
    return m


def _matrix_bfs_order(n, colours):
    order = [0]
    parent = [-1] * n
    seen = [False] * n
    seen[0] = True
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        for v in range(n):
            if colours[u * n + v] >= 0 and not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    if len(order) != n:
        raise ValueError("graph is not connected")
    return order, parent


def _preserves_colours(n, colours, img):
    return all(colours[u * n + v] == colours[img[u] * n + img[v]]
               for u in range(n) for v in range(n))


def table_preserves(adjacency, img):
    """The colour check ``kernels.preserves`` replaced: every edge {u, x}
    of colour c must have c at (img[u], img[x]) in a flat n*n lookup."""
    n = len(adjacency)
    colour = [-1] * (n * n)
    for u, nbrs in enumerate(adjacency):
        for x, c in nbrs:
            colour[u * n + x] = c
    return all(colour[img[u] * n + img[x]] == c
               for u, nbrs in enumerate(adjacency) for x, c in nbrs)


def matrix_search(n, colours, roots):
    """The search kernel on a colour matrix: (sorted images, nodes).

    Same tree as ``kernels.search``: breadth-first order from vertex 0,
    the root over ``roots``, every later vertex over the like-coloured
    neighbours of its parent's image, ascending.  Each placement is compared
    with every placed vertex, and each leaf over every vertex pair.
    """
    order, parent = _matrix_bfs_order(n, colours)
    img = [-1] * n
    used = [False] * n
    found = []
    nodes = 0
    pending = [iter(roots)]
    while pending:
        k = len(pending) - 1
        v = order[k]
        if img[v] >= 0:
            used[img[v]] = False
            img[v] = -1
        w = next((c for c in pending[-1] if not used[c] and all(
            colours[v * n + x] == colours[c * n + img[x]]
            for x in order[:k])), -1)
        if w < 0:
            pending.pop()
            continue
        img[v] = w
        used[w] = True
        nodes += 1
        if k + 1 < n:
            nxt = order[k + 1]
            col = colours[parent[nxt] * n + nxt]
            pending.append(iter([x for x in range(n)
                                 if colours[img[parent[nxt]] * n + x] == col]))
        elif _preserves_colours(n, colours, img):
            found.append(tuple(img))
    found.sort()
    return found, nodes


def listed_stabilizer(g, top):
    """``engine._searched_group`` by listing: the sorted colour-preserving
    maps fixing vertex 0 (``top`` 1) or all of them (``top`` 0) as the
    generators, their number, and the listing's node count."""
    graph = g if isinstance(g, ColouredGraph) else g.graph
    n = graph.vertex_count
    images, nodes = matrix_search(n, colour_matrix(graph),
                                  (0,) if top else range(n))
    return images, len(images), SearchStats(nodes=nodes)


def full_route_verdict(cg):
    """CCA verdict of a Cayley colour graph from its whole colour group.

    Lists every colour-preserving automorphism with the search kernel and
    takes the first non-affine one in sorted order as the witness.  Returns
    (kind, witness images or None, checks as (name, passed, detail)).
    """
    g = cg.group
    n = g.order
    images, _ = matrix_search(n, colour_matrix(cg.graph), range(n))
    if not {tuple(row) for row in g.table} <= set(images):
        raise AssertionError("a left translation is missing from the search")
    witness = next((p for p in images if not is_affine(cg, p)[0]), None)
    checks = [("search", True, f"{len(images)} colour-preserving automorphisms")]
    if witness is None:
        checks.append(("all-affine", True,
                       f"all {len(images)} automorphisms affine"))
        return "CCA", None, checks
    checks.append(("all-affine", False,
                   "non-affine colour-preserving automorphism found"))
    return "non-CCA", witness, checks


def product_table(perms) -> list[list[int]]:
    """``table[i][j]`` = index of perms[i] o perms[j]; perms must be closed."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[compose(p, q)] for q in perms] for p in perms]


def closure_by_products(gens, names, cap):
    """The group generated by ``gens`` the slow way.

    Breadth-first from the identity, multiplying on the right by the
    generators in order, then the full product table.  Returns (element
    names, generators, realization, table) as ``groups.closure`` lays them
    out.
    """
    elems = [tuple(range(len(gens[0])))]
    index = {elems[0]: 0}
    words = [[]]
    qi = 0
    while qi < len(elems):
        for gname, gp in zip(names, gens):
            q = compose(elems[qi], gp)
            if q not in index:
                if len(elems) >= cap:
                    raise CapExceededError(f"order exceeds cap {cap}")
                index[q] = len(elems)
                elems.append(q)
                words.append(words[qi] + [gname])
        qi += 1
    generators = {nm: index[gp] for nm, gp in zip(names, gens)}
    return ([_format_word(w) for w in words], generators, elems,
            product_table(elems))


def _bfs_closure(gens, identity, mul, limit):
    """Close under right multiplication by gens; None once past limit."""
    known = {identity}
    frontier = [identity]
    while frontier:
        nxt = []
        for a in frontier:
            for b in gens:
                c = mul(a, b)
                if c not in known:
                    if limit is not None and len(known) >= limit:
                        return None
                    known.add(c)
                    nxt.append(c)
        frontier = nxt
    return known


def reclosing_scan(candidates, identity, mul, limit=None):
    """Greedy generators, closing from scratch after every pick.

    Returns (kept, closure) with ``closure`` None once it passes ``limit``,
    as ``groups.greedy_closure`` lays them out; ``mul(a, b)`` is a*b.
    """
    kept = []
    known = {identity}
    for c in candidates:
        if c not in known:
            kept.append(c)
            known = _bfs_closure(kept, identity, mul, limit)
            if known is None:
                return kept, None
    return kept, known


def reclosing_iso_candidates(g, h, gens):
    """Injective maps g -> h from generator images, in search order.

    ``gens`` must generate g.  Tries the images of gens[k] over the
    elements of h of the same order, keeps a choice when the images chosen
    so far close to a subgroup of h as large as the one gens[:k+1] close
    to in g, and at the leaf extends the choice to a homomorphism and keeps
    it when it is a bijection.  Yields image tuples.
    """
    g_orders = [g.element_order(i) for i in range(g.order)]
    h_by_order = {}
    for i in range(h.order):
        h_by_order.setdefault(h.element_order(i), []).append(i)
    sub_sizes = [len(g.subgroup_closure(gens[:k + 1]))
                 for k in range(len(gens))]
    chosen = []

    def backtrack(k):
        if k == len(gens):
            f = extend_homomorphism(g, gens, chosen, h)
            if f is not None and len(set(f)) == g.order:
                yield tuple(f)
            return
        for cand in h_by_order.get(g_orders[gens[k]], []):
            chosen.append(cand)
            if len(h.subgroup_closure(chosen)) == sub_sizes[k]:
                yield from backtrack(k + 1)
            chosen.pop()

    yield from backtrack(0)


def order_keyed_generators(g):
    """Generators of Aut(g) and |Aut(g)| from ``stabilizer_chain`` on g's
    generating sequence, trying at level i every element of gens[i]'s
    order; the first map for w is the first of
    ``reclosing_iso_candidates(g, g, gens)`` that fixes gens[:i] and sends
    gens[i] to w."""
    gens = minimal_generating_sequence(g)
    orders = [g.element_order(x) for x in range(g.order)]
    maps = list(reclosing_iso_candidates(g, g, gens))

    def first(i, w):
        return next((f for f in maps
                     if [f[s] for s in gens[:i + 1]] == gens[:i] + [w]), None)

    return stabilizer_chain(
        gens, lambda i: [x for x in range(g.order)
                         if orders[x] == orders[gens[i]]], first)


def _oracle_walk(g, cap, keep):
    """Unions of inverse classes by size, each kept when ``keep(conn)`` holds
    and no automorphism maps it to a smaller sorted element tuple; ``cap``
    counts only the sets examined.  Returns (verdict, sets examined)."""
    checks = []
    stats = SearchStats()
    examined = []
    classes = inverse_classes(g)
    aut_maps = [a.images for a in automorphisms(g)]
    checks.append(Check("orbit-pruning", True, f"|Aut(G)| = {len(aut_maps)}"))
    for size in range(1, len(classes) + 1):
        for combo in combinations(range(len(classes)), size):
            conn = tuple(sorted(c for k in combo for c in classes[k]))
            if min(tuple(sorted(a[c] for c in conn)) for a in aut_maps) < conn:
                continue
            if not keep(conn):
                continue
            if len(examined) >= cap:
                checks.append(Check("connection-sets-examined", False,
                                    str(len(examined))))
                checks.append(Check("enumeration-complete", False,
                                    f"stopped at cap {cap}"))
                return Verdict(VerdictKind.UNKNOWN_CAP, checks,
                               stats=stats), examined
            examined.append(conn)
            cg = cayley_graph(g, conn)
            v = is_cca_graph(cg)
            stats.add(v.stats)
            if v.kind is VerdictKind.NON_CCA:
                names = ", ".join(g.elements[c] for c in conn)
                checks.append(Check("witness-connection-set", True,
                                    "{" + names + "}"))
                checks.append(Check("connection-sets-examined", True,
                                    str(len(examined))))
                return Verdict(VerdictKind.NON_CCA, checks, witness=v.witness,
                               context=cg, stats=stats,
                               data={"connection": list(conn)}), examined
    checks.append(Check("connection-sets-examined", True, str(len(examined))))
    return Verdict(VerdictKind.CCA, checks, stats=stats), examined


def min_walk_verdict(g, cap):
    """``is_cca_group`` over every generating union of inverse classes.

    Walks unions of inverse classes by size, keeps a subset only when no
    automorphism maps it to a smaller sorted element tuple, and counts
    towards ``cap`` only the generating subsets it examines.  Returns
    (verdict, connection sets examined in order).
    """
    return _oracle_walk(g, cap, g.generates)


def minimal_walk_verdict(g, cap):
    """``is_cca_group`` as it walks: ``min_walk_verdict`` restricted to the
    inclusion-minimal generating unions, each tested by asking whether
    dropping any one inverse class stops it generating."""
    def minimal(conn):
        classes = sorted({(c, g.inverse[c]) if c <= g.inverse[c]
                          else (g.inverse[c], c) for c in conn})
        return g.generates(conn) and not any(
            g.generates([c for c in conn if c not in cls]) for cls in classes)

    return _oracle_walk(g, cap, minimal)


def _left_translation_set(g):
    return frozenset(tuple(row) for row in g.table)


def set_built_pair_verdict(ghat, b):
    """``is_complete_colour_pair`` with each shape decided by building the
    whole set of maps it predicts, translations included, and comparing that
    set with the colour group of the complete colour graph."""
    checks = []
    if ghat.realization is None or b.realization is None:
        raise ValueError("both groups need permutation realizations")
    if ghat.order <= 2:
        raise ValueError("complete colour pairs need |G| >= 3")
    degree = len(ghat.realization[0])
    if len(b.realization[0]) != degree:
        raise ValueError("G and B act on different point sets")
    if ghat.order != degree:
        checks.append(Check("g-regular", False,
                            f"|G| = {ghat.order} but {degree} points"))
        return Verdict(VerdictKind.PAIR_NO, checks)
    pt_of_elem, elem_of_pt = _point_element_dictionaries(ghat)
    checks.append(Check("g-regular", True, f"regular on {degree} points"))

    ghat_points = frozenset(ghat.realization)
    b_points = frozenset(b.realization)
    g_in_b = ghat_points <= b_points
    checks.append(Check("g-subgroup-of-b", g_in_b, f"|B| = {len(b_points)}"))

    kg = complete_colour_graph(ghat)
    aut = colour_preserving_automorphisms(kg)
    a0 = aut.element_set()
    checks.append(Check("colour-group-computed", True,
                        f"order {len(a0)} on the complete colour graph"))
    b_elem = {tuple(elem_of_pt[p[pt_of_elem[i]]]
                    for i in range(ghat.order)) for p in b.realization}
    b_in_a0 = b_elem <= a0
    checks.append(Check("b-within-colour-group", b_in_a0, ""))

    translations = _left_translation_set(ghat)
    witness = None

    def shape(s):
        return set(translations) | {tuple(row[s[j]] for j in range(ghat.order))
                                    for row in ghat.table}

    bullet_1 = False
    if ghat.is_abelian() and not ghat.is_elementary_abelian_2():
        inv_perm = tuple(ghat.inverse)
        bullet_1 = shape(inv_perm) == a0
        if bullet_1:
            witness = inv_perm
    checks.append(Check("abelian-inversion-shape", bullet_1, ""))

    bullet_2 = False
    iso = q8_c2n_isomorphism(ghat)
    dic_witnesses = recognize_dicyclic(ghat)
    if dic_witnesses and iso is None:
        for w in dic_witnesses:
            inside = set(w.subgroup)
            sigma = tuple(i if i in inside else ghat.inverse[i]
                          for i in range(ghat.order))
            if shape(sigma) == a0:
                bullet_2 = True
                if witness is None:
                    witness = sigma
                break
    detail_2 = ("accepted via one structural witness (any witness counts)"
                if bullet_2 else "")
    checks.append(Check("dicyclic-reflection-shape", bullet_2, detail_2))

    bullet_3 = False
    if iso is not None:
        back = iso.inverted()
        shift = (ghat.order // 8).bit_length() - 1
        target = iso.target
        sigmas = []
        for lo, hi in ((2, 3), (4, 5), (6, 7)):
            sigma_t = [p if (p >> shift) not in (lo, hi)
                       else target.inverse[p] for p in range(ghat.order)]
            sigmas.append(tuple(back.images[sigma_t[iso.images[i]]]
                                for i in range(ghat.order)))
        _, span = greedy_closure([tuple(row) for row in ghat.table] + sigmas,
                                 tuple(range(ghat.order)), _After,
                                 limit=len(a0))
        bullet_3 = span == a0
        if bullet_3 and witness is None:
            witness = sigmas[0]
    checks.append(Check("quaternion-reflections-shape", bullet_3, ""))

    if not (g_in_b and b_in_a0 and (bullet_1 or bullet_2 or bullet_3)):
        return Verdict(VerdictKind.PAIR_NO, checks, stats=aut.stats)
    return Verdict(VerdictKind.PAIR_YES, checks, witness=witness,
                   context=kg, stats=aut.stats)



def transported_colour_breaks(g, grp, h, base_arc=None):
    """How many elements of h, each transported through the arc labelling
    of g by grp, break a colour of the Cayley form."""
    labeling = arc_labeling(g, grp, base_arc)
    cg = cayley_form(labeling)
    return sum(not is_colour_preserving(cg, induced_vertex_map(p, labeling))
               for p in h.realization)


def whole_row_equivariance(group, base_arc) -> bool:
    """Whether label(g(a)) = g * label(a) for every element g and arc a,
    labelling each arc by the element that carries ``base_arc`` there: the
    labels of g's images of all arcs must equal g's row of the table."""
    t, h = base_arc
    arc_of = [(p[t], p[h]) for p in group.realization]
    label = {a: i for i, a in enumerate(arc_of)}
    return all([label[(p[x], p[y])] for x, y in arc_of] == row
               for p, row in zip(group.realization, group.table))


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


def line_graph_of_subdivision_by_label(labeling):
    """The edges of L(S(X)), X the labelled graph, as sorted pairs of arc
    labels: built as the generic line graph of the generic subdivision,
    each line-graph vertex read back through both provenances to the arc
    (x, w) that its subdivision edge {x, m_xw} stands for."""
    sub, provenance = subdivision(labeling.graph)
    lg, s_edges = line_graph(sub)
    n = labeling.graph.vertex_count
    label_of_vertex = []
    for (a, b) in s_edges:
        x, mid = (a, b) if a < n else (b, a)
        kind, (u, w) = provenance[mid]
        assert kind == "edge" and x < n <= mid
        label_of_vertex.append(labeling.arc_to_elem[x, w if x == u else u])
    return {tuple(sorted((label_of_vertex[u], label_of_vertex[w])))
            for (u, w) in lg.edges()}


def cayley_edges(cg):
    """The edges {g, g*c} of a Cayley graph as sorted pairs."""
    return {(u, x) for u, nbrs in enumerate(cg.adjacency)
            for x, _ in nbrs if u < x}


def model_table_pairs(a, b, names, images, group):
    """Identify ``group`` with the table of A x B by extending the model's
    generators ``names`` -> ``images``: x -> (i, j) for the model element
    (i, j) sent to x, or None when that is not an isomorphism."""
    model = direct_product(a, b, cap=a.order * b.order)
    full = extend_homomorphism(model, [model.generators[x] for x in names],
                               images, group)
    if full is None or len(set(full)) != group.order:
        return None
    pairs = [None] * group.order
    for m, x in enumerate(full):
        pairs[x] = divmod(m, b.order)
    return pairs


def model_wreath_elements(h, n):
    """The image in h of every element of the table of D_2n wr C2, in the
    table's order, when r1, s1, r2, s2, t -> rho1, sigma1, rho2, sigma2, tau
    extends to an isomorphism; None otherwise."""
    wr = wreath_c2(dihedral(n), cap=8 * n * n)
    full = extend_homomorphism(
        wr, [wr.generators[x] for x in ("r1", "s1", "r2", "s2", "t")],
        [h.generators[x] for x in ("rho1", "sigma1", "rho2", "sigma2", "tau")],
        h)
    return full if full is not None and len(set(full)) == h.order else None


def normal_forms_by_composition(dd):
    """The exponents (i1, i2, e, d) of the word rho1^i1 rho2^i2 tau^e gamma^d
    landing on each element of <G, gamma>, by composing all 4n^2 words; None
    when two words land on one element."""
    a = dd.actors
    nfs = [None] * dd.group.order
    for i1, i2, e, d in product(range(a.n), range(a.n), (0, 1), (0, 1)):
        word = compose(compose(power(a.rho1, i1), power(a.rho2, i2)),
                       compose(power(a.tau, e), power(dd.gamma, d)))
        x = dd.index_map[word]
        if nfs[x] is not None:
            return None
        nfs[x] = (i1, i2, e, d)
    return tuple(nfs)


def phi_by_transport(dd):
    """sigma2 transported along the arc labels of K_{n,n} to a permutation
    of G, extended to <G, gamma> by phi(g gamma) = phi(g) gamma."""
    a, big = dd.actors, dd.group
    t_sigma2 = induced_vertex_map(
        a.sigma2, arc_labeling(a.graph, a.g, a.base_arc))
    g_in_big = [dd.index_map[p] for p in a.g.realization]
    phi = [None] * big.order
    for gi, here in enumerate(g_in_big):
        moved = g_in_big[t_sigma2[gi]]
        phi[here] = moved
        phi[big.mult(here, dd.gamma_index)] = big.mult(moved, dd.gamma_index)
    return tuple(phi)
