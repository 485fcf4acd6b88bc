"""Colour-preserving automorphisms and the verdicts built on them.

The vertices of a Cayley graph are the element indices of its group, so a
vertex permutation and a map on group elements are the same object here.  A
map is affine when it is a left translation composed with a group
automorphism; equivalently, when it normalizes the left translations.  The
verdicts use the first formulation; witness replay checks the second, so an
emitted non-CCA witness is certified by a route other than the one that
found it.
"""

from __future__ import annotations

import time
from enum import Enum
from typing import NamedTuple

from . import kernels, labeling, perm
from .errors import InternalInconsistencyError
from .graphs import (CayleyColouredGraph, ColouredGraph,
                     complete_colour_graph, is_connected)
from .groups import (FiniteGroup, automorphism_generators, closure,
                     greedy_closure, inverse_classes,
                     minimal_generating_sequence, q8_c2n_isomorphism,
                     recognize_dicyclic, stabilizer_chain)


class VerdictKind(str, Enum):
    CCA = "CCA"
    NON_CCA = "non-CCA"
    PAIR_YES = "pair-yes"
    PAIR_NO = "pair-no"
    HYPOTHESES_OK = "hypotheses-ok"
    HYPOTHESES_FAIL = "hypotheses-fail"
    UNKNOWN_CAP = "unknown-cap"


class SearchStats:
    def __init__(self, nodes: int = 0, millis: float = 0.0):
        self.nodes = nodes
        self.millis = millis

    def add(self, other: "SearchStats") -> None:
        self.nodes += other.nodes
        self.millis += other.millis


class Check(NamedTuple):
    """One line of a verdict narrative."""

    name: str
    passed: bool
    detail: str = ""


class Verdict:
    """Outcome of an analysis: a kind, a narrative, and maybe a witness.

    ``witness`` is a full vertex-image tuple; ``context`` keeps the
    object the witness lives on so replay_witness can re-validate it from
    scratch.  ``data`` carries extra machine-readable facts for reports.
    """

    def __init__(self, kind: VerdictKind, checks: list[Check] | None = None,
                 witness: tuple[int, ...] | None = None, context: object = None,
                 stats: SearchStats | None = None, data: dict | None = None):
        self.kind = kind
        self.checks = [] if checks is None else checks
        self.witness = witness
        self.context = context
        self.stats = SearchStats() if stats is None else stats
        self.data = {} if data is None else data


class AutGroupResult(NamedTuple):
    """The colour-preserving automorphisms of one graph, listed in full."""

    graph: ColouredGraph | CayleyColouredGraph
    elements: list[tuple[int, ...]]
    generators: list[tuple[int, ...]]
    stats: SearchStats

    @property
    def order(self) -> int:
        return len(self.elements)

    def element_set(self) -> frozenset[tuple[int, ...]]:
        return frozenset(self.elements)


def is_colour_preserving(g: ColouredGraph | CayleyColouredGraph,
                         p: tuple[int, ...]) -> bool:
    """Does the bijection p map every edge to an edge of the same colour
    (and so every non-edge to a non-edge)?"""
    n = g.vertex_count
    p = perm.bijection(p)
    if len(p) != n:
        raise ValueError(f"degree {len(p)} does not match |V| = {n}")
    return kernels.preserves(g.adjacency, p)


class _After:
    """``_After(a)[b]`` is the image tuple of a o b: b first, then a."""

    __slots__ = ("a",)

    def __init__(self, a: tuple[int, ...]):
        self.a = a

    def __getitem__(self, b: tuple[int, ...]) -> tuple[int, ...]:
        a = self.a
        return tuple([a[x] for x in b])


def _searched_group(g: ColouredGraph | CayleyColouredGraph, top: int):
    """(generators, order, search stats) of the colour-preserving maps fixing
    the first ``top`` vertices of the search tree, 1 for the stabilizer of
    vertex 0 and 0 for the whole group: a ``stabilizer_chain`` of first-leaf
    searches, level k trying the like-coloured neighbours of order[k]'s
    tree parent that it does not fix, every vertex at k = 0."""
    t0 = time.perf_counter()
    adjacency = g.adjacency
    tree = order, parent, via = kernels.breadth_first(adjacency)
    depth = {v: k for k, v in enumerate(order)}
    placed = []

    def candidates(i):
        v = order[top + i]
        return [x for x, c in adjacency[parent[v]]
                if c == via[v] and depth[x] >= top + i] if v else order

    def first(i, w):
        maps, nodes = kernels.search(adjacency, tree, top + i, w)
        placed.append(nodes)
        return maps[0] if maps else None

    gens, size = stabilizer_chain(order[top:], candidates, first)
    millis = (time.perf_counter() - t0) * 1000.0
    return gens, size, SearchStats(nodes=sum(placed), millis=millis)


def colour_preserving_automorphisms(g: ColouredGraph | CayleyColouredGraph
                                    ) -> AutGroupResult:
    """Every colour-preserving automorphism of a connected graph, sorted by
    image tuple: the closure of the whole group's chain generators, which
    must have the chain's order, with the generators it keeps."""
    gens, order, stats = _searched_group(g, 0)
    kept, known = greedy_closure(gens, tuple(range(g.vertex_count)), _After,
                                 limit=order)
    if known is None or len(known) != order:
        raise InternalInconsistencyError(
            f"the chain's generators do not close to its order {order}")
    return AutGroupResult(g, sorted(known), kept, stats)


class AffineDecomposition(NamedTuple):
    """p = (left translation by ``translation``) o ``automorphism``."""

    translation: int
    automorphism: tuple[int, ...]


def is_affine(cg: CayleyColouredGraph, p: tuple[int, ...]
              ) -> tuple[bool, AffineDecomposition | None]:
    """Decide whether the bijection p is a translation composed with a
    group automorphism.

    Splits off the translation p(e) and tests the rest, alpha, for
    alpha(g*t) = alpha(g)*alpha(t) over a generating set T of the group;
    generators suffice, by induction on word length.  ``replay_witness``
    tests the other formulation, ``_normalizes``.
    """
    n = cg.group.order
    p = perm.bijection(p)
    if len(p) != n:
        raise ValueError(f"degree {len(p)} does not match group order {n}")
    alpha = _untranslated(cg, p)
    if alpha is None:
        return False, None
    return True, AffineDecomposition(p[cg.group.identity], tuple(alpha))


def _untranslated(cg: CayleyColouredGraph, imgs) -> list[int] | None:
    """``is_affine`` on an image tuple: the automorphism part, or None."""
    g = cg.group
    g0inv_row = g.table[g.inverse[imgs[g.identity]]]
    alpha = [g0inv_row[x] for x in imgs]
    for t in cg.generating_set:  # alpha(i t) = alpha(i) alpha(t) for all i
        by_t, by_alpha_t = g.column(t), g.column(alpha[t])
        if any(alpha[by_t[i]] != by_alpha_t[a] for i, a in enumerate(alpha)):
            return None
    return alpha


def _normalizes(cg: CayleyColouredGraph, p) -> bool:
    """Is the bijection p affine, tested as p o lambda(t) o p^-1 being a left
    translation for each t in a generating set?  Conjugation by p is a
    homomorphism, so generators suffice."""
    g, table = cg.group, cg.group.table
    pinv = perm.inverse(p)
    return all(conj == table[conj[g.identity]] for conj in (
        [p[table[t][i]] for i in pinv] for t in cg.generating_set))


def is_cca_graph(cg: CayleyColouredGraph) -> Verdict:
    """Is every colour-preserving automorphism of Cay(G, C) affine?

    Decided on generators of the stabilizer of vertex 0.  Left
    translations preserve colours and act transitively, so every
    colour-preserving map is a translation composed with a stabilizer
    element: the group has order |G| times the stabilizer's, and it is all
    affine exactly when the stabilizer is.  The affine colour-preserving
    maps form a group, so the stabilizer is all affine exactly when each of
    its generators is; the affinity scan stops at the first non-affine
    generator, the witness.
    """
    gens, stab_order, stats = _searched_group(cg, 1)
    order = cg.group.order * stab_order
    checks = [Check("search", True, f"{order} colour-preserving automorphisms")]
    witness = next((imgs for imgs in gens if _untranslated(cg, imgs) is None),
                   None)
    if witness is None:
        checks.append(Check("all-affine", True,
                            f"all {order} automorphisms affine"))
        return Verdict(VerdictKind.CCA, checks, context=cg, stats=stats)
    checks.append(Check("all-affine", False,
                        "non-affine colour-preserving automorphism found"))
    return Verdict(VerdictKind.NON_CCA, checks, witness=witness, context=cg,
                   stats=stats)


_ENUM_CAP = 1 << 16  # default cap on the connection sets examined


def is_cca_group(g: FiniteGroup, cap: int | None = None) -> Verdict:
    """Check the inclusion-minimal connected Cayley graphs on g, up to Aut(g).

    A colour-preserving map of Cay(g, S) preserves the colours of Cay(g, S')
    for every connected S' inside S, and being affine does not depend on S, so
    g is CCA iff Cay(g, S) is for every minimal generating union S of inverse
    classes.  Such an S is irredundant (in any order its classes generate a
    strictly growing chain of subgroups), so it has at most log2|g| classes.
    Class sequences grow one size at a time: each non-generating prefix meets
    every later class outside its subgroup; each such join is closed once.
    Dropping a class other than the last leaves a sequence met one size
    earlier, so a generating sequence is minimal when none of those generate.
    Minimal sets of one size come in ``combinations`` order; the first member
    of each Aut(g) orbit met is examined and marks its orbit, all minimal too,
    by a breadth-first walk over the class permutations that generators of
    Aut(g) induce.  ``cap`` bounds the sets examined: reaching it before the
    walk ends or a witness turns up returns unknown-cap instead of CCA.
    """
    cap = _ENUM_CAP if cap is None else cap
    if cap < 1:
        raise ValueError("cap must be positive")
    checks: list[Check] = []
    stats = SearchStats()
    classes = inverse_classes(g)

    if g.order == 1:
        cg = CayleyColouredGraph(g, ())
        v = is_cca_graph(cg)
        checks.append(Check("trivial-group", True, "only the empty graph"))
        return Verdict(v.kind, checks, context=cg, stats=v.stats)

    auts, aut_order = automorphism_generators(g)
    checks.append(Check("orbit-pruning", True, f"|Aut(G)| = {aut_order}"))
    # automorphisms permute the inverse classes
    class_of = {c: k for k, cls in enumerate(classes) for c in cls}
    class_maps = [tuple(class_of[a[cls[0]]] for cls in classes) for a in auts]

    reps = [cls[0] for cls in classes]
    marked: set[tuple[int, ...]] = set()  # minimal sets of examined orbits
    spanning: set[tuple[int, ...]] = set()  # generating sequences met
    processed = 0
    joins: dict = {}  # (subgroup, k) -> <subgroup, class k>, closed once
    shared: dict = {}  # each join -> the one copy that nodes holding it share
    level = [((), frozenset([g.identity]))]  # (prefix, its subgroup)
    while level:
        grown = []
        for combo, sub in level:
            for k in range(combo[-1] + 1 if combo else 0, len(classes)):
                if reps[k] not in sub:  # else k is redundant here
                    if (sub, k) not in joins:
                        j = g.subgroup_closure([*sub, reps[k]])
                        joins[sub, k] = shared.setdefault(j, j)
                    grown.append((combo + (k,), joins[sub, k]))
        level = [node for node in grown if len(node[1]) < g.order]
        for combo in [c for c, sub in grown if len(sub) == g.order]:
            spanning.add(combo)
            if combo in marked or any(combo[:i] + combo[i + 1:] in spanning
                                      for i in range(len(combo) - 1)):
                continue  # met in its orbit already, or not minimal
            ring = {combo}  # the orbit's sets first met, level by level
            while ring:
                marked |= ring
                ring = {tuple(sorted(m[k] for k in member))
                        for member in ring for m in class_maps} - marked
            if processed >= cap:
                checks.append(Check("connection-sets-examined", False,
                                    str(processed)))
                checks.append(Check("enumeration-complete", False,
                                    f"stopped at cap {cap}"))
                return Verdict(VerdictKind.UNKNOWN_CAP, checks, stats=stats)
            processed += 1
            conn = tuple(sorted(c for k in combo for c in classes[k]))
            cg = CayleyColouredGraph(g, conn)
            v = is_cca_graph(cg)
            stats.add(v.stats)
            if v.kind is VerdictKind.NON_CCA:
                names = ", ".join(g.elements[c] for c in conn)
                checks.append(Check("witness-connection-set", True,
                                    "{" + names + "}"))
                checks.append(Check("connection-sets-examined", True,
                                    str(processed)))
                return Verdict(VerdictKind.NON_CCA, checks,
                               witness=v.witness, context=cg, stats=stats,
                               data={"connection": list(conn)})
    checks.append(Check("connection-sets-examined", True, str(processed)))
    return Verdict(VerdictKind.CCA, checks, stats=stats)


def _point_element_dictionaries(ghat: FiniteGroup):
    """Identify action points with group elements via the base point 0."""
    degree = len(ghat.realization[0])
    pt_of_elem = [p[0] for p in ghat.realization]
    elem_of_pt = [-1] * degree
    for i, p in enumerate(pt_of_elem):
        if elem_of_pt[p] != -1:
            raise ValueError("action is not regular: point hit twice")
        elem_of_pt[p] = i
    if any(x == -1 for x in elem_of_pt):
        raise ValueError("action is not regular: point never hit")
    return pt_of_elem, elem_of_pt


def is_complete_colour_pair(ghat: FiniteGroup, b: FiniteGroup) -> Verdict:
    """Decide whether (G, B) is a complete colour pair.

    ``ghat`` must carry a regular realization; ``b`` a realization on the
    same points containing it.  B, moved to element indices, must sit inside
    the colour-preserving group of the complete colour graph of G, and G
    must match at least one of three shapes whose full colour-preserving
    group is known: abelian but not elementary abelian of exponent 2
    (inversion closes the group), generalized dicyclic but not Q8 x C2^n (a
    coset reflection closes it), or Q8 x C2^n (three axis reflections close
    it).  The shapes are not mutually exclusive (C4 is both abelian and
    generalized dicyclic over C2), so all three are evaluated and recorded.
    Decided on generators of Stab, the identity's stabilizer in the colour
    group a0 of every colour-preserving bijection, conjugate to vertex 0's:
    a0 holds the translations, which act transitively, so |a0| = |G| |Stab|.
    """
    checks: list[Check] = []
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

    b_points = frozenset(b.realization)
    g_in_b = b_points.issuperset(ghat.realization)
    checks.append(Check("g-subgroup-of-b", g_in_b, f"|B| = {len(b_points)}"))

    kg = complete_colour_graph(ghat)
    gens0, stab_order, stats = _searched_group(kg, 1)
    left, back = ghat.table[0], ghat.table[ghat.inverse[0]]
    stab_gens = [tuple(back[x[y]] for y in left) for x in gens0]
    order = ghat.order * stab_order
    checks.append(Check("colour-group-computed", True,
                        f"order {order} on the complete colour graph"))

    # the colour-preserving maps form a group holding G's translations, and B
    # at element indices is a homomorphism: its generators outside G decide
    b_gens = [b.realization[x] for x in minimal_generating_sequence(b)]
    b_in_a0 = all(is_colour_preserving(
        kg, [elem_of_pt[p[x]] for x in pt_of_elem]) for p in b_gens
        if p not in ghat.realization)
    checks.append(Check("b-within-colour-group", b_in_a0, ""))

    # for s fixing the identity, s not the identity map, the translations and
    # the translations after s make up a0 iff Stab = {id, s}, generated by s
    two_cosets = stab_order == 2
    witness = None

    bullet_1 = False
    if ghat.is_abelian() and not ghat.is_elementary_abelian_2():
        inv_perm = tuple(ghat.inverse)
        bullet_1 = two_cosets and inv_perm in stab_gens
        if bullet_1:
            witness = inv_perm
    checks.append(Check("abelian-inversion-shape", bullet_1, ""))

    bullet_2 = False
    iso = q8_c2n_isomorphism(ghat)
    if two_cosets and iso is None:
        # x outside the index-2 subgroup has order 4, so sigma moves x
        for w in recognize_dicyclic(ghat):
            inside = set(w.subgroup)
            sigma = tuple(i if i in inside else ghat.inverse[i]
                          for i in range(ghat.order))
            if sigma in stab_gens:
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
        shift = (ghat.order // 8).bit_length() - 1  # |G| = 8 * 2**shift
        target = iso.target
        sigmas = []
        for lo, hi in ((2, 3), (4, 5), (6, 7)):
            sigma_t = [p if (p >> shift) not in (lo, hi)
                       else target.inverse[p] for p in range(ghat.order)]
            sigmas.append(tuple(back.images[sigma_t[iso.images[i]]]
                                for i in range(ghat.order)))
        # fixing the identity, sigmas in a0 lie in Stab: equal iff as large
        if all(is_colour_preserving(kg, s) for s in sigmas):
            _, span = greedy_closure(sigmas, tuple(range(ghat.order)), _After)
            bullet_3 = len(span) == stab_order
        if bullet_3 and witness is None:
            witness = sigmas[0]
    checks.append(Check("quaternion-reflections-shape", bullet_3, ""))

    ok = g_in_b and b_in_a0 and (bullet_1 or bullet_2 or bullet_3)
    if not ok:
        return Verdict(VerdictKind.PAIR_NO, checks, stats=stats)
    return Verdict(VerdictKind.PAIR_YES, checks, witness=witness,
                   context=kg, stats=stats)


def local_action(grp: FiniteGroup, g: ColouredGraph, v: int) -> FiniteGroup:
    """The vertex stabilizer of v, restricted to the neighbourhood of v.

    Points of the result are positions in the sorted neighbour list; the
    kernel of the restriction is quotiented away by deduplication.  The
    group is closed from the restrictions ``greedy_closure`` keeps, and must
    hold exactly the restrictions seen.
    """
    if grp.realization is None:
        raise ValueError("group needs a permutation realization")
    nbrs = g.neighbours(v)
    pos = {u: k for k, u in enumerate(nbrs)}
    seen: dict[tuple[int, ...], None] = {}
    for p in grp.realization:
        if p[v] != v:
            continue
        try:
            restricted = tuple(pos[p[u]] for u in nbrs)
        except KeyError as exc:
            raise ValueError(
                "stabilizer element does not preserve the neighbourhood"
            ) from exc
        seen.setdefault(restricted, None)
    identity = tuple(range(len(nbrs)))
    gens, _ = greedy_closure(seen, identity, _After)
    result = closure(gens or [identity], cap=len(seen) + 1)
    if result.order != len(seen):
        raise InternalInconsistencyError(
            "restricted stabilizer set is not closed")
    return result


def arc_lift_harness(g: ColouredGraph, grp: FiniteGroup, h: FiniteGroup,
                     base_arc=None) -> Verdict:
    """Hypotheses: grp acts arc-regularly on g, grp sits inside h, h acts by
    automorphisms, and at every vertex the two local actions form a complete
    colour pair.  Conclusion, verified independently: every element of h,
    transported through the arc labeling, preserves the colours of the
    Cayley form of the line graph of the subdivision of g.  Transport is a
    homomorphism and colour-preserving maps form a group, so this is checked
    on generators of h whose closure is verified to be h's realization; so
    is the hypothesis that h acts by automorphisms, which also form a group.

    The local pair is decided at vertex 0 alone: grp is arc-regular, so
    vertex-transitive on the connected g, and conjugation by x in grp, an
    automorphism in h, carries (grp_v, h_v) on N(v) onto (grp_xv, h_xv) on
    N(xv), a permutation isomorphism, which keeps a complete colour pair one.

    Arc-regularity is certified by labelling the arcs from ``base_arc``.  An
    h whose realization is not a permutation group raises ValueError.  A
    failed hypothesis returns hypotheses-fail; hypotheses passing but the
    conclusion failing raises, since the mathematics guarantees it.
    """
    checks: list[Check] = []
    stats = SearchStats()

    def fail(name, detail):
        checks.append(Check(name, False, detail))
        return Verdict(VerdictKind.HYPOTHESES_FAIL, checks, stats=stats)

    if not is_connected(g):
        return fail("connected", "input graph is disconnected")
    checks.append(Check("connected", True, ""))

    try:
        lab = labeling.arc_labeling(g, grp, base_arc)
    except ValueError as exc:
        return fail("arc-regular", str(exc))
    checks.append(Check("arc-regular", True, f"{grp.order} arcs"))

    if h.realization is None:
        raise ValueError("overgroup needs a permutation realization")
    h_gens, h_set = greedy_closure(h.realization,
                                   tuple(range(len(h.realization[0]))),
                                   _After, limit=len(h.realization))
    if h_set != set(h.realization):
        raise ValueError("overgroup realization is not a permutation group")
    grp_set = frozenset(grp.realization)
    if not grp_set <= h_set:
        return fail("subgroup", "grp is not contained in h")
    checks.append(Check("subgroup", True, f"index {len(h_set) // len(grp_set)}"))

    bad = g.first_non_automorphism(h_gens)
    if bad is not None:
        name = h.elements[h.realization.index(h_gens[bad])]
        return fail("h-automorphisms",
                    f"element {name}, a generator of h, breaks an edge")
    checks.append(Check("h-automorphisms", True, ""))

    try:
        pv = is_complete_colour_pair(local_action(grp, g, 0),
                                     local_action(h, g, 0))
    except ValueError as exc:
        return fail("local-pairs", f"vertex 0: {exc}")
    stats.add(pv.stats)
    if pv.kind is not VerdictKind.PAIR_YES:
        return fail("local-pairs", "vertex 0 is not a complete pair")
    checks.append(Check("local-pairs", True,
                        f"complete colour pair at all {g.vertex_count} vertices"))

    cg = labeling.cayley_form(lab)
    bad = sum(not is_colour_preserving(cg, labeling.induced_vertex_map(p, lab))
              for p in h_gens)
    if bad:
        raise InternalInconsistencyError(
            f"hypotheses hold but {bad} transported generators of h break "
            "colours")
    checks.append(Check("conclusion-verified", True,
                        f"all {h.order} transported maps preserve colours"))
    return Verdict(VerdictKind.HYPOTHESES_OK, checks, context=cg, stats=stats,
                   data={"transported": h.order})


def replay_witness(v: Verdict) -> bool:
    """Re-validate a verdict's witness from scratch.

    The witness must be a bijection of the stored graph's vertices.
    non-CCA: it must be colour-preserving on the stored Cayley graph and
    fail to normalize the left translations, the formulation of affine that
    the verdicts do not use.  pair-yes: it must be colour-preserving on the
    stored complete colour graph and not a left translation.
    """
    if v.witness is None:
        raise ValueError("verdict carries no witness")
    if not isinstance(v.context, CayleyColouredGraph):
        raise ValueError("verdict carries no graph to replay against")
    cg, w = v.context, v.witness
    if sorted(w) != list(range(cg.vertex_count)):
        return False
    if v.kind is VerdictKind.NON_CCA:
        if not is_colour_preserving(cg.graph, w):
            return False
        return not _normalizes(cg, w)
    if v.kind is VerdictKind.PAIR_YES:
        if not is_colour_preserving(cg.graph, w):
            return False
        g = cg.group
        return g.table[w[g.identity]] != list(w)
    raise ValueError(f"verdict kind {v.kind.value} has no witness semantics")
