"""Search, affinity, CCA verdicts, pair recognition, and the lift harness,
cross-checked against the naive oracles in bruteforce.py."""

import time
from itertools import combinations, permutations

import pytest

from ccakit import bipartite, engine, groups
from ccakit.cli import _census_catalog
from ccakit.engine import (Check, SearchStats, Verdict, VerdictKind,
                           arc_lift_harness, colour_preserving_automorphisms,
                           is_affine, is_cca_graph, is_cca_group,
                           is_colour_preserving, is_complete_colour_pair,
                           local_action, replay_witness)
from ccakit.graphs import (Arc, ColouredGraph, cayley_graph,
                           complete_colour_graph)
from ccakit.groups import (FiniteGroup, automorphisms, closure, cyclic,
                           dihedral, direct_product, inverse_classes,
                           left_regular, minimal_generating_sequence,
                           quaternion)
from ccakit.perm import from_cycles
from ccakit.speclang import (elaborate, elaborate_connection,
                             parse_connection, parse_expr)

from bruteforce import (brute_affine_maps, brute_colour_automorphisms,
                        edge_dict, full_route_verdict, min_walk_verdict,
                        minimal_walk_verdict, reclosing_iso_candidates,
                        set_built_pair_verdict, table_preserves)


def dih_closure(g):
    """Left translations plus inversion, as a permutation group."""
    gens = [tuple(row) for row in g.table]
    gens.append(tuple(g.inverse))
    return closure(gens)


# a repeated image, an out-of-range image, a wrong length
NON_BIJECTIONS = [(1, 1, 2, 3, 4, 5), (1, 2, 3, 4, 5, 6), (0, 1)]


def test_is_colour_preserving():
    cg = cayley_graph(cyclic(6), [1, 5])
    rot = (1, 2, 3, 4, 5, 0)
    assert is_colour_preserving(cg.graph, rot)
    assert not is_colour_preserving(cg.graph, (1, 0, 2, 3, 4, 5))
    for bad in NON_BIJECTIONS:
        for graph in (cg, cg.graph):
            with pytest.raises(ValueError):
                is_colour_preserving(graph, bad)


def test_is_affine_rejects_non_bijections():
    cg = cayley_graph(cyclic(6), [1, 5])
    assert is_affine(cg, (1, 2, 3, 4, 5, 0))[0]
    for bad in NON_BIJECTIONS:
        with pytest.raises(ValueError):
            is_affine(cg, bad)


def pairwise_colour_preserving(graph, images) -> bool:
    """The n^2 definition: every vertex pair keeps its colour or non-edge."""
    colours = edge_dict(graph)

    def colour(u, v):
        return colours.get((u, v) if u < v else (v, u))
    n = graph.vertex_count
    return all(colour(u, v) == colour(images[u], images[v])
               for u in range(n) for v in range(u + 1, n))


@pytest.mark.parametrize("expr, conn", [
    ("C(6)", "{r, r^3} +inv"), ("D(3)", "{r, s} +inv"), ("Q8", "{i, j} +inv"),
    pytest.param("C(5)", None, id="complete C(5)"),
    pytest.param("D(3)", None, id="complete D(3)"),
    pytest.param(None, {(0, 1): 0, (1, 2): 0, (2, 3): 1},
                 id="two-colour path"),
    # a check that kept the marks of earlier vertices would take the swap
    # of 0 and 1 here for colour-preserving
    pytest.param(None, {(0, 1): 0, (0, 2): 0, (2, 3): 1},
                 id="two-colour path from an inner vertex")])
def test_is_colour_preserving_matches_pairwise_check(expr, conn):
    """Checking edges only agrees with checking every pair and with the
    n*n lookup, on all n! bijections: of a few Cayley graphs, from the
    table-built adjacency and from the edge-dict graph alike, of two
    complete colour graphs (no connection set given), and of two-colour
    paths that are no Cayley graphs (no group, the edge colours given)."""
    if expr is None:
        graphs = [ColouredGraph(4, conn)]
    else:
        g = elaborate(parse_expr(expr), {})
        cg = (complete_colour_graph(g) if conn is None else
              cayley_graph(g, elaborate_connection(parse_connection(conn), g)))
        graphs = [cg, cg.graph]
    named = graphs[-1]
    n = named.vertex_count
    hits = 0
    for images in permutations(range(n)):
        want = pairwise_colour_preserving(named, images)
        for graph in graphs:
            assert is_colour_preserving(graph, images) == want
            assert table_preserves(graph.adjacency, images) == want
        hits += want
    assert hits == len(brute_colour_automorphisms(n, edge_dict(named)))


def test_is_affine_on_a_connection_set_that_does_not_generate():
    """S = {2, 4} in C(6) generates only the even elements.  Fixing 0, 2, 4
    and cycling 1 -> 3 -> 5 -> 1 passes both affinity routes when they run
    over S alone, but it is not affine; is_affine must run over generators
    of all of G and agree with the brute force on every colour-preserving
    map of Cay(C(6), S)."""
    g = cyclic(6)
    cg = cayley_graph(g, [2, 4])
    affine = brute_affine_maps(g.table)
    cycled = (0, 3, 2, 5, 4, 1)
    assert is_colour_preserving(cg, cycled)
    assert is_affine(cg, cycled) == (False, None)
    maps = brute_colour_automorphisms(6, edge_dict(cg.graph))
    assert cycled in maps
    for images in maps:
        assert is_affine(cg, images)[0] == (images in affine)


def test_automorphism_group_of_six_cycle():
    cg = cayley_graph(cyclic(6), [1, 5])
    aut = colour_preserving_automorphisms(cg.graph)
    assert aut.order == 12
    assert aut.element_set() == brute_colour_automorphisms(6, edge_dict(cg.graph))
    # the generators regenerate exactly the element list
    assert len(aut.generators) <= 3


def test_complete_colour_graph_c3_gives_symmetric_group():
    kg = complete_colour_graph(cyclic(3))
    aut = colour_preserving_automorphisms(kg.graph)
    assert aut.order == 6  # single colour class: all of Sym(3)
    assert aut.element_set() == frozenset(
        dih_closure(cyclic(3)).realization)


def test_complete_colour_graph_q8_matches_reflection_span():
    """The colour group of K_Q8 is exactly the translations extended by the
    three axis swaps (element order: 1, -1, i, -i, j, -j, k, -k)."""
    q = quaternion()
    kg = complete_colour_graph(q)
    aut = colour_preserving_automorphisms(kg.graph)
    gens = [tuple(row) for row in q.table]
    gens += [from_cycles(8, [pair]) for pair in ((2, 3), (4, 5), (6, 7))]
    span = closure(gens)
    assert aut.element_set() == frozenset(span.realization)
    assert aut.order == 64  # 8 translations times the C2^3 of sign flips


def test_disconnected_graph_refused():
    cg = cayley_graph(cyclic(6), [2, 4])
    with pytest.raises(ValueError, match="connected"):
        colour_preserving_automorphisms(cg.graph)


@pytest.mark.parametrize("g", [cyclic(6), dihedral(4), quaternion()],
                         ids=lambda g: g.name or "?")
def test_affinity_matches_bruteforce(g):
    kg = complete_colour_graph(g)
    affine = brute_affine_maps(g.table)
    aut = colour_preserving_automorphisms(kg.graph)
    for p in aut.elements:
        verdict, decomp = is_affine(kg, p)
        assert verdict == (p in affine)
        if verdict:
            lam = g.table[decomp.translation]
            rebuilt = tuple(lam[decomp.automorphism[i]]
                            for i in range(g.order))
            assert rebuilt == p


def test_is_cca_graph_six_cycle():
    v = is_cca_graph(cayley_graph(cyclic(6), [1, 5]))
    assert v.kind is VerdictKind.CCA
    assert v.witness is None
    assert all(c.passed for c in v.checks)


def test_is_cca_graph_q8_complete():
    v = is_cca_graph(complete_colour_graph(quaternion()))
    assert v.kind is VerdictKind.NON_CCA
    assert v.witness is not None
    assert replay_witness(v)


# every group of order <= 12 up to isomorphism (A4 as permutations), plus
# the second construction of Q8
ORDER_12_GROUPS = [
    "C(2)", "C(3)", "C(4)", "C(2) x C(2)", "C(5)", "C(6)", "D(3)", "C(7)",
    "C(8)", "C(4) x C(2)", "C(2) x C(2) x C(2)", "D(4)", "Q8",
    "Dic(C(4), r^2)", "C(9)", "C(3) x C(3)", "C(10)", "D(5)", "C(11)",
    "C(12)", "C(6) x C(2)", "D(6)", "Dic(C(6), r^3)",
    "Perm[(0 1 2), (0 1)(2 3)]",
]


@pytest.mark.parametrize("expr", ORDER_12_GROUPS)
def test_is_cca_graph_matches_full_route(expr):
    """The stabilizer route gives the whole-group route's kind and checks on
    every connected Cayley graph of the group, and its witness replays,
    fixes vertex 0 and is the first non-affine generator of the stabilizer.
    On each graph the stabilizer's generators close to as many maps as its
    order, the two affinity routes agree on every colour-preserving map,
    and each affine stabilizer element fixes every colour class setwise."""
    g = elaborate(parse_expr(expr), {})
    classes = inverse_classes(g)
    graphs = 0
    for size in range(1, len(classes) + 1):
        for combo in combinations(classes, size):
            conn = sorted(c for cls in combo for c in cls)
            if not g.generates(conn):
                continue
            cg = cayley_graph(g, conn)
            v = is_cca_graph(cg)
            kind, witness, checks = full_route_verdict(cg)
            assert v.kind.value == kind, conn
            assert (v.witness is None) == (witness is None), conn
            assert [(c.name, c.passed, c.detail) for c in v.checks] == checks

            gens, order, _ = engine._searched_group(cg, 1)
            _, stab = groups.greedy_closure(gens, tuple(range(g.order)),
                                            engine._After)
            assert len(stab) == order
            if witness is not None:
                assert replay_witness(v) and v.witness[0] == 0
                assert v.witness == next(
                    p for p in gens if not is_affine(cg, p)[0])
            for p in colour_preserving_automorphisms(cg).elements:
                assert is_affine(cg, p)[0] == engine._normalizes(cg, p), p
            for p in stab:
                affine, decomposition = is_affine(cg, p)
                if affine:
                    alpha = decomposition.automorphism
                    assert all(alpha[c] in (c, g.inverse[c]) for c in conn)
            graphs += 1
    assert graphs > 0


@pytest.mark.parametrize("expr", ORDER_12_GROUPS + ["Q8 x C(2)"])
def test_automorphisms_match_reclosing_search(expr):
    """Aut(G) lists the reference search's maps, in its order."""
    g = elaborate(parse_expr(expr), {})
    gens = minimal_generating_sequence(g)
    assert [a.images for a in automorphisms(g)] == \
        list(reclosing_iso_candidates(g, g, gens))


def test_is_cca_group_small():
    assert is_cca_group(cyclic(1)).kind is VerdictKind.CCA
    assert is_cca_group(cyclic(7)).kind is VerdictKind.CCA
    assert is_cca_group(dihedral(3)).kind is VerdictKind.CCA
    v = is_cca_group(quaternion())
    assert v.kind is VerdictKind.NON_CCA
    assert replay_witness(v)
    assert "connection" in v.data


def test_is_cca_group_c3xd3_finds_paper_counterexample():
    v = is_cca_group(direct_product(cyclic(3), dihedral(3)))
    assert v.kind is VerdictKind.NON_CCA
    assert replay_witness(v)
    conn = v.data["connection"]
    g = direct_product(cyclic(3), dihedral(3))
    assert g.generates(conn)
    assert sorted(g.inverse[c] for c in conn) == sorted(conn)


def test_is_cca_group_cap_truncation():
    v = is_cca_group(dihedral(6), cap=3)
    assert v.kind is VerdictKind.UNKNOWN_CAP
    assert any(c.name == "enumeration-complete" and not c.passed
               for c in v.checks)
    with pytest.raises(ValueError):
        is_cca_group(dihedral(6), cap=0)


def _report(v):
    return (v.kind, [(c.name, c.passed, c.detail) for c in v.checks],
            v.witness, v.stats.nodes, v.data)


def _decided(v):
    """What a walk over more connection sets must also conclude."""
    named = {c.name: c.detail for c in v.checks}
    return (v.kind, v.witness, named.get("witness-connection-set"), v.data)


CENSUS_4_18 = [label for label, _ in _census_catalog(4, 18)]


@pytest.mark.parametrize("cap", [None, 1, 3])
@pytest.mark.parametrize("expr", ORDER_12_GROUPS + [
    e for e in CENSUS_4_18 if e not in ORDER_12_GROUPS])
def test_is_cca_group_matches_min_walk(expr, cap, monkeypatch):
    """The orbit walk examines the minimal connection sets the per-subset
    minimum over all of Aut(G) keeps, in the same order, and reports the
    same; wherever the walk over every generating set decides, it decides
    alike, witness and witness connection set included."""
    g = elaborate(parse_expr(expr), {})
    examined = []
    verdict_of = engine.is_cca_graph

    def recording(cg):
        examined.append(cg.connection)
        return verdict_of(cg)

    monkeypatch.setattr(engine, "is_cca_graph", recording)
    v = is_cca_group(g, cap=cap)
    cap = engine._ENUM_CAP if cap is None else cap
    expected, expected_examined = minimal_walk_verdict(g, cap)
    assert examined == expected_examined
    assert _report(v) == _report(expected)
    every, _ = min_walk_verdict(g, cap)
    if every.kind is not VerdictKind.UNKNOWN_CAP:
        assert _decided(v) == _decided(every)


@pytest.mark.parametrize("expr", ORDER_12_GROUPS + ["Q8 x C(2)",
                                                    "C(3) x D(3)"])
def test_non_cca_is_inherited_by_connected_sub_unions(expr):
    """Every connected union of inverse classes inside a non-CCA one is
    non-CCA too, which is why the walk may keep to the minimal ones."""
    g = elaborate(parse_expr(expr), {})
    classes = inverse_classes(g)
    non_cca = {}  # class bitmask -> verdict, connected unions only
    for mask in range(1, 1 << len(classes)):
        conn = [c for k, cls in enumerate(classes) if mask >> k & 1
                for c in cls]
        if g.generates(conn):
            v = is_cca_graph(cayley_graph(g, conn))
            non_cca[mask] = v.kind is VerdictKind.NON_CCA
    pairs = 0
    for mask, bad in non_cca.items():
        if not bad:
            continue
        sub = (mask - 1) & mask
        while sub:
            if sub in non_cca:
                assert non_cca[sub], (mask, sub)
                pairs += 1
            sub = (sub - 1) & mask
    if expr in ("Q8", "Q8 x C(2)", "C(3) x D(3)"):
        assert pairs > 0


@pytest.mark.parametrize("expr", ["Q8", "D(6)", "C(3) x D(3)"])
def test_is_cca_group_closes_each_connection_set_once(expr, monkeypatch):
    """The walk tests connectivity and minimality on its own closures and
    never asks the group whether a connection set generates."""
    g = elaborate(parse_expr(expr), {})
    expected, _ = minimal_walk_verdict(g, engine._ENUM_CAP)

    def refuse(self, indices):
        raise AssertionError("is_cca_group called FiniteGroup.generates")

    monkeypatch.setattr(FiniteGroup, "generates", refuse)
    assert _report(is_cca_group(g)) == _report(expected)


def test_is_cca_group_closes_each_subgroup_class_join_once(monkeypatch):
    """On D(5) x D(5) the walk grows 35,897 class sequences, which reach
    3,492 distinct (subgroup, class) joins: each join is closed once, by
    ``FiniteGroup.subgroup_closure``, and the sequences that reach it share
    the subgroup."""
    g = elaborate(parse_expr("D(5) x D(5)"), {})
    subgroup_closure, joins = FiniteGroup.subgroup_closure, []

    def counted(self, gens):
        joins.append((frozenset(gens[:-1]), gens[-1]))  # subgroup, class rep
        return subgroup_closure(self, gens)

    monkeypatch.setattr(FiniteGroup, "subgroup_closure", counted)
    assert is_cca_group(g).kind is VerdictKind.NON_CCA
    assert 0 < len(set(joins)) == len(joins) <= 3500


def test_cap_counts_only_connection_sets():
    # |Aut(C12)| = 4 exceeds the caps, yet the orbits are still used: the
    # three minimal orbits fit a cap of 3, not one of 2
    v = is_cca_group(cyclic(12), cap=2)
    assert v.kind is VerdictKind.UNKNOWN_CAP
    assert (v.checks[0].name, v.checks[0].passed, v.checks[0].detail) == \
        ("orbit-pruning", True, "|Aut(G)| = 4")
    v = is_cca_group(cyclic(12), cap=3)
    assert v.kind is VerdictKind.CCA
    assert v.checks[-1].detail == "3"


def test_is_cca_group_elementary_abelian_16():
    """|Aut| = 20,160 over 2^15 - 1 subsets: a minimum over all of Aut(G)
    for every subset takes more than 600 s here.  Every basis is minimal,
    and Aut(G) makes them one orbit."""
    g = elaborate(parse_expr("C(2) x C(2) x C(2) x C(2)"), {})
    t0 = time.perf_counter()
    v = is_cca_group(g)
    assert time.perf_counter() - t0 < 60
    assert v.kind is VerdictKind.CCA
    assert [(c.name, c.detail) for c in v.checks] == [
        ("orbit-pruning", "|Aut(G)| = 20160"),
        ("connection-sets-examined", "1")]


def test_is_cca_group_elementary_abelian_32(monkeypatch):
    """|Aut| = |GL(5,2)| = 9,999,360, known from generators alone: the 83,328
    bases form one orbit, marked from the generators after one is examined."""
    def refuse(g):
        raise AssertionError("is_cca_group listed Aut(G)")

    monkeypatch.setattr(groups, "automorphisms", refuse)
    g = elaborate(parse_expr(" x ".join(["C(2)"] * 5)), {})
    v = is_cca_group(g)
    assert v.kind is VerdictKind.CCA
    assert [(c.name, c.detail) for c in v.checks] == [
        ("orbit-pruning", "|Aut(G)| = 9999360"),
        ("connection-sets-examined", "1")]


def test_pair_yes_cyclic_dihedral():
    for n in (3, 5):
        g = cyclic(n)
        v = is_complete_colour_pair(left_regular(g), dih_closure(g))
        assert v.kind is VerdictKind.PAIR_YES
        assert replay_witness(v)
        by_name = {c.name: c.passed for c in v.checks}
        assert by_name["abelian-inversion-shape"]


def test_pair_no_klein_four():
    g = direct_product(cyclic(2), cyclic(2))
    v = is_complete_colour_pair(left_regular(g), left_regular(g))
    assert v.kind is VerdictKind.PAIR_NO
    by_name = {c.name: c.passed for c in v.checks}
    # inside the colour group, but no shape matches an exponent-2 group
    assert by_name["b-within-colour-group"]
    assert not by_name["abelian-inversion-shape"]
    assert not by_name["dicyclic-reflection-shape"]
    assert not by_name["quaternion-reflections-shape"]


def test_pair_c4_satisfies_two_shapes():
    # C4 is abelian and also Dic(C2, y); both shapes must be recorded
    g = cyclic(4)
    v = is_complete_colour_pair(left_regular(g), dih_closure(g))
    assert v.kind is VerdictKind.PAIR_YES
    by_name = {c.name: c.passed for c in v.checks}
    assert by_name["abelian-inversion-shape"]
    assert by_name["dicyclic-reflection-shape"]


def test_pair_yes_quaternion_reflections():
    q = quaternion()
    gens = [tuple(row) for row in q.table]
    gens += [from_cycles(8, [pair]) for pair in ((2, 3), (4, 5), (6, 7))]
    v = is_complete_colour_pair(left_regular(q), closure(gens))
    assert v.kind is VerdictKind.PAIR_YES
    by_name = {c.name: c.passed for c in v.checks}
    assert by_name["quaternion-reflections-shape"]
    assert not by_name["abelian-inversion-shape"]


def test_pair_no_when_b_too_big():
    # all of Sym(4) is not inside the colour group of K_C4
    g = cyclic(4)
    sym4 = closure([from_cycles(4, [(0, 1)]),
                    from_cycles(4, [(0, 1, 2, 3)])])
    v = is_complete_colour_pair(left_regular(g), sym4)
    assert v.kind is VerdictKind.PAIR_NO
    by_name = {c.name: c.passed for c in v.checks}
    assert not by_name["b-within-colour-group"]


PAIR_GROUPS = ["C(3)", "C(4)", "C(5)", "C(6)", "C(7)", "C(8)", "C(9)",
               "C(10)", "C(12)", "C(16)", "C(2) x C(2)", "C(2) x C(4)",
               "C(3) x C(3)", "C(2) x C(6)", "C(2) x C(8)",
               "C(2) x C(2) x C(2)", "D(3)", "D(4)", "D(5)", "D(6)", "Q8",
               "Q8 x C(2)", "Q8 x C(2) x C(2)", "Q8 x C(2) x C(2) x C(2)",
               "Dic(C(6), r^3)", "Dic(C(8), r^4)", "Dic(C(12), r^6)"]
PAIR_CASES = [(expr, "G") for expr in PAIR_GROUPS] + [
    (expr, "Dih(G)") for expr in PAIR_GROUPS
    if elaborate(parse_expr(expr)).is_abelian()] + [
    ("C(4)", "Sym(4)"), ("C(5)", "Sym(5)"),  # B outside the colour group
    # B with an empty generators dict, so only its realization names them;
    # Sym(4) closed from its 4-cycle first, a translation inside the colour
    # group, so that the transposition kept after it decides
    ("C(6)", "Dih(G), no generators"), ("C(4)", "Sym(4), no generators")] + [
    # the shapes' maps fix the identity, which is then not vertex 0
    (expr, "G, identity at 2") for expr in ("C(4)", "C(5)", "C(2) x C(4)",
                                            "Dic(C(6), r^3)", "Q8")] + [
    ("C(6)", "Dih(G), identity at 2")]


def _identity_at_2(g):
    """g's table with the labels of elements 0 and 2 swapped."""
    label = list(range(g.order))
    label[0], label[2] = 2, 0
    table = [[0] * g.order for _ in range(g.order)]
    for i, row in enumerate(g.table):
        for j, ij in enumerate(row):
            table[label[i]][label[j]] = label[ij]
    return FiniteGroup([g.elements[label[i]] for i in range(g.order)], table)


@pytest.mark.parametrize("expr, b_name", PAIR_CASES,
                         ids=[f"{e} with {b}" for e, b in PAIR_CASES])
def test_pair_shapes_match_set_built_route(expr, b_name):
    """Colour checks of B's generators, the stabilizer's generators and
    its order decide every check exactly as building the maps each shape
    predicts and comparing them with the whole colour group does; the one
    search is the vertex-0 stabilizer's."""
    g = elaborate(parse_expr(expr))
    if b_name.endswith("identity at 2"):
        g = _identity_at_2(g)
        assert g.identity == 2
    ghat = left_regular(g)
    if b_name.startswith("G"):
        b = ghat
    elif b_name.startswith("Dih(G)"):
        b = dih_closure(g)
    else:  # Sym(n), from a transposition and an n-cycle
        gens = [from_cycles(g.order, [(0, 1)]),
                from_cycles(g.order, [tuple(range(g.order))])]
        b = closure(gens[::-1] if b_name.endswith("no generators") else gens)
    if b_name.endswith("no generators"):
        b = FiniteGroup(b.elements, b.table, {}, b.realization)
    got = is_complete_colour_pair(ghat, b)
    want = set_built_pair_verdict(ghat, b)
    assert got.kind is want.kind
    assert [(c.name, c.passed, c.detail) for c in got.checks] == \
        [(c.name, c.passed, c.detail) for c in want.checks]
    assert got.witness == want.witness
    kg = complete_colour_graph(ghat)
    assert got.stats.nodes == engine._searched_group(kg, 1)[2].nodes
    if got.kind is VerdictKind.PAIR_YES:
        assert replay_witness(got)


@pytest.mark.parametrize("expr", ["C(4)", "C(5)", "C(2) x C(8)",
                                  "Dic(C(6), r^3)", "Dic(C(12), r^6)"])
def test_pair_shapes_run_no_colour_check_on_their_maps(expr, monkeypatch):
    """The inversion and the dicyclic reflections are decided by membership
    among the stabilizer's generators, and with B = G every generator of B
    is a translation, which preserves colours by construction: the verdict
    runs no colour check at all."""
    checked, preserving = [], engine.is_colour_preserving

    def counted(g, p):
        checked.append(tuple(p))
        return preserving(g, p)

    monkeypatch.setattr(engine, "is_colour_preserving", counted)
    ghat = left_regular(elaborate(parse_expr(expr)))
    v = is_complete_colour_pair(ghat, ghat)
    assert v.kind is VerdictKind.PAIR_YES
    assert checked == []


def test_replay_rejects_a_translation_as_pair_witness():
    g = cyclic(5)
    v = is_complete_colour_pair(left_regular(g), dih_closure(g))
    assert replay_witness(v)
    for row in g.table:  # colour-preserving, but no certificate
        v.witness = tuple(row)
        assert not replay_witness(v)


def test_pair_rejects_degenerate_inputs():
    with pytest.raises(ValueError, match=">= 3"):
        is_complete_colour_pair(left_regular(cyclic(2)),
                                left_regular(cyclic(2)))
    with pytest.raises(ValueError, match="realization"):
        is_complete_colour_pair(cyclic(4), left_regular(cyclic(4)))


def test_local_action_sizes():
    hexagon = cayley_graph(cyclic(6), [1, 5]).graph
    rot = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    flip = (0, 5, 4, 3, 2, 1)
    assert local_action(closure([rot]), hexagon, 0).order == 1
    assert local_action(closure([rot, flip]), hexagon, 0).order == 2


def test_harness_reports_failed_hypotheses():
    hexagon = cayley_graph(cyclic(6), [1, 5]).graph
    rot = from_cycles(6, [(0, 1, 2, 3, 4, 5)])
    rot_only = closure([rot])
    v = arc_lift_harness(hexagon, rot_only, rot_only)
    assert v.kind is VerdictKind.HYPOTHESES_FAIL
    last = v.checks[-1]
    assert (last.name, last.passed, last.detail) == (
        "arc-regular", False, "not arc-regular: |G| = 6, 12 arcs")

    # a group that is not made of graph automorphisms names its offender
    swap = closure([(1, 0, 2, 3, 4, 5)])
    v = arc_lift_harness(hexagon, swap, swap)
    assert v.kind is VerdictKind.HYPOTHESES_FAIL
    last = v.checks[-1]
    assert (last.name, last.passed) == ("arc-regular", False)
    assert last.detail.startswith("element ")
    assert last.detail.endswith(" is not a graph automorphism")

    # arc-regular holds for the dihedral action, but the local pairs are
    # degenerate (|local G| = 2 < 3), which must surface as a failed check,
    # not an exception
    full = closure([rot, (0, 5, 4, 3, 2, 1)])
    v = arc_lift_harness(hexagon, full, full)
    assert v.kind is VerdictKind.HYPOTHESES_FAIL
    assert any(c.name == "local-pairs" and not c.passed for c in v.checks)

    # the labelling certifies arc-regularity, so a base arc that is not an
    # edge fails that hypothesis
    v = arc_lift_harness(hexagon, full, full, base_arc=Arc(0, 2))
    assert v.kind is VerdictKind.HYPOTHESES_FAIL
    last = v.checks[-1]
    assert (last.name, last.passed, last.detail) == (
        "arc-regular", False, "Arc(tail=0, head=2) is not an arc of the graph")

    # an overgroup that moves an edge onto a non-edge fails its own check
    bigger = closure([*full.realization, (3, 1, 2, 0, 4, 5)])
    v = arc_lift_harness(hexagon, full, bigger)
    assert v.kind is VerdictKind.HYPOTHESES_FAIL
    last = v.checks[-1]
    assert (last.name, last.passed) == ("h-automorphisms", False)
    assert last.detail.startswith("element ")
    assert last.detail.endswith(", a generator of h, breaks an edge")


def _local_pair(g, grp, h, v):
    """Kind and checks of the local pair at v, or the ValueError's text."""
    try:
        pv = is_complete_colour_pair(local_action(grp, g, v),
                                     local_action(h, g, v))
    except ValueError as exc:
        return str(exc)
    return pv.kind, [(c.name, c.passed, c.detail) for c in pv.checks]


def _hexagon_with_dihedral():
    hexagon = cayley_graph(cyclic(6), [1, 5]).graph
    full = closure([from_cycles(6, [(0, 1, 2, 3, 4, 5)]), (0, 5, 4, 3, 2, 1)])
    return hexagon, full, full


def _knn(n):
    a = bipartite.knn_actors(n)
    return a.graph, a.g, a.h


LOCAL_PAIR_CASES = [pytest.param(lambda n=n: _knn(n), id=f"knn-{n}")
                    for n in (3, 5, 7)] + [
    pytest.param(_hexagon_with_dihedral, id="hexagon-dihedral")]


@pytest.mark.parametrize("case", LOCAL_PAIR_CASES)
def test_every_vertex_gives_vertex_0s_local_pair(case):
    """The every-vertex loop the harness no longer runs: each vertex's local
    pair has vertex 0's kind and checks (or raises its error), so the
    harness's one pair at vertex 0 reports what the loop reported."""
    g, grp, h = case()
    at_0 = _local_pair(g, grp, h, 0)
    for v in range(1, g.vertex_count):
        assert _local_pair(g, grp, h, v) == at_0
    local = next(c for c in arc_lift_harness(g, grp, h).checks
                 if c.name == "local-pairs")
    if isinstance(at_0, str):
        assert (local.passed, local.detail) == (False, f"vertex 0: {at_0}")
    else:
        assert at_0[0] is VerdictKind.PAIR_YES
        assert (local.passed, local.detail) == (
            True, f"complete colour pair at all {g.vertex_count} vertices")


def test_replay_witness_rejects_tampering():
    v = is_cca_group(quaternion())
    assert v.kind is VerdictKind.NON_CCA
    imgs = list(v.witness)
    imgs[0], imgs[1] = imgs[1], imgs[0]
    v.witness = tuple(imgs)
    assert not replay_witness(v)
    # a left translation preserves colours but is affine; a repeated image,
    # an out-of-range image, a wrong length
    n = len(imgs)
    translation = tuple(v.context.group.table[1])
    assert is_colour_preserving(v.context, translation)
    for bad in (translation, (0,) * n, tuple(range(1, n + 1)),
                tuple(range(n - 1))):
        v.witness = bad
        assert not replay_witness(v)


def test_verdicts_share_no_mutable_defaults():
    a, b = Verdict(VerdictKind.CCA), Verdict(VerdictKind.CCA)
    assert a.checks is not b.checks
    assert a.data is not b.data
    assert a.stats is not b.stats
    a.checks.append(Check("search", True))
    a.data["connection"] = [1]
    a.stats.add(SearchStats(nodes=3))
    assert (b.checks, b.data, b.stats.nodes) == ([], {}, 0)


def test_replay_witness_needs_witness():
    v = is_cca_graph(cayley_graph(cyclic(6), [1, 5]))
    with pytest.raises(ValueError, match="no witness"):
        replay_witness(v)
