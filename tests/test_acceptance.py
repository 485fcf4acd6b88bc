"""End-to-end acceptance checks, one numbered group per criterion.

Drivers run in process through cli.main; witnesses are re-verified at the
engine level rather than trusted from their own checklists.  Time budgets
are asserted with time.perf_counter around the calls they cover.
"""

import json
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccakit.bipartite import (complete_bipartite, cyclic_dihedral_witness,
                              double_dihedral, double_dihedral_witness,
                              knn_actors, knn_cayley_form)
from ccakit.cli import main
from ccakit.engine import (colour_preserving_automorphisms, is_affine,
                           is_cca_group, is_colour_preserving, replay_witness)
from ccakit.graphs import (ColouredGraph, cayley_graph, complete_colour_graph,
                           is_connected)
from ccakit.groups import (closure, cyclic, dihedral, direct_product,
                           quaternion)
from ccakit.perm import compose, from_cycles, inverse, power
from ccakit.speclang import elaborate, parse_expr

from bruteforce import (brute_automorphisms, brute_colour_automorphisms,
                        edge_dict)


def run_json(capsys, *argv):
    start = time.perf_counter()
    code = main(list(argv))
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out), elapsed


def checks_by_name(doc):
    return {c["name"]: c for c in doc["verdict"]["checks"]}


# ---- 1: reflection witness at n = 3 ---------------------------------------

def test_ac1_reflection_witness_n3(capsys):
    doc, elapsed = run_json(capsys, "witness-thm31", "--n", "3")
    assert doc["verdict"]["kind"] == "non-CCA"
    images = doc["verdict"]["witness_images"]
    assert len(images) == 18
    assert elapsed < 1.0

    # the emitted permutation really is colour-preserving and non-affine
    v = cyclic_dihedral_witness(3)
    assert list(v.witness) == images
    assert is_colour_preserving(v.context.graph, v.witness)
    affine, _ = is_affine(v.context, v.witness)
    assert not affine

    # reading the arc labels back gives the involution plus both
    # nontrivial powers of the second rotation, nothing else
    actors = knn_actors(3)
    _, cg = knn_cayley_form(actors)
    names = {actors.g.elements[c] for c in cg.connection}
    assert names == {"tau", "rho2", "rho2^2"}


# ---- 2: the same witness at n = 5, 7, 11 and 13 ---------------------------

@pytest.mark.parametrize("n,vertices",
                         [(5, 50), (7, 98), (11, 242), (13, 338)])
def test_ac2_reflection_witness_scales(capsys, n, vertices):
    doc, elapsed = run_json(capsys, "witness-thm31", "--n", str(n))
    assert doc["verdict"]["kind"] == "non-CCA"
    assert len(doc["verdict"]["witness_images"]) == vertices
    assert elapsed < 30.0


# ---- 3: exhaustive connection-set search at order 18 ----------------------

def test_ac3_group_search_order_18(capsys):
    doc, elapsed = run_json(capsys, "check-group", "C(3) x D(3)")
    assert doc["verdict"]["kind"] == "non-CCA"
    assert len(doc["verdict"]["witness_images"]) == 18
    named = checks_by_name(doc)
    assert named["witness-connection-set"]["pass"]
    assert named["witness-connection-set"]["detail"]  # the set is spelled out
    assert named["connection-sets-examined"]["pass"]
    assert elapsed < 120.0


# ---- 4: flip witness on the doubled construction --------------------------

def test_ac4_flip_witness_combined(capsys):
    doc3, t3 = run_json(capsys, "witness-prop33", "--n", "3")
    assert doc3["verdict"]["kind"] == "non-CCA"
    assert len(doc3["verdict"]["witness_images"]) == 36
    doc5, t5 = run_json(capsys, "witness-prop33", "--n", "5")
    assert doc5["verdict"]["kind"] == "non-CCA"
    assert len(doc5["verdict"]["witness_images"]) == 100
    assert t3 + t5 < 60.0

    v = double_dihedral_witness(3)
    assert is_colour_preserving(v.context.graph, v.witness)
    affine, _ = is_affine(v.context, v.witness)
    assert not affine


def test_ac4_flip_witness_at_n_7(capsys):
    doc, elapsed = run_json(capsys, "witness-prop33", "--n", "7")
    assert doc["verdict"]["kind"] == "non-CCA"
    assert len(doc["verdict"]["witness_images"]) == 196
    assert elapsed < 30.0


# ---- 5: arc-lift harness ---------------------------------------------------

@pytest.mark.parametrize("n", [3, 5])
def test_ac5_harness_hypotheses_and_transport(capsys, n):
    doc, _ = run_json(capsys, "harness-4-10", "--n", str(n))
    assert doc["verdict"]["kind"] == "hypotheses-ok"
    named = checks_by_name(doc)
    for name in ("connected", "arc-regular", "subgroup", "h-automorphisms",
                 "local-pairs", "conclusion-verified"):
        assert named[name]["pass"], name
    assert named["local-pairs"]["detail"] == \
        f"complete colour pair at all {2 * n} vertices"
    assert named["conclusion-verified"]["detail"] == \
        f"all {8 * n * n} transported maps preserve colours"


# ---- 6: cyclic groups up to order 10 ---------------------------------------

def test_ac6_cyclic_groups_are_cca(capsys):
    start = time.perf_counter()
    for n in range(1, 11):
        doc, _ = run_json(capsys, "check-group", f"C({n})")
        assert doc["verdict"]["kind"] == "CCA", f"C({n})"
    assert time.perf_counter() - start < 300.0


# ---- 7: backtracking against the all-permutations filter ------------------

def _corpus():
    graphs = []
    # complete colour graphs, the two order-4 ones first
    for grp in (cyclic(4), direct_product(cyclic(2), cyclic(2)), cyclic(3),
                cyclic(5), cyclic(6), cyclic(7), cyclic(8), quaternion(),
                dihedral(4)):
        graphs.append(complete_colour_graph(grp).graph)
    # Cayley graphs over chosen connection sets
    eightfold = direct_product(direct_product(cyclic(2), cyclic(2)),
                               cyclic(2))
    for grp, conn in ((cyclic(6), [1, 5]),          # 6-cycle
                      (cyclic(8), [1, 7]),          # 8-cycle
                      (eightfold, [1, 2, 4]),       # cube, 3 colours
                      (dihedral(3), [3, 4]),        # 6-cycle, 2 colours
                      (dihedral(4), [4, 5]),        # 8-cycle, 2 colours
                      (cyclic(6), [2, 3, 4]),       # prism, 2 colours
                      (cyclic(8), [1, 4, 7])):      # 8-cycle plus diameters
        graphs.append(cayley_graph(grp, conn).graph)
    # graphs that are not Cayley graphs at all
    graphs.append(ColouredGraph(4, {(0, 1): 0, (1, 2): 0, (2, 3): 0}))
    graphs.append(ColouredGraph(4, {(0, 1): 0, (1, 2): 1, (2, 3): 2}))
    graphs.append(ColouredGraph(5, {(0, i): 0 for i in range(1, 5)}))
    graphs.append(complete_bipartite(3, 3))
    return graphs


def test_ac7_backtracking_matches_filter():
    corpus = _corpus()
    assert len(corpus) == 20
    for g in corpus:
        assert g.vertex_count <= 8
        assert is_connected(g)
        found = colour_preserving_automorphisms(g).element_set()
        assert found == brute_colour_automorphisms(g.vertex_count,
                                                   edge_dict(g)), g


# ---- 8: pair verdicts and the colour group of K_Q8 -------------------------

def test_ac8_pair_instances(capsys):
    for n in (3, 5, 7, 9):
        doc, _ = run_json(capsys, "pair", f"C({n})", f"Dih(C({n}))")
        assert doc["verdict"]["kind"] == "pair-yes", n
    doc, _ = run_json(capsys, "pair", "C(2) x C(2)", "C(2) x C(2)")
    assert doc["verdict"]["kind"] == "pair-no"


def test_ac8_colour_group_of_complete_q8():
    q = quaternion()
    kg = complete_colour_graph(q)
    aut = colour_preserving_automorphisms(kg.graph)
    # translations extended by the three sign swaps, as one permutation set
    gens = [tuple(row) for row in q.table]
    gens += [from_cycles(8, [pair]) for pair in ((2, 3), (4, 5), (6, 7))]
    expected = closure(gens)
    assert aut.element_set() == frozenset(expected.realization)


# ---- 9: property suites -----------------------------------------------------

POOL = [cyclic(5), cyclic(6), dihedral(3), dihedral(4),
        direct_product(cyclic(2), cyclic(2)), quaternion()]

_AUTS: dict[int, list] = {}


def auts(g):
    """Automorphism image tuples of g, brute forced once per group."""
    if id(g) not in _AUTS:
        _AUTS[id(g)] = sorted(brute_automorphisms(g.table))
    return _AUTS[id(g)]


def connection_sets(g):
    picks = st.sets(st.sampled_from(range(1, g.order)), min_size=1)
    return picks.map(
        lambda s: sorted({x for c in s for x in (c, g.inverse[c])}))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ac9_translations_preserve_colours(data):
    g = data.draw(st.sampled_from(POOL))
    conn = data.draw(connection_sets(g))
    a = data.draw(st.integers(0, g.order - 1))
    cg = cayley_graph(g, conn)
    assert is_colour_preserving(cg.graph, tuple(g.table[a]))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ac9_affine_iff_normalizing(data):
    g = data.draw(st.sampled_from(POOL))
    if data.draw(st.booleans()):
        p = tuple(data.draw(st.permutations(range(g.order))))
    else:  # affine by construction, so both branches of the iff get hit
        a = data.draw(st.integers(0, g.order - 1))
        alpha = data.draw(st.sampled_from(auts(g)))
        p = tuple(g.table[a][alpha[i]] for i in range(g.order))
    kg = complete_colour_graph(g)
    affine, decomp = is_affine(kg, p)

    pinv = [0] * g.order
    for i, x in enumerate(p):
        pinv[x] = i
    translations = {tuple(row) for row in g.table}
    normalizes = all(
        tuple(p[g.table[a][pinv[i]]] for i in range(g.order)) in translations
        for a in range(g.order))
    assert affine == normalizes
    if affine:
        rebuilt = tuple(g.table[decomp.translation][decomp.automorphism[i]]
                        for i in range(g.order))
        assert rebuilt == p


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ac9_affine_colour_preservation_is_class_fixing(data):
    g = data.draw(st.sampled_from(POOL))
    conn = data.draw(connection_sets(g))
    a = data.draw(st.integers(0, g.order - 1))
    alpha = data.draw(st.sampled_from(auts(g)))
    p = tuple(g.table[a][alpha[i]] for i in range(g.order))
    cg = cayley_graph(g, conn)
    fixes_classes = all(alpha[c] in (c, g.inverse[c]) for c in conn)
    assert is_colour_preserving(cg.graph, p) == fixes_classes


_DD = {}


def doubled(n):
    if n not in _DD:
        _DD[n] = double_dihedral(knn_actors(n))
    return _DD[n]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_ac9_normal_forms_and_rebasing(data):
    n = data.draw(st.sampled_from([3, 5, 7]))
    dd = doubled(n)
    i = data.draw(st.integers(0, dd.group.order - 1))
    assert dd.assemble(dd.normal_form(i)) == i

    act = dd.actors
    a = data.draw(st.integers(0, n - 1))
    b = data.draw(st.integers(0, n - 1))
    half = pow(2, -1, n)
    lhs = compose(power(act.rho1, a), power(act.rho2, b))
    rhs = compose(power(compose(act.rho1, act.rho2), (a + b) * half % n),
                  power(compose(inverse(act.rho1), act.rho2),
                        (b - a) * half % n))
    assert lhs == rhs


# ---- 10: the minimal-set walk decides order 32 and order 50 ---------------

def test_ac10_dihedral_order_32_is_cca(capsys):
    doc, elapsed = run_json(capsys, "check-group", "D(16)")
    assert doc["verdict"]["kind"] == "CCA"
    assert checks_by_name(doc)["connection-sets-examined"]["pass"]
    assert elapsed < 10.0


def test_ac10_cyclic_times_dihedral_n5_is_non_cca(capsys):
    """The paper's C_n x D_2n family at n = 5, found by the group walk."""
    doc, elapsed = run_json(capsys, "check-group", "C(5) x D(5)")
    assert elapsed < 10.0
    assert doc["verdict"]["kind"] == "non-CCA"
    assert checks_by_name(doc)["witness-connection-set"]["detail"]

    # the emitted permutation replays as colour-preserving and non-affine
    v = is_cca_group(elaborate(parse_expr("C(5) x D(5)"), {}))
    assert list(v.witness) == doc["verdict"]["witness_images"]
    assert replay_witness(v)
    assert is_colour_preserving(v.context.graph, v.witness)
    assert not is_affine(v.context, v.witness)[0]
