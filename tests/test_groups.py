"""Constructors, recognizers, and isomorphism machinery.

Order profiles and involution counts are checked against values computed by
naive loops over the multiplication table, never against the methods under
test.
"""

from itertools import product as iproduct
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ccakit import engine, groups, perm
from ccakit.bipartite import double_dihedral, knn_actors
from ccakit.cli import _realize_pair_b
from ccakit.engine import local_action
from ccakit.errors import CapExceededError
from ccakit.groups import (FiniteGroup, are_isomorphic,
                           automorphism_generators, automorphisms, closure,
                           cyclic, dihedral, direct_product,
                           extend_homomorphism, generalized_dicyclic,
                           generalized_dihedral, greedy_closure,
                           inverse_classes, left_regular,
                           minimal_generating_sequence, q8_c2n_isomorphism,
                           quaternion, recognize_dicyclic, wreath_c2)

from bruteforce import (brute_automorphisms, closure_by_products,
                        order_keyed_generators, reclosing_iso_candidates,
                        reclosing_scan)


def naive_element_order(table, i):
    k, acc = 1, i
    while acc != 0:
        acc = table[acc][i]
        k += 1
    return k


def naive_profile(g):
    prof = {}
    for i in range(g.order):
        k = naive_element_order(g.table, i)
        prof[k] = prof.get(k, 0) + 1
    return prof


CORPUS = [
    cyclic(1), cyclic(2), cyclic(5), cyclic(6), cyclic(8),
    dihedral(3), dihedral(4), dihedral(5),
    quaternion(),
    generalized_dihedral(cyclic(4)),
    generalized_dicyclic(cyclic(6), 3),
    direct_product(cyclic(2), cyclic(2)),
    direct_product(cyclic(3), dihedral(3)),
    direct_product(quaternion(), cyclic(2)),
]


def _dih_point_group(a):
    """The point group that ``pair G "Dih(G)"`` builds for B, G = C(a)."""
    g = cyclic(a)
    args = SimpleNamespace(g=f"C({a})", b=f"Dih(C({a}))")
    return _realize_pair_b(args, g, left_regular(g), {})


_A3, _A5 = knn_actors(3), knn_actors(5)
_H3 = _A3.h
# FiniteGroup trusts the tables its constructors build; these certify them
BUILT = [
    _A3.g, _A5.g, double_dihedral(_A3).group, double_dihedral(_A5).group,
    _H3,
    pytest.param(local_action(_H3, _A3.graph, 0), id="local-H(3)-at-a0"),
    pytest.param(local_action(_A3.g, _A3.graph, 3), id="local-G(3)-at-b0"),
    pytest.param(_H3.subgroup(_H3.subgroup_closure(
        [_H3.generators["rho1"], _H3.generators["sigma1"]])),
        id="subgroup-of-H(3)"),
    left_regular(quaternion()),
    wreath_c2(dihedral(3)),
    _dih_point_group(6),
]


@pytest.mark.parametrize("g", CORPUS + BUILT, ids=lambda g: g.name or "?")
def test_tables_are_groups(g):
    g.validate()


@pytest.mark.parametrize("g", CORPUS, ids=lambda g: g.name or "?")
def test_order_profile_matches_naive(g):
    assert g.order_profile() == naive_profile(g)


def test_dihedral_5_census():
    # 1 identity, 4 rotations of order 5, 5 reflections
    assert dihedral(5).order_profile() == {1: 1, 2: 5, 5: 4}


def test_generalized_dihedral_c4():
    g = generalized_dihedral(cyclic(4))
    assert g.order == 8
    assert len(g.involutions()) == 5
    assert are_isomorphic(g, dihedral(4)) is not None
    with pytest.raises(ValueError):
        generalized_dihedral(dihedral(3))


@pytest.mark.parametrize("n", range(3, 10))
def test_dihedral_layout(n):
    """r^a s^b sits at index a + n*b, and D(n) is Dih(C(n)) renamed."""
    g = dihedral(n)
    for a1, b1, a2, b2 in iproduct(range(n), range(2), range(n), range(2)):
        a = (a1 + a2) % n if b1 == 0 else (a1 - a2) % n
        assert g.table[a1 + n * b1][a2 + n * b2] == a + n * ((b1 + b2) % 2)
    rot = ["e", "r"] + [f"r^{a}" for a in range(2, n)]
    assert g.elements == rot + ["s"] + [f"{x}*s" for x in rot[1:]]
    assert g.generators == {"r": 1, "s": n}
    d = generalized_dihedral(cyclic(n))
    assert (g.elements, g.table, g.generators) == \
        (d.elements, d.table, d.generators)
    assert (g.name, d.name) == (f"D{2 * n}", f"Dih(C{n})")


@pytest.mark.parametrize("m", range(2, 7))
def test_dicyclic_layout(m):
    """Dic(C(2m), r^m): z*x^b sits at index z + 2m*b, x^2 = r^m and
    x^-1 r x = r^-1."""
    n = 2 * m
    g = generalized_dicyclic(cyclic(n), m)
    for z1, b1, z2, b2 in iproduct(range(n), range(2), range(n), range(2)):
        z = z1 + (z2 if b1 == 0 else -z2) + (m if b1 and b2 else 0)
        assert g.table[z1 + n * b1][z2 + n * b2] == z % n + n * ((b1 + b2) % 2)
    rot = ["e", "r"] + [f"r^{a}" for a in range(2, n)]
    assert g.elements == rot + ["x"] + [f"{x}*x" for x in rot[1:]]
    assert g.generators == {"r": 1, "x": n}
    assert g.name == f"Dic(C{n})"


def test_generalized_dicyclic_c6():
    g = generalized_dicyclic(cyclic(6), 3)  # y = r^3
    assert g.order == 12
    assert len(g.involutions()) == 1
    with pytest.raises(ValueError):
        generalized_dicyclic(cyclic(6), 2)  # r^2 is not an involution
    with pytest.raises(ValueError):
        generalized_dicyclic(cyclic(5), 0)


def test_quaternion_table():
    q = quaternion()
    i, j = q.generators["i"], q.generators["j"]
    minus_one = q.mult(i, i)
    assert q.elements[minus_one] == "-1"
    assert q.mult(j, j) == minus_one
    k = q.mult(i, j)
    assert q.elements[k] == "k"
    assert q.mult(j, i) == q.inverse[k]
    assert q.order_profile() == {1: 1, 2: 1, 4: 6}


def test_direct_product_census():
    g = direct_product(dihedral(3), dihedral(3))
    assert g.order == 36
    assert len(g.involutions()) == 15


def test_wreath_order():
    w = wreath_c2(dihedral(3))
    assert w.order == 72
    assert naive_profile(w) == w.order_profile()


def assert_closure_matches_products(g, gens, names):
    """g = closure(gens, names) laid out exactly as the |G|^2 route does:
    every column, row, product and inverse.  Columns and rows are read
    last first, so each is built on first read from ancestors not yet
    built."""
    elements, generators, realization, table = \
        closure_by_products(gens, names, 512)
    assert g.elements == elements
    assert g.generators == generators
    assert g.realization == realization
    last_first = range(g.order - 1, -1, -1)
    assert [g.column(j) for j in last_first] == \
        [[row[j] for row in table] for j in last_first]
    assert [g.table[i] for i in last_first] == table[::-1]
    assert all(g.mult(i, j) == table[i][j]
               for i in range(g.order) for j in range(g.order))
    assert g.inverse == [row.index(g.identity) for row in table]
    assert g.table == table


def test_closure_of_left_regular_recovers_order():
    for g in CORPUS:
        reg = left_regular(g)
        gens = [reg.realization[i] for i in reg.generators.values()]
        if not gens:  # trivial group
            continue
        names = list(reg.generators)
        closed = closure(gens, names=names)
        assert closed.order == g.order
        assert_closure_matches_products(closed, gens, names)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_closure_of_knn_groups_matches_products(n):
    actors = knn_actors(n)
    for g in (actors.g, actors.h, double_dihedral(actors).group):
        gens = [g.realization[i] for i in g.generators.values()]
        assert_closure_matches_products(g, gens, list(g.generators))


@pytest.mark.parametrize("a", [cyclic(3), cyclic(8), cyclic(12),
                               direct_product(cyclic(2), cyclic(2)),
                               direct_product(cyclic(2), cyclic(6))],
                         ids=lambda g: g.name)
def test_closure_of_dih_point_group_matches_products(a):
    # the point group the pair command builds for B = Dih(G)
    gens = [tuple(row) for row in a.table]
    gens.append(tuple(a.inverse))
    names = [f"g{i}" for i in range(len(gens))]
    g = closure(gens)
    assert g.order == (a.order if a.is_elementary_abelian_2()
                       else 2 * a.order)
    assert_closure_matches_products(g, gens, names)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_closure_matches_products_on_random_generators(data):
    degree = data.draw(st.integers(1, 7), label="degree")
    gens = data.draw(st.lists(
        st.permutations(range(degree)).map(tuple),
        min_size=1, max_size=3), label="gens")
    names = [f"g{i}" for i in range(len(gens))]
    try:
        closure_by_products(gens, names, 120)
    except CapExceededError:
        with pytest.raises(CapExceededError):
            closure(gens, cap=120)
        return
    assert_closure_matches_products(closure(gens, cap=120), gens, names)


def test_closure_composes_linearly_in_the_order(monkeypatch):
    a = knn_actors(5)
    gens = [a.rho1, a.sigma1, a.rho2, a.sigma2, a.tau]
    calls = 0
    compose = perm.compose

    def counting(p, q):
        nonlocal calls
        calls += 1
        return compose(p, q)

    monkeypatch.setattr(perm, "compose", counting)
    h = closure(gens, cap=200)
    assert h.order == 200
    # one per element and generator; the |G|^2 table alone would take 40,000
    assert calls == h.order * len(gens)


def compose_images(a, b):
    return tuple(a[x] for x in b)


class LeftComposer(dict):
    """``LeftComposer(a)[b]`` is a o b, computed when asked for."""

    def __init__(self, a):
        super().__init__()
        self.a = a

    def __missing__(self, b):
        return compose_images(self.a, b)


LIMITS = st.one_of(st.none(), st.integers(1, 130))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_greedy_closure_matches_reclosing_scan_on_permutations(data):
    degree = data.draw(st.integers(1, 6), label="degree")
    candidates = data.draw(st.lists(
        st.permutations(range(degree)).map(tuple), max_size=8),
        label="candidates")
    limit = data.draw(LIMITS, label="limit")
    ident = tuple(range(degree))
    assert greedy_closure(candidates, ident, LeftComposer, limit) == \
        reclosing_scan(candidates, ident, compose_images, limit)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_greedy_closure_matches_reclosing_scan_on_tables(data):
    g = data.draw(st.sampled_from(CORPUS), label="group")
    candidates = data.draw(st.lists(st.integers(0, g.order - 1), max_size=8),
                           label="candidates")
    limit = data.draw(LIMITS, label="limit")
    got = greedy_closure(candidates, g.identity, g.table.__getitem__, limit)
    assert got == reclosing_scan(candidates, g.identity,
                                 lambda a, b: g.table[a][b], limit)


@pytest.mark.parametrize("g", CORPUS + [knn_actors(3).h],
                         ids=lambda g: g.name or "?")
def test_greedy_closure_multiplies_each_element_once_per_generator(g):
    calls = 0

    class CountingRow:
        def __init__(self, s):
            self.row = g.table[s]

        def __getitem__(self, x):
            nonlocal calls
            calls += 1
            return self.row[x]

    kept, known = greedy_closure(range(g.order), g.identity, CountingRow)
    assert len(known) == g.order
    assert kept == minimal_generating_sequence(g)
    assert calls <= g.order * (len(kept) + 1)


# beside (1, 0, 2): a repeated image, an out-of-range image, a wrong length
NON_BIJECTIONS = [(1, 1, 2), (1, 3, 2), (1, 0)]


@pytest.mark.parametrize("bad", NON_BIJECTIONS)
def test_closure_rejects_non_bijections(bad):
    assert closure([(1, 0, 2)]).order == 2
    with pytest.raises(ValueError):
        closure([(1, 0, 2), bad])


@pytest.mark.parametrize("bad", NON_BIJECTIONS)
def test_validate_rejects_non_bijective_realizations(bad):
    def c2(realization):
        return FiniteGroup(["e", "a"], [[0, 1], [1, 0]],
                           realization=realization)

    c2([(0, 1, 2), (1, 0, 2)]).validate()
    with pytest.raises(ValueError):
        c2([(0, 1, 2), bad]).validate()


LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 3, 4, 0, 1],  # 2*3 = e ...
         [3, 4, 1, 2, 0],  # ... but 3*2 = 1
         [4, 2, 0, 1, 3]]


@pytest.mark.parametrize("table,match", [
    # the constructor finds no identity in row 1 while finding inverses
    ([[0, 1], [1]], "0 is not in list"),
    ([[0, 1], [1, 0], [0, 1]], "shape"),
    ([[0, 1], [0, 0]], "row is not a permutation"),
    # the columns repeat, so row 0 is an identity on the left only
    ([[0, 1], [0, 1]], "no two-sided identity"),
    ([[(i - j) % 3 for j in range(3)] for i in range(3)],
     "no two-sided identity"),
    ([[(j - i) % 3 for j in range(3)] for i in range(3)],  # left identity
     "no two-sided identity"),
    # a loop with a one-sided inverse cannot be associative
    (LOOP5, "associativity fails"),
], ids=["short-row", "extra-row", "row", "column", "no-identity",
        "left-identity-only", "one-sided-inverse"])
def test_finite_group_rejects_non_groups(table, match):
    with pytest.raises(ValueError, match=match):
        FiniteGroup([f"x{i}" for i in range(len(table[0]))], table).validate()


def test_closure_cap_is_loud():
    r = perm.from_cycles(30, [tuple(range(30))])
    with pytest.raises(CapExceededError, match="exceeds cap 10"):
        closure([r], cap=10)


def test_closure_names_and_identity_position():
    r = perm.from_cycles(3, [(0, 1, 2)])
    g = closure([r], names=["r"])
    assert g.elements[0] == "e"
    assert g.elements[1] == "r"
    assert g.elements[2] == "r^2"


def test_extend_homomorphism():
    c6 = cyclic(6)
    inv = extend_homomorphism(c6, [1], [5], c6)
    assert inv is not None
    assert inv[2] == 4
    d3 = dihedral(3)
    # r must land on an order-3 element; s on an involution
    assert extend_homomorphism(
        d3, [d3.generators["r"], d3.generators["s"]],
        [d3.generators["s"], d3.generators["r"]], d3) is None


def test_are_isomorphic():
    assert are_isomorphic(cyclic(6), direct_product(cyclic(3), cyclic(2)))
    assert are_isomorphic(cyclic(6), dihedral(3)) is None
    assert are_isomorphic(quaternion(), dihedral(4)) is None
    iso = are_isomorphic(quaternion(), generalized_dicyclic(cyclic(4), 2))
    assert iso is not None
    for a in range(8):
        for b in range(8):
            assert iso.images[quaternion().table[a][b]] == \
                iso.target.table[iso.images[a]][iso.images[b]]


def test_automorphism_counts():
    assert len(automorphisms(cyclic(6))) == 2
    assert len(automorphisms(direct_product(cyclic(2), cyclic(2)))) == 6
    assert len(automorphisms(quaternion())) == 24


AUT_CORPUS = CORPUS + [
    direct_product(direct_product(quaternion(), cyclic(2)), cyclic(2)),
    direct_product(direct_product(cyclic(2), cyclic(2)),
                   direct_product(cyclic(2), cyclic(2))),
    direct_product(cyclic(5), dihedral(5)),
    generalized_dicyclic(cyclic(12), 6)]


@pytest.mark.parametrize("g", AUT_CORPUS, ids=lambda g: g.name or "?")
def test_automorphism_generators_close_to_the_listing(g):
    gens, order = automorphism_generators(g)
    for f in gens:
        assert sorted(f) == list(range(g.order))
        assert all(f[g.table[a][b]] == g.table[f[a]][f[b]]
                   for a in range(g.order) for b in range(g.order))
    _, known = greedy_closure(gens, tuple(range(g.order)), engine._After)
    listed = {a.images for a in automorphisms(g)}
    assert known == listed
    assert order == len(listed)


@pytest.mark.parametrize("g", AUT_CORPUS, ids=lambda g: g.name or "?")
def test_automorphism_generators_match_the_order_keyed_chain(g):
    """Trying only images of each generator's (order, centralizer order)
    key drops no map the chain keeps: the same generators, in order."""
    assert automorphism_generators(g) == order_keyed_generators(g)


def test_automorphism_generators_try_only_keyed_images(monkeypatch):
    """On D(5) x D(5) the chain and its first-map searches extend at most
    100 partial maps; trying every element of each generator's order made
    11,064 extensions."""
    extend, calls = groups._extend_over, []

    def counted(*args):
        calls.append(args)
        return extend(*args)

    monkeypatch.setattr(groups, "_extend_over", counted)
    _, order = automorphism_generators(direct_product(dihedral(5),
                                                      dihedral(5)))
    assert order == 800
    assert len(calls) <= 100


@pytest.mark.parametrize("g", [g for g in CORPUS if g.order <= 8],
                         ids=lambda g: g.name or "?")
def test_automorphisms_match_bruteforce(g):
    auts = [a.images for a in automorphisms(g)]
    assert len(set(auts)) == len(auts)
    assert set(auts) == brute_automorphisms(g.table)


def test_recognize_dicyclic_matches_isomorphism_search():
    """recognize_dicyclic agrees with brute isomorphism search against all
    Dic(A, y) built from the complete list of abelian groups up to order 8."""
    abelians = [cyclic(2), cyclic(4), direct_product(cyclic(2), cyclic(2)),
                cyclic(6), cyclic(8), direct_product(cyclic(4), cyclic(2)),
                direct_product(cyclic(2),
                               direct_product(cyclic(2), cyclic(2)))]
    candidates: dict[int, list] = {}
    for a in abelians:
        for y in a.involutions():
            d = generalized_dicyclic(a, y)
            candidates.setdefault(d.order, []).append(d)
    corpus = CORPUS + [cyclic(4), cyclic(12), dihedral(6), dihedral(8),
                       direct_product(cyclic(4), cyclic(2))]
    for g in corpus:
        found = bool(recognize_dicyclic(g))
        expected = any(are_isomorphic(g, d) is not None
                       for d in candidates.get(g.order, []))
        assert found == expected, g.name


def test_c4_is_dicyclic():
    # C4 = Dic(C2, y): the edge case that makes two pair shapes overlap
    assert recognize_dicyclic(cyclic(4))


def test_q8_c2n_recognition():
    assert q8_c2n_isomorphism(quaternion()) is not None
    g16 = direct_product(quaternion(), cyclic(2))
    iso = q8_c2n_isomorphism(g16)
    assert iso is not None
    assert iso.target.order == 16
    assert q8_c2n_isomorphism(dihedral(4)) is None
    assert q8_c2n_isomorphism(generalized_dicyclic(cyclic(8), 4)) is None
    assert q8_c2n_isomorphism(direct_product(quaternion(), cyclic(4))) is None


def test_q8_c2n_isomorphism_matches_reclosing_search():
    """The pair witness is built on the first map the search finds."""
    dic8 = generalized_dicyclic(cyclic(4), 2)
    groups = [quaternion(), dic8, direct_product(quaternion(), cyclic(2)),
              direct_product(dic8, cyclic(2)),
              direct_product(direct_product(quaternion(), cyclic(2)),
                             cyclic(2)),
              dihedral(4), direct_product(dihedral(4), cyclic(2))]
    for g in groups:
        target = quaternion()
        while target.order < g.order:
            target = direct_product(target, cyclic(2))
        first = next(reclosing_iso_candidates(
            g, target, minimal_generating_sequence(g)), None)
        iso = q8_c2n_isomorphism(g)
        assert (None if iso is None else iso.images) == first, g.name


def test_inverse_classes():
    assert inverse_classes(cyclic(7)) == [(1, 6), (2, 5), (3, 4)]
    assert len(inverse_classes(dihedral(3))) == 4
    assert len(inverse_classes(direct_product(cyclic(3), dihedral(3)))) == 10


def test_minimal_generating_sequence():
    assert len(minimal_generating_sequence(cyclic(6))) == 1
    assert len(minimal_generating_sequence(
        direct_product(cyclic(2), cyclic(2)))) == 2
    g = cyclic(1)
    assert minimal_generating_sequence(g) == []


def test_subgroup_and_generates():
    d4 = dihedral(4)
    rot = d4.subgroup_closure([d4.generators["r"]])
    assert len(rot) == 4
    assert not d4.generates([d4.generators["r"]])
    assert d4.generates([d4.generators["r"], d4.generators["s"]])
    sub = d4.subgroup(sorted(rot))
    assert sub.order == 4
    assert are_isomorphic(sub, cyclic(4))
