"""The two bipartite witness families and their supporting structure."""

import tracemalloc

import pytest

from ccakit import bipartite, groups, labeling
from ccakit.bipartite import (KnnActors, NormalForm, cyclic_dihedral_witness,
                              double_dihedral, double_dihedral_witness, gamma,
                              knn_actors, knn_cayley_form)
from ccakit.engine import (_After, VerdictKind, arc_lift_harness, is_affine,
                           is_colour_preserving, local_action, replay_witness)
from ccakit.errors import InternalInconsistencyError, PipelineError
from ccakit.graphs import Arc, ColouredGraph
from ccakit.groups import (FiniteGroup, are_isomorphic, cyclic, dihedral,
                           greedy_closure)
from ccakit.labeling import arc_labeling, induced_vertex_map
from ccakit.perm import compose, inverse, power

from bruteforce import (model_table_pairs, model_wreath_elements,
                        normal_forms_by_composition, phi_by_transport,
                        transported_colour_breaks)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_actor_invariants(n):
    a = knn_actors(n)
    assert a.g.order == 2 * n * n
    assert a.h.order == 8 * n * n
    assert a.base_arc == (0, n)
    assert a.graph.vertex_count == 2 * n
    assert compose(a.tau, compose(a.rho1, a.tau)) == a.rho2
    with pytest.raises(ValueError):
        a.g_index(a.sigma2)  # sigma2 is not in G
    assert a.g_index(a.tau) >= 0


def _prop33_without(monkeypatch, group: str) -> None:
    """Refuse every closure named ``group(...)``; double_dihedral_witness
    must still give a replayed non-CCA verdict."""
    real_closure = bipartite.closure

    def closure_but_not(gens, **kwargs):
        if kwargs.get("name", "").startswith(f"{group}("):
            raise AssertionError(f"{group} was built")
        return real_closure(gens, **kwargs)

    monkeypatch.setattr(bipartite, "closure", closure_but_not)
    v = double_dihedral_witness(3)
    assert v.kind is VerdictKind.NON_CCA
    assert replay_witness(v)


def test_overgroup_is_built_once_and_only_when_read(monkeypatch):
    _prop33_without(monkeypatch, "H")
    a = knn_actors(3)
    with pytest.raises(AssertionError, match="H was built"):
        a.h
    monkeypatch.undo()
    h = a.h
    assert a.h is h
    assert h.order == 72


def test_g_is_built_once_and_only_when_read(monkeypatch):
    _prop33_without(monkeypatch, "G")
    a = knn_actors(3)
    with pytest.raises(AssertionError, match="G was built"):
        a.g
    monkeypatch.undo()
    g = a.g
    assert a.g is g
    assert g.order == 18


def test_actor_parameter_validation():
    for bad in (1, 2, 4, 6):
        with pytest.raises(ValueError):
            knn_actors(bad)


def test_local_actions_at_a_part_b_vertex():
    a = knn_actors(3)
    b0 = 3  # first vertex of the b part
    loc_g = local_action(a.g, a.graph, b0)
    assert loc_g.order == 3
    assert loc_g.is_abelian()
    loc_h = local_action(a.h, a.graph, b0)
    assert loc_h.order == 6
    assert are_isomorphic(loc_h, dihedral(3))


@pytest.mark.parametrize("n", [3, 5])
def test_cayley_form_recovers_the_connection(n):
    a = knn_actors(n)
    labeling, cg = knn_cayley_form(a)
    assert cg.graph.vertex_count == 2 * n * n
    expected = {a.g_index(a.tau)}
    expected.update(a.g_index(power(a.rho2, k)) for k in range(1, n))
    assert set(cg.connection) == expected


@pytest.mark.parametrize("n", [3, 5])
def test_transported_reflection_witness(n):
    v = cyclic_dihedral_witness(n)
    assert v.kind is VerdictKind.NON_CCA
    assert all(c.passed for c in v.checks)
    names = [c.name for c in v.checks]
    assert "conjugate-probe" in names
    cg = v.context
    assert is_colour_preserving(cg.graph, v.witness)
    assert not is_affine(cg, v.witness)[0]
    assert replay_witness(v)
    assert v.data["vertices"] == 2 * n * n


def test_failed_arc_labelling_is_an_arc_regular_stage_error(monkeypatch):
    """Arc-regularity is certified by the labelling; its refusal ends the
    pipeline at the arc-regular stage (exit 3 from the CLI)."""
    monkeypatch.setattr(KnnActors, "base_arc", property(lambda a: Arc(0, 1)))
    with pytest.raises(PipelineError, match="not an arc") as info:
        cyclic_dihedral_witness(3)
    assert info.value.stage == "arc-regular"


def test_translations_transport_to_affine_maps():
    a = knn_actors(3)
    labeling, cg = knn_cayley_form(a)
    induced = induced_vertex_map(a.rho2, labeling)
    ok, decomp = is_affine(cg, induced)
    assert ok and decomp.automorphism == tuple(range(cg.vertex_count))


@pytest.mark.parametrize("n", [3, 5])
def test_gamma_properties(n):
    a = knn_actors(n)
    g = gamma(a)
    assert compose(g, g) == tuple(range(len(g)))
    assert compose(g, a.tau) == compose(a.tau, g)
    u = compose(a.rho1, a.rho2)
    v = compose(inverse(a.rho1), a.rho2)
    assert compose(g, v) == compose(v, g)
    assert compose(compose(g, u), g) == inverse(u)
    with pytest.raises(ValueError):
        a.g_index(g)


@pytest.mark.parametrize("n", [3, 5])
def test_double_dihedral_structure(n):
    a = knn_actors(n)
    dd = double_dihedral(a)
    assert dd.group.order == 4 * n * n
    for i in range(dd.group.order):
        nf = dd.normal_form(i)
        assert dd.assemble(nf) == i
        # a NormalForm is a dict key: a rebuilt equal one finds the index
        assert dd.index_of_nf[NormalForm(nf.i1, nf.i2, nf.e, nf.d)] == i


def test_rebasing_identity_by_hand():
    # rho1^a rho2^b = (rho1 rho2)^((a+b)/2) (rho1^-1 rho2)^((b-a)/2) mod n
    n = 3
    a = knn_actors(n)
    u = compose(a.rho1, a.rho2)
    v = compose(inverse(a.rho1), a.rho2)
    half = pow(2, -1, n)
    for i in range(n):
        for j in range(n):
            lhs = compose(power(a.rho1, i), power(a.rho2, j))
            rhs = compose(power(u, (i + j) * half % n),
                          power(v, (j - i) * half % n))
            assert lhs == rhs, (i, j)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_phi_action_on_normal_forms(n):
    """The normal forms and phi, read off the factor pairing, match the
    composed words and sigma2 transported along the arc labels."""
    dd = double_dihedral(knn_actors(n))
    order = dd.group.order
    assert normal_forms_by_composition(dd) == tuple(
        dd.normal_form(i) for i in range(order))
    phi = dd.phi()
    assert phi_by_transport(dd) == phi
    assert phi[dd.group.identity] == dd.group.identity
    # phi is an involution on indices
    assert compose(phi, phi) == tuple(range(order))


@pytest.mark.parametrize("n", [3, 5])
def test_double_dihedral_witness(n):
    v = double_dihedral_witness(n)
    assert v.kind is VerdictKind.NON_CCA
    assert all(c.passed for c in v.checks)
    assert [c.name for c in v.checks] == [
        "double-dihedral", "graph", "witness-colour-preserving",
        "witness-not-affine", "multiplicativity-probe"]
    assert v.context.graph.vertex_count == 4 * n * n
    assert replay_witness(v)


@pytest.mark.parametrize("n", [3, 5, 7])
def test_factor_and_wreath_routes_match_the_model_tables(n, monkeypatch):
    """G, <G, gamma> and H are identified on generators and factors; the
    model-table identifications they replaced give the same element maps."""
    seen = []
    real = bipartite._factor_pairs
    monkeypatch.setattr(bipartite, "_factor_pairs",
                        lambda *args: seen.append(real(*args)) or seen[-1])
    a = knn_actors(n)
    a.g  # G is identified when first read
    dd = double_dihedral(a)
    g_pairs, big_pairs = seen
    u = compose(a.rho1, a.rho2)
    v = compose(inverse(a.rho1), a.rho2)
    assert g_pairs is not None and g_pairs == model_table_pairs(
        cyclic(n), dihedral(n), ("r1", "r2", "s2"),
        [a.g_index(u), a.g_index(v), a.g_index(a.tau)], a.g)
    bmap = dd.index_map
    assert big_pairs is not None and big_pairs == model_table_pairs(
        dihedral(n), dihedral(n), ("r1", "s1", "r2", "s2"),
        [bmap[u], dd.gamma_index, bmap[v], bmap[a.tau]], dd.group)
    wreath = bipartite._wreath_elements(a.h, dihedral(n))
    assert wreath is not None and wreath == model_wreath_elements(a.h, n)


@pytest.mark.parametrize("n", [3, 5])
def test_harness_generators_settle_every_transported_map(n):
    """The harness transports a generating set of H; transporting every
    element agrees, and the transported generators generate exactly the
    transported elements."""
    a = knn_actors(n)
    v = arc_lift_harness(a.graph, a.g, a.h, base_arc=a.base_arc)
    assert v.kind is VerdictKind.HYPOTHESES_OK
    assert v.checks[-1].detail == \
        f"all {8 * n * n} transported maps preserve colours"
    assert transported_colour_breaks(a.graph, a.g, a.h, a.base_arc) == 0
    labeling = arc_labeling(a.graph, a.g, a.base_arc)
    gens, _ = greedy_closure(a.h.realization, tuple(range(2 * n)), _After)
    _, span = greedy_closure([induced_vertex_map(p, labeling) for p in gens],
                             tuple(range(a.g.order)), _After)
    assert span == {induced_vertex_map(p, labeling)
                    for p in a.h.realization}


def test_a_wrong_generator_image_fails_each_identification(monkeypatch):
    a = knn_actors(3)
    real = bipartite.extend_homomorphism

    def first_image_trivial(g, gens, images, h):
        return real(g, gens, [h.identity, *images[1:]], h)

    monkeypatch.setattr(bipartite, "extend_homomorphism", first_image_trivial)
    for build, stage, msg in (
            (lambda: knn_actors(3).g, "actors",
             "G does not match C_n x D_2n"),
            (lambda: double_dihedral(a), "double-dihedral",
             "does not match D_2n x D_2n"),
            (lambda: a.h, "actors", "H does not match the doubled dihedral")):
        with pytest.raises(PipelineError, match=msg) as info:
            build()
        assert info.value.stage == stage


def test_a_wrong_gamma_fails_at_the_double_dihedral_stage(monkeypatch):
    """gamma checks nothing itself; the D_2n x D_2n identification of
    <G, gamma> refuses a wrong one, whatever goes wrong."""
    a = knn_actors(3)
    for wrong, msg in ((compose(a.sigma1, a.sigma2), "does not match"),
                       (a.sigma1, "exceeds cap 36"),
                       (a.tau, "= 18, wanted 36")):
        monkeypatch.setattr(bipartite, "gamma", lambda actors: wrong)
        with pytest.raises(PipelineError, match=msg) as info:
            double_dihedral(a)
        assert info.value.stage == "double-dihedral"


def test_harness_checks_automorphisms_on_generators_of_h(monkeypatch):
    """Automorphisms form a group, so H acts by them once a generating set
    does; no call is handed all 8n^2 elements."""
    a = knn_actors(3)
    sizes = []
    real = ColouredGraph.first_non_automorphism

    def recording(graph, perms):
        sizes.append(len(perms))
        return real(graph, perms)

    monkeypatch.setattr(ColouredGraph, "first_non_automorphism", recording)
    v = arc_lift_harness(a.graph, a.g, a.h, base_arc=a.base_arc)
    assert v.kind is VerdictKind.HYPOTHESES_OK
    assert sizes and max(sizes) < a.h.order


def _rows_built(g: FiniteGroup) -> int:
    return sum(row is not None for row in g.table.built)


def test_witness_routes_build_few_rows_of_their_groups():
    """The flip witness reads the columns of its connection set and of a
    generating set, and a few rows: not every row of <G, gamma>, nor
    every row of H in the harness."""
    v = double_dihedral_witness(9)
    big = v.context.group
    assert big.order == 324 and _rows_built(big) < big.order
    a = knn_actors(7)
    v = arc_lift_harness(a.graph, a.g, a.h, base_arc=a.base_arc)
    assert v.kind is VerdictKind.HYPOTHESES_OK
    assert a.h.order == 392 and _rows_built(a.h) < a.h.order


def test_labelling_builds_only_the_generators_rows_of_g():
    """The equivariance check reads G's rows of the identity and of the
    generators, and the rest of each path reads columns: 4 rows of G are
    built by witness-thm31 at n = 9 (of 162) and by the harness at n = 7
    (of 98)."""
    g = cyclic_dihedral_witness(9).context.group
    a = knn_actors(7)
    v = arc_lift_harness(a.graph, a.g, a.h, base_arc=a.base_arc)
    assert v.kind is VerdictKind.HYPOTHESES_OK
    for grp, order in ((g, 162), (a.g, 98)):
        built = {i for i, row in enumerate(grp.table.built) if row is not None}
        assert grp.order == order
        assert built == {grp.identity, *grp.generators.values()}
        assert len(built) == 4


def test_thm31_at_n_21_holds_no_whole_table(monkeypatch):
    """G has order 882 at n = 21; the whole-row equivariance check built
    its table and peaked at about 13 MB, against about 6.4 MB with the
    generators' rows; what is left is mostly the graphs' edges."""
    monkeypatch.setenv("CCA_MAX_ORDER", "2000")
    cyclic_dihedral_witness(3)  # load the lazy layers untraced
    tracemalloc.start()
    try:
        v = cyclic_dihedral_witness(21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.context.group.order == 882
    assert peak < 9 * 2**20


def test_cayley_form_at_n_21_builds_no_line_graph():
    """Reading L(S(K_{n,n})) off the arcs holds the Cayley graph's
    adjacency and one label per arc; building the generic subdivision and
    its line graph peaked at about 5.6 MB here."""
    a = knn_actors(21)
    lab = arc_labeling(a.graph, a.g, a.base_arc)
    tracemalloc.start()
    try:
        cg = labeling.cayley_form(lab)
        cg.adjacency  # counted whether or not cayley_form reads it
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cg.vertex_count == 882
    assert peak < 3 * 2**20


def test_prop33_formats_only_the_names_its_report_reads(monkeypatch):
    """closure names an element on first read, so <G, gamma> (order 324)
    formats the names of the report's connection elements and no others."""
    made = []

    def recording(word):
        made.append(real(word))
        return made[-1]

    real = groups._format_word
    monkeypatch.setattr(groups, "_format_word", recording)
    v = double_dihedral_witness(9)
    assert v.context.group.order == 324
    assert sorted(made) == sorted(v.data["connection"])


def test_harness_refuses_an_overgroup_that_is_not_a_group():
    a = knn_actors(3)
    h = a.h
    for realization in (h.realization[1:] + [h.realization[1]],  # no identity
                        h.realization[:-1] + [h.realization[1]]):
        fake = FiniteGroup(h.elements, h.table, realization=realization)
        with pytest.raises(ValueError, match="not a permutation group"):
            arc_lift_harness(a.graph, a.g, fake, base_arc=a.base_arc)


def test_harness_raises_when_a_transported_generator_breaks_a_colour(
        monkeypatch):
    a = knn_actors(3)
    real = labeling.induced_vertex_map

    def swap_two_vertices(p, lab):
        t = list(real(p, lab))
        t[0], t[1] = t[1], t[0]
        return tuple(t)

    monkeypatch.setattr(labeling, "induced_vertex_map", swap_two_vertices)
    with pytest.raises(InternalInconsistencyError,
                       match="transported generators of h break colours"):
        arc_lift_harness(a.graph, a.g, a.h, base_arc=a.base_arc)
