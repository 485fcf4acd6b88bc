"""The two bipartite witness families and their supporting structure."""

import pytest

from ccakit.bipartite import (KnnActors, NormalForm, cyclic_dihedral_witness,
                              double_dihedral, double_dihedral_witness, gamma,
                              knn_actors, knn_cayley_form)
from ccakit.engine import (VerdictKind, is_affine, is_colour_preserving,
                           local_action, replay_witness)
from ccakit.errors import PipelineError
from ccakit.graphs import Arc
from ccakit.groups import are_isomorphic, dihedral
from ccakit.labeling import induced_vertex_map
from ccakit.perm import compose, inverse, power


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


def test_overgroup_is_built_once_and_only_when_read(monkeypatch):
    import ccakit.bipartite as bipartite

    def no_wreath(*args, **kwargs):
        raise AssertionError("H was built")

    monkeypatch.setattr(bipartite, "wreath_c2", no_wreath)
    v = double_dihedral_witness(3)
    assert v.kind is VerdictKind.NON_CCA
    assert replay_witness(v)
    a = knn_actors(3)
    with pytest.raises(AssertionError, match="H was built"):
        a.h
    monkeypatch.undo()
    h = a.h
    assert a.h is h
    assert h.order == 72


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
    labeling, cg, elem_of_vertex = knn_cayley_form(a)
    assert cg.graph.vertex_count == 2 * n * n
    expected = {a.g_index(a.tau)}
    expected.update(a.g_index(power(a.rho2, k)) for k in range(1, n))
    assert set(cg.connection) == expected
    assert sorted(elem_of_vertex) == list(range(2 * n * n))


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
    labeling, cg, _ = knn_cayley_form(a)
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


@pytest.mark.parametrize("n", [3, 5])
def test_phi_action_on_normal_forms(n):
    a = knn_actors(n)
    dd = double_dihedral(a)
    phi = dd.phi()
    ident = dd.group.identity
    assert phi[ident] == ident
    # phi is an involution on indices
    assert compose(phi, phi) == tuple(range(dd.group.order))
    for i in range(dd.group.order):
        nf = dd.normal_form(i)
        img = dd.normal_form(phi[i])
        assert img.i1 == nf.i1
        assert img.i2 == (-nf.i2) % n
        assert img.e == nf.e and img.d == nf.d


@pytest.mark.parametrize("n", [3, 5])
def test_double_dihedral_witness(n):
    v = double_dihedral_witness(n)
    assert v.kind is VerdictKind.NON_CCA
    assert all(c.passed for c in v.checks)
    names = [c.name for c in v.checks]
    assert "phi-two-routes" in names and "multiplicativity-probe" in names
    assert v.context.graph.vertex_count == 4 * n * n
    assert replay_witness(v)
