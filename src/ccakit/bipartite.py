"""Concrete non-CCA families built from complete bipartite graphs.

Both families live on K_{n,n} for odd n >= 3, with parts {a_0..a_{n-1}} and
{b_0..b_{n-1}} on points i and n+i.  Five permutations drive everything:
rotations rho1, rho2 of the two parts, reflections sigma1, sigma2, and the
part swap tau.  G = <rho1, rho2, tau> acts arc-regularly, so the line graph
of the subdivision becomes a Cayley graph on G; transporting sigma2 along
the arc labels gives a colour-preserving map that is not affine.  Extending
G by gamma = sigma1 sigma2 tau gives a group isomorphic to a product of two
dihedral groups with its own non-affine colour-preserving map.
"""

from __future__ import annotations

from functools import cached_property
from typing import NamedTuple

from . import labeling
from .engine import Check, Verdict, VerdictKind, is_affine, \
    is_colour_preserving
from .errors import CapExceededError, InternalInconsistencyError, \
    PipelineError
from .graphs import Arc, CayleyColouredGraph, ColouredGraph, cayley_graph, \
    complete_bipartite
from .groups import FiniteGroup, closure, cyclic, dihedral, \
    extend_homomorphism
from .perm import compose, inverse, power


def _index_map(group: FiniteGroup) -> dict:
    return {p: i for i, p in enumerate(group.realization)}


def _stage(cond, msg):
    if not cond:
        raise PipelineError("actors", msg)


def _factor_pairs(group, gens, a, a_images, b, b_images) -> list | None:
    """x -> (f_a(x), f_b(x)) for the homomorphisms into A and B extending
    gens -> a_images and gens -> b_images, or None.  A list is returned only
    when it is a bijection onto A x B, which proves group = A x B."""
    fa = extend_homomorphism(group, gens, a_images, a)
    fb = extend_homomorphism(group, gens, b_images, b)
    if fa is None or fb is None or group.order != a.order * b.order:
        return None
    pairs = list(zip(fa, fb))
    return pairs if len(set(pairs)) == group.order else None


def _wreath_elements(h: FiniteGroup, d: FiniteGroup) -> list[int] | None:
    """f1(a) f2(b) tau^e at the ``wreath_c2`` index (a*|D| + b)*2 + e, where
    f1, f2 extend r, s -> rho_i, sigma_i over D = D_2n.  None unless the two
    copies commute on generators, the involution tau swaps them and the list
    holds |H| distinct elements, which together prove H = D wr C2."""
    rho1, sigma1, rho2, sigma2, tau = (
        h.generators[x] for x in ("rho1", "sigma1", "rho2", "sigma2", "tau"))
    rs = [d.generators["r"], d.generators["s"]]
    f1 = extend_homomorphism(d, rs, [rho1, sigma1], h)
    f2 = extend_homomorphism(d, rs, [rho2, sigma2], h)
    m, by_tau = h.table, h.column(tau)
    if (f1 is None or f2 is None or by_tau[tau] != h.identity
            or any(m[x][y] != m[y][x] or by_tau[m[tau][x]] != y
                   for x, y in ((rho1, rho2), (sigma1, sigma2)))
            or m[rho1][sigma2] != m[sigma2][rho1]
            or m[sigma1][rho2] != m[rho2][sigma1]):
        return None
    elems = [y for x1 in f1 for x12 in map(m[x1].__getitem__, f2)
             for y in (x12, by_tau[x12])]
    return elems if len(set(elems)) == h.order else None


class KnnActors:
    """The named permutations on K_{n,n} and, each built on first read, the
    group G they generate and the overgroup H."""

    def __init__(self, n: int, graph: ColouredGraph, rho1: tuple,
                 rho2: tuple, sigma1: tuple, sigma2: tuple, tau: tuple):
        self.n, self.graph = n, graph
        self.rho1, self.rho2, self.tau = rho1, rho2, tau
        self.sigma1, self.sigma2 = sigma1, sigma2

    @property
    def base_arc(self) -> Arc:
        """tau(b_0) = a_0 toward b_0, the arc the labelling hangs from."""
        return Arc(0, self.n)

    @cached_property
    def g(self) -> FiniteGroup:
        """<rho1, rho2, tau>, checked on first read to have order 2n^2, to
        miss sigma2 and to be C_n x D_2n (by homomorphisms onto the two
        factors whose pairing is injective; the central factor is
        <rho1 rho2>)."""
        n, rho1, rho2, tau = self.n, self.rho1, self.rho2, self.tau
        g = closure([rho1, rho2, tau], cap=2 * n * n,
                    names=["rho1", "rho2", "tau"], name=f"G({n})")
        _stage(g.order == 2 * n * n, f"|G| = {g.order}, wanted {2 * n * n}")
        real = g.realization
        _stage(self.sigma2 not in real, "sigma2 lies inside G")
        gens = [real.index(compose(rho1, rho2)),
                real.index(compose(inverse(rho1), rho2)), real.index(tau)]
        c, d = cyclic(n), dihedral(n)
        c_images = [c.generators["r"], c.identity, c.identity]
        d_images = [d.identity, d.generators["r"], d.generators["s"]]
        _stage(_factor_pairs(g, gens, c, c_images, d, d_images) is not None,
               "G does not match C_n x D_2n")
        return g

    @cached_property
    def g_map(self) -> dict:
        """Image tuple -> index in G, built once."""
        return _index_map(self.g)

    def g_index(self, p: tuple) -> int:
        try:
            return self.g_map[p]
        except KeyError:
            raise ValueError("permutation is not an element of G") from None

    @cached_property
    def h(self) -> FiniteGroup:
        """<rho1, sigma1, rho2, sigma2, tau>, checked on first read to have
        order 8n^2 and, in its own table, to be D_2n wr C2 (see
        ``_wreath_elements``)."""
        n = self.n
        gens = [self.rho1, self.sigma1, self.rho2, self.sigma2, self.tau]
        h = closure(gens, cap=8 * n * n,
                    names=["rho1", "sigma1", "rho2", "sigma2", "tau"],
                    name=f"H({n})")
        _stage(h.order == 8 * n * n, f"|H| = {h.order}, wanted {8 * n * n}")
        _stage(_wreath_elements(h, dihedral(n)) is not None,
               "H does not match the doubled dihedral group")
        return h


def knn_actors(n: int) -> KnnActors:
    """Build the five permutations on K_{n,n} and check the swap relations
    tau rho1 tau = rho2 and tau sigma1 tau = sigma2, and that rho2^2
    generates <rho2> (n is odd).  G and H are built and checked when ``g``
    and ``h`` are first read; ``witness-prop33`` reads neither."""
    if n < 3 or n % 2 == 0:
        raise ValueError("n must be odd and at least 3")
    pts = 2 * n
    ident = list(range(pts))

    def a_cycle(shift):
        imgs = ident[:]
        for i in range(n):
            imgs[i] = (i + shift) % n
        return tuple(imgs)

    def b_cycle(shift):
        imgs = ident[:]
        for i in range(n):
            imgs[n + i] = n + (i + shift) % n
        return tuple(imgs)

    rho1 = a_cycle(1)
    rho2 = b_cycle(1)
    sigma1 = tuple((-i) % n if i < n else i for i in ident)
    sigma2 = tuple(i if i < n else n + (n - (i - n)) % n for i in ident)
    tau = tuple((i + n) % pts for i in ident)

    _stage(compose(tau, compose(rho1, tau)) == rho2, "tau rho1 tau != rho2")
    _stage(compose(tau, compose(sigma1, tau)) == sigma2,
           "tau sigma1 tau != sigma2")
    _stage({power(rho2, 2 * k) for k in range(n)}
           == {power(rho2, k) for k in range(n)},
           "rho2^2 generates less than rho2")
    return KnnActors(n, complete_bipartite(n, n), rho1, rho2, sigma1,
                     sigma2, tau)


def _expected_connection(actors: KnnActors) -> list[int]:
    """Indices in G of tau and of every nontrivial power of rho2."""
    conn = [actors.g_index(actors.tau)]
    conn.extend(actors.g_index(power(actors.rho2, k))
                for k in range(1, actors.n))
    return sorted(conn)


def knn_cayley_form(actors: KnnActors
                    ) -> tuple[labeling.ArcLabeling, CayleyColouredGraph,
                               list]:
    """Label the arcs of K_{n,n} by G and read off the Cayley presentation.

    The connection set must come out as exactly {tau} together with the
    nontrivial powers of rho2; anything else is a construction bug.
    """
    lab = labeling.arc_labeling(actors.graph, actors.g, actors.base_arc)
    cg, elem_of_vertex, _ = labeling.cayley_form(lab)
    if list(cg.connection) != _expected_connection(actors):
        raise InternalInconsistencyError(
            "recovered connection set is not {tau} u {rho2^k}")
    return lab, cg, elem_of_vertex


def cyclic_dihedral_witness(n: int) -> Verdict:
    """Exhibit L(S(K_{n,n})) as a non-CCA Cayley graph on C_n x D_2n.

    The witness is sigma2 transported along the arc labels.  It preserves
    colours because sigma2 is a graph automorphism fixing the subdivision
    structure, and it is not affine; the tell is that conjugating tau by
    sigma2 agrees with tau on the base arc yet differs as a permutation.
    """
    checks: list[Check] = []
    actors = knn_actors(n)
    checks.append(Check("actors", True, f"|G| = {actors.g.order}"))

    try:
        lab, cg, _ = knn_cayley_form(actors)
    except ValueError as exc:
        raise PipelineError("arc-regular", str(exc)) from exc
    checks.append(Check("arc-regular", True,
                        f"{actors.g.order} arcs, one per element"))
    checks.append(Check("cayley-form", True,
                        f"{cg.vertex_count} vertices, connection "
                        "{tau} u {rho2^k}"))

    witness = labeling.induced_vertex_map(actors.sigma2, lab)
    if not is_colour_preserving(cg, witness):
        raise PipelineError("witness", "transported sigma2 broke a colour")
    checks.append(Check("witness-colour-preserving", True, ""))

    affine, _ = is_affine(cg, witness)
    if affine:
        raise PipelineError("witness", "transported sigma2 is affine")
    checks.append(Check("witness-not-affine", True, ""))

    # the conjugate sigma2 tau sigma2 matches tau on the base arc only
    conj = compose(actors.sigma2, compose(actors.tau, actors.sigma2))
    ta, tb = actors.base_arc
    probe_ok = (conj[ta] == actors.tau[ta] and conj[tb] == actors.tau[tb]
                and conj != actors.tau)
    if not probe_ok:
        raise PipelineError("witness", "conjugation probe failed")
    checks.append(Check("conjugate-probe", True,
                        "sigma2 tau sigma2 agrees with tau on the base arc "
                        "but not globally"))

    conn_names = [actors.g.elements[c] for c in cg.connection]
    return Verdict(VerdictKind.NON_CCA, checks, witness=witness, context=cg,
                   data={"n": n, "vertices": cg.vertex_count,
                         "connection": conn_names})


def gamma(actors: KnnActors) -> tuple[int, ...]:
    """sigma1 sigma2 tau, which swaps the parts with a flip.

    That it is an involution outside G commuting with tau and rho1^-1 rho2
    and inverting rho1 rho2 is proven by ``double_dihedral``.
    """
    return compose(actors.sigma1, compose(actors.sigma2, actors.tau))


class NormalForm(NamedTuple):
    """Exponents (i1, i2, e, d) of rho1^i1 rho2^i2 tau^e gamma^d."""

    i1: int
    i2: int
    e: int
    d: int


class DoubleDihedral(NamedTuple):
    """<G, gamma> with its normal forms and its colour-respecting flip."""

    actors: KnnActors
    gamma: tuple[int, ...]
    group: FiniteGroup
    index_map: dict  # image tuple -> index in <G, gamma>
    nf_of_index: tuple
    index_of_nf: dict

    def normal_form(self, index: int) -> NormalForm:
        return self.nf_of_index[index]

    def assemble(self, nf: NormalForm) -> int:
        n = self.actors.n
        key = NormalForm(nf.i1 % n, nf.i2 % n, nf.e % 2, nf.d % 2)
        return self.index_of_nf[key]

    def phi(self) -> tuple[int, ...]:
        """The map fixing i1, e, d and negating i2 in every normal form."""
        n = self.actors.n
        return tuple(self.assemble(NormalForm(nf.i1, -nf.i2 % n, nf.e, nf.d))
                     for nf in self.nf_of_index)

    @property
    def gamma_index(self) -> int:
        return self.index_map[self.gamma]


def double_dihedral(actors: KnnActors) -> DoubleDihedral:
    """Extend G by gamma and read the structure of the result off D_2n x D_2n.

    The extension has order 4n^2 and is D_2n x D_2n with factors <u, gamma>
    and <v, tau>, u = rho1 rho2 and v = rho1^-1 rho2, proven by homomorphisms
    onto each factor whose pairing is a bijection.  This proves every fact
    ``gamma`` states, gamma lying outside G because |<G, gamma>| = 2|G|.
    The element paired with (r^p s^d, r^q s^e) is u^p v^q tau^e gamma^d,
    which is rho1^(p-q) rho2^(p+q) tau^e gamma^d once rho1 and rho2 are
    checked to commute with order n; n is odd, so (p, q) -> (p-q, p+q) is
    a bijection and each normal form is unique.
    """
    n = actors.n
    gam = gamma(actors)
    try:
        big = closure([actors.rho1, actors.rho2, actors.tau, gam],
                      cap=4 * n * n, names=["rho1", "rho2", "tau", "gamma"],
                      name=f"GGamma({n})")
    except CapExceededError as exc:
        raise PipelineError("double-dihedral", str(exc)) from None
    if big.order != 4 * n * n:
        raise PipelineError("double-dihedral",
                            f"|<G, gamma>| = {big.order}, wanted {4 * n * n}")

    bmap = _index_map(big)
    gens = [bmap[compose(actors.rho1, actors.rho2)],
            bmap[gam],
            bmap[compose(inverse(actors.rho1), actors.rho2)],
            bmap[actors.tau]]
    dih = dihedral(n)
    r, s, e = dih.generators["r"], dih.generators["s"], dih.identity
    pairs = _factor_pairs(big, gens, dih, [r, s, e, e], dih, [e, e, r, s])
    if pairs is None:
        raise PipelineError("double-dihedral",
                            "extension does not match D_2n x D_2n")

    ident = tuple(range(2 * n))
    if (compose(actors.rho1, actors.rho2) != compose(actors.rho2, actors.rho1)
            or power(actors.rho1, n) != ident
            or power(actors.rho2, n) != ident):
        raise InternalInconsistencyError(
            "rebasing identity fails: rho1, rho2 must commute with order n")

    # a dihedral index a + n*b stands for r^a s^b
    nf_of_index = tuple(NormalForm((fa - fb) % n, (fa + fb) % n, fb // n,
                                   fa // n) for fa, fb in pairs)
    return DoubleDihedral(actors, gam, big, bmap, nf_of_index,
                          {nf: i for i, nf in enumerate(nf_of_index)})


def double_dihedral_witness(n: int) -> Verdict:
    """Exhibit a non-CCA Cayley graph on D_2n x D_2n.

    The graph is Cay(<G, gamma>, C u {gamma}) with C the connection set
    from the K_{n,n} story.  The witness negates the rho2 exponent in the
    normal form; it preserves colours but is not affine, and the failure
    of multiplicativity at tau * rho2 is shown explicitly.
    """
    checks: list[Check] = []
    actors = knn_actors(n)
    dd = double_dihedral(actors)
    checks.append(Check("double-dihedral", True,
                        f"order {dd.group.order}, matches D_2n x D_2n"))

    bmap = dd.index_map
    conn = sorted({bmap[actors.tau], dd.gamma_index}
                  | {bmap[power(actors.rho2, k)] for k in range(1, n)})
    cg = cayley_graph(dd.group, conn)
    checks.append(Check("graph", True,
                        f"{cg.vertex_count} vertices, "
                        f"{len(conn)} connection elements"))

    phi = dd.phi()
    if not is_colour_preserving(cg, phi):
        raise PipelineError("witness", "phi broke a colour")
    checks.append(Check("witness-colour-preserving", True, ""))

    affine, _ = is_affine(cg, phi)
    if affine:
        raise PipelineError("witness", "phi is affine")
    checks.append(Check("witness-not-affine", True, ""))

    # phi fixes the identity, so affine would mean multiplicative; it is not
    tau_i = bmap[actors.tau]
    rho2_i = bmap[actors.rho2]
    lhs = phi[dd.group.mult(tau_i, rho2_i)]
    rhs = dd.group.mult(phi[tau_i], phi[rho2_i])
    if phi[dd.group.identity] != dd.group.identity or lhs == rhs:
        raise PipelineError("witness", "multiplicativity probe failed")
    checks.append(Check("multiplicativity-probe", True,
                        "phi(tau rho2) != phi(tau) phi(rho2)"))

    conn_names = [dd.group.elements[c] for c in conn]
    return Verdict(VerdictKind.NON_CCA, checks, witness=phi, context=cg,
                   data={"n": n, "vertices": cg.vertex_count,
                         "connection": conn_names})
