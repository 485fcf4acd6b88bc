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
``min`` over every automorphism, which ``engine.is_cca_group`` must match;
and ``reclosing_iso_candidates`` vets each generator image by re-closing
the images chosen so far and extends a homomorphism only at the leaf, which
the isomorphism search in ``groups`` must match map for map.
"""

from itertools import combinations, permutations

from ccakit import kernels
from ccakit.engine import (Check, SearchStats, Verdict, VerdictKind,
                           is_affine, is_cca_graph)
from ccakit.errors import CapExceededError
from ccakit.graphs import cayley_graph
from ccakit.groups import (_format_word, automorphisms, extend_homomorphism,
                           inverse_classes)
from ccakit.perm import Permutation


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


def full_route_verdict(cg):
    """CCA verdict of a Cayley colour graph from its whole colour group.

    Lists every colour-preserving automorphism with the search kernel and
    takes the first non-affine one in sorted order as the witness.  Returns
    (kind, witness images or None, checks as (name, passed, detail)).
    """
    g = cg.group
    n = g.order
    images, _ = kernels.search(n, cg.graph.colour_matrix(), range(n))
    if not {tuple(row) for row in g.table} <= set(images):
        raise AssertionError("a left translation is missing from the search")
    witness = next((p for p in images if not is_affine(cg, Permutation(p))[0]),
                   None)
    checks = [("search", True, f"{len(images)} colour-preserving automorphisms"),
              ("translations-present", True, f"all {n} left translations found"),
              ("stabilizer-formulation", True, "both formulations agree")]
    if witness is None:
        checks.append(("all-affine", True,
                       f"all {len(images)} automorphisms affine"))
        return "CCA", None, checks
    checks.append(("all-affine", False,
                   "non-affine colour-preserving automorphism found"))
    return "non-CCA", witness, checks


def product_table(perms) -> list[list[int]]:
    """``table[i][j]`` = index of perms[i] * perms[j]; perms must be closed."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[p * q] for q in perms] for p in perms]


def closure_by_products(gens, names, cap):
    """The group generated by ``gens`` the slow way.

    Breadth-first from the identity, multiplying on the right by the
    generators in order, then the full product table.  Returns (element
    names, generators, realization, table) as ``groups.closure`` lays them
    out.
    """
    elems = [Permutation.identity(gens[0].degree)]
    index = {elems[0]: 0}
    words = [[]]
    qi = 0
    while qi < len(elems):
        for gname, gp in zip(names, gens):
            q = elems[qi] * gp
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


def min_walk_verdict(g, cap):
    """``is_cca_group`` by a canonical-subset minimum over all of Aut(G).

    Walks unions of inverse classes by size, keeps a subset only when no
    automorphism maps it to a smaller sorted element tuple, and counts
    towards ``cap`` only the generating subsets it examines.  Returns
    (verdict, connection sets examined in order).
    """
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
            if not g.generates(conn):
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
