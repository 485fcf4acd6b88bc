"""Independent oracles the test suite trusts over the package under test.

Everything here is deliberately naive: filter all n! vertex permutations,
multiply tables entry by entry.  Usable up to 8 vertices or so.  The one
exception is ``full_route_verdict``, which reads the CCA verdict off the
whole colour-preserving group: the route that the package's decision from
the stabilizer of vertex 0 must agree with.
"""

from itertools import permutations

from ccakit import kernels
from ccakit.engine import is_affine
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
