"""Table-backed finite groups: constructions, closure, and recognition."""

from __future__ import annotations

import os
from itertools import product as iproduct
from operator import eq
from typing import NamedTuple

from . import kernels, perm
from .errors import CapExceededError

_DEFAULT_CAP = 512


def default_cap() -> int:
    """Order cap for table-backed groups; CCA_MAX_ORDER overrides it."""
    raw = os.environ.get("CCA_MAX_ORDER")
    if raw is None:
        return _DEFAULT_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"CCA_MAX_ORDER must be an integer, got {raw!r}") from exc
    if cap < 1:
        raise ValueError("CCA_MAX_ORDER must be positive")
    return cap


def within_cap(size: int, cap: int | None = None, what: str = "order") -> None:
    """Raise CapExceededError when ``size`` passes ``cap`` (default_cap())."""
    cap = default_cap() if cap is None else cap
    if size > cap:
        raise CapExceededError(f"{what} {size} exceeds cap {cap}")


class FiniteGroup:
    """A finite group given by an element list and a multiplication table.

    ``elements[i]`` is a display name, ``table[i][j]`` the index of the
    product (element i times element j, i acting on the left), and
    ``column(j)`` lists ``table[x][j]`` over x.  ``generators`` maps
    generator names to indices.  ``realization``, when present, assigns
    each index an image tuple (see ``perm``) and is a faithful
    homomorphism for the left-action composition convention.

    The constructor trusts the table and keeps it uncopied: every
    constructor here passes a list of lists that is a group table by
    construction and that nothing mutates later; ``closure`` passes a
    ``_Derived`` table, whose rows are built on first read, with the
    inverses, the columns and ``_Names``, kept as given.  Otherwise the
    constructor finds the identity (the row 0..n-1) and each inverse (the
    identity's place in its row), and each column is read off the rows on
    first use; ``validate`` certifies a table.
    """

    __slots__ = ("elements", "order", "table", "identity", "inverse",
                 "generators", "realization", "name", "_columns")

    def __init__(self, elements, table, generators=None, realization=None,
                 name=None, inverse=None, columns=None):
        self.elements = (elements if isinstance(elements, _Names)
                         else list(elements))
        self.order = len(self.elements)
        self.table = table
        full = list(range(self.order))
        # a table without an identity row keeps 0, which validate() refuses
        self.identity = next(
            (e for e, row in enumerate(table) if row == full), 0)
        self.inverse = ([row.index(self.identity) for row in table]
                        if inverse is None else inverse)
        self.generators = dict(generators or {})
        self.realization = realization
        self.name = name
        self._columns = [None] * self.order if columns is None else columns

    def column(self, j: int) -> list[int]:
        """``column(j)[x]`` is x times j: right multiplication by j, built on
        first read and kept."""
        col = self._columns[j]
        if col is None:
            col = self._columns[j] = [row[j] for row in self.table]
        return col

    def mult(self, i: int, j: int) -> int:
        return self.table[i][j]

    def power(self, i: int, k: int) -> int:
        if k < 0:
            return self.power(self.inverse[i], -k)
        acc = self.identity
        base = i
        while k:
            if k & 1:
                acc = self.table[acc][base]
            base = self.table[base][base]
            k >>= 1
        return acc

    def element_order(self, i: int) -> int:
        k = 1
        acc = i
        while acc != self.identity:
            acc = self.table[acc][i]
            k += 1
        return k

    def order_profile(self) -> dict[int, int]:
        profile: dict[int, int] = {}
        for i in range(self.order):
            o = self.element_order(i)
            profile[o] = profile.get(o, 0) + 1
        return profile

    def involutions(self) -> list[int]:
        return [i for i in range(self.order)
                if i != self.identity and self.table[i][i] == self.identity]

    def is_abelian(self) -> bool:
        t = self.table
        return all(t[i][j] == t[j][i]
                   for i in range(self.order) for j in range(i + 1, self.order))

    def is_elementary_abelian_2(self) -> bool:
        return self.is_abelian() and all(
            self.table[i][i] == self.identity for i in range(self.order))

    def subgroup_closure(self, gens) -> frozenset[int]:
        """Indices of the subgroup generated by ``gens``."""
        _, known = greedy_closure(gens, self.identity, self.table.__getitem__)
        return frozenset(known)

    def generates(self, indices) -> bool:
        return len(self.subgroup_closure(indices)) == self.order

    def subgroup(self, indices) -> "FiniteGroup":
        """The subgroup on the given closed index set, reindexed ascending."""
        idx = sorted(set(indices))
        pos = {g: k for k, g in enumerate(idx)}
        table = []
        for g in idx:
            row = []
            for h in idx:
                gh = self.table[g][h]
                if gh not in pos:
                    raise ValueError("index set is not closed under products")
                row.append(pos[gh])
            table.append(row)
        realization = None
        if self.realization is not None:
            realization = [self.realization[g] for g in idx]
        return FiniteGroup([self.elements[g] for g in idx], table,
                           realization=realization)

    def validate(self) -> None:
        """Certify the group axioms; associativity costs order-cubed.

        Checks the shape, that rows are permutations, a two-sided identity e,
        associativity, the realization and the generator indices.  Columns
        and inverses follow: row a is onto, so ab = e for some b, and bc = e
        for some c; then a = a(bc) = (ab)c = c, so ba = e, each x -> xa is a
        bijection and each column a permutation.
        """
        n, real = self.order, self.realization
        if n == 0 or [len(row) for row in self.table] != [n] * n:
            raise ValueError("table shape does not match the element count")
        full = list(range(n))
        if any(sorted(row) != full for row in self.table):
            raise ValueError("table row is not a permutation of indices")
        e = self.identity
        if self.table[e] != full or [row[e] for row in self.table] != full:
            raise ValueError("table has no two-sided identity")
        bad = kernels.check_assoc(n, [x for row in self.table for x in row])
        if bad != -1:
            raise ValueError(f"associativity fails at ({bad // n // n}, "
                             f"{bad // n % n}, {bad % n})")
        if real is not None:
            if len(real) != n or any(perm.bijection(p) != p
                                     or len(p) != len(real[0]) for p in real):
                raise ValueError("realization must hold one image tuple of "
                                 "one degree per element")
            if len(set(real)) != n:
                raise ValueError("realization is not faithful")
            for i, row in enumerate(self.table):
                for j, ij in enumerate(row):
                    if real[ij] != perm.compose(real[i], real[j]):
                        raise ValueError(
                            f"realization is not a homomorphism at ({i},{j})")
        for gname, idx in self.generators.items():
            if not 0 <= idx < n:
                raise ValueError(f"generator {gname!r} index out of range")

    def __repr__(self) -> str:
        label = self.name or "FiniteGroup"
        return f"<{label} of order {self.order}>"


def greedy_closure(candidates, identity, row, limit: int | None = None):
    """Keep each candidate outside the closure of those kept before it.

    ``row(s)[x]`` is the product s*x.  Returns ``(kept, closure)``: the kept
    candidates in scan order and the subgroup they generate.  The closure
    is None once it would pass ``limit`` elements; ``kept`` then ends with
    the candidate that pushed it over.  Each kept candidate closes the
    closure so far by one ``grow_closure`` step: at most |closure| *
    len(kept) products in all.
    """
    kept: list = []
    rows: list = []
    known, order = {identity}, [identity]
    for s in candidates:
        if s not in known:
            kept.append(s)
            rows.append(row(s))
            if not grow_closure(order, known, rows, limit):
                return kept, None
    return kept, known


def grow_closure(order: list, known: set, rows: list,
                 limit: int | None = None) -> bool:
    """One Dimino step, in place: ``order`` lists ``known``, closed under
    ``rows[:-1]``; close both under ``rows[-1]`` too, the old elements meeting
    only that row.  False once ``known`` would pass ``limit`` elements."""
    new, closed = rows[-1:], len(order)
    for i, x in enumerate(order):  # also walks what it appends
        for r in (new if i < closed else rows):
            y = r[x]
            if y not in known:
                if limit is not None and len(known) >= limit:
                    return False
                known.add(y)
                order.append(y)
    return True


def inverse_classes(g: FiniteGroup) -> list[tuple[int, ...]]:
    """The {c, c^-1} pairs over non-identity elements, canonically ordered."""
    seen = set()
    out = []
    for i in range(g.order):
        if i == g.identity or i in seen:
            continue
        j = g.inverse[i]
        cls = (i,) if i == j else (i, j)
        seen.update(cls)
        out.append(cls)
    return out


def _format_word(tokens: list[str]) -> str:
    """Collapse runs of one generator into powers: rho2 rho2 -> rho2^2."""
    if not tokens:
        return "e"
    parts = []
    i = 0
    while i < len(tokens):
        j = i
        while j < len(tokens) and tokens[j] == tokens[i]:
            j += 1
        run = j - i
        parts.append(tokens[i] if run == 1 else f"{tokens[i]}^{run}")
        i = j
    return "*".join(parts)


class _Derived:
    """A list of lists built on demand: entry i, unless given, is made on
    first read from entry ``parents[i][0]`` by ``step(entry, parents[i][1])``
    and kept.  Reads, iteration, ``len`` and ``==`` act as on the finished
    list, and a kept entry is the list itself, so writes to it stay."""

    __slots__ = ("built", "parents", "step")

    def __init__(self, built: list, parents: list, step):
        self.built, self.parents, self.step = built, parents, step

    def __len__(self) -> int:
        return len(self.built)

    def __getitem__(self, i: int) -> list[int]:
        built = self.built
        entry = built[i]
        if entry is None:
            path = []  # up to the nearest built ancestor, without recursion
            while entry is None:
                path.append(i)
                i = self.parents[i][0]
                entry = built[i]
            for i in reversed(path):
                entry = built[i] = self.step(entry, self.parents[i][1])
        return entry

    def __iter__(self):
        return map(self.__getitem__, range(len(self.built)))

    def __eq__(self, other) -> bool:
        return list(self) == other


class _Names(_Derived):
    """Display names built on first read: entry i is e_i's word in the
    generators, its parent's word plus one letter, read as a string."""

    __slots__ = ()

    def __getitem__(self, i: int) -> str:
        return _format_word(_Derived.__getitem__(self, i))


def closure(gens: list[tuple[int, ...]], cap: int | None = None,
            names: list[str] | None = None, name: str | None = None
            ) -> FiniteGroup:
    """Permutation group generated by ``gens``, if its order fits the cap.

    Each generator is an image tuple and must be a bijection; products of
    bijections are not checked again.

    Elements are discovered breadth-first from the identity, multiplying on
    the right by the generators in the given order, so element 0 is the
    identity and element names are first-seen words in the generators, each
    made on first read (``_Names``).

    The pass costs |G|k compositions for k generators and keeps what they
    give: the column of each generator, x -> x g_k.  Each element e_i after
    the identity was found as e_p g_k with p < i, so g e_i = (g e_p) g_k
    gives the left multiplications x -> g_k x by lookups, and the inverses
    come from the realization.  Nothing else is built up front: row i is
    row p read through x -> g_k x, and column i is column p read through
    x -> x g_k, each built on first read (``_Derived``) and kept, so a
    caller that reads O(k) rows and columns pays O(|G|k), not |G|^2.
    """
    if not gens:
        raise ValueError("closure needs at least one generator")
    cap = default_cap() if cap is None else cap
    if cap < 1:
        raise ValueError("cap must be positive")
    gens = [perm.bijection(p) for p in gens]
    degree = len(gens[0])
    if any(len(p) != degree for p in gens):
        raise ValueError("generators must share a degree")
    if names is None:
        names = [f"g{i}" for i in range(len(gens))]
    if len(names) != len(gens):
        raise ValueError("one name per generator, please")

    ident = tuple(range(degree))
    elems: list[tuple[int, ...]] = [ident]
    index: dict[tuple[int, ...], int] = {ident: 0}
    parents: list = [None]  # (p, k) with e_i = e_p g_k, for i >= 1
    right: list[list[int]] = [[] for _ in gens]  # right[k][i]: e_i g_k
    for qi, base in enumerate(elems):  # also walks what it appends
        for k, gp in enumerate(gens):
            q = perm.compose(base, gp)
            i = index.get(q)
            if i is None:
                if len(elems) >= cap:
                    raise CapExceededError(
                        f"order exceeds cap {cap} while closing "
                        f"{len(gens)} generators")
                i = index[q] = len(elems)
                elems.append(q)
                parents.append((qi, k))
            right[k].append(i)

    left = []  # left[k][i]: g_k e_i
    for col in right:
        lk = [col[0]]
        for p, k in parents[1:]:
            lk.append(right[k][lk[p]])
        left.append(lk)
    order = len(elems)
    unbuilt = [None] * (order - 1)
    return FiniteGroup(
        _Names([[]] + unbuilt, parents, lambda w, k: w + [names[k]]),
        _Derived([list(range(order))] + unbuilt, parents,
                 lambda row, k: list(map(row.__getitem__, left[k]))),
        generators={nm: index[gp] for nm, gp in zip(names, gens)},
        realization=elems, name=name,
        inverse=[index[perm.inverse(p)] for p in elems],
        columns=_Derived([list(range(order))] + unbuilt, parents,
                         lambda col, k: list(map(right[k].__getitem__, col))))


def cyclic(n: int) -> FiniteGroup:
    """Cyclic group of order n; generator named r."""
    if n < 1:
        raise ValueError("order must be at least 1")
    names = ["e"] + ["r" if k == 1 else f"r^{k}" for k in range(1, n)]
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(names, table, generators={"r": 1 % n},
                       name=f"C{n}")


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n, n >= 3; generators r (rotation), s (flip).

    Element (a, b) = r^a s^b sits at index a + n*b; s r s = r^-1.
    """
    if n < 3:
        raise ValueError("dihedral needs n >= 3")
    g = generalized_dihedral(cyclic(n))
    g.name = f"D{2 * n}"
    return g


def _inverting_extension(a: FiniteGroup, y: int, t: str,
                         name: str) -> FiniteGroup:
    """Abelian A extended by t with t^2 = y and t^-1 z t = z^-1.

    Element (z, b) = z*t^b sits at index z + |A|*b, named ``z*t`` when b = 1.
    """
    n = a.order
    table = [row + [x + n for x in row] for row in a.table]
    for row in a.table:
        over = [row[w] for w in a.inverse]  # (z t) w = z w^-1 t
        table.append([x + n for x in over] + [a.table[x][y] for x in over])
    names = list(a.elements) + [
        t if z == a.identity else f"{base}*{t}"
        for z, base in enumerate(a.elements)]
    gens = dict(a.generators)
    gens[t] = a.identity + n
    return FiniteGroup(names, table, generators=gens, name=name)


def generalized_dihedral(a: FiniteGroup) -> FiniteGroup:
    """Dih(A) = A extended by an involution s inverting it; A must be abelian.

    Element (x, b) = x*s^b at index x + |A|*b.
    """
    if not a.is_abelian():
        raise ValueError("generalized dihedral needs an abelian group")
    return _inverting_extension(a, a.identity, "s", f"Dih({a.name or '?'})")


def generalized_dicyclic(a: FiniteGroup, y: int) -> FiniteGroup:
    """Dic(A, y) = A plus x with x^2 = y and x^-1 a x = a^-1.

    A must be abelian of even order and y an involution of A.  Element
    (z, b) = z*x^b sits at index z + |A|*b.
    """
    if not a.is_abelian():
        raise ValueError("generalized dicyclic needs an abelian base")
    if a.order % 2 != 0:
        raise ValueError("base group must have even order")
    if y == a.identity or a.table[y][y] != a.identity:
        raise ValueError("y must be an involution of the base group")
    return _inverting_extension(a, y, "x", f"Dic({a.name or '?'})")


def quaternion() -> FiniteGroup:
    """The quaternion group on 1, -1, i, -i, j, -j, k, -k; generators i, j."""
    units = ["1", "i", "j", "k"]

    def unit_mult(u, v):
        # returns (sign, unit index)
        if u == 0:
            return 1, v
        if v == 0:
            return 1, u
        if u == v:
            return -1, 0
        # i*j=k, j*k=i, k*i=j and the reversals flip sign
        forward = {(1, 2): 3, (2, 3): 1, (3, 1): 2}
        if (u, v) in forward:
            return 1, forward[(u, v)]
        return -1, forward[(v, u)]

    def idx(sign, u):
        return 2 * u + (0 if sign == 1 else 1)

    size = 8
    table = [[0] * size for _ in range(size)]
    for s1, u1, s2, u2 in iproduct((1, -1), range(4), (1, -1), range(4)):
        s, u = unit_mult(u1, u2)
        table[idx(s1, u1)][idx(s2, u2)] = idx(s1 * s2 * s, u)
    names = []
    for u in range(4):
        names.append(units[u])
        names.append(f"-{units[u]}")
    return FiniteGroup(names, table, generators={"i": 2, "j": 4}, name="Q8")


def direct_product(g: FiniteGroup, h: FiniteGroup,
                   cap: int | None = None) -> FiniteGroup:
    """G x H; pair (i, j) at index i*|H| + j, generator names suffixed 1/2."""
    size = g.order * h.order
    within_cap(size, cap)
    m = h.order
    table = [[0] * size for _ in range(size)]
    for i1 in range(g.order):
        gt = g.table[i1]
        for j1 in range(m):
            ht = h.table[j1]
            row = table[i1 * m + j1]
            for i2 in range(g.order):
                base = gt[i2] * m
                for j2 in range(m):
                    row[i2 * m + j2] = base + ht[j2]
    names = [f"({gn},{hn})" for gn in g.elements for hn in h.elements]
    gens = {}
    for nm, i in g.generators.items():
        gens[f"{nm}1"] = i * m + h.identity
    for nm, j in h.generators.items():
        gens[f"{nm}2"] = g.identity * m + j
    return FiniteGroup(names, table, generators=gens,
                       name=f"{g.name or '?'}x{h.name or '?'}")


def wreath_c2(g: FiniteGroup, cap: int | None = None) -> FiniteGroup:
    """(G x G) extended by the coordinate swap t; order 2|G|^2.

    Element ((a, b), s) at index (a*|G| + b)*2 + s; t (a, b) t = (b, a).
    """
    n = g.order
    size = 2 * n * n
    within_cap(size, cap)

    def idx(a, b, s):
        return (a * n + b) * 2 + s

    # (a1, b1) (a2, b2, s) = (a1 a2, b1 b2, s): a1's row picks the block of
    # 2|G| indices, b1's row the offset inside it.  Then (a1, b1) t is that
    # row read through x -> t x, which sends (a2, b2, s) to (b2, a2, 1 - s).
    ids = list(range(size))
    blocks = [ids[2 * n * x:2 * n * (x + 1)] for x in range(n)]
    t_left = [idx(b, a, 1 - s)
              for a, b, s in iproduct(range(n), range(n), range(2))]
    table = []
    for a1, b1 in iproduct(range(n), repeat=2):
        offsets = [2 * y + s for y in g.table[b1] for s in (0, 1)]
        row = [blocks[x][o] for x in g.table[a1] for o in offsets]
        table.append(row)
        table.append([row[j] for j in t_left])
    names = [None] * size
    for a, b, s in iproduct(range(n), range(n), range(2)):
        core = f"({g.elements[a]},{g.elements[b]})"
        names[idx(a, b, s)] = core if s == 0 else f"{core}*t"
    gens = {}
    for nm, i in g.generators.items():
        gens[f"{nm}1"] = idx(i, g.identity, 0)
        gens[f"{nm}2"] = idx(g.identity, i, 0)
    gens["t"] = idx(g.identity, g.identity, 1)
    return FiniteGroup(names, table, generators=gens,
                       name=f"Wr2({g.name or '?'})")


def left_regular(g: FiniteGroup) -> FiniteGroup:
    """The same group realized by left translations on its own indices."""
    realization = [tuple(row) for row in g.table]
    return FiniteGroup(g.elements, g.table, generators=g.generators,
                       realization=realization,
                       name=f"L({g.name or '?'})")


class Isomorphism(NamedTuple):
    """A verified isomorphism source -> target as a full index map."""

    source: FiniteGroup
    target: FiniteGroup
    images: tuple[int, ...]

    def inverted(self) -> "Isomorphism":
        return Isomorphism(self.target, self.source, perm.inverse(self.images))


def minimal_generating_sequence(g: FiniteGroup) -> list[int]:
    """Greedy generating sequence: scan indices, keep what grows the closure."""
    gens, _ = greedy_closure(range(g.order), g.identity, g.table.__getitem__)
    return gens


def _extend_over(g: FiniteGroup, gens: list[int], images: list[int],
                 h: FiniteGroup):
    """Extend gens -> images breadth-first over the subgroup gens generate.

    Checks f(x*s) = f(x)*f(s) for every element x reached and generator s,
    which pins down a homomorphism on <gens> if one exists.  Returns
    ``(f, reached)`` with f None outside <gens>, or None on a conflict.
    """
    f: list[int | None] = [None] * g.order
    f[g.identity] = h.identity
    reached = [g.identity]
    cols = [g.column(s) for s in gens]
    for x in reached:  # also walks what it appends
        fx = f[x]
        for col, fs in zip(cols, images):
            y = col[x]
            fy = h.table[fx][fs]
            if f[y] is None:
                f[y] = fy
                reached.append(y)
            elif f[y] != fy:
                return None
    return f, reached


def extend_homomorphism(g: FiniteGroup, gens: list[int], images: list[int],
                        h: FiniteGroup) -> list[int] | None:
    """Extend gens -> images to a homomorphism G -> H, or None.

    None also when gens do not generate G.  Returns the full image list.
    """
    ext = _extend_over(g, gens, images, h)
    if ext is None or len(ext[1]) != g.order:
        return None
    return ext[0]  # type: ignore[return-value]


def _keys(g: FiniteGroup) -> list[tuple[int, int]]:
    """Each element's (order, centralizer order).  An isomorphism keeps
    both, so it sends each element to one of the same key."""
    return [(g.element_order(x), sum(map(eq, row, col)))
            for x, (row, col) in enumerate(zip(g.table, zip(*g.table)))]


def _iso_candidates(g, h, gens, choices):
    """Backtracking generator-image search; yields full image maps.

    gens must generate g, and ``choices[k]`` lists the images tried for
    gens[k].  Each choice is kept only when gens[:k+1] -> chosen extends to
    an injective homomorphism on the subgroup gens[:k+1] generate, so every
    map yielded is an isomorphism onto its image, in lexicographic order of
    the generator images' places in ``choices``.
    """
    chosen: list[int] = []

    def backtrack(k: int):
        for cand in choices[k]:
            chosen.append(cand)
            ext = _extend_over(g, gens[:k + 1], chosen, h)
            if ext is not None:
                f, reached = ext
                if len({f[x] for x in reached}) == len(reached):
                    if k + 1 == len(gens):
                        yield tuple(f)
                    else:
                        yield from backtrack(k + 1)
            chosen.pop()

    yield from backtrack(0)


def are_isomorphic(g: FiniteGroup, h: FiniteGroup) -> Isomorphism | None:
    """First isomorphism found in canonical search order, or None.

    The sorted lists of element keys (``_keys``) must agree up front.
    Each generator's images are tried over h's elements of its key, and
    partial homomorphisms prune the backtracking.
    """
    if g.order != h.order:
        return None
    g_keys, h_keys = _keys(g), _keys(h)
    if sorted(g_keys) != sorted(h_keys):
        return None
    gens = minimal_generating_sequence(g)
    if not gens:  # trivial group
        return Isomorphism(g, h, (h.identity,))
    choices = [[x for x, k in enumerate(h_keys) if k == g_keys[s]]
               for s in gens]
    for f in _iso_candidates(g, h, gens, choices):
        return Isomorphism(g, h, f)
    return None


def automorphisms(g: FiniteGroup) -> list[Isomorphism]:
    """All automorphisms of g, listed in the search order."""
    gens = minimal_generating_sequence(g)
    if not gens:
        return [Isomorphism(g, g, (g.identity,))]
    keys = _keys(g)
    choices = [[x for x, k in enumerate(keys) if k == keys[s]] for s in gens]
    return [Isomorphism(g, g, f) for f in _iso_candidates(g, g, gens, choices)]


def stabilizer_chain(base, candidates, first) -> tuple[list[tuple], int]:
    """Generators of a group of maps, as image tuples, and its order: a
    stabilizer chain on ``base`` (Sims), built from the last level up.  At
    level i the maps found so far fix base[:i+1]; each of ``candidates(i)``
    outside their orbit of base[i] is tried by ``first(i, w)``, a map of the
    group fixing base[:i] and sending base[i] to w, or None, and each map
    found grows the orbit by one ``grow_closure`` step.  The candidates must
    cover the orbit, and only the identity may fix all of base; the order
    is then the product of the orbit lengths.
    """
    found: list[tuple[int, ...]] = []
    size = 1
    for i in range(len(base) - 1, -1, -1):
        orbit, seen = [base[i]], {base[i]}
        for w in candidates(i):
            if w not in seen:
                f = first(i, w)
                if f is not None:
                    found.append(f)
                    grow_closure(orbit, seen, found)
        size *= len(orbit)
    return found, size


def automorphism_generators(g: FiniteGroup) -> tuple[list[tuple], int]:
    """Generators of Aut(g) as image tuples, and |Aut(g)|: the
    ``stabilizer_chain`` on g's generating sequence.  Level i tries the
    elements of gens[i]'s key (``_keys``, computed once), each by the
    isomorphism search's first map fixing gens[:i] and sending gens[i]
    there, every later generator tried over the elements of its key."""
    gens = minimal_generating_sequence(g)
    keys = _keys(g)
    choices = [[x for x, k in enumerate(keys) if k == keys[s]] for s in gens]
    return stabilizer_chain(gens, choices.__getitem__, lambda i, w: next(
        _iso_candidates(g, g, gens, [[s] for s in gens[:i]] + [[w]]
                        + choices[i + 1:]), None))


class DicyclicWitness(NamedTuple):
    """An abelian index-2 subgroup A plus x with x^2 = y inverting A."""

    subgroup: tuple[int, ...]
    y: int
    x: int


def _index2_subgroups(g: FiniteGroup) -> list[tuple[int, ...]]:
    """All index-2 subgroups, via the sign homomorphisms onto C2."""
    gens = minimal_generating_sequence(g)
    if not gens:
        return []
    c2 = cyclic(2)
    out = []
    for signs in iproduct(range(2), repeat=len(gens)):
        if not any(signs):
            continue
        f = extend_homomorphism(g, gens, list(signs), c2)
        if f is not None and any(f):
            out.append(tuple(i for i in range(g.order) if f[i] == 0))
    return out


def recognize_dicyclic(g: FiniteGroup) -> list[DicyclicWitness]:
    """Every (A, y, x) realizing g as a generalized dicyclic group.

    Exhausts the index-2 subgroups; for each abelian one, x ranges over the
    other coset and must satisfy x^2 = y an involution and x^-1 a x = a^-1.
    """
    out, abelian = [], g.is_abelian()
    for sub in _index2_subgroups(g):
        inside = set(sub)
        if not (abelian or all(g.table[a][b] == g.table[b][a]
                               for a in sub for b in sub if a < b)):
            continue
        for x in range(g.order):
            if x in inside:
                continue
            y = g.table[x][x]
            if y == g.identity or g.table[y][y] != g.identity:
                continue
            xin = g.inverse[x]
            if all(g.table[g.table[xin][a]][x] == g.inverse[a] for a in sub):
                out.append(DicyclicWitness(sub, y, x))
    return out


def q8_c2n_isomorphism(g: FiniteGroup) -> Isomorphism | None:
    """Isomorphism g -> Q8 x C2^n (canonical build), or None."""
    m = g.order
    if m < 8 or m % 8 != 0:
        return None
    k = m // 8
    if k & (k - 1):
        return None  # not a power of two
    target = quaternion()
    while target.order < m:
        target = direct_product(target, cyclic(2), cap=m)
    return are_isomorphic(g, target)
