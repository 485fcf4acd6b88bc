"""Search kernels: colour-preserving automorphism backtracking and the
associativity scan.

Graphs arrive as a flattened vertex-by-vertex matrix ``colours`` of length
n*n where entry ``u*n + v`` is the colour id of edge {u, v} (>= 0) or -1 for
a non-edge.  The matrix is symmetric with -1 on the diagonal.
"""

from __future__ import annotations

# The kernels are plain Python; the name is recorded with benchmark results.
BACKEND = "pure"


def _bfs_order(n: int, colours) -> tuple[list[int], list[int]]:
    """Breadth-first vertex order from vertex 0, neighbours ascending."""
    order = [0]
    parent = [-1] * n
    seen = [False] * n
    seen[0] = True
    qi = 0
    while qi < len(order):
        u = order[qi]
        qi += 1
        ub = u * n
        for v in range(n):
            if colours[ub + v] >= 0 and not seen[v]:
                seen[v] = True
                parent[v] = u
                order.append(v)
    if len(order) != n:
        raise ValueError("graph is not connected")
    return order, parent


def search(n: int, colours, roots) -> tuple[list[tuple[int, ...]], int]:
    """Colour-preserving vertex bijections of a connected coloured graph that
    send vertex 0 into ``roots``.

    Backtracking over a breadth-first spanning tree rooted at vertex 0: the
    root image is tried over ``roots`` in the given order, every later vertex
    only over the like-coloured neighbours of its parent's image, and each
    placement is checked against all previously placed vertices.  A complete
    assignment is verified over every vertex pair before being accepted.
    Pass ``range(n)`` for the whole group, ``(0,)`` for the stabilizer of
    vertex 0.  The search keeps its own stack, so its depth is not bounded
    by the interpreter's recursion limit.

    Returns the lexicographically sorted list of image tuples plus the number
    of committed placements (the search tree size).
    """
    if n <= 0:
        raise ValueError("graph must have at least one vertex")
    order, parent = _bfs_order(n, colours)
    img = [-1] * n
    used = [False] * n
    found: list[tuple[int, ...]] = []
    nodes = 0
    # one candidate iterator per placed depth; depth k places order[k]
    pending = [iter(roots)]
    while pending:
        k = len(pending) - 1
        v = order[k]
        if img[v] >= 0:  # back from the subtree below the last placement
            used[img[v]] = False
            img[v] = -1
        vb = v * n
        w = -1
        for cand in pending[-1]:
            if used[cand]:
                continue
            cb = cand * n
            ok = True
            for j in range(k):
                x = order[j]
                if colours[vb + x] != colours[cb + img[x]]:
                    ok = False
                    break
            if ok:
                w = cand
                break
        if w < 0:  # candidates exhausted: backtrack one level
            pending.pop()
            continue
        img[v] = w
        used[w] = True
        nodes += 1
        if k + 1 < n:
            nxt = order[k + 1]
            u = parent[nxt]
            col = colours[u * n + nxt]
            iub = img[u] * n
            pending.append(iter([x for x in range(n)
                                 if colours[iub + x] == col]))
        elif _preserves_colours(n, colours, img):
            found.append(tuple(img))
    found.sort()
    return found, nodes


def _preserves_colours(n: int, colours, img: list[int]) -> bool:
    for u in range(n):
        ub = u * n
        iub = img[u] * n
        for v in range(n):
            if colours[ub + v] != colours[iub + img[v]]:
                return False
    return True


def check_assoc(n: int, table) -> int:
    """First triple violating (i*j)*k == i*(j*k), encoded (i*n + j)*n + k.

    Returns -1 when the flattened n*n multiplication table is associative.
    """
    for i in range(n):
        ib = i * n
        for j in range(n):
            ijb = table[ib + j] * n
            jb = j * n
            for k in range(n):
                if table[ijb + k] != table[ib + table[jb + k]]:
                    return (i * n + j) * n + k
    return -1
