"""Search kernels: the colour-preserving backtracking search, the colour
check of one map, and the associativity scan.

Graphs arrive as adjacency lists: ``adjacency[v]`` holds a
``(neighbour, colour)`` pair for each edge at v, ascending by neighbour,
with colour ids >= 0 and every edge listed from both ends.  Only the
search builds an n*n colour lookup, and it frees it on return.
"""

from __future__ import annotations

# The kernels are plain Python; the name is recorded with benchmark results.
BACKEND = "pure"


def _pair_colours(adjacency) -> list[int]:
    """Flat n*n lookup: entry u*n + x is the colour of edge {u, x}, else -1."""
    n = len(adjacency)
    colour = [-1] * (n * n)
    for u, nbrs in enumerate(adjacency):
        for x, c in nbrs:
            colour[u * n + x] = c
    return colour


def preserves(adjacency, img) -> bool:
    """Does the bijection ``img`` send every edge onto an edge of the same
    colour?  O(E): the colours at u are marked at their images, and each
    edge at img[u] must find its colour marked, so the inverse of img, and
    with it img, sends edges onto like-coloured edges.  That suffices: the
    edge set is finite, so non-edges then go onto non-edges."""
    mark = [-1] * len(adjacency)
    for u, nbrs in enumerate(adjacency):
        for x, c in nbrs:
            mark[img[x]] = c
        for y, c in adjacency[img[u]]:
            if mark[y] != c:
                return False
        for x, _ in nbrs:
            mark[img[x]] = -1
    return True


def search(adjacency, roots) -> tuple[list[tuple[int, ...]], int]:
    """Colour-preserving vertex bijections of a connected coloured graph that
    send vertex 0 into ``roots``.

    Backtracking over a breadth-first spanning tree rooted at vertex 0,
    neighbours ascending: the root image is tried over ``roots`` in order,
    every later vertex over the like-coloured neighbours of its parent's
    image, ascending.  Placing v at w takes two passes: each placed
    neighbour of v must go to a neighbour of w of the same colour, and each
    neighbour of w that is already an image must come from a neighbour of v
    of the same colour; any other placed pair is a non-edge on both sides.
    Every pair of vertices is so checked when the later of the two is
    placed, so a complete assignment is accepted as it stands.  The checks
    read a flat n*n colour lookup, built here.  Pass ``range(n)`` as
    ``roots`` for the whole group, ``(0,)`` for the stabilizer of vertex 0.
    The search keeps its own stack, so its depth is not bounded by the
    interpreter's recursion limit.

    Returns the lexicographically sorted list of image tuples plus the number
    of committed placements (the search tree size).
    """
    n = len(adjacency)
    if n <= 0:
        raise ValueError("graph must have at least one vertex")
    order = [0]  # breadth-first, with tree parents and tree-edge colours
    parent, via = [-1] * n, [-1] * n
    for u in order:  # also walks what it appends
        for x, c in adjacency[u]:
            if parent[x] < 0 and x != 0:
                parent[x] = u
                via[x] = c
                order.append(x)
    if len(order) != n:
        raise ValueError("graph is not connected")
    colour = _pair_colours(adjacency)
    img = [-1] * n
    pre = [-1] * n  # pre[w] = v when img[v] = w
    found: list[tuple[int, ...]] = []
    nodes = 0
    # one candidate iterator per placed depth; depth k places order[k]
    pending = [iter(roots)]
    while pending:
        k = len(pending) - 1
        v = order[k]
        if img[v] >= 0:  # back from the subtree below the last placement
            pre[img[v]] = -1
            img[v] = -1
        v_nbrs = adjacency[v]
        vb = v * n
        w = -1
        for cand in pending[-1]:
            if pre[cand] >= 0:
                continue
            cb = cand * n
            for x, c in v_nbrs:
                y = img[x]
                if y >= 0 and colour[cb + y] != c:
                    break
            else:
                for y, c in adjacency[cand]:
                    x = pre[y]
                    if x >= 0 and colour[vb + x] != c:
                        break
                else:
                    w = cand
                    break
        if w < 0:  # candidates exhausted: backtrack one level
            pending.pop()
            continue
        img[v] = w
        pre[w] = v
        nodes += 1
        if k + 1 < n:
            nxt = order[k + 1]
            col = via[nxt]
            pending.append(iter([x for x, c in adjacency[img[parent[nxt]]]
                                 if c == col]))
        else:
            found.append(tuple(img))
    found.sort()
    return found, nodes


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
