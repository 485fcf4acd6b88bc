"""Search kernels: the colour-preserving backtracking search, the colour
check of one map, and the associativity scan.

Graphs arrive as adjacency lists: ``adjacency[v]`` holds a
``(neighbour, colour)`` pair for each edge at v, ascending by neighbour,
with colour ids >= 0 and every edge listed from both ends.  No n*n colour
lookup is built: each check marks colours on a scratch list of n entries.
"""

from __future__ import annotations

# The kernels are plain Python; the name is recorded with benchmark results.
BACKEND = "pure"


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


def breadth_first(adjacency) -> tuple[list[int], list[int], list[int]]:
    """The search tree of a connected coloured graph: the vertices in
    breadth-first order from vertex 0, neighbours ascending, each one's tree
    parent, and the colour of the tree edge to it (-1 at the root)."""
    n = len(adjacency)
    if n <= 0:
        raise ValueError("graph must have at least one vertex")
    order = [0]
    parent, via = [-1] * n, [-1] * n
    for u in order:  # also walks what it appends
        for x, c in adjacency[u]:
            if parent[x] < 0 and x != 0:
                parent[x] = u
                via[x] = c
                order.append(x)
    if len(order) != n:
        raise ValueError("graph is not connected")
    return order, parent, via


def search(adjacency, tree, k, w) -> tuple[list[tuple[int, ...]], int]:
    """The first colour-preserving vertex bijection of a connected coloured
    graph that fixes order[:k] and sends order[k] to w, on the search tree
    ``tree = (order, parent, via)`` that ``breadth_first(adjacency)`` built.

    Backtracking: each later vertex is tried over the like-coloured
    neighbours of its parent's image, ascending.  Placing v at a candidate
    marks the colours of v's edges at their far ends: each neighbour of the
    candidate that is already an image must come from a neighbour of v
    marked with its edge's colour, and v must have as many placed
    neighbours, so each placed pair keeps its colour or stays a non-edge.
    Each pair is so checked when the later of the two is placed, so the
    first complete assignment is accepted as it stands.  The search keeps
    its own stack, so its depth is not bounded by the recursion limit.
    Returns a list of at most one image tuple plus the number of committed
    placements (the search tree size).
    """
    order, parent, via = tree
    n = len(order)
    img, pre, mark = [-1] * n, [-1] * n, [-1] * n  # pre[img[v]] = v
    for v in order[:k]:
        img[v] = pre[v] = v
    nodes = 0
    pending = [iter((w,))]  # a candidate iterator per depth from k on
    while pending:
        d = k + len(pending) - 1
        v = order[d]
        if img[v] >= 0:  # back from the subtree below the last placement
            pre[img[v]] = -1
            img[v] = -1
        placed = 0
        for x, c in adjacency[v]:
            mark[x] = c
            placed += img[x] >= 0
        for cand in pending[-1]:
            if pre[cand] < 0:
                hits = [mark[pre[y]] == c for y, c in adjacency[cand]
                        if pre[y] >= 0]
                if len(hits) == placed and all(hits):
                    break
        else:  # candidates exhausted: backtrack one level
            cand = -1
        for x, _ in adjacency[v]:
            mark[x] = -1
        if cand < 0:
            pending.pop()
            continue
        img[v] = cand
        pre[cand] = v
        nodes += 1
        if d + 1 == n:
            return [tuple(img)], nodes
        nxt = order[d + 1]
        pending.append(iter([x for x, c in adjacency[img[parent[nxt]]]
                             if c == via[nxt]]))
    return [], nodes


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
