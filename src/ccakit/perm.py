"""Bijections on {0, ..., d-1} as image tuples, the atoms every action here
is built from.

``p[i]`` is where point ``i`` goes.  Products follow the left-action
convention: ``compose(p, q)[i] == p[q[i]]``, i.e. ``q`` acts first.  That
matches reading a product of group elements applied on the left.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence


def bijection(images: Sequence[int]) -> tuple[int, ...]:
    """``images`` as a tuple; ValueError unless it permutes 0..len-1."""
    imgs = tuple(images)
    seen = [False] * len(imgs)
    for x in imgs:
        if not isinstance(x, int) or not 0 <= x < len(imgs) or seen[x]:
            raise ValueError(f"not a bijection on 0..{len(imgs) - 1}: {imgs!r}")
        seen[x] = True
    return imgs


def from_cycles(degree: int, cycles: Iterable[Iterable[int]]
                ) -> tuple[int, ...]:
    """Build from disjoint cycles; unmentioned points stay fixed."""
    images = list(range(degree))
    touched = set()
    for cycle in cycles:
        pts = list(cycle)
        for p in pts:
            if not 0 <= p < degree:
                raise ValueError(f"point {p} outside 0..{degree - 1}")
            if p in touched:
                raise ValueError(f"point {p} appears in two cycles")
            touched.add(p)
        for i, p in enumerate(pts):
            images[p] = pts[(i + 1) % len(pts)]
    return tuple(images)


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    """(p o q)(i) = p(q(i)): apply q first, then p."""
    if len(p) != len(q):
        raise ValueError(f"degree mismatch: {len(p)} != {len(q)}")
    return tuple([p[x] for x in q])


def inverse(p: tuple[int, ...]) -> tuple[int, ...]:
    inv = [0] * len(p)
    for i, x in enumerate(p):
        inv[x] = i
    return tuple(inv)


def power(p: tuple[int, ...], n: int) -> tuple[int, ...]:
    """p composed with itself n times; negative n powers the inverse."""
    if n < 0:
        return power(inverse(p), -n)
    result = tuple(range(len(p)))
    base = p
    while n:
        if n & 1:
            result = compose(result, base)
        base = compose(base, base)
        n >>= 1
    return result
