"""Bijections on {0, ..., d-1}, the atoms every action here is built from."""

from __future__ import annotations

from collections.abc import Iterable, Sequence


class Permutation:
    """Immutable bijection on {0, ..., degree-1}.

    ``images[i]`` is where point ``i`` goes.  Multiplication follows the
    left-action convention: ``(p * q)(i) == p(q(i))``, i.e. ``q`` acts first.
    That matches reading a product of group elements applied on the left.
    """

    __slots__ = ("images",)

    def __init__(self, images: Sequence[int]):
        imgs = tuple(images)
        seen = [False] * len(imgs)
        for x in imgs:
            if not isinstance(x, int) or not 0 <= x < len(imgs) or seen[x]:
                raise ValueError(f"not a bijection on 0..{len(imgs) - 1}: {imgs!r}")
            seen[x] = True
        self.images = imgs

    @property
    def degree(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        if degree < 1:
            raise ValueError("degree must be at least 1")
        return cls(range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Iterable[Iterable[int]]) -> "Permutation":
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
        return cls(images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        return compose(self, other)

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        result = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def inverse(self) -> "Permutation":
        inv = [0] * self.degree
        for i, x in enumerate(self.images):
            inv[x] = i
        return Permutation(inv)

    def is_identity(self) -> bool:
        return all(x == i for i, x in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Non-trivial cycles, each rotated to start at its minimum, sorted."""
        out = []
        seen = [False] * self.degree
        for start in range(self.degree):
            if seen[start] or self.images[start] == start:
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
            out.append(tuple(cyc))
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Permutation") -> bool:
        return self.images < other.images

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Permutation.identity({self.degree})"
        body = "".join("(" + " ".join(map(str, c)) + ")" for c in cyc)
        return f"Permutation<{self.degree}: {body}>"


def compose(p: Permutation, q: Permutation) -> Permutation:
    """(p o q)(i) = p(q(i)): apply q first, then p."""
    if p.degree != q.degree:
        raise ValueError(f"degree mismatch: {p.degree} != {q.degree}")
    qi = q.images
    pi = p.images
    return Permutation([pi[x] for x in qi])

