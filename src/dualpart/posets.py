"""Posets on the coordinate set: ideals, levels, hierarchy, duality,
automorphisms and the unique-decomposition-property check.

Subsets of the ground set are passed around as frozensets; bitmasks are used
internally where enumeration speed matters.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

from .config import DEFAULT_CONFIG, InputError, RunConfig


def _mask(subset: Iterable[int]) -> int:
    m = 0
    for i in subset:
        m |= 1 << i
    return m


def _unmask(mask: int, n: int) -> frozenset[int]:
    return frozenset(i for i in range(n) if mask >> i & 1)


@dataclasses.dataclass(frozen=True)
class Poset:
    """A finite poset stored as a reflexively and transitively closed
    relation; ``down[v]`` is the bitmask of elements <= v."""

    n: int
    down: tuple[int, ...]

    def __post_init__(self):
        for v in range(self.n):
            if not self.down[v] >> v & 1:
                raise InputError("relation is not reflexive")
        for u in range(self.n):
            for v in range(self.n):
                if u != v and self.leq(u, v) and self.leq(v, u):
                    raise InputError("relation is not antisymmetric")

    def leq(self, u: int, v: int) -> bool:
        return bool(self.down[v] >> u & 1)

    def up(self, u: int) -> int:
        return _mask(v for v in range(self.n) if self.leq(u, v))


def validate_and_close(n: int, relations: Sequence[tuple[int, int]]) -> Poset:
    """Build a poset from arbitrary relation pairs (transitive-reflexive
    closure); rejects cycles."""
    if n < 1:
        raise InputError("poset needs a nonempty ground set")
    down = [1 << v for v in range(n)]
    for u, v in relations:
        if not (0 <= u < n and 0 <= v < n):
            raise InputError(f"relation pair ({u},{v}) out of range")
        down[v] |= 1 << u
    # transitive closure (Warshall on bitmask rows)
    changed = True
    while changed:
        changed = False
        for v in range(n):
            acc = down[v]
            cur = acc
            while cur:
                u = (cur & -cur).bit_length() - 1
                cur &= cur - 1
                acc |= down[u]
            if acc != down[v]:
                down[v] = acc
                changed = True
    for u in range(n):
        for v in range(u + 1, n):
            if down[v] >> u & 1 and down[u] >> v & 1:
                raise InputError("cycle detected: input is not a poset")
    return Poset(n, tuple(down))


def antichain(n: int) -> Poset:
    return validate_and_close(n, [])


def chain(n: int) -> Poset:
    return validate_and_close(n, [(i, i + 1) for i in range(n - 1)])


def ideals(p: Poset, config: RunConfig = DEFAULT_CONFIG) -> list[frozenset[int]]:
    """All down-closed subsets, each exactly once (includes the empty set
    and the whole ground set)."""
    config.check("ideal_cap_n", p.n, "poset size for ideal enumeration")
    return [_unmask(m, p.n) for m in ideal_masks(p)]


def ideal_masks(p: Poset) -> list[int]:
    out = []
    for m in range(1 << p.n):
        ok = True
        cur = m
        while cur:
            v = (cur & -cur).bit_length() - 1
            cur &= cur - 1
            if p.down[v] & ~m:
                ok = False
                break
        if ok:
            out.append(m)
    return out


def levels(p: Poset) -> tuple[int, ...]:
    """len_P of every element: the number of elements of a longest chain
    that ends at it."""
    len_p = [0] * p.n
    order = sorted(range(p.n), key=lambda v: bin(p.down[v]).count("1"))
    for v in order:
        below = [len_p[u] for u in range(p.n) if u != v and p.leq(u, v)]
        len_p[v] = 1 + max(below, default=0)
    return tuple(len_p)


def is_hierarchical(p: Poset) -> bool:
    """Every element of smaller level is below every element of larger
    level."""
    len_p = levels(p)
    for u in range(p.n):
        for v in range(p.n):
            if len_p[u] + 1 <= len_p[v] and not p.leq(u, v):
                return False
    return True


def dual_poset(p: Poset) -> Poset:
    down = [0] * p.n
    for v in range(p.n):
        for u in range(p.n):
            if p.leq(v, u):
                down[v] |= 1 << u
    return Poset(p.n, tuple(down))


def automorphisms(
    p: Poset,
    labels: Optional[Sequence] = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> list[tuple[int, ...]]:
    """All order automorphisms, optionally also preserving per-element
    labels; backtracking with (len, degree, label) invariant pruning."""
    config.check("aut_cap_n", p.n, "poset size for automorphism enumeration")
    len_p = levels(p)
    updeg = [bin(p.up(v)).count("1") for v in range(p.n)]
    downdeg = [bin(p.down[v]).count("1") for v in range(p.n)]

    def invariant(v: int):
        base = (len_p[v], updeg[v], downdeg[v])
        return base + ((labels[v],) if labels is not None else ())

    inv = [invariant(v) for v in range(p.n)]
    perm: list[int] = [-1] * p.n
    used = [False] * p.n
    out: list[tuple[int, ...]] = []

    def consistent(u: int, image: int) -> bool:
        for v in range(p.n):
            if perm[v] < 0:
                continue
            if p.leq(v, u) != p.leq(perm[v], image):
                return False
            if p.leq(u, v) != p.leq(image, perm[v]):
                return False
        return True

    def backtrack(u: int) -> None:
        if u == p.n:
            out.append(tuple(perm))
            return
        for image in range(p.n):
            if used[image] or inv[image] != inv[u]:
                continue
            if not consistent(u, image):
                continue
            perm[u] = image
            used[image] = True
            backtrack(u + 1)
            perm[u] = -1
            used[image] = False

    backtrack(0)
    return out


def apply_perm(perm: Sequence[int], subset: Iterable[int]) -> frozenset[int]:
    return frozenset(perm[v] for v in subset)


def udp_check(p: Poset, omega, config: RunConfig = DEFAULT_CONFIG):
    """Decide the unique decomposition property for (P, omega).

    omega maps elements to positive rationals.  Returns (True, None) or
    (False, (I, J)) with a violating equal-weight ideal pair.  Ideals are
    bucketed by total weight and tested for coverage by the single orbit of
    the omega-preserving automorphism group.
    """
    config.check("aut_cap_n", p.n, "poset size for the UDP check")
    w = [omega[v] for v in range(p.n)]
    if any(x <= 0 for x in w):
        raise InputError("weights must be strictly positive")
    auts = automorphisms(p, labels=w, config=config)
    buckets: dict = {}
    for i in ideals(p, config=config):
        buckets.setdefault(sum((w[v] for v in i), start=0 * w[0]), []).append(i)
    for same_weight in buckets.values():
        base = same_weight[0]
        orbit = {apply_perm(a, base) for a in auts}
        for other in same_weight[1:]:
            if other not in orbit:
                return False, (base, other)
    return True, None
