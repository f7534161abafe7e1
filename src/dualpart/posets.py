"""Posets on the coordinate set: ideals, levels, hierarchy, duality, the
automorphism group and the unique-decomposition-property check.

Subsets of the ground set are passed around as frozensets; bitmasks are used
internally where enumeration speed matters.
"""

from __future__ import annotations

import dataclasses
from typing import Iterable, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, InputError, RunConfig
from .metrics import _over_masks, _scaled_mask_sums


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
    return [_unmask(m, p.n) for m in ideal_masks(p, config)]


def ideal_masks(p: Poset, config: RunConfig = DEFAULT_CONFIG) -> list[int]:
    """The ideals as bitmasks, in increasing order."""
    config.check("ideal_cap_n", p.n, "poset size for ideal enumeration")
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


def _closure(points: Iterable[int], gens: Sequence[Sequence[int]]) -> set[int]:
    """The least set holding ``points`` that every index permutation in
    ``gens`` maps into itself: a union of orbits of the group they make."""
    seen = set(points)
    stack = list(seen)
    while stack:
        x = stack.pop()
        for g in gens:
            if g[x] not in seen:
                seen.add(g[x])
                stack.append(g[x])
    return seen


def automorphism_group(
    p: Poset,
    labels: Optional[Sequence] = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> tuple[int, list[tuple[int, ...]]]:
    """The order of the group of order automorphisms of p, optionally also
    preserving per-element labels, and generators of it.

    A stabilizer-chain search; it never lists the group.  G_l is the
    subgroup fixing 0..l-1.  Level l, from n-1 down to 0, finds the basic
    orbit of l under G_l: it tries each c with the (level, up-degree,
    down-degree, label) invariant of l as the image of l, with 0..l-1
    fixed, and keeps the first automorphism found by backtracking as a
    generator.  A c already in the closure of l under the generators found
    so far (all in G_l) is skipped; when c fails, so does every image of c
    under them.  The order is the product of the basic-orbit lengths
    (orbit-stabilizer), and the generators generate the group.
    """
    config.check("aut_cap_n", p.n, "poset size for the automorphism-group search")
    n = p.n
    len_p = levels(p)
    up = [p.up(v) for v in range(n)]
    inv = [
        (len_p[v], bin(up[v]).count("1"), bin(p.down[v]).count("1"))
        + ((labels[v],) if labels is not None else ())
        for v in range(n)
    ]
    perm = list(range(n))

    def fits(u: int, c: int) -> bool:
        """Whether u -> c keeps the invariant and every relation to the
        elements 0..u-1 already placed by perm."""
        return inv[c] == inv[u] and all(
            (p.down[u] >> v & 1) == (p.down[c] >> perm[v] & 1)
            and (up[u] >> v & 1) == (up[c] >> perm[v] & 1)
            for v in range(u)
        )

    def extend(u: int, used: int) -> bool:
        """Whether images of u..n-1 outside the mask ``used`` complete
        perm[:u] to an automorphism, which perm then holds."""
        if u == n:
            return True
        for c in range(n):
            if not used >> c & 1 and fits(u, c):
                perm[u] = c
                if extend(u + 1, used | 1 << c):
                    return True
        return False

    gens: list[tuple[int, ...]] = []
    order = 1
    for lvl in reversed(range(n)):
        # perm stays the identity on 0..lvl-1: each level writes only at
        # its own place and above
        orbit = _closure([lvl], gens)
        failed: set[int] = set()
        for c in range(lvl, n):
            if c in orbit or c in failed:
                continue
            perm[lvl] = c
            if fits(lvl, c) and extend(lvl + 1, (1 << lvl) - 1 | 1 << c):
                gens.append(tuple(perm))
                orbit = _closure(orbit, gens)
            else:
                failed |= _closure([c], gens)
        order *= len(orbit)
    return order, gens


def udp_check(p: Poset, omega, config: RunConfig = DEFAULT_CONFIG):
    """Decide the unique decomposition property for (P, omega).

    omega maps elements to positive rationals.  Returns (True, None) or
    (False, (I, J)) with a violating equal-weight ideal pair.  Ideals are
    bucketed by total weight, omega scaled to integers as in ``induce_Q``,
    and each bucket is tested for coverage by the orbit of its first ideal
    under the omega-preserving automorphism group: the closure of that
    ideal under the group's generators.
    """
    config.check("aut_cap_n", p.n, "poset size for the UDP check")
    w = [omega[v] for v in range(p.n)]
    if any(x <= 0 for x in w):
        raise InputError("weights must be strictly positive")
    _, gens = automorphism_group(p, labels=w, config=config)
    masks = ideal_masks(p, config)
    ideal_array = np.array(masks, dtype=np.int64)
    # generator g as a permutation of the ideals, by their places in masks
    moves = [
        np.searchsorted(ideal_array, _over_masks(1 << np.array(g), np.bitwise_or)[ideal_array]).tolist()
        for g in gens
    ]
    buckets: dict = {}
    for i, key in enumerate(_scaled_mask_sums(w)[1][ideal_array].tolist()):
        buckets.setdefault(key, []).append(i)
    for same_weight in buckets.values():
        orbit = _closure(same_weight[:1], moves)
        for other in same_weight[1:]:
            if other not in orbit:
                return False, (_unmask(masks[same_weight[0]], p.n), _unmask(masks[other], p.n))
    return True, None
