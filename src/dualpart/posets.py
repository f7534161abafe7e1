"""Posets on the coordinate set: ideals, levels, hierarchy, duality, the
automorphism group and the unique-decomposition-property check, and the
stabilizer-chain search that ``macwilliams`` shares for its invariance
subgroup.

Subsets of the ground set are passed around as frozensets; bitmasks are used
internally where enumeration speed matters.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, InputError, RunConfig
from .metrics import _over_masks, _scaled_mask_sums


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


def ideal_masks(p: Poset, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The ideals as bitmasks, in increasing order: the masks that are
    their own down-closure, the union of their ``down[v]``."""
    config.check("ideal_cap_n", p.n, "poset size for ideal enumeration")
    closures = _over_masks(np.array(p.down, dtype=np.int64), np.bitwise_or)
    return np.flatnonzero(closures == np.arange(1 << p.n))


def _is_swap_automorphism(p: Poset, i: int, j: int) -> bool:
    """Whether the transposition (i j) is an order automorphism of p: it
    maps down[v] onto down of the image of v, for every v."""
    flip = 1 << i | 1 << j
    image = {i: j, j: i}
    return all(
        (d ^ flip if (d >> i ^ d >> j) & 1 else d) == p.down[image.get(v, v)]
        for v, d in enumerate(p.down)
    )


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


def _stabilizer_chain(
    bases: Sequence[int],
    candidates: Sequence[Iterable[int]],
    image: Callable[[int, int], Optional[Sequence[int]]],
) -> tuple[int, list]:
    """The order of a permutation group G and generators of it, down its
    stabilizer chain (Sims's method); G is never listed.

    G_l fixes bases[0..l-1].  Level l, last to first, finds the orbit of
    bases[l] under G_l among ``candidates[l]``: ``image(l, c)`` is a map of
    G_l sending bases[l] to c, or None.  A c in the closure of bases[l]
    under the generators so far (all in G_l) is skipped; a map found is
    kept as a generator, and when c fails, so does its closure.  The order
    is the product of the orbit lengths (orbit-stabilizer), and the orbits
    of G are the closures under the generators."""
    gens: list[Sequence[int]] = []
    order = 1
    for lvl in reversed(range(len(bases))):
        orbit = _closure([bases[lvl]], gens)
        failed: set[int] = set()
        for c in candidates[lvl]:
            if c in orbit or c in failed:
                continue
            g = image(lvl, c)
            if g is None:
                failed |= _closure([c], gens)
            else:
                gens.append(g)
                orbit = _closure(orbit, gens)
        order *= len(orbit)
    return order, gens


def automorphism_group(
    p: Poset,
    labels: Optional[Sequence] = None,
    config: RunConfig = DEFAULT_CONFIG,
) -> tuple[int, list[tuple[int, ...]]]:
    """The order of the group of order automorphisms of p, optionally also
    preserving per-element labels, and generators of it.

    A stabilizer chain (``_stabilizer_chain``) on the elements 0..n-1: the
    image of l, with 0..l-1 fixed, is tried at each c with the (level,
    up-degree, down-degree, label) invariant of l, and backtracking
    completes it to an automorphism.
    """
    config.check("aut_cap_n", p.n, "poset size for the automorphism-group search")
    n = p.n
    len_p = levels(p)
    up = dual_poset(p).down  # up[v]: the bitmask of elements >= v
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

    def image(lvl: int, c: int) -> Optional[tuple[int, ...]]:
        # perm stays the identity on 0..lvl-1: each level writes only at
        # its own place and above
        perm[lvl] = c
        if fits(lvl, c) and extend(lvl + 1, (1 << lvl) - 1 | 1 << c):
            return tuple(perm)
        return None

    return _stabilizer_chain(range(n), [range(lvl, n) for lvl in range(n)], image)


def udp_check(p: Poset, omega, gens: Sequence[Sequence[int]], config: RunConfig = DEFAULT_CONFIG):
    """Decide the unique decomposition property for (P, omega).

    omega maps elements to positive rationals, and ``gens`` generate the
    omega-preserving automorphism group (``automorphism_group(p, omega)``).
    Returns (True, None) or (False, (I, J)) with a violating equal-weight
    ideal pair.  Ideals are bucketed by total weight, omega scaled to
    integers as in ``induce_Q``, and each bucket is tested for coverage by
    the orbit of its first ideal under the group: the closure of that ideal
    under ``gens``.
    """
    config.check("aut_cap_n", p.n, "poset size for the UDP check")
    w = [omega[v] for v in range(p.n)]
    if any(x <= 0 for x in w):
        raise InputError("weights must be strictly positive")
    masks = ideal_masks(p, config)
    # generator g as a permutation of the ideals, by their places in masks
    moves = [
        np.searchsorted(masks, _over_masks(1 << np.array(g), np.bitwise_or)[masks]).tolist()
        for g in gens
    ]
    buckets: dict = {}
    for i, key in enumerate(_scaled_mask_sums(w, masks)[1].tolist()):
        buckets.setdefault(key, []).append(i)
    for same_weight in buckets.values():
        orbit = _closure(same_weight[:1], moves)
        for other in same_weight[1:]:
            if other not in orbit:
                return False, (_unmask(masks[same_weight[0]], p.n), _unmask(masks[other], p.n))
    return True, None
