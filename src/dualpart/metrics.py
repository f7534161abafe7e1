"""Weight functions: weighted poset weight and combinatorial (covering)
weight, with anti-chain canonicalization and the all-k-subsets fast path.
"""

from __future__ import annotations

import dataclasses
from collections import deque
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .config import InputError
from .groups import GroupElement
from .posets import Poset, closure


@dataclasses.dataclass(frozen=True)
class WeightFunction:
    """omega: Omega -> positive rationals, with the additive set extension
    varpi(I) = sum of omega over I."""

    values: tuple[Fraction, ...]

    @classmethod
    def from_mapping(cls, n: int, mapping: Mapping) -> "WeightFunction":
        return cls(tuple(Fraction(mapping[i]) for i in range(n)))

    @classmethod
    def constant(cls, n: int, value=1) -> "WeightFunction":
        return cls((Fraction(value),) * n)

    def __post_init__(self):
        if not self.values or any(v <= 0 for v in self.values):
            raise InputError("weights must be strictly positive rationals")

    @property
    def n(self) -> int:
        return len(self.values)

    def __getitem__(self, i: int) -> Fraction:
        return self.values[i]

    def varpi(self, subset: Iterable[int]) -> Fraction:
        return sum((self.values[i] for i in subset), start=Fraction(0))

    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for v in self.values)


def wpm_weight(p: Poset, omega: WeightFunction, beta: GroupElement) -> Fraction:
    """The (P, omega)-weight: varpi of the ideal closure of the support."""
    return omega.varpi(closure(p, beta.support()))


@dataclasses.dataclass(frozen=True)
class Covering:
    """A covering of Omega = range(n) by nonempty subsets."""

    n: int
    members: tuple[frozenset[int], ...]
    #: logical P(k, Omega) coverings carry k for the ceiling fast path
    pk: Optional[int] = None

    def __post_init__(self):
        if self.pk is not None and not self.members:
            return  # logical P(k, Omega); members never materialized
        if any(not m or not m <= frozenset(range(self.n)) for m in self.members):
            raise InputError("covering members must be nonempty subsets of Omega")
        union = frozenset().union(*self.members) if self.members else frozenset()
        if union != frozenset(range(self.n)):
            raise InputError("members must cover Omega")

    def is_antichain(self) -> bool:
        if self.pk is not None and not self.members:
            return True
        return not any(
            a < b for a in self.members for b in self.members if a != b
        )

    def is_partition(self) -> bool:
        if self.pk is not None and not self.members:
            return self.pk == self.n or self.pk == 1
        return (
            sum(len(m) for m in self.members) == self.n and self.is_antichain()
        )

    def weight(self, subset: Iterable[int]) -> int:
        """Covering weight of a subset (ceiling fast path for P(k))."""
        a = frozenset(subset)
        if self.pk is not None:
            return -(-len(a) // self.pk)
        return covering_weight(self, a)


def covering_weight(t: Covering, subset: Iterable[int]) -> int:
    """Exact minimum number of members needed to cover the subset.

    Breadth-first search over covered-portion bitmasks; each member
    contributes only its intersection with the target set.
    """
    if t.pk is not None and not t.members:
        raise InputError("logical P(k) covering has no materialized members")
    target = 0
    for i in subset:
        target |= 1 << i
    if target == 0:
        return 0
    moves = []
    for m in t.members:
        mask = 0
        for i in m:
            mask |= 1 << i
        mask &= target
        if mask:
            moves.append(mask)
    seen = {0}
    frontier = deque([(0, 0)])
    while frontier:
        covered, steps = frontier.popleft()
        for mv in moves:
            nxt = covered | mv
            if nxt == target:
                return steps + 1
            if nxt not in seen:
                seen.add(nxt)
                frontier.append((nxt, steps + 1))
    raise InputError("subset is not coverable (covering invariant violated)")


def antichain_reduce(t: Covering) -> Covering:
    """Keep only the maximal members; the weight function is unchanged."""
    maximal = tuple(
        m for m in t.members if not any(m < other for other in t.members)
    )
    # deduplicate while preserving order
    seen: set[frozenset[int]] = set()
    out = []
    for m in maximal:
        if m not in seen:
            seen.add(m)
            out.append(m)
    return Covering(t.n, tuple(out), pk=t.pk)


def pk_covering(k: int, n: int) -> Covering:
    """The covering by all k-subsets of range(n).

    The member list is kept logical: weight uses the exact ceiling formula.
    """
    if not 1 <= k <= n:
        raise InputError(f"k = {k} out of range [1, {n}]")
    return Covering(n, (), pk=k)


def covering_from_members(n: int, members: Sequence[Iterable[int]]) -> Covering:
    return Covering(n, tuple(frozenset(m) for m in members))
