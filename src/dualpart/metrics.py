"""Weight functions: poset weights omega and the combinatorial (covering)
weight of every support mask, with the all-k-subsets fast path.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, InputError, RunConfig


@dataclasses.dataclass(frozen=True)
class WeightFunction:
    """omega: Omega -> positive rationals."""

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

    def is_integer_valued(self) -> bool:
        return all(v.denominator == 1 for v in self.values)


def _outer(vectors: Sequence, op=np.add) -> np.ndarray:
    """``op`` folded over one entry of each vector, for every choice of
    entries, in mixed-radix order with the first vector's index most
    significant."""
    out = np.asarray(vectors[0])
    for v in vectors[1:]:
        out = op.outer(out, v).ravel()
    return out


def _over_masks(values, op) -> np.ndarray:
    """Fold values[i] over the bits of every mask U < 2^n: entry 0 is 0 and
    entry U + 2^i is op(entry U, values[i]) for U < 2^i.

    With ``np.add`` over ones this is the popcount, over weights the subset
    sums; with ``np.bitwise_or`` over ``Poset.down`` the ideal closures,
    over ``1 << g`` the image of every mask under the permutation g.
    """
    values = np.asarray(values)
    out = np.zeros(1 << len(values), dtype=values.dtype)
    for i, v in enumerate(values):
        op(out[: 1 << i], v, out=out[1 << i : 2 << i])
    return out


def _scaled_mask_sums(values: Sequence, masks: np.ndarray) -> tuple[int, np.ndarray]:
    """The lcm ``den`` of the denominators of the rationals ``values``, and
    den times the sum of values over the bits of every mask in ``masks``, in
    exact integers (so equal sums stay equal and the order is kept): int64
    below 2^62 in total, Python ints otherwise.  The masks are read a byte
    at a time, through the subset sums of the values of that byte."""
    den = math.lcm(*(v.denominator for v in values))
    scaled = [v.numerator * (den // v.denominator) for v in values]
    dtype = np.int64 if sum(scaled) < 1 << 62 else object
    sums = np.zeros(len(masks), dtype=dtype)
    for lo in range(0, len(scaled), 8):
        table = _over_masks(np.array(scaled[lo : lo + 8], dtype=dtype), np.add)
        sums += table[(masks >> lo & 255).astype(np.intp)]
    return den, sums


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
        if any(isinstance(i, bool) or not isinstance(i, int) for m in self.members for i in m):
            raise InputError("covering members must hold integer coordinates")
        if any(not m or not m <= frozenset(range(self.n)) for m in self.members):
            raise InputError("covering members must be nonempty subsets of Omega")
        union = frozenset().union(*self.members) if self.members else frozenset()
        if union != frozenset(range(self.n)):
            raise InputError("members must cover Omega")

    def mask_weights(self, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
        """Covering weight of every subset of Omega, indexed by its bitmask.

        For P(k) it is ceil(|U| / k).  Otherwise every element lies in a
        member, so w(U) <= |U|; from there w(U) <- min(w(U), 1 + w(U & ~M)),
        once per member M in turn, leaves w(U) at most the least cover of U
        by the members so far (a 0/1 knapsack), so one pass is exact.
        """
        cells = (1 << self.n) * max(1, len(self.members))
        config.check("pair_work_cap", cells, "2^n * members covering-weight cells")
        popcount = _over_masks(np.ones(self.n, dtype=np.int64), np.add)
        if self.pk is not None:
            return -(-popcount // self.pk)
        masks = np.arange(1 << self.n, dtype=np.int64)
        w = popcount
        for m in self.members:
            np.minimum(w, w[masks & ~sum(1 << i for i in m)] + 1, out=w)
        return w


def pk_covering(k: int, n: int) -> Covering:
    """The covering by all k-subsets of range(n).

    The member list is kept logical: ``mask_weights`` uses the exact
    ceiling formula.
    """
    if not 1 <= k <= n:
        raise InputError(f"k = {k} out of range [1, {n}]")
    return Covering(n, (), pk=k)


def covering_from_members(n: int, members: Sequence[Iterable[int]]) -> Covering:
    return Covering(n, tuple(frozenset(m) for m in members))
