"""Weight functions: poset weights omega, coverings of the coordinate set
(the combinatorial metric), and the mask folds that weigh supports."""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .config import InputError


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
    significant.  Rows of equal-height matrices fold row by row."""
    out = np.asarray(vectors[0])
    for v in vectors[1:]:
        out = op(out[..., None], v[..., None, :]).reshape(out.shape[:-1] + (-1,))
    return out


def _over_masks(values, op) -> np.ndarray:
    """Fold values[i] over the bits of every mask U < 2^n: entry 0 is 0 and
    entry U + 2^i is op(entry U, values[i]) for U < 2^i.  With ``np.add``
    over weights these are the subset sums; with ``np.bitwise_or`` over
    ``Poset.down`` the ideal closures, over ``1 << g`` the image of every
    mask under the permutation g."""
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
    #: k of the logical P(k, Omega): weight ceil(|U| / k), no member listed
    pk: Optional[int] = None

    def __post_init__(self):
        if self.pk is not None and not self.members:
            return  # logical P(k, Omega); members never materialized
        if any(isinstance(i, bool) or not isinstance(i, int) for m in self.members for i in m):
            raise InputError("covering members must hold integer coordinates")
        if any(not m or not m <= frozenset(range(self.n)) for m in self.members):
            raise InputError("covering members must be nonempty subsets of Omega")
        if frozenset().union(*self.members) != frozenset(range(self.n)):
            raise InputError("members must cover Omega")


def pk_covering(k: int, n: int) -> Covering:
    """The covering by all k-subsets of range(n), kept logical: its weight
    is ceil(|U| / k), and no member is listed.
    """
    if not 1 <= k <= n:
        raise InputError(f"k = {k} out of range [1, {n}]")
    return Covering(n, (), pk=k)


def covering_from_members(n: int, members: Sequence[Iterable[int]]) -> Covering:
    return Covering(n, tuple(frozenset(m) for m in members))
