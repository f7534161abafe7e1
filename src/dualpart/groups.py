"""Finite abelian group products.

A group product H = prod_i H_i is given per coordinate as a list of cyclic
orders (structure theorem); elements are mixed-radix residue vectors with a
fixed bijective index encoding (first factor most significant), listed in
index order by ``GroupProduct.residue_matrix``.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from functools import reduce
from typing import Sequence

import numpy as np

from .config import DEFAULT_CONFIG, InputError, RunConfig


@dataclasses.dataclass(frozen=True)
class GroupProduct:
    """The ambient group prod_i H_i with H_i a product of cyclic factors."""

    coordinates: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.coordinates:
            raise InputError("group product needs at least one coordinate")
        for factors in self.coordinates:
            if not factors or any(d < 2 for d in factors):
                raise InputError("every cyclic order must be >= 2")

    # derived structure --------------------------------------------------

    @property
    def n(self) -> int:
        """Number of coordinates |Omega|."""
        return len(self.coordinates)

    @functools.cached_property
    def factor_orders(self) -> tuple[int, ...]:
        return tuple(d for factors in self.coordinates for d in factors)

    @functools.cached_property
    def h(self) -> tuple[int, ...]:
        """Per-coordinate orders h_i."""
        return tuple(math.prod(factors) for factors in self.coordinates)

    @functools.cached_property
    def exponent(self) -> int:
        """lcm of all cyclic orders (order of the root of unity used)."""
        return reduce(math.lcm, self.factor_orders)

    @functools.cached_property
    def order(self) -> int:
        return math.prod(self.factor_orders)

    def residue_matrix(self, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
        """|H| x F matrix of residues in index order."""
        config.check("enumeration_cap", self.order, "|H| to materialize")
        orders = self.factor_orders
        total = self.order
        mat = np.empty((total, len(orders)), dtype=np.int64)
        rep = total
        for f, d in enumerate(orders):
            rep //= d
            col = np.repeat(np.tile(np.arange(d), total // (d * rep)), rep)
            mat[:, f] = col
        return mat


def build_group_product(spec: Sequence[Sequence[int]]) -> GroupProduct:
    """Validated GroupProduct from a per-coordinate factor-order spec, whose
    orders must be ints that are not bools: a float or a string is refused,
    not read.  Its order is checked where its elements are listed."""
    try:
        coords = tuple(tuple(factors) for factors in spec)
    except TypeError:
        raise InputError(
            "group spec must be a list of coordinates, each a list of cyclic orders"
        ) from None
    for d in (d for factors in coords for d in factors):
        if isinstance(d, bool) or not isinstance(d, int):
            raise InputError(f"every cyclic order must be an integer, got {d!r}")
    return GroupProduct(coords)
