"""Finite abelian group products, codewords, supports and the pairing.

A group product H = prod_i H_i is given per coordinate as a list of cyclic
orders (structure theorem); elements are mixed-radix residue vectors with a
fixed bijective index encoding (first factor most significant).
"""

from __future__ import annotations

import dataclasses
import math
from functools import reduce
from typing import Iterator, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, InputError, RunConfig
from .exactarith import CycInt


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

    @property
    def factor_orders(self) -> tuple[int, ...]:
        return tuple(d for factors in self.coordinates for d in factors)

    @property
    def factor_coordinate(self) -> tuple[int, ...]:
        return tuple(
            i for i, factors in enumerate(self.coordinates) for _ in factors
        )

    @property
    def h(self) -> tuple[int, ...]:
        """Per-coordinate orders h_i."""
        return tuple(math.prod(factors) for factors in self.coordinates)

    @property
    def exponent(self) -> int:
        """lcm of all cyclic orders (order of the root of unity used)."""
        return reduce(math.lcm, self.factor_orders)

    @property
    def order(self) -> int:
        return math.prod(self.factor_orders)

    # elements ------------------------------------------------------------

    def identity(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.factor_orders))

    def element(self, residues: Sequence[int]) -> "GroupElement":
        return GroupElement(self, tuple(residues))

    def element_from_index(self, index: int) -> "GroupElement":
        if not 0 <= index < self.order:
            raise InputError(f"index {index} out of range")
        res = []
        for d in reversed(self.factor_orders):
            res.append(index % d)
            index //= d
        return GroupElement(self, tuple(reversed(res)))

    def enumerate_elements(
        self, config: RunConfig = DEFAULT_CONFIG
    ) -> Iterator["GroupElement"]:
        """All elements exactly once, in index order."""
        config.check("enumeration_cap", self.order, "|H|")
        for idx in range(self.order):
            yield self.element_from_index(idx)

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


def build_group_product(
    spec: Sequence[Sequence[int]], config: RunConfig = DEFAULT_CONFIG
) -> GroupProduct:
    """Validated GroupProduct from a per-coordinate factor-order spec."""
    try:
        coords = tuple(tuple(int(d) for d in factors) for factors in spec)
    except (TypeError, ValueError):
        raise InputError(
            "group spec must be a list of coordinates, each a list of cyclic orders"
        ) from None
    g = GroupProduct(coords)
    config.check("enumeration_cap", g.order, "|H|")
    return g


@dataclasses.dataclass(frozen=True)
class GroupElement:
    """A codeword: one residue per cyclic factor of its group."""

    group: GroupProduct
    residues: tuple[int, ...]

    def __post_init__(self):
        orders = self.group.factor_orders
        if len(self.residues) != len(orders):
            raise InputError("residue vector has wrong length")
        if any(not 0 <= r < d for r, d in zip(self.residues, orders)):
            raise InputError("residue out of range")

    @property
    def index(self) -> int:
        idx = 0
        for r, d in zip(self.residues, self.group.factor_orders):
            idx = idx * d + r
        return idx

    def is_identity(self) -> bool:
        return all(r == 0 for r in self.residues)

    def support(self) -> frozenset[int]:
        """Coordinates where the element differs from the identity."""
        coord = self.group.factor_coordinate
        return frozenset(coord[f] for f, r in enumerate(self.residues) if r)

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        if self.group != other.group:
            raise InputError("elements from different groups")
        orders = self.group.factor_orders
        return GroupElement(
            self.group,
            tuple((a + b) % d for a, b, d in zip(self.residues, other.residues, orders)),
        )

    def inverse(self) -> "GroupElement":
        orders = self.group.factor_orders
        return GroupElement(
            self.group, tuple((-r) % d for r, d in zip(self.residues, orders))
        )


def support(beta: GroupElement) -> frozenset[int]:
    return beta.support()


def pairing_exponent(alpha: GroupElement, beta: GroupElement) -> int:
    """Exponent e with f(alpha, beta) = zeta_m^e, m the group exponent.

    Per cyclic factor of order d the standard pairing contributes
    zeta_d^(a*b) = zeta_m^((m/d)*a*b).  This is the reference for one
    entry; ``DualityContext`` computes whole rows of the same exponents.
    """
    if alpha.group.coordinates != beta.group.coordinates:
        raise InputError("mismatched group shapes")
    m = alpha.group.exponent
    e = 0
    for a, b, d in zip(alpha.residues, beta.residues, alpha.group.factor_orders):
        e += (m // d) * a * b
    return e % m


def pairing(alpha: GroupElement, beta: GroupElement) -> CycInt:
    """f(alpha, beta) as an exact cyclotomic integer."""
    m = alpha.group.exponent
    return CycInt.root_of_unity(m, pairing_exponent(alpha, beta))
