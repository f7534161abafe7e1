"""Exact arithmetic substrate.

Cyclotomic integers in canonical power-basis form, the value type of every
character sum, and the deterministic primality test that picks the split
prime of the pairwise dual engine and checks the prime of a prime field.

deg(Phi_m) is Euler's totient and Phi_m a Moebius product, both read off
the primes of m.  Only the pairwise engine and ``CycInt`` arithmetic build
Phi_m; a ``CycInt`` is checked against the totient alone.

No floating point anywhere: equality of character sums must be decidable.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable, Optional

from .config import InputError


# ---------------------------------------------------------------------------
# the primes of m, phi(m) and Phi_m by closed formula
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _prime_factors(m: int) -> tuple[int, ...]:
    """The distinct primes of m >= 1 in increasing order, by trial division."""
    primes, q = [], 2
    while q * q <= m:
        if m % q == 0:
            primes.append(q)
            while m % q == 0:
                m //= q
        q += 1 + (q > 2)
    return tuple(primes + [m] if m > 1 else primes)


@lru_cache(maxsize=None)
def euler_phi_degree(m: int) -> int:
    """deg(Phi_m): Euler's totient m * prod(1 - 1/q) over the primes q of
    m, which is 1 for m = 1 as deg(x - 1) is."""
    if m < 1:
        raise InputError("cyclotomic polynomial needs m >= 1")
    phi = m
    for q in _prime_factors(m):
        phi = phi // q * (q - 1)
    return phi


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant first.

    For m >= 2, Phi_m is the product of (1 - x^(m/e))^mu(e) over the
    squarefree divisors e of m, as a power series cut at degree phi(m), one
    strided pass per factor: a product with 1 - x^d takes from each
    coefficient the one d places lower, a quotient by it is a running sum
    along each residue class mod d, and d > phi(m) changes nothing.
    """
    phi = euler_phi_degree(m)
    if m == 1:
        return (-1, 1)
    coeffs = [1] + [0] * phi
    primes = _prime_factors(m)
    for r in range(len(primes) + 1):
        for chosen in itertools.combinations(primes, r):
            d = m // math.prod(chosen)
            if d > phi:
                continue
            if r % 2 == 0:
                coeffs[d:] = [a - b for a, b in zip(coeffs[d:], coeffs)]
            else:
                for s in range(d):
                    coeffs[s::d] = itertools.accumulate(coeffs[s::d])
    return tuple(coeffs)


@lru_cache(maxsize=None)
def _reduction_rows(m: int) -> tuple[tuple[int, ...], ...]:
    """Row e (0 <= e < m) holds the power-basis coordinates of x^e mod Phi_m."""
    phi = _cyclotomic_coeffs(m)
    d = len(phi) - 1
    rows: list[tuple[int, ...]] = []
    for e in range(m):
        if e < d:
            row = [0] * d
            row[e] = 1
        else:
            # multiply previous row by x and reduce the overflow term
            prev = rows[-1]
            row = [0] + list(prev[:-1])
            top = prev[-1]
            if top:
                for j in range(d):
                    row[j] -= top * phi[j]
        rows.append(tuple(row))
    return tuple(rows)


# Miller-Rabin to the first 13 prime bases is exact below psi_13
# (Sorenson and Webster, 2017); a verdict must stay exact, so larger p is
# refused
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI_13 = 3_317_044_064_679_887_385_961_981


def _is_prime(p: int) -> bool:
    """Deterministic Miller-Rabin; InputError for p >= psi_13."""
    if p >= _PSI_13:
        raise InputError(f"primality of {p} is not decided exactly at or above {_PSI_13}")
    if p < 2 or any(p % b == 0 for b in _MR_BASES):
        return p in _MR_BASES
    d, r = p - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in _MR_BASES:
        x = pow(b, d, p)
        if x == 1:
            continue
        # p passes base b when one of x, x^2, ..., x^(2^(r-1)) is -1
        for _ in range(r):
            if x == p - 1:
                break
            x = x * x % p
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# cyclotomic integers
# ---------------------------------------------------------------------------

class CycInt:
    """An element of Z[zeta_m] in canonical power-basis coordinates.

    Two values with the same modulus are equal iff their coordinate tuples
    are identical.  Instances are immutable and hashable.
    """

    __slots__ = ("m", "coeffs")

    def __init__(self, m: int, coeffs: Iterable[int]):
        coeffs = tuple(int(c) for c in coeffs)
        if len(coeffs) != euler_phi_degree(m):
            raise InputError(
                f"CycInt modulus {m} needs {euler_phi_degree(m)} coordinates, "
                f"got {len(coeffs)}"
            )
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, *a):  # pragma: no cover
        raise AttributeError("CycInt is immutable")

    # construction -----------------------------------------------------

    @classmethod
    def from_int(cls, n: int, m: int = 1) -> "CycInt":
        c = [0] * euler_phi_degree(m)
        c[0] = n
        return cls(m, c)

    @classmethod
    def root_of_unity(cls, m: int, e: int) -> "CycInt":
        return cls(m, _reduction_rows(m)[e % m])

    @classmethod
    def from_exponent_counts(cls, m: int, counts: Iterable[int]) -> "CycInt":
        """Sum of counts[e] copies of zeta_m^e, reduced to canonical form."""
        rows = _reduction_rows(m)
        d = euler_phi_degree(m)
        acc = [0] * d
        for e, cnt in enumerate(counts):
            if cnt:
                row = rows[e % m]
                for j in range(d):
                    acc[j] += cnt * row[j]
        return cls(m, acc)

    # ring structure ----------------------------------------------------

    def _check(self, other: "CycInt") -> None:
        if self.m != other.m:
            raise InputError(
                f"modulus mismatch ({self.m} vs {other.m})"
            )

    def __add__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.m, (a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CycInt") -> "CycInt":
        self._check(other)
        return CycInt(self.m, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "CycInt":
        return CycInt(self.m, (-a for a in self.coeffs))

    def __mul__(self, other) -> "CycInt":
        if isinstance(other, int):
            return CycInt(self.m, (a * other for a in self.coeffs))
        self._check(other)
        n = len(self.coeffs)
        prod = [0] * (2 * n - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    if b:
                        prod[i + j] += a * b
        # zeta^e = zeta^(e mod m), and row e of the reduction is zeta^e
        return CycInt.from_exponent_counts(self.m, prod)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycInt)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.m, self.coeffs))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def as_int(self) -> Optional[int]:
        """The rational integer this value equals, or None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def __repr__(self) -> str:
        return f"CycInt(m={self.m}, {list(self.coeffs)})"


def root_of_unity_sum(m: int, exponents: Iterable[int]) -> CycInt:
    """Sum of zeta_m^e over a multiset of exponents, in canonical form."""
    counts = [0] * m
    for e in exponents:
        counts[e % m] += 1
    return CycInt.from_exponent_counts(m, counts)
