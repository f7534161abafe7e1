"""Exact arithmetic substrate.

Cyclotomic integers in canonical power-basis form, the value type of every
character-sum label, and the deterministic primality test that picks the
split prime of the pairwise dual engine and checks the prime of a prime
field.  A ``CycInt`` is a value: it is built, compared and printed, and
carries no ring arithmetic.

deg(Phi_m) is Euler's totient and Phi_m a Moebius product, both read off
the primes of m.  Only the pairwise fold builds Phi_m; a ``CycInt`` is
checked against the totient alone.

No floating point anywhere: equality of character sums must be decidable.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Iterable

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

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycInt)
            and self.m == other.m
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.m, self.coeffs))

    def __repr__(self) -> str:
        return f"CycInt(m={self.m}, {list(self.coeffs)})"

