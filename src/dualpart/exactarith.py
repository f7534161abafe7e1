"""Exact arithmetic substrate.

Cyclotomic integers in canonical power-basis form, the value type of every
character sum, and the deterministic primality test that picks the split
prime of the pairwise dual engine and checks the prime of a prime field.

No floating point anywhere: equality of character sums must be decidable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Optional

from .config import InputError


# ---------------------------------------------------------------------------
# dense integer polynomials (constant term first), internal helpers
# ---------------------------------------------------------------------------

def _poly_div_exact(num: list[int], den: list[int]) -> list[int]:
    """Exact division of integer polynomials; den must divide num and be monic
    up to +-1 leading coefficient."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    lead = den[-1]
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        if c % lead:
            raise ArithmeticError("non-exact polynomial division")
        q[i] = c // lead
        if q[i]:
            for j, d in enumerate(den):
                num[i + j] -= q[i] * d
    if any(num):
        raise ArithmeticError("non-exact polynomial division")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_coeffs(m: int) -> tuple[int, ...]:
    """Integer coefficients of the m-th cyclotomic polynomial, constant first.

    Computed by exact division of x^m - 1 by the product of Phi_d over proper
    divisors d of m.
    """
    if m < 1:
        raise InputError("cyclotomic polynomial needs m >= 1")
    num = [0] * (m + 1)
    num[0], num[m] = -1, 1
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = _cyclotomic_coeffs(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
            den = new
    return tuple(_poly_div_exact(num, den))


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


def euler_phi_degree(m: int) -> int:
    """deg(Phi_m), i.e. Euler's totient for m >= 2, and 1 for m = 1."""
    return len(_cyclotomic_coeffs(m)) - 1


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
