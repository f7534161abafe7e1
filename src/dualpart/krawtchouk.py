"""Exact Krawtchouk polynomials and the covering non-reflexivity criteria.

Coefficients are exact rationals; integer-argument values are exact integers,
taken from the three-term recurrence (``ku_values``).
The criteria chain tries the closed-form families first and ends at the
distinct-value count of KU_(n-1,s), read from one recurrence table of the
values per n (``ku_value_table``); it isolates no root.  Root isolation
serves ``ku_roots`` only: the polynomials P_0 ... P_k of the three-term
recurrence form a Sturm sequence, so their sign changes at a rational point
count the roots below it exactly; dyadic cells of [0, n] are split until
each holds one root, which is then closed in on the final dyadic grid by
Newton steps from exact values and slopes of the same recurrence, rounded
to the grid and kept inside the bracket by exact signs, with bisection as
the fallback; all in integers.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Sequence

from .config import DEFAULT_CONFIG, InputError, RunConfig


# ---------------------------------------------------------------------------
# construction and evaluation
# ---------------------------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class KrawtchoukPoly:
    n: int
    k: int
    q: int
    coeffs: tuple[Fraction, ...]  # ascending, degree exactly k

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, s) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * s + c
        return acc


def _check_cap(n: int, k: int, config: RunConfig) -> None:
    config.check("krawtchouk_cap_n", n, "Krawtchouk n")
    config.check("krawtchouk_cap_n", k, "Krawtchouk k")


def ku_build(n: int, k: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> KrawtchoukPoly:
    """Expanded exact coefficients of
    sum_t (-1)^t (q-1)^(k-t) C(x,t) C(n-x,k-t).

    The integer polynomials P_j = j! K_j obey the three-term recurrence
    P_(j+1) = (j + (q-1)(n-j) - qx) P_j - j(q-1)(n-j+1) P_(j-1), which
    costs O(k^2) integer operations; K_k = P_k / k!.  n and k are checked
    against ``krawtchouk_cap_n`` first."""
    if n < 0 or k < 0 or q < 2:
        raise InputError("need n,k >= 0 and q >= 2")
    _check_cap(n, k, config)
    prev, cur = [], [1]
    for j in range(k):
        a = j + (q - 1) * (n - j)
        b = j * (q - 1) * (n - j + 1)
        nxt = [0] * (j + 2)
        for i, c in enumerate(cur):
            nxt[i] += a * c
            nxt[i + 1] -= q * c
        for i, c in enumerate(prev):
            nxt[i] -= b * c
        prev, cur = cur, nxt
    k_fact = math.factorial(k)
    return KrawtchoukPoly(n, k, q, tuple(Fraction(c, k_fact) for c in cur))


def _chain(n: int, k: int, q: int, num: int, den: int) -> tuple[int, int]:
    """At x = num/den (den > 0): the sign changes V of P_0 ... P_k, zeros
    skipped, and P_k(x) * den^k, with P_j = j! K_j from the recurrence of
    ``ku_build`` scaled by den^j.  P_0 ... P_k is a Sturm sequence (each
    b_j > 0 and P_j leads with (-q)^j), so V counts the roots of K_k
    strictly below x."""
    den2, qx = den * den, q * num
    prev, cur = 0, 1
    changes, positive = 0, True
    for j in range(k):
        a = j + (q - 1) * (n - j)
        b = j * (q - 1) * (n - j + 1)
        prev, cur = cur, (a * den - qx) * cur - b * den2 * prev
        if cur and (cur > 0) != positive:
            changes, positive = changes + 1, not positive
    return changes, cur


def _value_and_slope(steps: Sequence[tuple[int, int]], q: int, num: int, den: int) -> tuple[int, int]:
    """At x = num/den (den > 0): P_k(x) * den^k and P_k'(x) * den^(k-1), in
    one pass of the recurrence of ``_chain`` and of its derivative
    P'_(j+1) = (a - qx) P'_j - q P_j - b P'_(j-1), scaled alike; ``steps``
    holds the (a, b) of j = 0 .. k-1."""
    den2, qx = den * den, q * num
    prev, cur = 0, 1
    dprev, dcur = 0, 0
    for a, b in steps:
        c = a * den - qx
        b *= den2
        prev, cur, dprev, dcur = cur, c * cur - b * prev, dcur, c * dcur - q * cur - b * dprev
    return cur, dcur


def ku_values(n: int, k: int, q: int) -> list[int]:
    """The values K_k(s) at the integers s = 0..n: P_k(s) / k! from the
    recurrence of ``_chain`` at x = s, where the division is exact."""
    k_fact = math.factorial(k)
    return [_chain(n, k, q, s, 1)[1] // k_fact for s in range(n + 1)]


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def ku_roots(
    n: int,
    k: int,
    q: int,
    width: Fraction = Fraction(1, 10**9),
    config: RunConfig = DEFAULT_CONFIG,
) -> list[tuple[Fraction, Fraction]]:
    """The k distinct real roots in (0, n), ascending: a root x met exactly
    as (x, x), any other as a dyadic cell [n*i/D, n*(i+1)/D] that holds it,
    on the first grid D = 2k * 2^j of cells with n/D <= width (or on a finer
    one where the roots crowd).

    Cells start at d = 2k.  The Sturm chain of the recurrence (``_chain``)
    counts the roots inside each cell; a cell with two or more, or with one
    and a root at both ends, is split at its midpoint.  A cell with one root
    is refined on the grid D by exact Newton steps: one pass of the
    recurrence (``_value_and_slope``) gives P_k and P_k' at a grid point,
    taken as a reduced fraction so that coarse points stay cheap; the next
    point is the floor, in grid steps, of the Newton iterate from the point
    evaluated so far with the smallest step, clamped into the open bracket,
    and the sign of P_k moves one end of the bracket.  The first point is
    the midpoint, and after two points in a row that halve neither the
    bracket nor the smallest step the next one is the midpoint too.  A root
    on the grid is never strictly inside a bracket one grid step wide, so it
    is met exactly; any other ends in the one grid cell that holds it, as
    bisection would find it.  Integers throughout; Fractions are built only
    for the output.  n and k are checked against ``krawtchouk_cap_n``
    first."""
    if not 1 <= k <= n or q < 2:
        raise InputError("need 1 <= k <= n and q >= 2")
    _check_cap(n, k, config)
    if width <= 0:
        raise InputError(f"root width must be positive, got {width}")
    if k == 1:
        root = Fraction((q - 1) * n, q)
        return [(root, root)]
    wn, wd = Fraction(width).as_integer_ratio()
    steps = [(j + (q - 1) * (n - j), j * (q - 1) * (n - j + 1)) for j in range(k)]
    out: list[tuple[Fraction, Fraction]] = []

    def at(i: int, d: int) -> tuple[int, int]:
        changes, value = _chain(n, k, q, n * i, d)
        return changes, (value > 0) - (value < 0)

    def exact(i: int, d: int) -> None:
        x = Fraction(n * i, d)
        out.append((x, x))

    def cell(i: int, d: int, lo: tuple[int, int], hi: tuple[int, int]) -> None:
        inside = hi[0] - lo[0] - (lo[1] == 0)
        if inside == 0:
            return
        if inside > 1 or lo[1] == hi[1] == 0:
            mid = at(2 * i + 1, 2 * d)
            cell(2 * i, 2 * d, lo, mid)
            if mid[1] == 0:
                exact(2 * i + 1, 2 * d)
            cell(2 * i + 1, 2 * d, mid, hi)
            return
        ref = hi[1] or -lo[1]  # the sign of K_k between the root and hi
        shift = 0
        while n * wd > wn * (d << shift):  # n/D > width at D = d * 2^shift
            shift += 1
        grid, base = d << shift, i << shift
        # the root lies strictly between base + left and base + right on the grid
        left, right = 0, 1 << shift
        x, best, fails = right >> 1, None, 0  # best: (|step|, iterate)
        while right - left > 1:
            num = n * (base + x)
            g = math.gcd(num, grid)
            value, slope = _value_and_slope(steps, q, num // g, grid // g)
            if value == 0:
                exact(base + x, grid)
                return
            before = right - left
            if (value > 0) == (ref > 0):
                right = x
            else:
                left = x
            progress = 2 * (right - left) <= before  # the bracket halved
            if slope:
                # the Newton step -P/P' in grid steps: -value * g / (slope * n)
                step = (-value * g) // (slope * n)
                if best is None or abs(step) <= best[0]:
                    # a step under half the smallest before it is progress too
                    progress |= best is None or 2 * abs(step) < best[0]
                    best = (abs(step), x + step)
            fails = 0 if progress else fails + 1
            if best is None or fails == 2:
                x, fails = (left + right) >> 1, 0
            else:
                x = min(max(best[1], left + 1), right - 1)
        out.append((Fraction(n * (base + left), grid), Fraction(n * (base + right), grid)))

    d = 2 * k
    ends = [at(i, d) for i in range(d + 1)]
    for i in range(d):
        if ends[i][1] == 0:
            exact(i, d)
        cell(i, d, ends[i], ends[i + 1])
    return out


# ---------------------------------------------------------------------------
# value vectors and distinct-value bounds
# ---------------------------------------------------------------------------

def ku_value_table(n: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> list[list[int]]:
    """Rows s = 0..n-1 of the values KU_(n-1,s)(j) at j = 0..n-1.

    Each column j follows the three-term recurrence in s, with N = n - 1:
    (s+1) K_(s+1)(j) = (s + (q-1)(N-s) - qj) K_s(j) - (q-1)(N-s+1) K_(s-1)(j),
    from K_0 = 1; the division is exact.  O(n^2) integer operations for
    all n rows, on integers that grow with n; n is checked against
    ``krawtchouk_cap_n`` first.
    """
    config.check("krawtchouk_cap_n", n, "Krawtchouk n")
    if n < 1 or q < 2:
        raise InputError("need n >= 1 and q >= 2")
    top = n - 1
    prev, cur = [0] * n, [1] * n
    table = [cur]
    for s in range(top):
        a = s + (q - 1) * (top - s)
        b = (q - 1) * (top - s + 1)
        prev, cur = cur, [
            ((a - q * j) * c - b * p) // (s + 1) for j, (c, p) in enumerate(zip(cur, prev))
        ]
        table.append(cur)
    return table


def ku_distinct_counts(n: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> list[int]:
    """Entry s: how many distinct values KU_(n-1,s) takes on 0..n-1, for
    s in 0..n-1.  Every k of an n reads the entries at its multiples."""
    return [len(set(row)) for row in ku_value_table(n, q, config)]


def dual_class_lower_bound(n: int, k: int, q: int, distinct: Sequence[int] | None = None) -> int:
    """|Lambda| >= max_s |{KU_(n-1,s)(j)}| + 1 over multiples s of k.

    ``distinct`` is ``ku_distinct_counts(n, q)``, built here when not
    given."""
    if distinct is None:
        distinct = ku_distinct_counts(n, q)
    # with no multiple of k below n, only the identity singleton is known
    return max((distinct[s] + 1 for s in range(k, n, k)), default=1)


# ---------------------------------------------------------------------------
# closed-form threshold machinery
# ---------------------------------------------------------------------------

def thm42_threshold(q: int, clause: str, n: int) -> bool:
    """Decide n >= (A + sqrt(B)) / (2(2q-3)^2) + 3 exactly, by isolating the
    radical and comparing squares."""
    if q < 2:
        raise InputError("q >= 2 required")
    if clause == "3.1":
        a = 9 * (q - 1)
        b = 48 * q**4 - 144 * q**3 + 189 * q**2 - 162 * q + 81
    elif clause == "3.3":
        a = 4 * q**2 + 3 * q - 9
        b = 48 * q**4 - 72 * q**3 + 9 * q**2 - 54 * q + 81
    else:
        raise InputError("clause must be '3.1' or '3.3'")
    c = 2 * (2 * q - 3) ** 2
    lhs = c * (n - 3) - a
    return lhs >= 0 and lhs * lhs >= b


# ---------------------------------------------------------------------------
# the criteria chain
# ---------------------------------------------------------------------------

def co_nonreflexivity_verdict(
    n: int, k: int, q: int, distinct: Sequence[int] | None = None
) -> dict:
    """Sufficient-criteria verdict for the all-k-subsets covering partition
    of a q^n product: reflexive, non-reflexive, or undecided-by-criteria.

    The criteria are tried in a fixed order and the first that fires is
    reported; they are sufficient conditions, so 'undecided' only means none
    applies (the caller may fall back to brute force).  ``distinct`` is
    ``ku_distinct_counts(n, q)``, built here when not given and needed.
    """
    if not 1 <= k <= n or q < 2:
        raise InputError("need 1 <= k <= n and q >= 2")
    co_classes = -(-n // k) + 1
    base = {"q": q, "n": n, "k": k, "co_classes": co_classes}

    def verdict(v: str, criterion: str, **extra) -> dict:
        return {**base, "verdict": v, "criterion": criterion, **extra}

    # reflexive sufficient conditions
    if k == n or k == 1:
        return verdict("reflexive", "partition-covering-equal-products")
    if q == 2 and n >= 2 and k in (2, n - 1):
        return verdict("reflexive", "q2-small-or-cosmall-k")
    # non-reflexive sufficient conditions, fixed-parameter families first
    if q >= 3 and n >= 3 and 2 <= k <= n - 1 and n % k == 1:
        return verdict("non-reflexive", "hamming-collapse-n-equiv-1-mod-k")
    if q >= 3 and n >= 4 and k == n - 2:
        return verdict("non-reflexive", "q-ge-3-k-n-minus-2")
    if q == 2 and n >= 5 and -(-n // 2) <= k <= n - 2:
        return verdict("non-reflexive", "q2-upper-half-k")
    if q == 2 and n >= 7 and k % 2 == 1 and -(-n // 5) <= k <= n - 2:
        return verdict("non-reflexive", "q2-odd-fifth-range-k")
    if q >= 3 and n >= 3 and k == 2:
        return verdict("non-reflexive", "k2-derivative-root")
    if k == 3:
        if n % 3 == 0 and thm42_threshold(q, "3.1", n):
            return verdict("non-reflexive", "k3-threshold-3.1")
        if n % 3 == 2 and thm42_threshold(q, "3.3", n):
            return verdict("non-reflexive", "k3-threshold-3.3")
        if q == 2 and n >= 5:
            return verdict("non-reflexive", "q2-k3")
    # generic Krawtchouk criterion.  K = KU_(n-1,s) strictly decreases on
    # [0, r1'], r1' its smallest derivative root, and r1 <= r1' < n-1 for
    # its smallest root r1, so the distinct-value count minus one is at
    # least floor(r1') >= floor(r1): it fires wherever the smallest-root
    # and derivative-root floor criteria would.
    if distinct is None:
        distinct = ku_distinct_counts(n, q)
    need = Fraction(n, k)
    for s in range(k, n, k):
        if distinct[s] - 1 >= need:
            return verdict(
                "non-reflexive",
                "distinct-value-count",
                s=s,
                lambda_lower_bound=distinct[s] + 1,
            )
    return verdict("undecided-by-criteria", "none")
