"""Exact Krawtchouk polynomials and the covering non-reflexivity criteria.

One three-term recurrence (``_steps``) gives the exact rational
coefficients (``ku_build``), the exact integer values at 0..n (``ku_rows``,
read by ``ku_values`` and by the criteria's value table) and the values and
slopes at grid points (``_value_and_slope``).  The criteria chain tries the
closed-form families first and ends at the distinct-value count of
KU_(n-1,s); it isolates no root.  ``ku_roots`` places each root of K_k by
the signs of its values at the integers, then closes in on it by exact
Newton steps on a dyadic grid, with bisection as the fallback.
"""

from __future__ import annotations

import collections
import dataclasses
import math
from fractions import Fraction
from typing import Iterator, Sequence

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


def _steps(n: int, k: int, q: int) -> list[tuple[int, int]]:
    """The (a_j, c_j), j = 0 .. k-1, of (j+1) K_(j+1) = (a_j - qx) K_j -
    c_j K_(j-1) from K_0 = 1 and K_(-1) = 0: a_j = j + (q-1)(n-j) and
    c_j = (q-1)(n-j+1).  On P_j = j! K_j it reads
    P_(j+1) = (a_j - qx) P_j - j c_j P_(j-1)."""
    return [(j + (q - 1) * (n - j), (q - 1) * (n - j + 1)) for j in range(k)]


def ku_build(n: int, k: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> KrawtchoukPoly:
    """Expanded exact coefficients of
    sum_t (-1)^t (q-1)^(k-t) C(x,t) C(n-x,k-t).

    P_k by the recurrence of ``_steps`` on integer coefficient lists, which
    costs O(k^2) integer operations; K_k = P_k / k!.  n and k are checked
    against ``krawtchouk_cap_n`` first."""
    if n < 0 or k < 0 or q < 2:
        raise InputError("need n,k >= 0 and q >= 2")
    _check_cap(n, k, config)
    prev, cur = [], [1]
    for j, (a, c) in enumerate(_steps(n, k, q)):
        nxt = [0] * (j + 2)
        for i, v in enumerate(cur):
            nxt[i] += a * v
            nxt[i + 1] -= q * v
        for i, v in enumerate(prev):
            nxt[i] -= j * c * v
        prev, cur = cur, nxt
    k_fact = math.factorial(k)
    return KrawtchoukPoly(n, k, q, tuple(Fraction(c, k_fact) for c in cur))


def ku_rows(n: int, k: int, q: int) -> Iterator[list[int]]:
    """Rows K_0 .. K_k of the values at x = 0..n, one at a time: row s is
    K_s(0..n), from the recurrence of ``_steps`` run on all n + 1 points at
    once, where each division by s is exact.  O(nk) integer operations;
    only two rows are held."""
    prev, cur = [0] * (n + 1), [1] * (n + 1)
    yield cur
    for s, (a, c) in enumerate(_steps(n, k, q), 1):  # row s; e is a - qx at x = 0..n
        prev, cur = cur, [(e * v - c * p) // s for e, v, p in zip(range(a, a - q * n - 1, -q), cur, prev)]
        yield cur


def _value_and_slope(steps: Sequence[tuple[int, int]], q: int, num: int, den: int) -> tuple[int, int]:
    """At x = num/den (den > 0): P_k(x) * den^k and P_k'(x) * den^(k-1), in
    one pass of the recurrence of ``_steps`` on P_j = j! K_j and of its
    derivative P'_(j+1) = (a_j - qx) P'_j - q P_j - b_j P'_(j-1), scaled
    alike, from the (a_j, b_j = j c_j) in ``steps``."""
    den2, qx = den * den, q * num
    prev, cur = 0, 1
    dprev, dcur = 0, 0
    for a, b in steps:
        c = a * den - qx
        b *= den2
        prev, cur, dprev, dcur = cur, c * cur - b * prev, dcur, c * dcur - q * cur - b * dprev
    return cur, dcur


def ku_values(n: int, k: int, q: int) -> list[int]:
    """The values K_k(0..n): the last row of ``ku_rows``."""
    return collections.deque(ku_rows(n, k, q), maxlen=1).pop()


# ---------------------------------------------------------------------------
# root isolation
# ---------------------------------------------------------------------------

def _coarse_point(left: int, right: int) -> int:
    """The grid point of the middle half of the open bracket (left, right)
    with the most trailing zero bits: a bisection point whose reduced
    fraction, and so whose pass, is the cheapest there."""
    quarter = max(1, (right - left) // 4)
    shift = max(((left + quarter) ^ (right - quarter)).bit_length() - 1, 0)
    return (right - quarter) >> shift << shift


def _grid_root(
    steps: Sequence[tuple[int, int]], q: int, n: int, d: int, left: int, right: int, ref: int
) -> tuple[int, int]:
    """The one root of K_k strictly between the grid points n*left/d and
    n*right/d, or at that point when left == right: the grid cell
    (i, i + 1) that holds it, or (i, i) when it is the grid point n*i/d.
    ``ref`` is the sign of K_k between the root and n*right/d; ``steps`` is
    that of ``_value_and_slope``.

    Each point costs one pass of ``_value_and_slope`` at its reduced
    fraction, and its sign moves one end of the bracket.  The next point is
    the Newton iterate, floored to the grid and clamped into the open
    bracket, from the point with the smallest step so far; the first two
    points, and the next after two points in a row that halve neither the
    bracket nor the smallest step, bisect (``_coarse_point``), and the step
    from the first is not kept.  A root on the grid is never strictly
    inside a bracket one step wide, so it is met exactly; any other ends in
    the one grid cell that holds it, as bisection finds it."""
    x, best, fails, first = _coarse_point(left, right), None, 0, True  # best: (|step|, iterate)
    while right - left > 1:
        num = n * x
        g = math.gcd(num, d)
        value, slope = _value_and_slope(steps, q, num // g, d // g)
        if value == 0:
            return x, x
        before = right - left
        if (value > 0) == (ref > 0):
            right = x
        else:
            left = x
        progress = 2 * (right - left) <= before  # the bracket halved
        if slope and not first:
            # the Newton step -P/P' in grid steps: -value * g / (slope * n)
            step = (-value * g) // (slope * n)
            if best is None or abs(step) <= best[0]:
                # a step under half the smallest before it is progress too
                progress |= best is None or 2 * abs(step) < best[0]
                best = (abs(step), x + step)
        fails, first = (0 if progress else fails + 1), False
        if best is None or fails == 2:
            x, fails = _coarse_point(left, right), 0
        else:
            x = min(max(best[1], left + 1), right - 1)
    return left, right


def ku_roots(
    n: int,
    k: int,
    q: int,
    width: Fraction = Fraction(1, 10**9),
    config: RunConfig = DEFAULT_CONFIG,
    _values: Sequence[int] | None = None,
) -> list[tuple[Fraction, Fraction]]:
    """The k distinct real roots in (0, n), ascending: a root x met exactly
    as (x, x), any other as a dyadic cell [n*i/D, n*(i+1)/D] that holds it,
    on the first grid D = 2k * 2^m with n/D <= width, or on a finer one
    where two roots share a cell.

    The values of K_k at 0..n (``ku_values``) place every root: the roots are
    the integer zeros, and one root in each (j, j+1) where the sign changes.
    This is exact, because no closed [j, j+1] holds two roots.  For k <= n,
    K_k is orthogonal on 0..n, for the weights w_x = C(n,x)(q-1)^x > 0, to
    every polynomial of lower degree.  Were z1 <= z2 two roots in one
    [j, j+1], the sum over x = 0..n of w_x K_k(x)^2 / ((x - z1)(x - z2))
    would be zero, since the quotient has degree k - 2, and positive, since
    no integer lies strictly between z1 and z2 and K_k, of degree k <= n,
    is not zero at all n + 1 points.  A scan that finds other than k roots
    raises AssertionError.

    ``_grid_root`` closes in on each root on the grid D from the grid points
    around [j, j+1], whose inner points all lie in [j, j+1]; an integer
    zero j is a grid point or lies in one grid cell, and takes no pass.
    Two neighbours in one grid cell, and a root in a cell whose ends are
    both roots, are placed again on the next grid until none is, which
    gives the cells of splitting [0, n] into cells of one root each; this
    needs roots closer than a cell is wide, as at width 4 in the tests.
    Integers throughout; Fractions are built only for the output.  n and k
    are checked against ``krawtchouk_cap_n`` first.  A caller that already
    holds ``ku_values(n, k, q)`` passes it as ``_values``."""
    if not 1 <= k <= n or q < 2:
        raise InputError("need 1 <= k <= n and q >= 2")
    _check_cap(n, k, config)
    if width <= 0:
        raise InputError(f"root width must be positive, got {width}")
    if k == 1:
        root = Fraction((q - 1) * n, q)
        return [(root, root)]
    signs = [(v > 0) - (v < 0) for v in (ku_values(n, k, q) if _values is None else _values)]
    # the roots, ascending: each lies in [j, end], end = j for a zero at j
    # and j + 1 for a sign change between j and j + 1
    units = [(j, j + (s != 0)) for j, s in enumerate(signs) if s == 0 or (j < n and s * signs[j + 1] < 0)]
    if len(units) != k:
        raise AssertionError(f"K_{k} for n = {n}, q = {q} shows {len(units)} roots on 0..{n}, not {k}")
    steps = [(a, j * c) for j, (a, c) in enumerate(_steps(n, k, q))]
    wn, wd = Fraction(width).as_integer_ratio()
    d = 2 * k
    while n * wd > wn * d:  # n/d > width
        d *= 2
    spans, todo = [None] * k, range(k)

    def crowded(r: int) -> bool:
        lo, hi = spans[r]
        near = [spans[s] for s in (r - 1, r + 1) if 0 <= s < k]
        return lo < hi and (spans[r] in near or near == [(lo, lo), (hi, hi)])

    while todo:
        for r in todo:
            j, end = units[r]
            lo, hi = _grid_root(steps, q, n, d, j * d // n, -(-end * d // n), signs[end])
            spans[r] = (Fraction(n * lo, d), Fraction(n * hi, d))
        todo = [r for r in todo if crowded(r)]
        d *= 2
    return spans


# ---------------------------------------------------------------------------
# value vectors and distinct-value bounds
# ---------------------------------------------------------------------------

def ku_value_table(n: int, q: int, config: RunConfig = DEFAULT_CONFIG) -> list[list[int]]:
    """Rows s = 0..n-1 of the values KU_(n-1,s)(j) at j = 0..n-1, by
    ``ku_rows``: O(n^2) integer operations, on integers that grow with n;
    n is checked against ``krawtchouk_cap_n`` first."""
    config.check("krawtchouk_cap_n", n, "Krawtchouk n")
    if n < 1 or q < 2:
        raise InputError("need n >= 1 and q >= 2")
    return list(ku_rows(n - 1, n - 1, q))


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
    n: int, k: int, q: int, distinct: Sequence[int] | None = None, config: RunConfig = DEFAULT_CONFIG
) -> dict:
    """Sufficient-criteria verdict for the all-k-subsets covering partition
    of a q^n product: reflexive, non-reflexive, or undecided-by-criteria.

    The criteria are tried in a fixed order and the first that fires is
    reported; they are sufficient conditions, so 'undecided' only means none
    applies (the caller may fall back to brute force).  ``distinct`` is
    ``ku_distinct_counts(n, q, config)``, built here when not given and
    needed.
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
        distinct = ku_distinct_counts(n, q, config)
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
