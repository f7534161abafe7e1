"""Alternative engines kept as test oracles.

Each computes a quantity that the library computes by one production path,
by an independent method, so the tests can compare the two.  The two root
floors are the paper's criteria that the distinct-value count subsumes; the
tests state that domination with them.  The invariance subgroup and the
automorphism group of a weighted poset are listed map by map here, where
the library only counts each down a stabilizer chain and takes its orbits
from generators.  The ideals of a poset are found mask by mask here, where
the library takes the fixed points of the down-closure of every mask, and
listed as frozensets, the keys of an ideal equivalence.  A poset's closure
on a boolean matrix, with its cycles found pair by pair, stands against the
library's bitmask closure and its test for equal down-sets.  The
Hamming-weight profiles of every support size, by polynomial division and
by convolution, stand against the library's Krawtchouk table from the
three-term recurrence, and the covering signatures summed from those
profiles against the library's class count from the prefix sums of that
table at the inner class bounds alone.
The Yates transform over all 2^n support masks stands against the
twin-class engine's mode products over popcount states.  Phi_m by exact
division of x^m - 1 by every Phi_d, d a proper divisor of m, stands
against the library's Moebius product over the squarefree divisors.  The
ring arithmetic of Z[zeta_m] on ``CycInt`` values, which the library only
builds, compares and prints, sums the distribution identity class by class
against the library's one integer product of label rows, and reduces
character sums one exponent at a time against the library's fold.
The pairing table of a second character chi^u lets the tests check that a
dual partition does not depend on the character.  The annihilator of a code,
from its pairing rows, stands against the dual code, and the character sums
of single elements against the labels of a dual partition.  The weights of
single codewords and subsets stand against the library's arrays over all
support masks.  Krawtchouk roots isolated on a refined rational grid, and
by Sturm counts of the three-term recurrence with bisection, stand against
the library's isolation from the values at the integers, and the same grid
isolates the derivative roots, which the library never needs.  Code by code, listing
every subspace by its RREF basis, stands against the library's all-codes
MacWilliams check in blocks of one pivot pattern, and decides the
one-dimensional statement, which the library does not carry.  A
partition's classes listed one class at a time stand against its export
in one sort, and the recursive JSON conversion against the encoder hook of
the CLI.  Group elements one at a time (``GroupElement``,
``element_from_index``, ``pairing_exponent``) stand against the residue
matrix and the pairing table, which hold all of them at once.  The
paper's closed forms are in ``paper.py``.
"""

import dataclasses
import functools
import itertools
import math
from collections import deque
from fractions import Fraction

import numpy as np

from dualpart.config import DEFAULT_CONFIG, BudgetError, InputError
from dualpart.exactarith import CycInt, euler_phi_degree
from dualpart.krawtchouk import ku_build
from dualpart.macwilliams import LinearCode
from dualpart.partitions import DualityContext, Partition, krawtchouk_matrix
from dualpart.posets import _unmask, dual_poset, ideal_masks, levels
from paper import SparsePoly, closure, ku_eval, level_sets, sigma, varpi


@dataclasses.dataclass(frozen=True)
class GroupElement:
    """A codeword: one residue per cyclic factor of its group."""

    group: object
    residues: tuple

    @property
    def index(self):
        """The mixed-radix index, first factor most significant."""
        idx = 0
        for r, d in zip(self.residues, self.group.factor_orders):
            idx = idx * d + r
        return idx

    def support(self):
        """The coordinates where the element differs from the identity."""
        coord = [i for i, factors in enumerate(self.group.coordinates) for _ in factors]
        return frozenset(coord[f] for f, r in enumerate(self.residues) if r)

    def __mul__(self, other):
        orders = self.group.factor_orders
        return GroupElement(self.group, tuple((a + b) % d for a, b, d in zip(self.residues, other.residues, orders)))

    def inverse(self):
        orders = self.group.factor_orders
        return GroupElement(self.group, tuple(-r % d for r, d in zip(self.residues, orders)))


def element_from_index(group, index):
    """The element of the given index, by its mixed-radix digits."""
    res = []
    for d in reversed(group.factor_orders):
        res.append(index % d)
        index //= d
    return GroupElement(group, tuple(reversed(res)))


def enumerate_elements(group):
    """All elements, in index order."""
    return [element_from_index(group, i) for i in range(group.order)]


def pairing_exponent(alpha, beta):
    """The e with f(alpha, beta) = zeta_m^e, m the group exponent: a cyclic
    factor of order d contributes zeta_d^(a*b) = zeta_m^((m/d)*a*b)."""
    m = alpha.group.exponent
    e = sum((m // d) * a * b for a, b, d in zip(alpha.residues, beta.residues, alpha.group.factor_orders))
    return e % m


def wpm_weight(p, omega, beta):
    """Oracle: the (P, omega)-weight of one codeword, varpi of the ideal
    closure of its support."""
    return varpi(omega, closure(p, beta.support()))


def covering_weight(t, subset):
    """Oracle: the least number of members covering the subset, by a
    breadth-first search over covered-portion bitmasks; each member
    contributes only its intersection with the target set."""
    if t.pk is not None and not t.members:
        raise InputError("logical P(k) covering has no materialized members")
    target = sum(1 << i for i in set(subset))
    if target == 0:
        return 0
    moves = [mask for mask in (sum(1 << i for i in m) & target for m in t.members) if mask]
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
    raise AssertionError("subset is not coverable (covering invariant violated)")


def genfun_eval(n, k, q, s):
    """Oracle: coefficient of x^k in (1-x)^s (1+(q-1)x)^(n-s)."""
    coeffs = [1] + [0] * k
    for _ in range(s):
        for i in range(k, 0, -1):
            coeffs[i] -= coeffs[i - 1]
    for _ in range(n - s):
        for i in range(k, 0, -1):
            coeffs[i] += (q - 1) * coeffs[i - 1]
    return coeffs[k]


def hamming_sum_profile(q, n, t):
    """Oracle: the coefficients of (1 - x)^t (1 + (q-1)x)^(n-t), by one
    convolution per coordinate."""
    coeffs = [1]
    for _ in range(t):
        coeffs = [a - b for a, b in zip(coeffs + [0], [0] + coeffs)]
    for _ in range(n - t):
        coeffs = [a + (q - 1) * b for a, b in zip(coeffs + [0], [0] + coeffs)]
    return coeffs


def hamming_sum_profiles(q, n):
    """Oracle: the per-Hamming-weight character sums for an element of
    each support size t in 0..n (entry t), by polynomial division, with no
    Krawtchouk recurrence.

    Profile t is (1 - x)^t (1 + (q-1) x)^(n-t): a coordinate with identity
    entry contributes (1 + (q-1) x); a non-identity entry contributes
    (1 - x) because the full character orbit sums to zero.  Profile t - 1
    is profile t divided by (1 - x), a running sum, times (1 + (q-1) x), so
    all n + 1 profiles cost O(n^2)."""
    prof = [(-1) ** i * math.comb(n, i) for i in range(n + 1)]
    profiles = [prof]
    for _ in range(n):
        quot = list(itertools.accumulate(prof))  # its last entry is prof(1) = 0
        prof = [quot[0]] + [quot[i] + (q - 1) * quot[i - 1] for i in range(1, n + 1)]
        profiles.append(prof)
    return profiles[::-1]


def co_support_signatures(q, n, k):
    """Oracle: the per-CO-class character sums for an element of each
    support size t in 0..n (entry t), each class sum the sum of the
    division profile over the weights of the class."""
    # class 0 is weight 0; class b >= 1 is weights (b-1)k+1 .. min(bk, n)
    bounds = [(0, 1)] + [((b - 1) * k + 1, min(b * k, n) + 1) for b in range(1, -(-n // k) + 1)]
    return [tuple(sum(prof[lo:hi]) for lo, hi in bounds) for prof in hamming_sum_profiles(q, n)]


def smallest_root_floor(n, k, q):
    """Oracle: floor of the smallest root of KU_(n,k), by an integer sign
    scan; values before the first root are positive since KU_(n,k)(0) > 0."""
    for s in range(n + 1):
        v = ku_eval(n, k, q, s)
        if v <= 0:
            return s if v == 0 else s - 1
    raise AssertionError("no sign change in [0,n] despite guaranteed roots")


def derivative_smallest_root_floor(n, k, q):
    """Oracle: floor of the smallest root of KU_(n,k)', k >= 2, by an
    integer sign scan: KU_(n,k) decreases from KU_(n,k)(0) > 0 up to that
    root, so the derivative is negative before it."""
    der = derivative_coeffs(ku_build(n, k, q))
    for s in range(n + 1):
        v = sum(c * s**i for i, c in enumerate(der))
        if v >= 0:
            return s if v == 0 else s - 1
    raise AssertionError("no sign change of the derivative in [0,n]")


def derivative_coeffs(poly):
    """Ascending coefficients of the derivative of a KrawtchoukPoly."""
    return tuple(i * c for i, c in enumerate(poly.coeffs))[1:] or (Fraction(0),)


def _sign_at(int_coeffs, x):
    """Exact sign of the polynomial at a rational point (Horner on the
    cleared-denominator coefficients)."""
    num, den = x.numerator, x.denominator
    acc = 0
    scale = 1
    for c in reversed(int_coeffs):
        acc = acc * num + c * scale
        scale *= den
    return (acc > 0) - (acc < 0)


def isolate_real_roots(int_coeffs, lo, hi, expected, width=Fraction(1, 10**9), max_refine=64):
    """Oracle: isolating intervals for a polynomial known to have
    ``expected`` distinct real roots in (lo, hi).  Grid sign changes seed
    the intervals; the grid is refined until all expected roots separate,
    then each interval is bisected to the requested width.  Exact rational
    roots come back as degenerate intervals."""
    points = [lo + (hi - lo) * i / max(expected * 2, 4) for i in range(max(expected * 2, 4) + 1)]
    for _ in range(max_refine):
        signs = [_sign_at(int_coeffs, x) for x in points]
        found = []
        ok = True
        for i, s in enumerate(signs):
            if s == 0:
                if points[i] in (lo, hi):
                    ok = False  # root on the boundary: shrink inwards
                    break
                found.append((points[i], points[i]))
        for i in range(len(points) - 1):
            if signs[i] != 0 and signs[i + 1] != 0 and signs[i] != signs[i + 1]:
                found.append((points[i], points[i + 1]))
        if ok and len(found) == expected:
            found.sort()
            return [_bisect(int_coeffs, a, b, width) for a, b in found]
        nxt = []
        for i in range(len(points) - 1):
            nxt.append(points[i])
            nxt.append((points[i] + points[i + 1]) / 2)
        nxt.append(points[-1])
        points = nxt
    raise BudgetError(f"root isolation did not separate {expected} roots in {max_refine} refinements")


def _bisect(int_coeffs, lo, hi, width):
    if lo == hi:
        return lo, hi
    slo = _sign_at(int_coeffs, lo)
    while hi - lo > width:
        mid = (lo + hi) / 2
        sm = _sign_at(int_coeffs, mid)
        if sm == 0:
            return mid, mid
        if sm == slo:
            lo = mid
        else:
            hi = mid
    return lo, hi


def _int_coeffs_of(coeffs):
    """Coefficients cleared of denominators (sign-faithful)."""
    den = math.lcm(*(c.denominator for c in coeffs))
    return tuple(int(c * den) for c in coeffs)


def grid_roots(n, k, q, width=Fraction(1, 10**9)):
    """Oracle: the k roots of KU_(n,k) by the refined grid, k >= 2."""
    coeffs = _int_coeffs_of(ku_build(n, k, q).coeffs)
    return isolate_real_roots(coeffs, Fraction(0), Fraction(n), k, width)


def sturm_chain(n, k, q, num, den):
    """Oracle: at x = num/den (den > 0), the sign changes V of P_0 ... P_k,
    zeros skipped, and P_k(x) * den^k, for P_j = j! K_j from the recurrence
    P_(j+1) = (a_j - qx) P_j - b_j P_(j-1), a_j = j + (q-1)(n-j) and
    b_j = j(q-1)(n-j+1), scaled by den^j.  P_0 ... P_k is a Sturm sequence
    (each b_j > 0 and P_j leads with (-q)^j), so V counts the roots of K_k
    strictly below x."""
    den2, qx = den * den, q * num
    prev, cur = 0, 1
    changes, positive = 0, True
    for a, b in _sturm_steps(n, k, q):
        prev, cur = cur, (a * den - qx) * cur - b * den2 * prev
        if cur and (cur > 0) != positive:
            changes, positive = changes + 1, not positive
    return changes, cur


@functools.lru_cache(maxsize=None)
def _sturm_steps(n, k, q):
    """The (a_j, b_j) of ``sturm_chain`` for j < k, computed once per
    (n, k, q)."""
    return tuple((j + (q - 1) * (n - j), j * (q - 1) * (n - j + 1)) for j in range(k))


def bisect_roots(n, k, q, width=Fraction(1, 10**9)):
    """Oracle: the roots of KU_(n,k) as ``ku_roots`` returns them, 2 <= k
    <= n.  The Sturm counts of ``sturm_chain`` isolate them: [0, n] starts
    as 2k dyadic cells, and a cell with two or more roots inside, or with
    one and a root at both ends, is split at its midpoint.  Each one-root
    cell is bisected by the sign of K_k down to the first dyadic grid with
    n/d <= width.  Every point goes through ``sturm_chain``, so a patched
    ``sturm_chain`` sees (and counts) every pass."""
    wn, wd = Fraction(width).as_integer_ratio()
    out = []

    def at(i, d):
        changes, value = sturm_chain(n, k, q, n * i, d)
        return changes, (value > 0) - (value < 0)

    def exact(i, d):
        x = Fraction(n * i, d)
        out.append((x, x))

    def cell(i, d, lo, hi):
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
        while n * wd > wn * d:  # n/d > width
            i, d = 2 * i, 2 * d
            sign = at(i + 1, d)[1]
            if sign == 0:
                exact(i + 1, d)
                return
            if sign != ref:
                i += 1
        out.append((Fraction(n * i, d), Fraction(n * (i + 1), d)))

    d = 2 * k
    ends = [at(i, d) for i in range(d + 1)]
    for i in range(d):
        if ends[i][1] == 0:
            exact(i, d)
        cell(i, d, ends[i], ends[i + 1])
    return out


def ku_derivative_roots(n, k, q, width=Fraction(1, 10**9)):
    """Oracle: the k-1 distinct real roots of KU_(n,k)' (they interlace
    with the roots of KU_(n,k))."""
    if k == 1:
        return []
    der = derivative_coeffs(ku_build(n, k, q))
    if k == 2:
        root = -der[0] / der[1]
        return [(root, root)]
    return isolate_real_roots(_int_coeffs_of(der), Fraction(0), Fraction(n), k - 1, width)


def _poly_mul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _binom_poly(shift, sign, j):
    """Coefficients of C(sign*x + shift, j) as a polynomial in x."""
    acc = [Fraction(1)]
    for i in range(j):
        acc = _poly_mul(acc, [Fraction(shift - i), Fraction(sign)])
    return [c / math.factorial(j) for c in acc]


def convolution_coeffs(n, k, q):
    """Oracle: expand sum_t (-1)^t (q-1)^(k-t) C(x,t) C(n-x,k-t) by
    multiplying out the binomial polynomials."""
    coeffs = [Fraction(0)] * (k + 1)
    for t in range(k + 1):
        term = _poly_mul(_binom_poly(0, 1, t), _binom_poly(n, -1, k - t))
        for i, c in enumerate(term[: k + 1]):
            coeffs[i] += (-1) ** t * (q - 1) ** (k - t) * c
    return tuple(coeffs)


def _poly_div_exact(num, den):
    """Exact division of integer polynomials, constant first; den must
    divide num and lead with +-1."""
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = num[i + len(den) - 1]
        assert c % den[-1] == 0, "non-exact polynomial division"
        q[i] = c // den[-1]
        if q[i]:
            for j, d in enumerate(den):
                num[i + j] -= q[i] * d
    assert not any(num), "non-exact polynomial division"
    return q


@functools.lru_cache(maxsize=None)
def cyclotomic_by_division(m):
    """Oracle: the coefficients of Phi_m, constant first, by exact division
    of x^m - 1 by the product of Phi_d over the proper divisors d of m."""
    num = [-1] + [0] * (m - 1) + [1]
    den = [1]
    for d in range(1, m):
        if m % d == 0:
            phi_d = cyclotomic_by_division(d)
            new = [0] * (len(den) + len(phi_d) - 1)
            for i, a in enumerate(den):
                if a:
                    for j, b in enumerate(phi_d):
                        new[i + j] += a * b
            den = new
    return tuple(_poly_div_exact(num, den))



# Z[zeta_m] arithmetic on ``CycInt`` values, which the library only builds,
# compares and prints; x^e is reduced by the Phi_m of the division oracle


@functools.lru_cache(maxsize=None)
def reduction_rows(m):
    """Row e (0 <= e < m) holds the power-basis coordinates of x^e mod
    Phi_m, each row the previous one times x with its top term reduced."""
    phi = cyclotomic_by_division(m)
    d = len(phi) - 1
    rows = []
    for e in range(m):
        if e < d:
            row = [0] * d
            row[e] = 1
        else:
            prev = rows[-1]
            row = [0] + list(prev[:-1])
            top = prev[-1]
            for j in range(d):
                row[j] -= top * phi[j]
        rows.append(tuple(row))
    return tuple(rows)


def from_exponent_counts(m, counts):
    """The sum of counts[e] copies of zeta_m^e, in canonical coordinates."""
    rows = reduction_rows(m)
    acc = [0] * euler_phi_degree(m)
    for e, cnt in enumerate(counts):
        if cnt:
            for j, c in enumerate(rows[e % m]):
                acc[j] += cnt * c
    return CycInt(m, acc)


def root_of_unity(m, e):
    """zeta_m^e."""
    return CycInt(m, reduction_rows(m)[e % m])


def root_of_unity_sum(m, exponents):
    """The sum of zeta_m^e over a multiset of exponents."""
    counts = [0] * m
    for e in exponents:
        counts[e % m] += 1
    return from_exponent_counts(m, counts)


def from_int(n, m=1):
    """The rational integer n in Z[zeta_m]."""
    return CycInt(m, [n] + [0] * (euler_phi_degree(m) - 1))


def as_int(c):
    """The rational integer c equals, or None."""
    return None if any(c.coeffs[1:]) else c.coeffs[0]


def cyc_add(a, b):
    assert a.m == b.m, f"modulus mismatch ({a.m} vs {b.m})"
    return CycInt(a.m, (x + y for x, y in zip(a.coeffs, b.coeffs)))


def cyc_sub(a, b):
    assert a.m == b.m, f"modulus mismatch ({a.m} vs {b.m})"
    return CycInt(a.m, (x - y for x, y in zip(a.coeffs, b.coeffs)))


def cyc_mul(a, b):
    """a * b for b in Z[zeta_m] or a rational integer: the schoolbook
    product of the coordinates, its x^e reduced as zeta_m^e."""
    if isinstance(b, int):
        return CycInt(a.m, (x * b for x in a.coeffs))
    assert a.m == b.m, f"modulus mismatch ({a.m} vs {b.m})"
    prod = [0] * (2 * len(a.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            prod[i + j] += x * y
    return from_exponent_counts(a.m, prod)

def identity_by_cycint(ctx, code, dual, lam, gamma):
    """Oracle: |C| |C~ ^ B| = sum_A |C ^ A| rho(A, B) for every B, summed
    class by class in ``CycInt``; ``code`` and ``dual`` are sorted
    distinct element indices."""
    rho = krawtchouk_matrix(ctx, lam, gamma).rho
    c_dist = np.bincount(lam.class_ids[code], minlength=lam.num_classes)
    d_dist = np.bincount(gamma.class_ids[dual], minlength=gamma.num_classes)
    for b in range(gamma.num_classes):
        rhs = from_int(0, ctx.m)
        for a in range(lam.num_classes):
            rhs = cyc_add(rhs, cyc_mul(rho[a][b], int(c_dist[a])))
        if rhs != from_int(len(code) * int(d_dist[b]), ctx.m):
            return False
    return True


def onehot_coords(ctx, exponents, part):
    """Oracle: the canonical coordinates by a one-hot matmul for m = 2, and
    otherwise as the sum over each class of the reduction-matrix rows
    (x^e mod Phi_m) of its exponents, one pairing row at a time."""
    k, m = part.num_classes, ctx.m
    if m == 2:
        onehot = np.zeros((exponents.shape[1], k), dtype=np.int64)
        onehot[np.arange(exponents.shape[1]), part.class_ids] = 1
        ones = exponents.astype(np.int64) @ onehot
        return part.class_sizes().astype(np.int64)[None, :] - 2 * ones
    reduction = np.array(reduction_rows(m), dtype=np.int64)
    coords = np.zeros((len(exponents), k, reduction.shape[1]), dtype=np.int64)
    for row, e in zip(coords, exponents):
        np.add.at(row, part.class_ids, reduction[e])
    return coords.reshape(len(exponents), -1)


def members(part, c):
    """The element indices of class c of a partition, in index order."""
    return np.nonzero(part.class_ids == c)[0]


def export_by_class(part):
    """Oracle: ``Partition.export``'s class lists, one scan of the class ids
    per class, members sorted as Python ints."""
    return [sorted(int(i) for i in members(part, c)) for c in range(part.num_classes)]


def jsonable(obj):
    """Oracle: the CLI payload as plain JSON values, converted recursively:
    Fractions to an int when integral and "p/q" otherwise, dict keys to
    str, sets to sorted lists, numpy values by ``tolist``."""
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else int(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(jsonable(x) for x in obj)
    if hasattr(obj, "tolist"):
        return obj.tolist()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)


def codeword_indices_product(code):
    """Oracle: the sorted element indices of all codewords, from every
    coefficient tuple times the basis (first coordinate most significant)."""
    p, n = code.space.p, code.space.dim
    basis = np.array(code.basis, dtype=np.int64).reshape(code.dim, n)
    coeffs = np.array(list(itertools.product(range(p), repeat=code.dim)), dtype=np.int64)
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    return np.sort(((coeffs @ basis) % p) @ place)


def annihilator(group, code_indices):
    """Oracle: the annihilator code, every b with f(a, b) = 1 for all a in
    the given additive code, from the code's pairing rows against all of
    the group."""
    m = group.exponent
    v = group.residue_matrix()
    weights = np.array([m // d for d in group.factor_orders], dtype=np.int64)
    rows = (v[np.asarray(code_indices, dtype=np.int64)] * weights) @ v.T % m
    return np.nonzero((rows == 0).all(axis=0))[0]


def subspace_rref_bases(p, n):
    """Oracle: every subspace of F_p^n exactly once, as its canonical RREF
    basis, by dimension, pivot tuple and ``itertools.product`` fill."""
    for d in range(n + 1):
        if d == 0:
            yield ()
            continue
        for pivots in itertools.combinations(range(n), d):
            free_slots = []
            for r, piv in enumerate(pivots):
                for col in range(piv + 1, n):
                    if col not in pivots:
                        free_slots.append((r, col))
            for fill in itertools.product(range(p), repeat=len(free_slots)):
                rows = [[0] * n for _ in range(d)]
                for r, piv in enumerate(pivots):
                    rows[r][piv] = 1
                for (r, col), val in zip(free_slots, fill):
                    rows[r][col] = val
                yield tuple(tuple(r) for r in rows)


def is_f_invariant(space, part):
    """Whether every class of the partition is closed under the nonzero
    scalars of F_p."""
    v = space.all_vectors()
    return all(
        np.array_equal(part.class_ids[_vector_indices(space, c * v)], part.class_ids) for c in range(2, space.p)
    )


def one_dim_bases(space):
    """Oracle: the RREF basis of every 1-dimensional code (first nonzero
    entry 1), in the index order of its vector."""
    for row in space.all_vectors()[1:].tolist():
        if next(x for x in row if x) == 1:
            yield (tuple(row),)


def distribution_clash(space, lam, gamma, bases):
    """Oracle: code by code, the first two codes in the order of ``bases``
    whose lam-distributions agree while their duals' gamma-distributions
    differ; the dual from the form of every vector with the basis rows."""
    v = space.all_vectors()
    seen = {}
    for basis in bases:
        code = LinearCode(space, basis)
        words = codeword_indices_product(code)
        lam_key = tuple(np.bincount(lam.class_ids[words], minlength=lam.num_classes))
        gen = np.array(basis, dtype=np.int64).reshape(len(basis), space.dim)
        dual = ((v @ gen.T) % space.p == 0).all(axis=1)
        gam_dist = tuple(np.bincount(gamma.class_ids[dual], minlength=gamma.num_classes))
        first = seen.setdefault(lam_key, (gam_dist, basis))
        if first[0] != gam_dist:
            return first[1], basis
    return None


def _zero_singleton(lam):
    return int(np.sum(lam.class_ids == lam.class_ids[0])) == 1


def admits_by_codes(space, lam, gamma):
    """Oracle: the dict of ``macwilliams_admits``, by the code-by-code loop."""
    zero = _zero_singleton(lam)
    clash = distribution_clash(space, lam, gamma, subspace_rref_bases(space.p, space.dim)) if zero else None
    return {
        "admits": zero and clash is None,
        "zero_singleton": zero,
        "witness": None if clash is None else clash[1],
    }


def onedim_by_codes(space, lam, gamma):
    """The one-dimensional MacWilliams statement beside the finer-than
    statement, code by code: they agree when both partitions are invariant
    under the nonzero scalars.  The witness is the pair of vectors spanning
    the first two clashing lines."""
    zero = _zero_singleton(lam)
    clash = distribution_clash(space, lam, gamma, one_dim_bases(space)) if zero else None
    stmt3 = zero and clash is None
    stmt1 = lam.is_finer(DualityContext(space.group).left_dual(gamma))
    return {
        "one_dim_statement": stmt3,
        "finer_statement": stmt1,
        "agree": stmt3 == stmt1,
        "witness": None if clash is None else (clash[0][0], clash[1][0]),
    }


def character_sums(group, index, gamma):
    """Oracle: the per-class character sums of the element at each given
    index, one pairing at a time."""
    els = enumerate_elements(group)
    classes = [[els[int(b)] for b in members(gamma, c)] for c in range(gamma.num_classes)]
    return [
        tuple(root_of_unity_sum(group.exponent, [pairing_exponent(els[a], b) for b in cls]) for cls in classes)
        for a in index
    ]


def scaled_exponents(ctx, u):
    """The pairing table of the character chi^u, u a unit mod m: every
    exponent times u, mod m, in the dtype of the context's table."""
    table = ctx.exponents
    assert math.gcd(u, ctx.m) == 1, "the scale must be a unit mod m"
    return (table.astype(np.int64) * u % ctx.m).astype(table.dtype)


def support_masks(group):
    """The support bitmask of every element, in index order (bit i for
    coordinate i)."""
    masks = np.zeros(1, dtype=np.int64)
    for i, h in enumerate(group.h):
        bit = np.zeros(h, dtype=np.int64)
        bit[1:] = 1 << i
        masks = (masks[:, None] | bit[None, :]).ravel()
    return masks


def lattice_dual(group, part):
    """Oracle: the dual of a partition whose class depends only on the
    support, by a Yates transform over all 2^n support masks.

    Over coordinate i the non-identity entries sum a character to h_i - 1
    where it is trivial and to -1 otherwise, so the sum at support U over
    the elements of support T is entry (U, T) of the Kronecker product of
    [[1, h_i - 1], [1, -1]]: k * n * 2^n steps.  Returns the dual's class
    ids over G, classes in lexicographic order of their sums, and the sums
    of each class as a tuple of ints."""
    n, k = group.n, part.num_classes
    masks = support_masks(group)
    mask_ids = np.empty(1 << n, dtype=np.int64)
    mask_ids[masks] = part.class_ids
    assert np.array_equal(mask_ids[masks], part.class_ids), "the class depends on more than the support"
    table = np.zeros((1 << n, k), dtype=np.int64)
    table[np.arange(1 << n), mask_ids] = 1
    for i, h in enumerate(group.h):
        pair = table.reshape(-1, 2, 1 << i, k)  # axis 1 is mask bit i
        identity = pair[:, 0].copy()
        pair[:, 0] += (h - 1) * pair[:, 1]
        np.subtract(identity, pair[:, 1], out=pair[:, 1])
    uniq, inverse = np.unique(table, axis=0, return_inverse=True)
    return inverse.reshape(-1)[masks], [tuple(int(x) for x in row) for row in uniq]


def eager_dual(ctx, exponents, part):
    """Oracle: class ids by ``np.unique(axis=0)`` over the rows, and every
    label built at once as a tuple of CycInt."""
    coords = onehot_coords(ctx, exponents, part)
    uniq, inverse = np.unique(coords, axis=0, return_inverse=True)
    k = part.num_classes
    phi = uniq.shape[1] // k
    labels = [
        tuple(CycInt(ctx.m, [int(x) for x in row[c * phi : (c + 1) * phi]]) for c in range(k))
        for row in uniq
    ]
    return inverse.reshape(-1), labels


def f_poly_bruteforce(group, p, omega, alpha):
    """Oracle for ``F_poly``: class character sums one pairing at a time,
    keyed by the (P, omega)-weight of every codeword."""
    m = group.exponent
    by_weight = {}
    for beta in enumerate_elements(group):
        w = wpm_weight(p, omega, beta)
        by_weight.setdefault(w, [0] * m)[pairing_exponent(alpha, beta)] += 1
    terms = {}
    for w, counts in by_weight.items():
        val = as_int(from_exponent_counts(m, counts))
        assert val is not None, "weighted class sum is not a rational integer"
        terms[w] = Fraction(val)
    return SparsePoly(terms)


def f_poly_hierarchical(group, p, omega, alpha):
    """Oracle for ``F_poly`` on hierarchical posets: the closed product form
    over the levels of P."""
    h = group.h
    d = closure(dual_poset(p), alpha.support())
    w_levels = level_sets(p)
    r = sigma(p, d)
    one = SparsePoly.monomial(1)

    def prod(polys):
        acc = one
        for q in polys:
            acc = acc * q
        return acc

    def lower_levels(t):
        # product of h_i x^omega(i) over levels 1..t-1
        items = [i for j in range(t - 1) for i in w_levels[j]]
        return prod(SparsePoly.monomial(h[i], omega[i]) for i in items)

    def nonzero_or_one(i):
        return SparsePoly.monomial(h[i] - 1, omega[i]) + one

    wr = w_levels[r - 1]
    total = lower_levels(r)
    total = total * prod(one - SparsePoly.monomial(1, omega[i]) for i in wr & d)
    total = total * prod(nonzero_or_one(i) for i in wr - d)
    for t in range(1, r):
        total = total + lower_levels(t) * prod(nonzero_or_one(i) for i in w_levels[t - 1])
    for t in range(2, r + 1):
        total = total - lower_levels(t)
    return total


def _vector_indices(space, vectors):
    """Element indices of vectors (last axis, entries mod p): first entry
    most significant, as in ``space.group``."""
    place = space.p ** np.arange(space.dim - 1, -1, -1, dtype=np.int64)
    return (vectors % space.p) @ place


def inv_enumerate(space, delta):
    """Oracle for the order of the invariance subgroup: every invertible
    linear map of ``space`` preserving every class of ``delta``, as N x N
    matrices (columns are the images of the standard basis).

    Backtracks over columns with index arithmetic; every vector supported
    on the settled columns has a determined image, so a class violation
    prunes the whole subtree."""
    p, n = space.p, space.dim
    size = space.order
    cls = delta.class_ids.tolist()
    # column j is the image of e_j, so it lies in the class of e_j
    candidates = [np.nonzero(delta.class_ids == cls[p ** (n - 1 - j)])[0].tolist() for j in range(n)]
    v = space.all_vectors()
    add = _vector_indices(space, v[:, None, :] + v[None, :, :]).tolist()
    smul = [_vector_indices(space, c * v).tolist() for c in range(p)]
    img = [0] * size
    cols = [0] * n
    found = []  # the columns of every map found, in a row

    def rec(j, span):
        if j == n:
            found.extend(cols)
            return
        # column j settles every s = s2 + coef * e_j from a source s2
        # supported on coordinates 0..j-1: the multiples of p^(n-j)
        base = p ** (n - 1 - j)
        sources = range(0, size, base * p)
        for cidx in candidates[j]:
            if cidx in span:
                continue
            news = []
            for coef in range(1, p):
                shifted, off = smul[coef][cidx], coef * base
                for s2 in sources:
                    im = add[img[s2]][shifted]
                    if cls[s2 + off] != cls[im]:
                        break
                    news.append((s2 + off, im))
                else:
                    continue  # every source of this coef kept its class
                break  # a class violation rejects cidx
            else:
                for s, im in news:
                    img[s] = im
                cols[j] = cidx
                rec(j + 1, span | {im for _, im in news})

    rec(0, frozenset([0]))
    # entry (k, i, j) is coordinate i of column j of map k
    return list(v[np.array(found, dtype=np.int64).reshape(-1, n)].transpose(0, 2, 1))


def orbit_partition(space, maps):
    """Oracle for the orbit partition: the orbits of a group of linear maps
    on the space, numbered in the order of their least elements.

    The maps must form a group, as those of ``inv_enumerate`` do: then the
    orbit of v is the set of its images, and the least image names it
    whatever order the maps come in."""
    v = space.all_vectors()
    least = np.arange(space.order, dtype=np.int64)
    for mat in maps:
        np.minimum(least, _vector_indices(space, v @ mat.T), out=least)
    _, ids = np.unique(least, return_inverse=True)
    return Partition(ids, host=space.group)


def inv_enumerate_binary(cls, n):
    """Oracle for ``inv_enumerate`` at p = 2: every invertible F_2-map
    preserving the classes ``cls`` (one id per element index), as tuples of
    column bitmasks.

    Backtracks over columns on bitmasks; every vector supported in the
    settled prefix has a determined image, so class violations prune entire
    subtrees.
    """
    size = 1 << n
    img = [0] * size
    cols = [0] * n
    out = []

    def rec(j, span):
        if j == n:
            out.append(tuple(cols))
            return
        bit = 1 << j
        for c in range(1, size):
            if c in span:
                continue
            news = []
            ok = True
            for s2 in range(bit):
                s = s2 | bit
                im = img[s2] ^ c
                if cls[s] != cls[im]:
                    ok = False
                    break
                news.append((s, im))
            if not ok:
                continue
            for s, im in news:
                img[s] = im
            cols[j] = c
            rec(j + 1, span | {im for _, im in news})

    rec(0, frozenset([0]))
    return out


def binary_cols_to_matrix(cols, n):
    """The n x n matrix of column bitmasks from ``inv_enumerate_binary``."""
    m = np.zeros((n, n), dtype=np.int64)
    for j, c in enumerate(cols):
        for i in range(n):
            # cols[j] is the image of index bit 2^j, which is vector entry
            # n-1-j; entry i carries place value 2^(n-1-i)
            m[i, n - 1 - j] = (c >> (n - 1 - i)) & 1
    return m



def closure_by_pairs(n, relations):
    """Oracle for ``validate_and_close``: the reflexive-transitive closure
    of the relation pairs on a boolean matrix, Warshall one pivot at a
    time, as the ``down`` bitmasks, or None when some u != v lie below
    each other, tested pair by pair."""
    leq = [[u == v for v in range(n)] for u in range(n)]
    for u, v in relations:
        leq[u][v] = True
    for w in range(n):
        for u in range(n):
            for v in range(n):
                leq[u][v] = leq[u][v] or (leq[u][w] and leq[w][v])
    if any(leq[u][v] and leq[v][u] for u in range(n) for v in range(u + 1, n)):
        return None
    return tuple(sum(1 << u for u in range(n) if leq[u][v]) for v in range(n))

def ideals(p, config=DEFAULT_CONFIG):
    """The ideals of p as frozensets, in the order of ``ideal_masks``: the
    keys that ``induce_from_ideal_classes`` takes."""
    return [_unmask(m, p.n) for m in ideal_masks(p, config).tolist()]


def ideal_masks_by_scan(p):
    """Oracle for ``ideal_masks``: every mask U < 2^n, in increasing order,
    that holds ``down[v]`` for each of its elements v."""
    out = []
    for m in range(1 << p.n):
        if all(not p.down[v] & ~m for v in range(p.n) if m >> v & 1):
            out.append(m)
    return out


def automorphisms(p, labels=None, config=DEFAULT_CONFIG):
    """Oracle for ``automorphism_group``: all order automorphisms of p,
    optionally also preserving per-element labels, by backtracking with
    (level, up-degree, down-degree, label) invariant pruning."""
    config.check("aut_cap_n", p.n, "poset size for automorphism enumeration")
    len_p = levels(p)
    updeg = [bin(up).count("1") for up in dual_poset(p).down]
    downdeg = [bin(p.down[v]).count("1") for v in range(p.n)]
    inv = [
        (len_p[v], updeg[v], downdeg[v]) + ((labels[v],) if labels is not None else ())
        for v in range(p.n)
    ]
    perm = [-1] * p.n
    used = [False] * p.n
    out = []

    def consistent(u, image):
        for v in range(p.n):
            if perm[v] < 0:
                continue
            if p.leq(v, u) != p.leq(perm[v], image):
                return False
            if p.leq(u, v) != p.leq(image, perm[v]):
                return False
        return True

    def backtrack(u):
        if u == p.n:
            out.append(tuple(perm))
            return
        for image in range(p.n):
            if used[image] or inv[image] != inv[u]:
                continue
            if not consistent(u, image):
                continue
            perm[u] = image
            used[image] = True
            backtrack(u + 1)
            perm[u] = -1
            used[image] = False

    backtrack(0)
    return out


def apply_perm(perm, subset):
    return frozenset(perm[v] for v in subset)


def udp_by_listing(p, omega):
    """Oracle for ``udp_check``: equal-weight ideals bucketed by their
    Fraction sums, each bucket tested against the orbit of its first ideal
    under every listed omega-preserving automorphism."""
    w = [omega[v] for v in range(p.n)]
    auts = automorphisms(p, labels=w)
    buckets = {}
    for i in ideals(p):
        buckets.setdefault(sum((w[v] for v in i), Fraction(0)), []).append(i)
    for same_weight in buckets.values():
        base = same_weight[0]
        orbit = {apply_perm(a, base) for a in auts}
        for other in same_weight[1:]:
            if other not in orbit:
                return False, (base, other)
    return True, None
