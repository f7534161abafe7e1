"""Alternative engines kept as test oracles.

Each computes a quantity that the library computes by one production path,
by an independent method, so the tests can compare the two.  The two root
floors are the paper's criteria that the distinct-value count subsumes; the
tests state that domination with them.
"""

import math
from fractions import Fraction

import numpy as np

from dualpart.exactarith import CycInt, SparsePoly
from dualpart.groups import pairing_exponent
from dualpart.krawtchouk import ku_build, ku_eval
from dualpart.metrics import wpm_weight
from dualpart.posets import closure, dual_poset, levels


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
    der = ku_build(n, k, q).derivative_coeffs()
    for s in range(n + 1):
        v = sum(c * s**i for i, c in enumerate(der))
        if v >= 0:
            return s if v == 0 else s - 1
    raise AssertionError("no sign change of the derivative in [0,n]")


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


def onehot_coords(ctx, exponents, part):
    """Oracle: the canonical coordinates by a one-hot matmul for m = 2 and
    by the full reduction matrix otherwise."""
    k, m = part.num_classes, ctx.m
    if m == 2:
        onehot = np.zeros((exponents.shape[1], k), dtype=np.int64)
        onehot[np.arange(exponents.shape[1]), part.class_ids] = 1
        ones = exponents.astype(np.int64) @ onehot
        return part.class_sizes().astype(np.int64)[None, :] - 2 * ones
    keys = exponents.astype(np.int64) + part.class_ids.astype(np.int64)[None, :] * m
    counts = np.stack([np.bincount(row, minlength=k * m) for row in keys])
    return (counts.reshape(-1, k, m) @ ctx._reduction).reshape(len(keys), -1)


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
    for beta in group.enumerate_elements():
        w = wpm_weight(p, omega, beta)
        by_weight.setdefault(w, [0] * m)[pairing_exponent(alpha, beta)] += 1
    terms = {}
    for w, counts in by_weight.items():
        val = CycInt.from_exponent_counts(m, counts).as_int()
        assert val is not None, "weighted class sum is not a rational integer"
        terms[w] = Fraction(val)
    return SparsePoly(terms)


def f_poly_hierarchical(group, p, omega, alpha):
    """Oracle for ``F_poly`` on hierarchical posets: the closed product form
    over the levels of P."""
    h = group.h
    d = closure(dual_poset(p), alpha.support())
    _, w_levels, sigma = levels(p)
    r = sigma(d)
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
