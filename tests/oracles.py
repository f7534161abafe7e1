"""Alternative engines kept as test oracles.

Each computes a quantity that the library computes by one production path,
by an independent method, so the tests can compare the two.
"""

import math
from fractions import Fraction

import numpy as np

from dualpart.exactarith import CycInt


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
