"""Alternative engines kept as test oracles.

Each computes a quantity that the library computes by one production path,
by an independent method, so the tests can compare the two.
"""

import math
from fractions import Fraction


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
