"""The paper's closed forms and statements, kept as test references.

The library computes every quantity below by one production engine: class
character sums and dual partitions by the support lattice or the pairwise
engine, Krawtchouk roots by the signs of their values at the integers and
Newton steps, verdicts by class counts.  The paper also states them in
closed form, and the tests check each closed form here against those
engines and against the element-by-element oracles of ``oracles.py``:

* the ideal-sum kernels phi and psi, and the codeword polynomial F, whose
  coefficient at x^b is the character sum of alpha over the codewords of
  (P, omega)-weight b, with the ideal that gives its degree;
* the automorphism predicate of Prop. 3.3 for the dual classes of a
  hierarchical poset;
* the three equivalent statements of Theorem 4.1 for anti-chain coverings;
* the binomial sum that defines KU_(n,k) at an integer, against the values
  the library reads from the three-term recurrence;
* Eq. (4.5), the smallest derivative root of KU_(n,3) in closed form, and
  Lemma 4.15, the smallest-root ratio u_n / n tending to (q-1)/q.

Floats appear only in the approximate values reported beside exact ones.
"""

import math
from fractions import Fraction

from dualpart.config import DEFAULT_CONFIG, InputError
from dualpart.krawtchouk import ku_roots
from dualpart.partitions import DualityContext, induce_CO
from dualpart.posets import _unmask, dual_poset, ideal_masks, is_hierarchical, levels

NEG_INF = float("-inf")


class SparsePoly:
    """Polynomial with exact rational coefficients and exponents.

    Rational exponents are needed because weighted-poset weights key the
    exponent lattice.  Zero coefficients are never stored; the zero
    polynomial has degree -inf (a float sentinel distinct from 0).
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        for e, c in dict(terms or {}).items():
            if c:
                self.terms[Fraction(e)] = Fraction(c)

    @classmethod
    def monomial(cls, coeff, exponent=0):
        return cls({exponent: coeff})

    @property
    def degree(self):
        return max(self.terms, default=NEG_INF)

    def coefficient(self, exponent):
        return self.terms.get(Fraction(exponent), Fraction(0))

    def __add__(self, other):
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0) + c
        return SparsePoly(out)

    def __sub__(self, other):
        return self + other * -1

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return SparsePoly({e: c * other for e, c in self.terms.items()})
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
        return SparsePoly(out)

    def __eq__(self, other):
        return isinstance(other, SparsePoly) and self.terms == other.terms

    def __repr__(self):
        parts = [f"{c}*x^{e}" for e, c in sorted(self.terms.items())]
        return "SparsePoly(" + (" + ".join(parts) or "0") + ")"


# ---------------------------------------------------------------------------
# posets, weights and coverings
# ---------------------------------------------------------------------------

def closure(p, subset):
    """<subset>_P, the smallest ideal containing the subset."""
    m = 0
    for v in subset:
        m |= p.down[v]
    return frozenset(i for i in range(p.n) if m >> i & 1)


def extremes(p, subset, mode):
    """max_P or min_P of a subset."""
    sub = frozenset(subset)
    if mode == "max":
        return frozenset(v for v in sub if not any(u != v and p.leq(v, u) for u in sub))
    if mode == "min":
        return frozenset(v for v in sub if not any(u != v and p.leq(u, v) for u in sub))
    raise InputError("mode must be 'max' or 'min'")


def level_sets(p):
    """The levels W_1 .. W_m of P, W_j holding the elements of len_P j."""
    len_p = levels(p)
    return [frozenset(v for v in range(p.n) if len_p[v] == j) for j in range(1, max(len_p) + 1)]


def sigma(p, d):
    """The largest r with D inside the union of levels r .. m; by the
    maximality convention sigma(empty set) = m."""
    len_p = levels(p)
    return min((len_p[v] for v in d), default=max(len_p))


def varpi(omega, subset):
    """varpi(I), the additive extension of omega to a subset."""
    return sum((omega[i] for i in subset), start=Fraction(0))


def is_antichain(t):
    """No member of the covering lies inside another."""
    if t.pk is not None and not t.members:
        return True
    return not any(a < b for a in t.members for b in t.members)


def is_partition(t):
    """The members of the covering are disjoint."""
    if t.pk is not None and not t.members:
        return t.pk in (1, t.n)
    return sum(len(m) for m in t.members) == t.n and is_antichain(t)


# ---------------------------------------------------------------------------
# ideal-sum kernels and the codeword polynomial
# ---------------------------------------------------------------------------

def phi_value(p, h, d, i_set):
    """The ideal-sum kernel: the character sum of an element whose support
    closure in the dual order is D over the elements of H whose support
    closure is the ideal I."""
    d, i_set = frozenset(d), frozenset(i_set)
    mx = extremes(p, i_set, "max")
    if not (i_set & d) <= mx:
        return 0
    val = (-1) ** len(i_set & d)
    for i in i_set - mx:
        val *= h[i]
    for i in mx - d:
        val *= h[i] - 1
    return val


def psi_value(p, h, d, i_set):
    """Mirror kernel with the roles of the two ideals exchanged (min side)."""
    d, i_set = frozenset(d), frozenset(i_set)
    mn = extremes(p, d, "min")
    if not (i_set & d) <= mn:
        return 0
    val = (-1) ** len(i_set & d)
    for i in d - mn:
        val *= h[i]
    for i in mn - i_set:
        val *= h[i] - 1
    return val


def F_poly(group, p, omega, alpha, config=DEFAULT_CONFIG):
    """The polynomial carrying all class character sums of alpha: the
    coefficient of x^b is the sum of f(alpha, beta) over the codewords of
    (P, omega)-weight b, summed over ideals with the kernel phi."""
    d = closure(dual_poset(p), alpha.support())
    terms = {}
    for mask in ideal_masks(p, config).tolist():
        i_set = _unmask(mask, p.n)
        val = phi_value(p, group.h, d, i_set)
        if val:
            e = varpi(omega, i_set)
            terms[e] = terms.get(e, 0) + val
    return SparsePoly(terms)


def f_poly_degree_ideal(group, p, omega, alpha):
    """The ideal X = (Omega - D) | min_P(D) whose weight is deg F when all
    h_i >= 2."""
    d = closure(dual_poset(p), alpha.support())
    x = (frozenset(range(p.n)) - d) | extremes(p, d, "min")
    return x, varpi(omega, x)


# ---------------------------------------------------------------------------
# the equivalence statements
# ---------------------------------------------------------------------------

def prop33_predicate(group, p, omega, alpha, gamma_el, config=DEFAULT_CONFIG):
    """Prop. 3.3's same-dual-class test (hierarchical posets, all h_i >= 2):
    the support closures in the dual order must be related by an
    (h, omega)-preserving order automorphism."""
    # oracles.py imports this module, so the import waits for the call
    from oracles import apply_perm, automorphisms

    if not is_hierarchical(p):
        raise InputError("predicate requires a hierarchical poset")
    pbar = dual_poset(p)
    d = closure(pbar, alpha.support())
    b = closure(pbar, gamma_el.support())
    labels = [(group.h[i], omega[i]) for i in range(p.n)]
    return any(apply_perm(lam, b) == d for lam in automorphisms(p, labels=labels, config=config))


def theorem41_check(group, t, config=DEFAULT_CONFIG):
    """Theorem 4.1's three equivalent statements for an anti-chain covering
    T: CO(T) is finer than its dual, CO(T) equals its dual, and T is a
    partition whose members all have the same product of orders."""
    if not is_antichain(t):
        raise InputError("covering must be an anti-chain")
    gamma = induce_CO(group, t, config)
    lam = DualityContext(group, config).left_dual(gamma)
    s1 = gamma.is_finer(lam)
    s2 = gamma == lam
    s3 = False
    if is_partition(t):
        h = group.h
        if t.members:
            prods = {math.prod(h[i] for i in mem) for mem in t.members}
        elif t.pk == t.n:  # logical P(k): a partition only when k is 1 or n
            prods = {math.prod(h)}
        else:
            prods = set(h)
        s3 = len(prods) == 1
    return {
        "co_finer_than_dual": s1,
        "co_equals_dual": s2,
        "partition_with_equal_products": s3,
        "equivalent": len({s1, s2, s3}) == 1,
        "gamma_classes": gamma.num_classes,
        "dual_classes": lam.num_classes,
    }


# ---------------------------------------------------------------------------
# Krawtchouk closed forms
# ---------------------------------------------------------------------------

def ku_eval(n, k, q, s):
    """KU_(n,k)(s) at an integer s in [0, n], by the binomial sum
    sum_t (-1)^t (q-1)^(k-t) C(s,t) C(n-s,k-t)."""
    if not 0 <= s <= n:
        raise InputError("need 0 <= s <= n")
    return sum(
        (-1) ** t * (q - 1) ** (k - t) * math.comb(s, t) * math.comb(n - s, k - t)
        for t in range(k + 1)
    )


def _eq45_parts(n, q):
    rational = Fraction(q - 1, q) * n - 2 + Fraction(3, q)
    radicand = Fraction((q - 1) * (n - 3)) + Fraction(q * q, 3)
    return rational, radicand


def eq45_w(n, q):
    """Eq. (4.5): the smallest derivative root for k = 3 in closed form,
    rational part minus sqrt(radicand)/q."""
    if n < 4:
        raise InputError("closed form needs n >= 4")
    rational, radicand = _eq45_parts(n, q)
    if radicand <= 0:
        raise AssertionError("radicand must be positive")
    return {
        "rational_part": rational,
        "radicand": radicand,
        "sqrt_divisor": q,
        "value": float(rational) - math.sqrt(radicand) / q,
        "floor": eq45_w_floor(n, q),
    }


def eq45_w_floor(n, q):
    """Exact floor of the closed-form root: w >= i iff (rational - i) >= 0
    and (rational - i)^2 >= radicand / q^2."""
    rational, radicand = _eq45_parts(n, q)
    target = radicand / (q * q)
    i = math.floor(rational)
    while not (rational - i >= 0 and (rational - i) ** 2 >= target):
        i -= 1
    return i


def lemma415_convergence(k, q, n_list, config=DEFAULT_CONFIG):
    """Lemma 4.15: the smallest-root ratios u_n / n of KU_(n,k) and their
    deviation from (q-1)/q.  An n above ``krawtchouk_cap_n`` needs a
    config that raises the cap."""
    if k < 1:
        raise InputError("k >= 1 required")
    out = []
    limit = Fraction(q - 1, q)
    for n in n_list:
        if n < k:
            raise InputError("every n must satisfy n >= k")
        lo, hi = ku_roots(n, k, q, config=config)[0]
        ratio = (lo + hi) / 2 / n
        out.append({"n": n, "ratio": ratio, "deviation": abs(float(ratio - limit))})
    return out
