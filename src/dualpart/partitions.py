"""The duality engine.

Partitions of enumerable group products, left/right dual partitions by exact
character sums, the closed-form ideal-sum signatures, the polynomial attached
to each codeword (three engines), generalized Krawtchouk matrices, and the
reflexivity/equivalence checkers for weighted poset metrics and anti-chain
coverings.

Character sums are exact throughout: the inner loops run on integer exponent
tables (numpy) and are reduced to canonical cyclotomic coordinates with an
integer reduction matrix, so no precision is ever lost.
"""

from __future__ import annotations

import collections.abc
import dataclasses
from fractions import Fraction
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, BudgetError, InputError, RunConfig
from .exactarith import CycInt, SparsePoly, euler_phi_degree, reduction_matrix
from .groups import GroupElement, GroupProduct
from .metrics import Covering, WeightFunction, wpm_weight
from .posets import (
    Poset,
    automorphisms,
    apply_perm,
    closure,
    closure_mask,
    dual_poset,
    extremes,
    ideals,
    is_hierarchical,
    levels,
    udp_check,
)


# ---------------------------------------------------------------------------
# partitions of an enumerable host
# ---------------------------------------------------------------------------

def _coords_to_cyc(m: int, row: np.ndarray, k: int) -> tuple[CycInt, ...]:
    """The k per-class character sums held in one row of coordinates."""
    return tuple(CycInt(m, coeffs) for coeffs in row.reshape(k, -1).tolist())


class SignatureLabels(collections.abc.Sequence):
    """Labels of a dual partition, built when read.

    Entry c is the tuple of per-class character sums (CycInt) of dual class
    c, made from row c of the canonical coordinates.  Only the modulus and
    the rows are kept, so a dual partition holds no pairing table.
    """

    __slots__ = ("m", "rows", "k")

    def __init__(self, m: int, rows: np.ndarray, k: int):
        self.m = m
        self.rows = rows
        self.k = k

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, c: int) -> tuple[CycInt, ...]:
        return _coords_to_cyc(self.m, self.rows[c], self.k)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SignatureLabels, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class Partition:
    """A partition of an indexed host set.

    ``class_ids[i]`` is the class of element index i; ``labels[c]`` carries
    provenance (a weight value, or a canonical character-sum signature).
    """

    def __init__(self, class_ids, labels=None, host=None):
        self.class_ids = np.asarray(class_ids, dtype=np.int64)
        self.num_classes = int(self.class_ids.max()) + 1 if len(self.class_ids) else 0
        if np.unique(self.class_ids).size != self.num_classes:
            raise InputError("class ids must be contiguous and all present")
        if labels is not None and not isinstance(labels, SignatureLabels):
            labels = list(labels)
        self.labels = labels
        if self.labels is not None and len(self.labels) != self.num_classes:
            raise InputError("one label per class required")
        self.host = host

    @property
    def host_size(self) -> int:
        return len(self.class_ids)

    @classmethod
    def from_keys(cls, keys: Sequence, host=None) -> "Partition":
        """Group elements by key; classes ordered by sorted key when the
        keys are sortable, else by first occurrence."""
        uniq = list(dict.fromkeys(keys))
        try:
            uniq = sorted(uniq)
        except TypeError:
            pass
        pos = {k: c for c, k in enumerate(uniq)}
        ids = np.fromiter((pos[k] for k in keys), dtype=np.int64, count=len(keys))
        return cls(ids, labels=uniq, host=host)

    def members(self, c: int) -> np.ndarray:
        return np.nonzero(self.class_ids == c)[0]

    def class_sizes(self) -> np.ndarray:
        return np.bincount(self.class_ids, minlength=self.num_classes)

    def _check_host(self, other: "Partition") -> None:
        if self.host_size != other.host_size:
            raise InputError("partitions over different hosts")
        if (
            self.host is not None
            and other.host is not None
            and self.host != other.host
        ):
            raise InputError("partitions over different hosts")

    def is_finer(self, other: "Partition") -> bool:
        """True iff every class of self lies inside a class of other."""
        self._check_host(other)
        pairs = self.class_ids * other.num_classes + other.class_ids
        return np.unique(pairs).size == self.num_classes

    def finer_violation(self, other: "Partition"):
        """A witness pair (i, j) in one self-class but split by other."""
        self._check_host(other)
        seen: dict[int, tuple[int, int]] = {}
        for i, (a, b) in enumerate(zip(self.class_ids, other.class_ids)):
            if a in seen and seen[a][1] != b:
                return seen[a][0], i
            seen.setdefault(int(a), (i, int(b)))
        return None

    def same_partition(self, other: "Partition") -> bool:
        self._check_host(other)
        return (
            self.num_classes == other.num_classes
            and self.is_finer(other)
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.same_partition(other)

    def __len__(self) -> int:
        return self.num_classes

    def export(self) -> dict:
        """JSON-friendly form: sorted element-index lists plus labels."""
        return {
            "num_classes": self.num_classes,
            "classes": [sorted(int(i) for i in self.members(c)) for c in range(self.num_classes)],
            "labels": [str(l) for l in self.labels] if self.labels else None,
        }


# ---------------------------------------------------------------------------
# exact character-sum engine
# ---------------------------------------------------------------------------

class DualityContext:
    """Precomputed pairing-exponent table for G ~ H (one matched product).

    ``scale`` replaces the pairing by its scale-th power (for testing
    character independence); it must be invertible mod the exponent.
    """

    def __init__(
        self,
        group: GroupProduct,
        config: RunConfig = DEFAULT_CONFIG,
        scale: int = 1,
    ):
        if group.order * group.order > config.pair_work_cap:
            raise BudgetError(
                f"|G|*|H| = {group.order ** 2} exceeds pair work cap "
                f"{config.pair_work_cap}"
            )
        self.group = group
        self.m = group.exponent
        self.config = config
        v = group.residue_matrix(config)
        weights = np.array(
            [self.m // d for d in group.factor_orders], dtype=np.int64
        )
        e = (v * weights[None, :]) @ v.T
        if scale != 1:
            e *= scale
        e %= self.m
        # int16 holds every exponent below 2^15; wider moduli need int32
        self.exponents = e.astype(np.int16 if self.m <= 1 << 15 else np.int32)
        self._phi = euler_phi_degree(self.m)
        self._reduction = np.array(reduction_matrix(self.m), dtype=np.int64)
        self._last_left: Optional[tuple[Partition, Partition]] = None

    # -- signatures -----------------------------------------------------

    def _coords(self, exponents: np.ndarray, part: Partition) -> np.ndarray:
        """Canonical cyclotomic coordinates of all per-class character sums.

        Returns an int64 array of shape (rows, classes * deg(Phi_m)).
        """
        nrows, ncols = exponents.shape
        k = part.num_classes
        m, phi = self.m, self._phi
        if m == 2:
            # integer fast path: sum = size - 2 * (#exponent-1 entries),
            # counted by one segment sum over the class-sorted columns
            # (np.take keeps them C-contiguous, unlike exponents[:, order])
            sizes = part.class_sizes()
            order = np.argsort(part.class_ids, kind="stable")
            starts = np.cumsum(sizes) - sizes
            by_class = np.take(exponents, order, axis=1)
            ones = np.add.reduceat(by_class, starts, axis=1, dtype=np.int64)
            return sizes.astype(np.int64)[None, :] - 2 * ones
        # one bincount per row chunk over combined (class, exponent) keys;
        # this stays fast even when most classes are singletons.  Rows
        # e < phi of the reduction matrix are unit vectors, so only the
        # counts of the higher exponents go through a product.
        coords = np.empty((nrows, k, phi), dtype=np.int64)
        keys_base = part.class_ids.astype(np.int64) * m
        km = k * m
        tail = self._reduction[phi:]
        chunk = max(1, (1 << 22) // max(ncols, km))
        for start in range(0, nrows, chunk):
            keys = exponents[start : start + chunk] + keys_base[None, :]
            r = keys.shape[0]
            keys += (np.arange(r, dtype=np.int64) * km)[:, None]
            counts = np.bincount(keys.ravel(), minlength=r * km).reshape(r, k, m)
            out = coords[start : start + r]
            np.matmul(counts[..., phi:], tail, out=out)
            out += counts[..., :phi]
        return coords.reshape(nrows, k * phi)

    def signature(self, a_index: int, gamma: Partition) -> tuple[CycInt, ...]:
        """Per-class character sums for one element of G (a DualSignature)."""
        row = self._coords(self.exponents[a_index : a_index + 1], gamma)[0]
        return _coords_to_cyc(self.m, row, gamma.num_classes)

    def _dual(self, exponents: np.ndarray, part: Partition) -> Partition:
        coords = self._coords(exponents, part)
        # group rows by their bytes: after the shift, the big-endian bytes
        # of a row sort as its numbers do, so classes are numbered in
        # lexicographic row order
        key = (coords - coords.min()).astype(">u8")
        rows = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
        _, first, inverse = np.unique(rows, return_index=True, return_inverse=True)
        k = part.num_classes
        if len(first) * k <= 1 << 20:
            labels = SignatureLabels(self.m, coords[first], k)
        else:
            labels = None  # too many signatures to offer as labels
        return Partition(inverse.astype(np.int64), labels=labels, host=self.group)

    def left_dual(self, gamma: Partition) -> Partition:
        """The left dual partition l(Gamma): elements of G grouped by exact
        equality of all per-class character sums.

        The last result is kept, so asking again for the same Partition
        object (a check followed by an export, say) costs nothing."""
        if gamma.host_size != self.group.order:
            raise InputError("partition does not live on this group")
        if self._last_left is None or self._last_left[0] is not gamma:
            self._last_left = (gamma, self._dual(self.exponents, gamma))
        return self._last_left[1]

    def right_dual(self, lam: Partition) -> Partition:
        """The right dual r(Lambda).  The pairing table is symmetric, so this
        is the left-dual routine on the same table."""
        if lam.host_size != self.group.order:
            raise InputError("partition does not live on this group")
        return self._dual(self.exponents, lam)

    # -- codes ------------------------------------------------------------

    def annihilator(self, code_indices: Sequence[int]) -> np.ndarray:
        """Indices of the annihilator code: all b with f(a, b) = 1 for every
        a in the given additive code."""
        rows = self.exponents[np.asarray(code_indices, dtype=np.int64)]
        return np.nonzero((rows == 0).all(axis=0))[0]


def reflexivity_check(
    ctx: DualityContext, gamma: Partition, compute_bidual: bool = False
) -> dict:
    """Verdict by cardinality comparison |Gamma| vs |l(Gamma)|; optionally
    also computes the bidual r(l(Gamma)) and asserts it is finer."""
    lam = ctx.left_dual(gamma)
    out = {
        "gamma_classes": gamma.num_classes,
        "dual_classes": lam.num_classes,
        "reflexive": gamma.num_classes == lam.num_classes,
        "verdict": "reflexive" if gamma.num_classes == lam.num_classes else "non-reflexive",
    }
    if compute_bidual:
        bidual = ctx.right_dual(lam)
        if not bidual.is_finer(gamma):
            raise AssertionError("bidual is not finer than the input partition")
        out["bidual_classes"] = bidual.num_classes
        out["bidual_equals_gamma"] = bidual == gamma
    return out


# ---------------------------------------------------------------------------
# induced partitions
# ---------------------------------------------------------------------------

def _support_masks(group: GroupProduct, config: RunConfig) -> np.ndarray:
    """Bitmask of the support of every element, in index order."""
    v = group.residue_matrix(config)
    coord = np.array(group.factor_coordinate, dtype=np.int64)
    n = group.n
    nz = v != 0
    masks = np.zeros(group.order, dtype=np.int64)
    for f in range(v.shape[1]):
        masks |= nz[:, f].astype(np.int64) << int(coord[f])
    return masks


def _induce_by_mask_weight(
    group: GroupProduct, weight_of_mask: Callable[[int], object], config: RunConfig
) -> Partition:
    if group.order > config.enumeration_cap:
        raise BudgetError("group exceeds enumeration cap")
    masks = _support_masks(group, config)
    uniq = np.unique(masks)
    table = {int(mk): weight_of_mask(int(mk)) for mk in uniq}
    keys = [table[int(mk)] for mk in masks]
    return Partition.from_keys(keys, host=group)


def induce_Q(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    config: RunConfig = DEFAULT_CONFIG,
) -> Partition:
    """Partition by (P, omega)-weight; classes keyed by weight value."""
    if p.n != group.n or omega.n != group.n:
        raise InputError("poset/weights do not match the coordinate set")

    def weight(mask: int) -> Fraction:
        cl = closure_mask(p, mask)
        return omega.varpi(i for i in range(p.n) if cl >> i & 1)

    return _induce_by_mask_weight(group, weight, config)


def induce_CO(
    group: GroupProduct, t: Covering, config: RunConfig = DEFAULT_CONFIG
) -> Partition:
    """Partition by covering weight; classes keyed by T-weight."""
    if t.n != group.n:
        raise InputError("covering does not match the coordinate set")

    def weight(mask: int) -> int:
        return t.weight(i for i in range(t.n) if mask >> i & 1)

    return _induce_by_mask_weight(group, weight, config)


def induce_from_ideal_classes(
    group: GroupProduct,
    p: Poset,
    ideal_labels: dict,
    config: RunConfig = DEFAULT_CONFIG,
) -> Partition:
    """Pull an equivalence on I(P) back through the support closure."""
    all_ideals = set(ideals(p, config))
    if set(ideal_labels) != all_ideals:
        raise InputError("equivalence labels must cover I(P) exactly")

    def label(mask: int):
        return ideal_labels[frozenset(i for i in range(p.n) if closure_mask(p, mask) >> i & 1)]

    return _induce_by_mask_weight(group, label, config)


# ---------------------------------------------------------------------------
# closed-form ideal-sum signatures
# ---------------------------------------------------------------------------

def phi_value(p: Poset, h: Sequence[int], d: Iterable[int], i_set: Iterable[int]) -> int:
    """The ideal-sum kernel: counts, with signs, elements of the slice of H
    whose support closure is the ideal I, paired against support class D."""
    d = frozenset(d)
    i_set = frozenset(i_set)
    mx = extremes(p, i_set, "max")
    if not (i_set & d) <= mx:
        return 0
    val = (-1) ** len(i_set & d)
    for i in i_set - mx:
        val *= h[i]
    for i in mx - d:
        val *= h[i] - 1
    return val


def psi_value(p: Poset, h: Sequence[int], d: Iterable[int], i_set: Iterable[int]) -> int:
    """Mirror kernel with roles of the two ideals exchanged (min side)."""
    d = frozenset(d)
    i_set = frozenset(i_set)
    mn = extremes(p, d, "min")
    if not (i_set & d) <= mn:
        return 0
    val = (-1) ** len(i_set & d)
    for i in d - mn:
        val *= h[i]
    for i in mn - i_set:
        val *= h[i] - 1
    return val


def signature_via_ideals(
    alpha: GroupElement,
    p: Poset,
    omega: WeightFunction,
    b,
    config: RunConfig = DEFAULT_CONFIG,
) -> int:
    """Class character sum at weight b computed purely from ideals: the sum
    of phi(<supp alpha>_Pbar, I) over ideals I of weight b."""
    h = alpha.group.h
    pbar = dual_poset(p)
    d = closure(pbar, alpha.support())
    b = Fraction(b)
    total = 0
    for i_set in ideals(p, config):
        if omega.varpi(i_set) == b:
            total += phi_value(p, h, d, i_set)
    return total


# ---------------------------------------------------------------------------
# the codeword polynomial, three engines
# ---------------------------------------------------------------------------

def _f_poly_bruteforce(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    alpha: GroupElement,
    config: RunConfig,
) -> SparsePoly:
    from .groups import pairing_exponent

    m = group.exponent
    by_weight: dict[Fraction, list[int]] = {}
    for beta in group.enumerate_elements(config):
        w = wpm_weight(p, omega, beta)
        by_weight.setdefault(w, [0] * m)[pairing_exponent(alpha, beta)] += 1
    terms = {}
    for w, counts in by_weight.items():
        val = CycInt.from_exponent_counts(m, counts).as_int()
        if val is None:
            raise AssertionError("weighted class sum is not a rational integer")
        terms[w] = Fraction(val)
    return SparsePoly(terms)


def _f_poly_ideal_sum(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    alpha: GroupElement,
    config: RunConfig,
) -> SparsePoly:
    h = group.h
    pbar = dual_poset(p)
    d = closure(pbar, alpha.support())
    terms: dict[Fraction, Fraction] = {}
    for i_set in ideals(p, config):
        val = phi_value(p, h, d, i_set)
        if val:
            e = omega.varpi(i_set)
            terms[e] = terms.get(e, Fraction(0)) + val
    return SparsePoly(terms)


def _f_poly_hierarchical(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    alpha: GroupElement,
    config: RunConfig,
) -> SparsePoly:
    if not is_hierarchical(p):
        raise InputError("hierarchical engine requires a hierarchical poset")
    h = group.h
    pbar = dual_poset(p)
    d = closure(pbar, alpha.support())
    _, w_levels, sigma = levels(p)
    r = sigma(d)

    def xw(i: int) -> SparsePoly:
        return SparsePoly.monomial(1, omega[i])

    def prod(polys: Iterable[SparsePoly]) -> SparsePoly:
        acc = SparsePoly.monomial(1)
        for q in polys:
            acc = acc * q
        return acc

    def lower_levels(t: int) -> SparsePoly:
        # product of h_i x^omega(i) over levels 1..t-1
        items = [i for j in range(t - 1) for i in w_levels[j]]
        return prod(SparsePoly.monomial(h[i], omega[i]) for i in items)

    one = SparsePoly.monomial(1)
    wr = w_levels[r - 1]
    main = lower_levels(r)
    main = main * prod(one - xw(i) for i in wr & d)
    main = main * prod(SparsePoly.monomial(h[i] - 1, omega[i]) + one for i in wr - d)
    total = main
    for t in range(1, r):
        wt = w_levels[t - 1]
        total = total + lower_levels(t) * prod(
            SparsePoly.monomial(h[i] - 1, omega[i]) + one for i in wt
        )
    for t in range(2, r + 1):
        total = total - lower_levels(t)
    return total


_F_ENGINES = {
    "bruteforce": _f_poly_bruteforce,
    "ideal_sum": _f_poly_ideal_sum,
    "hierarchical": _f_poly_hierarchical,
}


def F_poly(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    alpha: GroupElement,
    engine: str = "ideal_sum",
    config: RunConfig = DEFAULT_CONFIG,
) -> SparsePoly:
    """The polynomial carrying all class character sums of alpha: the
    coefficient of x^b is the sum of f(alpha, beta) over codewords of
    (P, omega)-weight b."""
    if engine not in _F_ENGINES:
        raise InputError(f"unknown engine {engine!r}")
    return _F_ENGINES[engine](group, p, omega, alpha, config)


def f_poly_degree_ideal(group: GroupProduct, p: Poset, omega: WeightFunction, alpha: GroupElement):
    """The ideal X = (Omega - D) | min_P(D) whose weight is deg F when all
    h_i >= 2."""
    pbar = dual_poset(p)
    d = closure(pbar, alpha.support())
    x = (frozenset(range(p.n)) - d) | extremes(p, d, "min")
    return x, omega.varpi(x)


# ---------------------------------------------------------------------------
# generalized Krawtchouk matrix and the MacWilliams identity
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class KrawtchoukMatrixResult:
    ok: bool
    rho: Optional[list[list[CycInt]]]
    witness: Optional[tuple[int, int]]
    lam: Partition
    gamma: Partition


def krawtchouk_matrix(
    ctx: DualityContext, lam: Partition, gamma: Partition
) -> KrawtchoukMatrixResult:
    """rho(A, B) = class-B character sum at any representative of A.

    The precondition (lam finer than l(gamma)) is verified, not assumed;
    on failure the violating element pair is reported instead of a matrix.
    """
    ldual = ctx.left_dual(gamma)
    if not lam.is_finer(ldual):
        return KrawtchoukMatrixResult(False, None, lam.finer_violation(ldual), lam, gamma)
    rho = []
    for a in range(lam.num_classes):
        rep = int(lam.members(a)[0])
        rho.append(list(ctx.signature(rep, gamma)))
    return KrawtchoukMatrixResult(True, rho, None, lam, gamma)


def macwilliams_identity_holds(
    ctx: DualityContext,
    code_indices: Sequence[int],
    lam: Partition,
    gamma: Partition,
) -> bool:
    """Exact check of |C| |C~ ^ B| = sum_A |C ^ A| rho(A, B) for every B,
    with C~ the annihilator code."""
    res = krawtchouk_matrix(ctx, lam, gamma)
    if not res.ok:
        raise InputError(f"lambda is not finer than l(gamma); witness {res.witness}")
    code = np.asarray(sorted(set(int(i) for i in code_indices)), dtype=np.int64)
    dual = ctx.annihilator(code)
    c_dist = np.bincount(lam.class_ids[code], minlength=lam.num_classes)
    d_dist = np.bincount(gamma.class_ids[dual], minlength=gamma.num_classes)
    size = len(code)
    for b in range(gamma.num_classes):
        rhs = CycInt.from_int(0, ctx.m)
        for a in range(lam.num_classes):
            if c_dist[a]:
                rhs = rhs + int(c_dist[a]) * res.rho[a][b]
        lhs = CycInt.from_int(size * int(d_dist[b]), ctx.m)
        if lhs != rhs:
            return False
    return True


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------

def prop33_predicate(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    alpha: GroupElement,
    gamma_el: GroupElement,
    config: RunConfig = DEFAULT_CONFIG,
) -> bool:
    """Same-dual-class test by automorphism search (hierarchical posets,
    all h_i >= 2): the support closures in the dual order must be related
    by an (h, omega)-preserving order automorphism."""
    if not is_hierarchical(p):
        raise InputError("predicate requires a hierarchical poset")
    if any(hi < 2 for hi in group.h):
        raise InputError("predicate requires all h_i >= 2")
    pbar = dual_poset(p)
    d = closure(pbar, alpha.support())
    b = closure(pbar, gamma_el.support())
    labels = [(group.h[i], omega[i]) for i in range(p.n)]
    for lam in automorphisms(p, labels=labels, config=config):
        if apply_perm(lam, b) == d:
            return True
    return False


def theorem32_check(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    config: RunConfig = DEFAULT_CONFIG,
) -> dict:
    """Evaluate the four equivalent statements for hierarchical posets with
    integer weights, plus the unconditional finer-than relation."""
    h = group.h
    gamma = induce_Q(group, p, omega, config)
    ctx = DualityContext(group, config)
    lam = ctx.left_dual(gamma)
    q_dual = induce_Q(group, dual_poset(p), omega, config)

    udp_ok, _ = udp_check(p, omega.values, config)
    len_p, _, _ = levels(p)
    label_ok = all(
        h[u] == h[v]
        for u in range(p.n)
        for v in range(p.n)
        if len_p[u] == len_p[v] and omega[u] == omega[v]
    )
    s1 = udp_ok and label_ok
    s2 = q_dual.is_finer(lam) and gamma.is_finer(ctx.right_dual(q_dual))
    s3 = gamma.num_classes == lam.num_classes
    s4 = lam == q_dual
    finer = lam.is_finer(q_dual)
    return {
        "udp_and_labels": s1,
        "mutually_dual": s2,
        "reflexive": s3,
        "dual_is_Q_of_dual_poset": s4,
        "lambda_finer_than_Q_dual": finer,
        "equivalent": len({s1, s2, s3, s4}) == 1,
        "gamma_classes": gamma.num_classes,
        "dual_classes": lam.num_classes,
    }


def theorem41_check(
    group: GroupProduct, t: Covering, config: RunConfig = DEFAULT_CONFIG
) -> dict:
    """Evaluate the three equivalent statements for anti-chain coverings."""
    if not t.is_antichain():
        raise InputError("covering must be an anti-chain")
    import math

    gamma = induce_CO(group, t, config)
    ctx = DualityContext(group, config)
    lam = ctx.left_dual(gamma)
    s1 = gamma.is_finer(lam)
    s2 = gamma == lam
    if t.is_partition():
        h = group.h
        if t.members:
            prods = {math.prod(h[i] for i in mem) for mem in t.members}
        else:  # logical P(k): partition only when k == 1 or k == n
            if t.pk == t.n:
                prods = {math.prod(h)}
            else:
                prods = set(h)
        s3 = len(prods) == 1
    else:
        s3 = False
    return {
        "co_finer_than_dual": s1,
        "co_equals_dual": s2,
        "partition_with_equal_products": s3,
        "equivalent": len({s1, s2, s3}) == 1,
        "gamma_classes": gamma.num_classes,
        "dual_classes": lam.num_classes,
    }


# ---------------------------------------------------------------------------
# scalable engine for CO(H, P(k)) over H = X^n, |X| = q
# ---------------------------------------------------------------------------

def hamming_sum_profile(q: int, n: int, t: int) -> list[int]:
    """Exact per-Hamming-weight character sums for an element with support
    size t, by per-coordinate convolution (no Krawtchouk formulas involved).

    Coordinate with identity entry contributes (1 + (q-1) x); a non-identity
    entry contributes (1 - x) because the full character orbit sums to zero.
    """
    coeffs = [1]
    for _ in range(t):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] -= c
        coeffs = nxt
    for _ in range(n - t):
        nxt = [0] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i] += c
            nxt[i + 1] += (q - 1) * c
        coeffs = nxt
    return coeffs


def co_support_signature(q: int, n: int, k: int, t: int) -> tuple[int, ...]:
    """Per-CO-class character sums for an element of support size t."""
    prof = hamming_sum_profile(q, n, t)
    out = []
    classes = -(-n // k) + 1
    for b in range(classes):
        lo = 0 if b == 0 else (b - 1) * k + 1
        hi = 0 if b == 0 else min(b * k, n)
        out.append(sum(prof[l] for l in range(lo, hi + 1)))
    return tuple(out)


def co_dual_class_count(q: int, n: int, k: int) -> int:
    """|l(CO(X^n, P(k)))| for |X| = q: distinct nonzero-support signatures
    plus the guaranteed identity singleton."""
    sigs = {co_support_signature(q, n, k, t) for t in range(1, n + 1)}
    return len(sigs) + 1


def co_reflexivity_bruteforce(q: int, n: int, k: int) -> dict:
    """Exact reflexivity of CO(X^n, P(k, Omega)) from the per-support-size
    character-sum profile (element-complete, since the signature of an
    element depends only on its support size)."""
    if q < 2 or not 1 <= k <= n:
        raise InputError("need q >= 2 and 1 <= k <= n")
    co_classes = -(-n // k) + 1
    dual_classes = co_dual_class_count(q, n, k)
    return {
        "q": q,
        "n": n,
        "k": k,
        "co_classes": co_classes,
        "dual_classes": dual_classes,
        "reflexive": co_classes == dual_classes,
    }
