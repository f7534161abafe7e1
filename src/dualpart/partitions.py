"""The duality engine.

Partitions of group products, left/right dual partitions by exact character
sums, induced partitions, generalized Krawtchouk matrices, the reflexivity
check, the equivalence checker for weighted poset metrics, and the covering
reflexivity of P(k) from its support profiles.

Character sums are exact throughout.  A dual partition comes from one of two
engines, by one rule: twin blocks go to the twin-class engine, every other
partition to the pairwise engine.

* the twin-class engine, for the partitions induced by a weighted poset
  metric, a covering metric or an ideal equivalence, and their duals.
  Coordinates i and j are twins when h_i = h_j and swapping them keeps
  every class; with twin blocks of sizes n_b, a class is a set of popcount
  vectors, the prod(n_b + 1) states (``Partition.blocks``), all realized.
  The sum at state u over the elements of state t is prod_b P_b[u_b][t_b],
  P_b the Krawtchouk matrix of H(n_b, h_b) (``krawtchouk.ku_rows``), so
  the class sums are one mode-b product per block: integers, exact in
  int64 up to |G| = 2^62 and in Python ints above.  G is not listed;
  ``class_ids`` is pulled back to G when first read;
* the pairwise engine for every other partition, on the |G| x |H| table
  of pairing exponents.  Its classes come from the class sums evaluated at
  a prime p = 1 (mod m) that splits completely in Z[zeta_m]
  (``DualityContext._classes``; Pollard, Math. Comp. 1971), with no
  cyclotomic coordinate: that set partition is all that
  ``reflexivity_check`` reads.  A dual that is numbered and labelled
  (``left_dual``, ``right_dual``) then folds one pairing row per dual
  class into canonical cyclotomic coordinates by the coefficients of
  Phi_m (``_coords``) and numbers its classes in their lexicographic
  order.

The evaluation is exact, by a norm bound.  Write s_a(C) for the sum over b
in C of zeta_m^e(a, b), an element of Z[zeta_m], and d = s_a(C) - s_a'(C).
Every conjugate of d is a difference of two sums of |C| roots of unity, so
it has absolute value at most 2 |C| <= 2 |G|, and the norm N(d), the
product of the phi(m) conjugates, has |N(d)| <= (2 |G|)^phi(m).  As
p = 1 (mod m), Phi_m splits into distinct linear factors mod p, with roots
omega^u for the units u of Z/m, and the primes above p are the kernels of
zeta_m -> omega^u.  If d vanishes at every omega^u, it lies in every prime
above p; p does not divide m, so p is unramified and d lies in p Z[zeta_m].
A nonzero d is then p d' with d' a nonzero algebraic integer, and
|N(d)| >= p^phi(m).  p exceeds 2 |G|, so d = 0: a difference vanishes at
every omega^u exactly when it is 0.  The pairing is bilinear,
e(ua, b) = u e(a, b), so s_a(C) at omega^u is s_ua(C) at omega: a and a'
have equal class sums exactly when the rows of ua and ua' agree at omega
for every unit u.  No rounding and nothing probabilistic enters.

Two duals are known to be discrete before the evaluation ends.  The dual of
the discrete partition of H is discrete: its class sums at a are the values
f(a, b) of the character of a, and characters separate points.  For
a != a', some cyclic factor f of order d has a_f != a'_f, and at b = e_f
(residue 1 at f, 0 elsewhere) the values zeta_d^(u a_f) and
zeta_d^(u a'_f) differ for every unit u, so for chi^u as for chi.  So
``_classes`` answers at once when k = |H|, with no evaluation and no cap
read.  Otherwise, when the rows of S at omega alone are pairwise distinct,
the dual is discrete too: equal class sums agree at every embedding, omega
among them, so the true classes refine the rows at omega, and the unit
gather and its ranking are skipped.

Every dual partition keeps its class character sums as labels, built when
read; the Krawtchouk matrix reads its rows there.  The pairing table belongs
to the pairwise engine alone.
"""

from __future__ import annotations

import collections.abc
import dataclasses
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, BudgetError, InputError, RunConfig
from .exactarith import CycInt, _cyclotomic_coeffs, _is_prime, _prime_factors, euler_phi_degree
from .groups import GroupProduct
from .krawtchouk import ku_rows, ku_value_table
from .metrics import Covering, WeightFunction, _outer, _scaled_mask_sums
from .posets import Poset, _is_swap_automorphism, _unmask, dual_poset, ideal_masks, levels


# ---------------------------------------------------------------------------
# partitions of a group
# ---------------------------------------------------------------------------

# ``Partition.export`` leaves out signature labels of more entries
_LABEL_CAP = 1 << 20


def _rank_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and lexicographic rank of every distinct row.

    Rows are shifted to start at 0.  While (span + 1)^cols < 2^63, a row
    is one int64 key, its entries the digits in radix span + 1, the first
    most significant, so keys sort as rows do.  Otherwise rows are grouped
    by their bytes: the big-endian bytes of a row, in the narrowest
    unsigned width that holds its span, sort as its numbers do.  Both
    sorts are stable, so the first index is the first occurrence.  Rows
    of Python ints are ranked as tuples.
    """
    if rows.dtype == object:
        keys = list(map(tuple, rows.tolist()))
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        inverse = np.array([rank[key] for key in keys], dtype=np.int64)
        return np.unique(inverse, return_index=True)[1], inverse
    low = rows.min()
    span = int(rows.max()) - int(low)
    cols = rows.shape[1]
    if cols < 63 and (span + 1) ** cols < 1 << 63:
        radix = (span + 1) ** np.arange(cols - 1, -1, -1, dtype=np.int64)
        key = (rows - low).astype(np.int64, copy=False) @ radix
        _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
        return first, inverse.astype(np.int64)
    width = next(w for w in (1, 2, 4, 8) if span < 1 << (8 * w))
    key = (rows - low).astype(f">u{width}")
    view = key.view(np.dtype((np.void, key.itemsize * key.shape[1]))).ravel()
    _, first, inverse = np.unique(view, return_index=True, return_inverse=True)
    return first, inverse.astype(np.int64)


def _strides(blocks) -> dict[int, int]:
    """Every coordinate's step in the mixed-radix state index, the first
    block most significant: distinct blocks have distinct steps."""
    out, step = {}, 1
    for b in reversed(blocks):
        out.update(dict.fromkeys(b, step))
        step *= len(b) + 1
    return out


class SignatureLabels(collections.abc.Sequence):
    """Labels of a dual partition or rows of rho, built when read.

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
        rows = self.rows[c].reshape(self.k, -1).tolist()
        return tuple(CycInt(self.m, coeffs) for coeffs in rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, (SignatureLabels, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


class Partition:
    """A partition of an indexed host set.

    ``class_ids[i]`` is the class of element index i; ``labels[c]`` carries
    provenance (a weight value, or a canonical character-sum signature).
    On a support-induced partition, ``blocks`` are its twin blocks and the
    ids given are ``state_ids``, one class per state; ``class_ids`` is then
    pulled back to G when first read, under ``config.enumeration_cap``.
    """

    def __init__(self, class_ids, labels=None, host=None, blocks=None, config: RunConfig = DEFAULT_CONFIG):
        ids = np.asarray(class_ids, dtype=np.int64)
        self.num_classes = int(ids.max()) + 1 if len(ids) else 0
        if len(ids) and (
            ids.min() < 0
            or self.num_classes > len(ids)
            or not np.bincount(ids, minlength=self.num_classes).all()
        ):
            raise InputError("class ids must be contiguous and all present")
        if labels is not None and not isinstance(labels, SignatureLabels):
            labels = list(labels)
        self.labels = labels
        if self.labels is not None and len(self.labels) != self.num_classes:
            raise InputError("one label per class required")
        self.host = host
        self.blocks = blocks
        self.config = config
        self.state_ids, self._class_ids = (None, ids) if blocks is None else (ids, None)

    @property
    def class_ids(self) -> np.ndarray:
        if self._class_ids is None:
            group = self.host
            self.config.check("enumeration_cap", group.order, "|G| to list a partition")
            stride = _strides(self.blocks)
            dtype = np.min_scalar_type(len(self.state_ids) - 1)
            steps = [np.array([0] + [stride[i]] * (h - 1), dtype=dtype) for i, h in enumerate(group.h)]
            self._class_ids = self.state_ids[_outer(steps)]
        return self._class_ids

    @property
    def host_size(self) -> int:
        return len(self._class_ids) if self.blocks is None else self.host.order

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

    def _common_ids(self, other: "Partition") -> tuple[np.ndarray, np.ndarray]:
        """The class ids of self and other on one index set: with blocks on
        both, the states of the common refinement, all realized, so that
        comparisons there are comparisons over G."""
        self._check_host(other)
        if self.blocks is None or other.blocks is None:
            return self.class_ids, other.class_ids
        if self.blocks == other.blocks:
            return self.state_ids, other.state_ids
        where = [_strides(self.blocks), _strides(other.blocks)]
        meet: dict = {}
        for i in range(self.host.n):
            meet.setdefault((where[0][i], where[1][i]), []).append(i)
        cells = list(meet.values())
        self.config.check("pair_work_cap", math.prod(len(c) + 1 for c in cells), "support states")
        return tuple(
            p.state_ids[_outer([np.arange(len(c) + 1) * w[c[0]] for c in cells])]
            for p, w in zip((self, other), where)
        )

    def is_finer(self, other: "Partition") -> bool:
        """True iff every class of self lies inside a class of other."""
        mine, theirs = self._common_ids(other)
        return np.unique(mine * other.num_classes + theirs).size == self.num_classes

    def finer_violation(self, other: "Partition"):
        """A witness pair (i, j) in one self-class but split by other."""
        self._check_host(other)
        seen: dict[int, tuple[int, int]] = {}
        for i, (a, b) in enumerate(zip(self.class_ids, other.class_ids)):
            if a in seen and seen[a][1] != b:
                return seen[a][0], i
            seen.setdefault(int(a), (i, int(b)))
        return None

    def __eq__(self, other) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        self._check_host(other)
        return self.num_classes == other.num_classes and self.is_finer(other)

    def export(self) -> dict:
        """JSON-friendly form: sorted element-index lists plus labels; the
        labels of a dual partition are left out above ``_LABEL_CAP``
        entries (dual classes times input classes)."""
        labels = self.labels
        if isinstance(labels, SignatureLabels) and len(labels) * labels.k > _LABEL_CAP:
            labels = None
        # a stable sort keeps each class's members in index order
        members = np.argsort(self.class_ids, kind="stable").tolist()
        ends = np.cumsum(self.class_sizes()).tolist()
        return {
            "num_classes": self.num_classes,
            "classes": [members[a:b] for a, b in zip([0] + ends, ends)],
            "labels": [str(l) for l in labels] if labels else None,
        }


# ---------------------------------------------------------------------------
# exact character-sum engine
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def _split_prime(m: int, order: int) -> tuple[int, int]:
    """The evaluation prime of the pairwise engine for |G| = ``order``:
    the least prime p = 1 (mod m) above 2 * order, the norm bound of the
    module docstring, and omega = g^((p - 1) / m) for the least g that
    gives omega the order m, tested at the primes of m."""
    bound = 2 * order
    p = bound - bound % m + 1
    while p <= bound or not _is_prime(p):
        p += m
    primes = _prime_factors(m)
    omegas = (pow(g, (p - 1) // m, p) for g in itertools.count(2))
    return p, next(w for w in omegas if all(pow(w, m // q, p) != 1 for q in primes))


# about this many int64 cells per block of a factor's term rows
_TERM_BLOCK = 1 << 18


def _form_table(orders: Sequence[int], m: int) -> np.ndarray:
    """The form table of prod Z/d over the orders d, elements in
    mixed-radix index order, the first factor most significant: entry
    (a, b) is the sum over factors of (m/d) a_f b_f, mod m.

    It is a Kronecker sum.  A factor put in front of the table T of the
    later ones makes the table ((m/d) x y mod m) + T, x and y its
    residues, written a block of x at a time into the new table; the
    term rows of a block are int64 products of about ``_TERM_BLOCK``
    cells.  The dtype is the narrowest unsigned one that holds 2m - 2, a
    sum before its reduction, and a sum s is reduced in place as
    min(s, s - m): below m, s - m wraps past 2m - 2.  The build holds the
    new table, the previous one (1/d^2 of it) and the term rows of at
    most two blocks, the next one made before the last is freed, or one
    ``_TERM_BLOCK`` cells of s - m."""
    dtype = np.min_scalar_type(2 * (m - 1))
    table = np.zeros((1, 1), dtype=dtype)
    for d in reversed(orders):
        n = len(table)
        new = np.empty((d, n, d, n), dtype=dtype)
        step = max(1, _TERM_BLOCK // d)
        y = np.arange(d) * (m // d)
        for x in range(0, d, step):
            term = np.arange(x, min(x + step, d))[:, None] * y
            term %= m
            block = new[x : x + step]
            if n == 1:
                # the table of no factor, or of factors of order 1, is [[0]]
                block[:, 0, :, 0] = term
            else:
                np.add(term.astype(dtype)[:, None, :, None], table[None, :, None, :], out=block)
                flat = block.reshape(-1)
                for i in range(0, flat.size, _TERM_BLOCK):
                    cells = flat[i : i + _TERM_BLOCK]
                    np.minimum(cells, cells - m, out=cells)
        table = new.reshape(d * n, d * n)
    return table


class DualityContext:
    """Dual partitions over G ~ H (one matched product).

    The engine is picked per partition: twin classes when the partition
    has ``blocks``, the pairwise engine otherwise.  The pairing-exponent
    table, the evaluation set-up and the unit index map of the pairwise
    engine are built on first use, by a pairwise dual only, and the map
    only by a dual that reaches the unit gather.
    """

    def __init__(self, group: GroupProduct, config: RunConfig = DEFAULT_CONFIG):
        self.group = group
        self.m = group.exponent
        self.config = config
        config.check("enumeration_cap", self.m, "exponent m of the cyclotomic field")
        self._phi = euler_phi_degree(self.m)
        self._table: Optional[np.ndarray] = None
        self._field: Optional[tuple[int, np.ndarray]] = None
        self._units: Optional[np.ndarray] = None
        self._last_left: Optional[tuple[Partition, Partition]] = None

    @property
    def exponents(self) -> np.ndarray:
        """The |G| x |H| pairing-exponent table, built on first use by
        ``_form_table``: entry (a, b) is the e with f(a, b) = zeta_m^e,
        where a cyclic factor of order d contributes (m/d) * a_f * b_f."""
        if self._table is None:
            group = self.group
            self.config.check("pair_work_cap", group.order**2, "|G|*|H| pairing table cells")
            self.config.check("enumeration_cap", group.order, "|H| to materialize")
            self._table = _form_table(group.factor_orders, self.m)
        return self._table

    # -- character sums ---------------------------------------------------

    def _coords(self, exponents: np.ndarray, part: Partition) -> np.ndarray:
        """Canonical cyclotomic coordinates of the per-class character sums
        of every given pairing row (a row of G against all of H).

        Returns an int64 array of shape (rows, classes * deg(Phi_m)).

        A block of rows is one bincount over exponent-major keys, so the
        counts of every exponent e are one contiguous row, and x^e is then
        folded into lower exponents by Phi_m = x^phi + sum_j c_j x^j (monic):
        x^e = -sum_j c_j x^(e - phi + j).  Tops are folded from m - 1 down in
        runs of phi - j_max, j_max the highest j with c_j != 0, so every run
        lands below itself and costs one slice update per nonzero c_j.
        """
        nrows, ncols = exponents.shape
        k = part.num_classes
        m, phi = self.m, self._phi
        self.config.check("pair_work_cap", nrows * k * phi, "rows * k * deg(Phi_m) coordinate cells")
        poly = _cyclotomic_coeffs(m)
        taps = [(j, c) for j, c in enumerate(poly[:phi]) if c]
        step = phi - taps[-1][0]
        coords = np.empty((nrows, k, phi), dtype=np.int64)
        # about 2^18 histogram or key cells per block of rows
        chunk = max(1, (1 << 18) // max(ncols, k * m))
        for start in range(0, nrows, chunk):
            block = exponents[start : start + chunk]
            r = block.shape[0]
            keys = np.multiply(block, r * k, dtype=np.int64)
            keys += part.class_ids[None, :]
            keys += (np.arange(r, dtype=np.int64) * k)[:, None]
            counts = np.bincount(keys.ravel(), minlength=m * r * k).reshape(m, r * k)
            for hi in range(m, phi, -step):
                lo = max(phi, hi - step)
                src = counts[lo:hi]
                for j, c in taps:
                    dst = counts[lo - phi + j : hi - phi + j]
                    if c == 1:
                        dst -= src
                    elif c == -1:
                        dst += src
                    else:
                        dst -= c * src
            coords[start : start + r] = counts[:phi].reshape(phi, r, k).transpose(1, 2, 0)
        return coords.reshape(nrows, k * phi)

    def _evaluation(self) -> tuple[int, np.ndarray]:
        """The pairwise engine's set-up, built by its first evaluation: the
        prime p and omega of ``_split_prime``, and the powers omega^e mod p
        (e < m), in int64 while p * max(p, |G|) < 2^62 and in Python ints
        above: p is about 2 |G|, so int64 holds up to about |G| = 2^30."""
        if self._field is None:
            group, m = self.group, self.m
            p, omega = _split_prime(m, group.order)
            dtype = np.int64 if p * max(p, group.order) < 1 << 62 else object
            powers = itertools.accumulate(range(m - 1), lambda x, _: x * omega % p, initial=1)
            self._field = p, np.array(list(powers), dtype=dtype)
        return self._field

    def _unit_index(self) -> np.ndarray:
        """The index of u*a for every element a (rows) and every unit u of
        Z/m (columns), built by the first unit gather of ``_classes``."""
        if self._units is None:
            group, m = self.group, self.m
            units = np.array([u for u in range(1, m) if math.gcd(u, m) == 1])
            self.config.check("pair_work_cap", group.order * len(units), "|G| * phi(m) unit-gather cells")
            # the mixed-radix index of u*a, a factor's residue at a time
            scaled = np.zeros((len(units), 1), dtype=np.int64)
            for d in group.factor_orders:
                digits = units[:, None, None] * np.arange(d) % d
                scaled = (scaled[:, :, None] * d + digits).reshape(len(units), -1)
            self._units = scaled.T.copy()
        return self._units

    def _classes(self, exponents: np.ndarray, part: Partition) -> Partition:
        """The pairwise engine's dual as a set partition, unlabelled: a and
        a' share a class exactly when they have the same class character
        sums (the exactness proof is in the module docstring).

        S[a, C], the sum over b in C of omega^e(a, b) mod p, is read in
        blocks of about 2^20 table cells, as int64 sums over the columns
        sorted by class; ranking the rows of S and then the rows of those
        ranks at u*a over every unit u (``_unit_index``) gives the
        classes.  The dual is discrete, and returned at once, when ``part``
        is discrete, and after the first ranking when the rows of S are
        pairwise distinct (module docstring); neither exit builds the unit
        index map.  ``exponents`` is a pairing table of G (rows in
        index order) against H, of chi or of any chi^u: e'(ua, b) =
        u e'(a, b) holds for every one."""
        nrows, ncols = exponents.shape
        k = part.num_classes
        if k == ncols:
            return Partition(np.arange(nrows), host=self.group)
        self.config.check("pair_work_cap", nrows * k, "|G| * k evaluation cells")
        p, powers = self._evaluation()
        columns = np.argsort(part.class_ids, kind="stable")
        sizes = part.class_sizes()
        starts = np.cumsum(sizes) - sizes
        sums = np.empty((nrows, k), dtype=powers.dtype)
        chunk = max(1, (1 << 20) // ncols)
        for start in range(0, nrows, chunk):
            block = powers[exponents[start : start + chunk][:, columns]]
            sums[start : start + chunk] = np.add.reduceat(block, starts, axis=1) % p
        first, ranks = _rank_rows(sums)
        if len(first) == nrows:
            return Partition(ranks, host=self.group)
        return Partition(_rank_rows(ranks[self._unit_index()])[1], host=self.group)

    def _number(self, exponents: np.ndarray, part: Partition, classes: Partition) -> Partition:
        """The dual set partition ``classes`` of ``part``, numbered in the
        lexicographic order of its rows of canonical coordinates and
        labelled by them: the fold runs on the first pairing row of each
        class, one row per dual class."""
        ids = classes.class_ids
        coords = self._coords(exponents[np.unique(ids, return_index=True)[1]], part)
        first, rank = _rank_rows(coords)
        labels = SignatureLabels(self.m, coords[first], part.num_classes)
        return Partition(rank[ids], labels=labels, host=self.group)

    def _dual(self, exponents: np.ndarray, part: Partition) -> Partition:
        """The pairwise engine: classes by evaluation, numbered and
        labelled by the canonical coordinates of their sums."""
        return self._number(exponents, part, self._classes(exponents, part))

    def _twin_dual(self, part: Partition) -> Partition:
        """The twin-class engine (module docstring).  An integer c has
        canonical coordinates (c, 0, ..., 0) and every state is realized,
        so classes and labels are numbered as the pairwise engine numbers
        them."""
        group, h = self.group, self.group.h
        if part.host.h != h:
            raise InputError("support-induced partition does not live on this group")
        blocks, k, states = part.blocks, part.num_classes, len(part.state_ids)
        cells = states * k * sum(len(b) + 1 for b in blocks)
        self.config.check("pair_work_cap", cells, "states * k * sum(n_b + 1) transform cells")
        # every sum is bounded by |G|
        dtype = np.int64 if group.order <= 1 << 62 else object
        table = np.zeros((states, k), dtype=dtype)
        table[np.arange(states), part.state_ids] = 1
        stride = _strides(blocks)
        for b in blocks:
            profiles = np.array(list(ku_rows(len(b), len(b), h[b[0]])), dtype=dtype).T
            table = np.matmul(profiles, table.reshape(-1, len(b) + 1, stride[b[0]] * k))
        table = table.reshape(states, k)
        first, state_ids = _rank_rows(table)
        cells = len(first) * k * self._phi
        self.config.check("pair_work_cap", cells, "rows * k * deg(Phi_m) coordinate cells")
        rows = np.zeros((len(first), k, self._phi), dtype=dtype)
        rows[:, :, 0] = table[first]
        labels = SignatureLabels(self.m, rows.reshape(len(first), -1), k)
        return Partition(state_ids, labels=labels, host=group, blocks=blocks, config=self.config)

    def _dual_of(self, part: Partition, labelled: bool = True) -> Partition:
        """The dual of ``part``; by the pairwise engine, the set partition
        alone unless ``labelled``."""
        if part.host_size != self.group.order:
            raise InputError("partition does not live on this group")
        if part.blocks is not None:
            return self._twin_dual(part)
        if labelled:
            return self._dual(self.exponents, part)
        return self._classes(self.exponents, part)

    def _left(self, gamma: Partition, labelled: bool) -> Partition:
        """l(Gamma), the last one kept; a kept set partition is numbered
        and labelled when a labelled dual is asked for, with no second
        evaluation."""
        last = self._last_left
        if last is None or last[0] is not gamma:
            last = (gamma, self._dual_of(gamma, labelled))
        elif labelled and last[1].labels is None:
            last = (gamma, self._number(self.exponents, gamma, last[1]))
        self._last_left = last
        return last[1]

    def left_dual(self, gamma: Partition) -> Partition:
        """The left dual partition l(Gamma): elements of G grouped by exact
        equality of all per-class character sums.

        The last result is kept, so asking again for the same Partition
        object (a check followed by an export, say) costs nothing."""
        return self._left(gamma, labelled=True)

    def right_dual(self, lam: Partition) -> Partition:
        """The right dual r(Lambda).  The pairing is symmetric, so this is
        the left-dual routine."""
        return self._dual_of(lam)


def reflexivity_check(
    ctx: DualityContext, gamma: Partition, compute_bidual: bool = False
) -> dict:
    """Verdict by cardinality comparison |Gamma| vs |l(Gamma)|; optionally
    also computes the bidual r(l(Gamma)) and asserts it is finer.  The
    verdict needs only the left dual, so a bidual over budget is reported
    as ``bidual_refused`` (the refusal message) next to the verdict.  The
    counts and comparisons need no labels, so the pairwise engine stops at
    its set partitions; a later ``left_dual`` of ``gamma`` numbers the
    kept one."""
    lam = ctx._left(gamma, labelled=False)
    out = {
        "gamma_classes": gamma.num_classes,
        "dual_classes": lam.num_classes,
        "reflexive": gamma.num_classes == lam.num_classes,
        "verdict": "reflexive" if gamma.num_classes == lam.num_classes else "non-reflexive",
    }
    if compute_bidual:
        try:
            bidual = ctx._dual_of(lam, labelled=False)
        except BudgetError as e:
            out["bidual_refused"] = str(e)
            return out
        if not bidual.is_finer(gamma):
            raise AssertionError("bidual is not finer than the input partition")
        out["bidual_classes"] = bidual.num_classes
        out["bidual_equals_gamma"] = bidual == gamma
    return out


# ---------------------------------------------------------------------------
# induced partitions
# ---------------------------------------------------------------------------

def _twin_blocks(
    group: GroupProduct, twins: Callable[[int, int], bool], config: RunConfig
) -> tuple[tuple[int, ...], ...]:
    """The twin blocks, in the order of their first coordinate: i joins the
    first block whose first coordinate j has h_j = h_i and ``twins(j, i)``,
    an equivalence (the swaps that keep every class make a group).  Their
    states only grow, so each i checks them against ``pair_work_cap``."""
    h = group.h
    blocks: list[list[int]] = []
    states = 1
    for i in range(group.n):
        for b in blocks:
            if h[b[0]] == h[i] and twins(b[0], i):
                break
        else:
            blocks.append(b := [])
        b.append(i)
        states = states // len(b) * (len(b) + 1)
        config.check("pair_work_cap", states, "support states")
    return tuple(map(tuple, blocks))


def _state_masks(blocks, units: Sequence[int]) -> np.ndarray:
    """At every state, the union of ``units[i]`` over the first s_b
    coordinates of each block b: with ``Poset.down``, the ideal closure."""
    dtype = np.int64 if len(units) < 63 else object
    prefixes = [itertools.accumulate((units[i] for i in b), operator.or_, initial=0) for b in blocks]
    return _outer([np.array(list(pre), dtype=dtype) for pre in prefixes], np.bitwise_or)


def _induce(
    group: GroupProduct, blocks, keys: np.ndarray, config: RunConfig, label: Callable = int
) -> Partition:
    """State s in the class of ``keys[s]``, classes in increasing key order
    and labelled ``label(key)``."""
    uniq, state_ids = np.unique(keys, return_inverse=True)
    labels = [label(key) for key in uniq.tolist()]
    return Partition(state_ids, labels=labels, host=group, blocks=blocks, config=config)


def induce_Q(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    config: RunConfig = DEFAULT_CONFIG,
) -> Partition:
    """Partition by (P, omega)-weight; classes keyed by weight value.

    Twins are the transpositions of Aut(P, omega).  A state weighs the sum
    of omega over the ideal closure of its representative support, with
    omega scaled to integers by the lcm ``den`` of its denominators
    (``_scaled_mask_sums``).  Labels are ``Fraction(key, den)``.
    """
    if p.n != group.n or omega.n != group.n:
        raise InputError("poset/weights do not match the coordinate set")
    w = [(v.numerator, v.denominator) for v in omega.values]
    blocks = _twin_blocks(group, lambda i, j: w[i] == w[j] and _is_swap_automorphism(p, i, j), config)
    den, sums = _scaled_mask_sums(omega.values, _state_masks(blocks, p.down))
    return _induce(group, blocks, sums, config, lambda s: Fraction(s, den))


def induce_CO(
    group: GroupProduct, t: Covering, config: RunConfig = DEFAULT_CONFIG
) -> Partition:
    """Partition by covering weight; classes keyed by T-weight.  Twins of
    P(k) are the coordinates of one order, and a state weighs
    ceil(sum(s_b) / k); twins of a member list are the swaps that fix it.
    They keep the weight w and generate the symmetric group on each block,
    so state s weighs w(rep(s)), rep(s) the first s_b coordinates of each
    block.  Entry (M, s) of the member table is the state of rep(s) minus M.
    As w(U) = min(1 + w(U minus M)) over the members M meeting U, rounds of
    w <- min(w, 1 + w at the table entries), from min(s, n) >= |rep(s)|,
    stay at or above w and leave each state of weight <= r exact after r
    rounds; they stop when no value exceeds r.  One sweep of the members,
    exact on all 2^n supports, is not on the states once twins exist."""
    if t.n != group.n:
        raise InputError("covering does not match the coordinate set")
    if t.pk is not None:
        blocks = _twin_blocks(group, lambda i, j: True, config)
        return _induce(group, blocks, -(-_outer([np.arange(len(b) + 1) for b in blocks]) // t.pk), config)
    members = {sum(1 << i for i in m) for m in t.members}

    def twins(i: int, j: int) -> bool:
        return all((m ^ (1 << i | 1 << j)) in members for m in members if (m >> i ^ m >> j) & 1)

    blocks = _twin_blocks(group, twins, config)
    states, count = math.prod(len(b) + 1 for b in blocks), len(t.members)
    config.check("pair_work_cap", states * count, "states * members covering-weight cells")
    dtype, stride = np.min_scalar_type(states - 1), _strides(blocks)
    # column t.n, no coordinate, opens each block's run of prefix sums
    inside = np.zeros((count, t.n + 1), dtype=dtype)
    inside[np.repeat(np.arange(count), [len(m) for m in t.members]), [i for m in t.members for i in m]] = 1
    runs = [np.cumsum(inside[:, [t.n, *b]], axis=1, dtype=dtype) * stride[b[0]] for b in blocks]
    table = np.arange(states, dtype=dtype) - _outer(runs)
    weights = np.minimum(np.arange(states), t.n).astype(np.min_scalar_type(t.n + 1))
    for r in itertools.count(1):
        np.minimum(weights, weights[table].min(axis=0) + 1, out=weights)
        if weights.max() <= r:
            return _induce(group, blocks, weights, config)


def induce_from_ideal_classes(
    group: GroupProduct,
    p: Poset,
    ideal_labels: dict,
    config: RunConfig = DEFAULT_CONFIG,
) -> Partition:
    """Pull an equivalence on I(P) back through the support closure.

    Without twins a state is a support, and states run in the order of the
    first element of G with that support.  Each distinct closure is looked
    up in ``ideal_labels`` once, in the order of its first state, for
    ``Partition.from_keys``."""
    if p.n != group.n:
        raise InputError("poset does not match the coordinate set")
    if set(ideal_labels) != {_unmask(c, p.n) for c in ideal_masks(p, config).tolist()}:
        raise InputError("equivalence labels must cover I(P) exactly")
    blocks = _twin_blocks(group, lambda i, j: False, config)
    uniq, first, inverse = np.unique(_state_masks(blocks, p.down), return_index=True, return_inverse=True)
    order = np.argsort(first)
    named = Partition.from_keys([ideal_labels[_unmask(c, p.n)] for c in uniq[order].tolist()])
    class_of = np.empty(len(uniq), dtype=np.int64)
    class_of[order] = named.class_ids
    return _induce(group, blocks, class_of[inverse], config, named.labels.__getitem__)


# ---------------------------------------------------------------------------
# generalized Krawtchouk matrix and the MacWilliams identity
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class KrawtchoukMatrixResult:
    ok: bool
    rho: Optional[SignatureLabels]
    witness: Optional[tuple[int, int]]


def krawtchouk_matrix(
    ctx: DualityContext, lam: Partition, gamma: Partition
) -> KrawtchoukMatrixResult:
    """rho(A, B) = class-B character sum at any representative of A.

    The precondition (lam finer than l(gamma)) is verified, not assumed;
    on failure the violating element pair is reported instead of a matrix.
    Row A is the label row of the l(gamma) class that holds A, gathered
    per lam class into a ``SignatureLabels``.
    """
    ldual = ctx.left_dual(gamma)
    if not lam.is_finer(ldual):
        return KrawtchoukMatrixResult(False, None, lam.finer_violation(ldual))
    mine, theirs = lam._common_ids(ldual)
    _, reps = np.unique(mine, return_index=True)
    labels = ldual.labels
    return KrawtchoukMatrixResult(True, SignatureLabels(labels.m, labels.rows[theirs[reps]], labels.k), None)


def _code_index_set(ctx: DualityContext, indices: Sequence[int]) -> np.ndarray:
    """The distinct element indices of a code, sorted and range-checked."""
    code = np.unique(np.asarray(indices, dtype=np.int64))
    if len(code) and not (0 <= code[0] and code[-1] < ctx.group.order):
        raise InputError(f"code index out of range [0, {ctx.group.order})")
    return code


def macwilliams_identity_holds(
    ctx: DualityContext,
    code_indices: Sequence[int],
    dual_indices: Sequence[int],
    lam: Partition,
    gamma: Partition,
) -> bool:
    """Exact check of |C| |C~ ^ B| = sum_A |C ^ A| rho(A, B) for every B.

    ``dual_indices`` is the character dual C~ of C, all b with f(a, b) = 1
    for every a in C, which the check takes as given.  The right side is
    one integer product, the lam-distribution of C (its sum is |C|) times
    the coordinate rows of rho, in int64 while |C| times their largest
    |entry| is and in Python ints above."""
    code = _code_index_set(ctx, code_indices)
    dual = _code_index_set(ctx, dual_indices)
    res = krawtchouk_matrix(ctx, lam, gamma)
    if not res.ok:
        raise InputError(f"lambda is not finer than l(gamma); witness {res.witness}")
    rows = res.rho.rows
    dtype = np.int64 if len(code) * int(np.abs(rows).max()) < 1 << 63 else object
    c_dist = np.bincount(lam.class_ids[code], minlength=lam.num_classes).astype(dtype)
    rhs = (c_dist @ rows.astype(dtype, copy=False)).reshape(gamma.num_classes, -1)
    d_dist = np.bincount(gamma.class_ids[dual], minlength=gamma.num_classes).astype(object)
    return not rhs[:, 1:].any() and np.array_equal(rhs[:, 0], len(code) * d_dist)


# ---------------------------------------------------------------------------
# theorem checkers
# ---------------------------------------------------------------------------

def theorem32_check(
    group: GroupProduct,
    p: Poset,
    omega: WeightFunction,
    udp_ok: bool,
    config: RunConfig = DEFAULT_CONFIG,
) -> dict:
    """Evaluate the four equivalent statements for hierarchical posets with
    integer weights, plus the unconditional finer-than relation.  ``udp_ok``
    is the verdict of ``posets.udp_check`` on (p, omega)."""
    h = group.h
    gamma = induce_Q(group, p, omega, config)
    ctx = DualityContext(group, config)
    lam = ctx.left_dual(gamma)
    q_dual = induce_Q(group, dual_poset(p), omega, config)

    len_p = levels(p)
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


# ---------------------------------------------------------------------------
# scalable engine for CO(H, P(k)) over H = X^n, |X| = q
# ---------------------------------------------------------------------------

def co_profile_prefix_sums(table: Sequence[Sequence[int]]) -> list[list[int]]:
    """Entry t: the running sums of column t of the ``ku_value_table`` of
    H(n, q), the Hamming-weight profile of support size t, with 0 in front,
    so that the sum over weights lo..hi-1 is ``pre[hi] - pre[lo]``.  Every
    k of an n reads the same sums."""
    return [list(itertools.accumulate(col, initial=0)) for col in zip(*table)]


def co_dual_class_count(
    q: int, n: int, k: int, prefix: Sequence[Sequence[int]] | None = None
) -> int:
    """|l(CO(X^n, P(k)))| for |X| = q: the distinct nonzero-support
    signatures plus the guaranteed identity singleton.  ``prefix`` is the
    ``co_profile_prefix_sums`` of H(n, q), built here when not given.

    Class 0 is weight 0 and class b >= 1 is weights (b-1)k+1 .. min(bk, n),
    so the class sums of support size t are the differences of its prefix
    sums at the bounds 1, k+1, 2k+1, ..., n+1.  For t >= 1 the sum at 1 is
    K_0 = 1 and the sum at n+1 is the profile at x = 1, which is 0, so the
    sums at the inner bounds alone tell the signatures apart."""
    if prefix is None:
        prefix = co_profile_prefix_sums(ku_value_table(n, q))
    return len({tuple(pre[k + 1 : n + 1 : k]) for pre in prefix[1:]}) + 1


def co_reflexivity_bruteforce(
    q: int, n: int, k: int, prefix: Sequence[Sequence[int]] | None = None
) -> dict:
    """Exact reflexivity of CO(X^n, P(k, Omega)) from the per-support-size
    character-sum profile (element-complete, since the signature of an
    element depends only on its support size).  ``prefix`` is the
    ``co_profile_prefix_sums`` of H(n, q), built here when not given."""
    if q < 2 or not 1 <= k <= n:
        raise InputError("need q >= 2 and 1 <= k <= n")
    co_classes = -(-n // k) + 1
    dual_classes = co_dual_class_count(q, n, k, prefix)
    return {
        "q": q,
        "n": n,
        "k": k,
        "co_classes": co_classes,
        "dual_classes": dual_classes,
        "reflexive": co_classes == dual_classes,
    }
