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
  P_b the Krawtchouk matrix of H(n_b, h_b) (``hamming_sum_profiles``), so
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

The evaluation is exact.  Write s_a(C) for the sum over b in C of
zeta_m^e(a, b), an element of Z[zeta_m] whose power-basis coordinates are
at most |C| R in size, R the largest |coefficient| of x^e mod Phi_m.  p
exceeds 2 |G| R, so a difference d = s_a(C) - s_a'(C) has coordinates
below p in size.  Phi_m splits into distinct linear factors mod p, with
roots omega^u for the units u of Z/m, so Z[zeta_m] / p = prod_u F_p through
zeta_m -> omega^u, and d vanishes at every omega^u exactly when d lies in
p Z[zeta_m], that is, when its coordinates are multiples of p; below p in
size, they are then 0.  The pairing is bilinear, e(ua, b) = u e(a, b), so
s_a(C) at omega^u is s_ua(C) at omega: a and a' have equal class sums
exactly when the rows of ua and ua' agree at omega for every unit u.  No
rounding and nothing probabilistic enters.

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
from .exactarith import CycInt, _cyclotomic_coeffs, _is_prime, euler_phi_degree
from .groups import GroupProduct
from .metrics import Covering, WeightFunction, _outer, _scaled_mask_sums
from .posets import Poset, _is_swap_automorphism, _unmask, dual_poset, ideal_masks, levels


# ---------------------------------------------------------------------------
# partitions of a group
# ---------------------------------------------------------------------------

# ``Partition.export`` leaves out signature labels of more entries
_LABEL_CAP = 1 << 20


def _rank_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """First index and lexicographic rank of every distinct row.

    Rows are grouped by their bytes: after the shift, the big-endian bytes
    of a row, in the narrowest unsigned width that holds its span, sort as
    its numbers do.  Rows of Python ints are ranked as tuples.
    """
    if rows.dtype == object:
        keys = list(map(tuple, rows.tolist()))
        rank = {key: r for r, key in enumerate(sorted(set(keys)))}
        inverse = np.array([rank[key] for key in keys], dtype=np.int64)
        return np.unique(inverse, return_index=True)[1], inverse
    low = rows.min()
    span = int(rows.max()) - int(low)
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
    the least prime p = 1 (mod m) above 2 * order * R, R the largest
    |coefficient| of x^e mod Phi_m over e < m, and omega = g^((p - 1) / m)
    for the least g that gives omega the order m.

    R comes from the recurrence of ``exactarith._reduction_rows``, one row
    at a time; below 2^31, the next row stays inside int64."""
    poly = np.array(_cyclotomic_coeffs(m)[:-1], dtype=np.int64)
    row = np.zeros(len(poly), dtype=np.int64)
    row[-1] = height = 1
    for _ in range(m - len(poly)):
        row = np.concatenate(([0], row[:-1])) - row[-1] * poly
        height = max(height, int(np.abs(row).max()))
        if height >= 1 << 31:
            raise InputError(f"x^e mod Phi_{m} has coefficients past 2^31")
    bound = 2 * order * height
    p = bound - bound % m + 1
    while p <= bound or not _is_prime(p):
        p += m
    primes = [q for q in range(2, m + 1) if m % q == 0 and _is_prime(q)]
    omegas = (pow(g, (p - 1) // m, p) for g in itertools.count(2))
    return p, next(w for w in omegas if all(pow(w, m // q, p) != 1 for q in primes))


class DualityContext:
    """Dual partitions over G ~ H (one matched product).

    The engine is picked per partition: twin classes when the partition
    has ``blocks``, the pairwise engine otherwise.  The pairing-exponent
    table and the evaluation set-up of the pairwise engine are built on
    first use, by a pairwise dual only.
    """

    def __init__(self, group: GroupProduct, config: RunConfig = DEFAULT_CONFIG):
        self.group = group
        self.m = group.exponent
        self.config = config
        config.check("enumeration_cap", self.m, "exponent m of the cyclotomic field")
        self._phi = euler_phi_degree(self.m)
        self._table: Optional[np.ndarray] = None
        self._field: Optional[tuple[int, np.ndarray, np.ndarray]] = None
        self._last_left: Optional[tuple[Partition, Partition]] = None

    @property
    def exponents(self) -> np.ndarray:
        """The |G| x |H| pairing-exponent table, built on first use: entry
        (a, b) is the e with f(a, b) = zeta_m^e, where a cyclic factor of
        order d contributes (m/d) * a_f * b_f."""
        if self._table is None:
            group, m = self.group, self.m
            self.config.check("pair_work_cap", group.order**2, "|G|*|H| pairing table cells")
            v = group.residue_matrix(self.config)
            weighted = v * np.array([m // d for d in group.factor_orders], dtype=np.int64)
            # int16 holds every exponent below 2^15; wider moduli need int32
            table = np.empty((len(v), len(v)), dtype=np.int16 if m <= 1 << 15 else np.int32)
            # int64 products in blocks of about 2^20 cells, reduced into the table
            chunk = max(1, (1 << 20) // len(v))
            for start in range(0, len(v), chunk):
                block = weighted[start : start + chunk] @ v.T
                np.remainder(block, m, out=table[start : start + chunk], casting="unsafe")
            self._table = table
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

    def _evaluation(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The pairwise engine's set-up, built by its first dual: the prime
        p and omega of ``_split_prime``, the powers omega^e mod p (e < m),
        in int64 while p * max(p, |G|) < 2^62 and in Python ints above, and
        the index of u*a for every element a (rows) and every unit u of Z/m
        (columns)."""
        if self._field is None:
            group, m = self.group, self.m
            units = np.array([u for u in range(1, m) if math.gcd(u, m) == 1])
            self.config.check("pair_work_cap", group.order * len(units), "|G| * phi(m) unit-gather cells")
            p, omega = _split_prime(m, group.order)
            dtype = np.int64 if p * max(p, group.order) < 1 << 62 else object
            powers = itertools.accumulate(range(m - 1), lambda x, _: x * omega % p, initial=1)
            # the mixed-radix index of u*a, a factor's residue at a time
            scaled = np.zeros((len(units), 1), dtype=np.int64)
            for d in group.factor_orders:
                digits = units[:, None, None] * np.arange(d) % d
                scaled = (scaled[:, :, None] * d + digits).reshape(len(units), -1)
            self._field = p, np.array(list(powers), dtype=dtype), scaled.T.copy()
        return self._field

    def _classes(self, exponents: np.ndarray, part: Partition) -> Partition:
        """The pairwise engine's dual as a set partition, unlabelled: a and
        a' share a class exactly when they have the same class character
        sums (the exactness proof is in the module docstring).

        S[a, C], the sum over b in C of omega^e(a, b) mod p, is read in
        blocks of about 2^20 table cells, as int64 sums over the columns
        sorted by class; ranking the rows of S and then the rows of those
        ranks at u*a over every unit u gives the classes.  ``exponents``
        is a pairing table of G (rows in index order) against H, of chi or
        of any chi^u: e'(ua, b) = u e'(a, b) holds for every one."""
        nrows, ncols = exponents.shape
        k = part.num_classes
        self.config.check("pair_work_cap", nrows * k, "|G| * k evaluation cells")
        p, powers, units = self._evaluation()
        columns = np.argsort(part.class_ids, kind="stable")
        sizes = part.class_sizes()
        starts = np.cumsum(sizes) - sizes
        sums = np.empty((nrows, k), dtype=powers.dtype)
        chunk = max(1, (1 << 20) // ncols)
        for start in range(0, nrows, chunk):
            block = powers[exponents[start : start + chunk][:, columns]]
            sums[start : start + chunk] = np.add.reduceat(block, starts, axis=1) % p
        conjugates = _rank_rows(sums)[1][units]
        return Partition(_rank_rows(conjugates)[1], host=self.group)

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
            profiles = np.array(hamming_sum_profiles(h[b[0]], len(b)), dtype=dtype)
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
    first block whose first coordinate j has h_j = h_i and ``twins(j, i)``
    (the swaps that keep every class make a group, so this is an
    equivalence).  Their states are checked against ``pair_work_cap``."""
    h = group.h
    blocks: list[list[int]] = []
    for i in range(group.n):
        for b in blocks:
            if h[b[0]] == h[i] and twins(b[0], i):
                b.append(i)
                break
        else:
            blocks.append([i])
    config.check("pair_work_cap", math.prod(len(b) + 1 for b in blocks), "support states")
    return tuple(map(tuple, blocks))


def _state_masks(blocks, units: Sequence[int]) -> np.ndarray:
    """At every state, the union of ``units[i]`` over the first s_b
    coordinates of each block b: with 1 << i the state's representative
    support, with ``Poset.down`` its ideal closure."""
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
    ceil(sum(s_b) / k); twins of a member list are the swaps that fix it."""
    if t.n != group.n:
        raise InputError("covering does not match the coordinate set")
    if t.pk is not None:
        blocks = _twin_blocks(group, lambda i, j: True, config)
        return _induce(group, blocks, -(-_outer([np.arange(len(b) + 1) for b in blocks]) // t.pk), config)
    members = {sum(1 << i for i in m) for m in t.members}

    def twins(i: int, j: int) -> bool:
        flip = 1 << i | 1 << j
        return all((m ^ flip) in members for m in members if (m >> i ^ m >> j) & 1)

    blocks = _twin_blocks(group, twins, config)
    weights = t.mask_weights(config)
    return _induce(group, blocks, weights[_state_masks(blocks, [1 << i for i in range(t.n)])], config)


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
    Row A is the label of the l(gamma) class that holds A.
    """
    ldual = ctx.left_dual(gamma)
    if not lam.is_finer(ldual):
        return KrawtchoukMatrixResult(False, None, lam.finer_violation(ldual), lam, gamma)
    mine, theirs = lam._common_ids(ldual)
    _, reps = np.unique(mine, return_index=True)
    rho = [list(ldual.labels[c]) for c in theirs[reps].tolist()]
    return KrawtchoukMatrixResult(True, rho, None, lam, gamma)


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
    for every a in C, which the check takes as given."""
    code = _code_index_set(ctx, code_indices)
    dual = _code_index_set(ctx, dual_indices)
    res = krawtchouk_matrix(ctx, lam, gamma)
    if not res.ok:
        raise InputError(f"lambda is not finer than l(gamma); witness {res.witness}")
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

def hamming_sum_profiles(q: int, n: int) -> list[list[int]]:
    """Exact per-Hamming-weight character sums for an element of each
    support size t in 0..n (entry t), by polynomial arithmetic (no
    Krawtchouk formulas involved).

    Profile t is (1 - x)^t (1 + (q-1) x)^(n-t): a coordinate with identity
    entry contributes (1 + (q-1) x); a non-identity entry contributes
    (1 - x) because the full character orbit sums to zero.  Profile t - 1
    is profile t divided by (1 - x), a running sum, times (1 + (q-1) x), so
    all n + 1 profiles cost O(n^2).
    """
    prof = [(-1) ** i * math.comb(n, i) for i in range(n + 1)]
    profiles = [prof]
    for _ in range(n):
        quot = list(itertools.accumulate(prof))  # its last entry is prof(1) = 0
        prof = [quot[0]] + [quot[i] + (q - 1) * quot[i - 1] for i in range(1, n + 1)]
        profiles.append(prof)
    return profiles[::-1]


def co_profile_prefix_sums(q: int, n: int, config: RunConfig = DEFAULT_CONFIG) -> list[list[int]]:
    """Entry t: the running sums of profile t of ``hamming_sum_profiles``,
    with 0 in front, so that the sum over weights lo..hi-1 is
    ``pre[hi] - pre[lo]``.  Every k of an n reads the same sums.  O(n^2)
    big-integer operations; n is checked against ``krawtchouk_cap_n``
    first."""
    config.check("krawtchouk_cap_n", n, "Krawtchouk n")
    return [list(itertools.accumulate(prof, initial=0)) for prof in hamming_sum_profiles(q, n)]


def co_dual_class_count(
    q: int, n: int, k: int, prefix: Sequence[Sequence[int]] | None = None
) -> int:
    """|l(CO(X^n, P(k)))| for |X| = q: the distinct nonzero-support
    signatures plus the guaranteed identity singleton.  ``prefix`` is
    ``co_profile_prefix_sums(q, n)``, built here when not given.

    Class 0 is weight 0 and class b >= 1 is weights (b-1)k+1 .. min(bk, n),
    so the class sums of support size t are the differences of its prefix
    sums at the bounds 1, k+1, 2k+1, ..., n+1.  For t >= 1 the sum at 1 is
    K_0 = 1 and the sum at n+1 is the profile at x = 1, which is 0, so the
    sums at the inner bounds alone tell the signatures apart."""
    if prefix is None:
        prefix = co_profile_prefix_sums(q, n)
    return len({tuple(pre[k + 1 : n + 1 : k]) for pre in prefix[1:]}) + 1


def co_reflexivity_bruteforce(
    q: int, n: int, k: int, prefix: Sequence[Sequence[int]] | None = None
) -> dict:
    """Exact reflexivity of CO(X^n, P(k, Omega)) from the per-support-size
    character-sum profile (element-complete, since the signature of an
    element depends only on its support size).  ``prefix`` is
    ``co_profile_prefix_sums(q, n)``, built here when not given."""
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
