"""Linear codes over prime fields: dual codes, distribution identities,
partition-admits-MacWilliams equivalences, the invariance subgroup of a
partition inside GL(N, p) and its orbit partition, and the
extension-property witness search.

The invariance subgroup is never listed.  A stabilizer-chain search finds
strong generators for it; its order (``inv_order``) is the product of the
basic-orbit lengths, and its orbits are the closures of the space's
elements under those generators.  Before the search, the partition delta
is colour-refined to a fixed point delta' (McKay and Piperno, J. Symb.
Comput. 2014): x is keyed by its class and by the multiset of
(class(y), class(x + y)) over all y.  A linear g preserving every class
maps the multiset of x onto that of gx (put y = g y'), so
Inv(delta') = Inv(delta), and a column's candidates shrink to the vectors
of its basis vector's delta'-class.  The order, the orbits and the witness
are properties of that group and of delta alone, so the refinement changes
no output.

The ambient space prod_i F_p^(k_i) is welded to the group-product view (all
cyclic factors of order p), so the dual code of C is its character dual
C~ = {b : f(a, b) = 1 for every a in C}, and partitions transfer between
the two views unchanged.

The all-codes MacWilliams statement is decided on blocks of codes, never
one code at a time, all in integers.  Every subspace but {0} and the whole
space (each alone in its dimension) is listed by its RREF basis, and a
code and its dual are each given by the element indices of their basis
rows, read off the digits of the pattern's fill.  One span routine lists
the words of both through the |V| x |V| addition table, so a code of
dimension d costs p^d + p^(N-d) word indices.  A block holds codes of one
dimension across pivot patterns; the first block of a dimension is small
and the next ones double, so an early clash is found after few codes.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterable, Iterator, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, BudgetError, InputError, RunConfig
from .exactarith import _is_prime
from .groups import GroupProduct
from .partitions import (
    DualityContext,
    Partition,
    _rank_rows,
    co_profile_prefix_sums,
    co_reflexivity_bruteforce,
    induce_CO,
    macwilliams_identity_holds,
)
from .posets import _closure, _stabilizer_chain


def _gl_enumerable(p: int, n: int) -> bool:
    """Whether GL(n, p) is within the invariance-subgroup search's guard."""
    return (p == 2 and n <= 5) or (p == 3 and n <= 3)


@dataclasses.dataclass(frozen=True)
class PrimeFieldSpace:
    """prod_i F_p^(k_i) with the standard bilinear form and character
    x -> zeta_p^x."""

    p: int
    block_sizes: tuple[int, ...]

    def __post_init__(self):
        if not _is_prime(self.p):
            raise InputError(f"{self.p} is not prime")
        if not self.block_sizes or any(k < 1 for k in self.block_sizes):
            raise InputError("block sizes must be positive")

    @property
    def dim(self) -> int:
        return sum(self.block_sizes)

    @property
    def order(self) -> int:
        return self.p ** self.dim

    @property
    def group(self) -> GroupProduct:
        """The same space as a group product (one coordinate per block)."""
        return GroupProduct(tuple((self.p,) * k for k in self.block_sizes))

    def all_vectors(self, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
        return self.group.residue_matrix(config)


# ---------------------------------------------------------------------------
# linear codes
# ---------------------------------------------------------------------------

def rref_mod_p(rows: Sequence[Sequence[int]], p: int) -> tuple[tuple[int, ...], ...]:
    """Reduced row echelon form over F_p; zero rows dropped; unique per
    row space."""
    mat = [list(int(x) % p for x in r) for r in rows]
    if not mat:
        return ()
    ncols = len(mat[0])
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(mat)) if mat[r][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = pow(mat[rank][col], p - 2, p)
        mat[rank] = [(x * inv) % p for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col]:
                c = mat[r][col]
                mat[r] = [(a - c * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
    return tuple(tuple(r) for r in mat[:rank])


# the most codewords ``codeword_indices`` holds at once
_WORD_BLOCK = 1 << 14


@dataclasses.dataclass(frozen=True)
class LinearCode:
    space: PrimeFieldSpace
    basis: tuple[tuple[int, ...], ...]  # RREF canonical, possibly empty

    @classmethod
    def from_rows(cls, space: PrimeFieldSpace, rows: Sequence[Sequence[int]]) -> "LinearCode":
        for r in rows:
            if len(r) != space.dim:
                raise InputError("generator row has wrong length")
        return cls(space, rref_mod_p(rows, space.p))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @property
    def size(self) -> int:
        return self.space.p ** self.dim

    def codeword_indices(self, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
        """Element indices of all codewords, sorted.

        A word is the digit row of its coefficient number times the basis,
        mod p.  The last rows of the basis, with at most ``_WORD_BLOCK``
        combinations, give one block of words; the block is shifted by each
        combination of the leading rows in turn and indexed at once, so no
        more than one block of words is held."""
        p, n, dim = self.space.p, self.space.dim, self.dim
        config.check("enumeration_cap", self.size, "p^dim codewords")
        basis = np.array(self.basis, dtype=np.int64).reshape(dim, n)
        place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)

        def combinations(rows: np.ndarray) -> np.ndarray:
            digits = np.arange(p ** len(rows))[:, None] // place[n - len(rows) :] % p
            return digits @ rows % p

        low = dim
        while p**low > _WORD_BLOCK:
            low -= 1
        block = combinations(basis[dim - low :])
        if low == dim:
            indices = block @ place
        else:
            indices = np.empty((self.size // len(block), len(block)), dtype=np.int64)
            for out, shift in zip(indices, combinations(basis[: dim - low])):
                np.matmul((block + shift) % p, place, out=out)
            indices = indices.ravel()
        indices.sort()
        return indices

    def dual(self) -> "LinearCode":
        """Null space under the standard bilinear form."""
        p, n = self.space.p, self.space.dim
        if not self.basis:
            return LinearCode.from_rows(self.space, np.eye(n, dtype=int).tolist())
        # solve basis @ x = 0 from RREF structure
        basis = [list(r) for r in self.basis]
        pivots = [next(i for i, x in enumerate(r) if x) for r in basis]
        free = [i for i in range(n) if i not in pivots]
        rows = []
        for f in free:
            vec = [0] * n
            vec[f] = 1
            for r, piv in zip(basis, pivots):
                vec[piv] = (-r[f]) % p
            rows.append(vec)
        return LinearCode.from_rows(self.space, rows)


def macwilliams_verify(
    code: LinearCode,
    lam: Partition,
    gamma: Partition,
    ctx: DualityContext,
) -> dict:
    """Exact check of the distribution identity for one code; ``ctx`` is
    the duality context of the code's space, where the dual code is C~."""
    if ctx.group != code.space.group:
        raise InputError("duality context is not over the code's space")
    dual = code.dual()
    ok = macwilliams_identity_holds(
        ctx, code.codeword_indices(ctx.config), dual.codeword_indices(ctx.config), lam, gamma
    )
    return {
        "holds": ok,
        "code_dim": code.dim,
        "dual_dim": dual.dim,
    }


# ---------------------------------------------------------------------------
# codes in blocks: their distributions and the first clash
# ---------------------------------------------------------------------------

# the most word indices one block of codes holds, its codewords and its
# dual codewords together
_CODE_BLOCK = 1 << 16

# the codes in the first block of each dimension; each later block holds
# twice as many, up to ``_codes_per_block``
_FIRST_BLOCK = 16


def _codes_per_block(space: PrimeFieldSpace, d: int) -> int:
    """How many codes of dimension d a full block holds: each brings p^d
    words and p^(N-d) dual words."""
    return max(1, _CODE_BLOCK // (space.p**d + space.p ** (space.dim - d)))


def _addition(space: PrimeFieldSpace, config: RunConfig) -> np.ndarray:
    """|V| x |V| element indices of x + y, in the narrowest unsigned dtype
    that holds |V| - 1, built as ``partitions._form_table`` builds its
    forms: a coordinate in front of the last j adds ((x + y) mod p) * p^j
    to the index of the sum of the rest."""
    config.check("pair_work_cap", space.order**2, "|V|^2 addition-table cells")
    p = space.p
    dtype = np.min_scalar_type(space.order - 1)
    digit = ((np.arange(p)[:, None] + np.arange(p)) % p).astype(dtype)
    add = np.zeros((1, 1), dtype=dtype)
    for _ in range(space.dim):
        size = len(add) * p
        add = (digit[:, None, :, None] * len(add) + add[None, :, None, :]).reshape(size, size)
    return add


def _multiples(add: np.ndarray, p: int) -> np.ndarray:
    """|V| x p element indices of c * x, c = 0..p-1: cx = (c - 1)x + x."""
    mults = np.zeros((len(add), p), dtype=add.dtype)
    for c in range(1, p):
        mults[:, c] = add[mults[:, c - 1], np.arange(len(add))]
    return mults


def _span(rows: np.ndarray, add: np.ndarray, mults: np.ndarray) -> np.ndarray:
    """(F, p^r) element indices of every combination of each of F sets of r
    rows, given (F, r) as element indices: a row at a time, each word so
    far plus each multiple of the row, one gather of ``add``."""
    words = np.zeros((len(rows), 1), dtype=np.int64)
    for multiples in mults.take(rows.T, 0):
        words = add[words[:, :, None], multiples[:, None, :]].reshape(len(rows), -1)
    return words


def _basis(space: PrimeFieldSpace, rows: Sequence[int]) -> tuple[tuple[int, ...], ...]:
    """The digit rows of the given element indices: a code's RREF basis."""
    place = space.p ** np.arange(space.dim - 1, -1, -1, dtype=np.int64)
    return tuple(map(tuple, (np.array(rows, dtype=np.int64)[:, None] // place % space.p).tolist()))


def _distributions(part: Partition, words: np.ndarray) -> np.ndarray:
    """(F, k) class counts of each of the F rows of ``words``."""
    count, k = len(words), part.num_classes
    ids = part.class_ids[words]
    ids += k * np.arange(count)[:, None]
    return np.bincount(ids.ravel(), minlength=k * count).reshape(count, k)


def _distribution_clash(
    space: PrimeFieldSpace,
    lam: Partition,
    gamma: Partition,
    blocks: Iterable[tuple[np.ndarray, np.ndarray]],
    config: RunConfig,
) -> tuple | None:
    """The first two codes, in the order of ``blocks``, whose
    lam-distributions agree while their duals' gamma-distributions differ,
    as their RREF bases; None if no two codes do.

    A block is a pair of int arrays (F, d) and (F, N - d): the element
    indices of the basis rows of F codes of dimension d and of their
    duals' basis rows, and the blocks come in order of nondecreasing d.
    The words of both come from ``_span``, and both distributions of the
    block are one ``bincount`` each.  The block's distinct
    lam-distributions, ranked as rows, are looked up by their bytes
    (counts up to p^d, in the narrowest unsigned dtype) among those seen,
    each with the bytes of the gamma-distribution and the basis rows of
    the first code that had it.  Codes of different dimensions have
    different word counts, so they never share a lam-distribution, and
    only those of the current dimension are kept.  Before a block's new
    entries are stored, the entries kept then times k_lam + k_gamma
    cells are checked against ``pair_work_cap``."""
    add = _addition(space, config)
    mults = _multiples(add, space.p)
    cells = lam.num_classes + gamma.num_classes
    seen_d = -1
    for rows, dual in blocks:
        d = rows.shape[1]
        if d != seen_d:
            seen_d, seen, narrow = d, {}, np.min_scalar_type(space.p**d)
        lam_dist = _distributions(lam, _span(rows, add, mults))
        gam_dist = _distributions(gamma, _span(dual, add, mults))
        first, inverse = _rank_rows(lam_dist)
        first = first.tolist()
        keys = [row.tobytes() for row in lam_dist[first].astype(narrow)]
        new = [(key, i) for key, i in zip(keys, first) if key not in seen]
        config.check("pair_work_cap", (len(seen) + len(new)) * cells, "kept distribution cells")
        for key, i in new:
            seen[key] = (gam_dist[i].tobytes(), rows[i].tolist())
        ref = np.frombuffer(b"".join([seen[key][0] for key in keys]), dtype=gam_dist.dtype)
        clash = np.flatnonzero((ref.reshape(len(keys), -1)[inverse] != gam_dist).any(axis=1))
        if clash.size:
            at = int(clash[0])
            return _basis(space, seen[keys[inverse[at]]][1]), _basis(space, rows[at])
    return None


# ---------------------------------------------------------------------------
# the all-codes statement
# ---------------------------------------------------------------------------

def _zero_is_singleton(lam: Partition) -> bool:
    return int(np.sum(lam.class_ids == lam.class_ids[0])) == 1


def _subspace_count(p: int, n: int) -> int:
    """The number of subspaces of F_p^n: the sum over d of the Gaussian
    binomials [n choose d]_p, each the last times (p^(n-d) - 1) / (p^(d+1) - 1)."""
    total, term = 0, 1
    for d in range(n + 1):
        total += term
        term = term * (p ** (n - d) - 1) // (p ** (d + 1) - 1)
    return total


def _subspace_blocks(space: PrimeFieldSpace) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every subspace of F_p^N but {0} and F_p^N exactly once, as the
    element indices of its RREF basis rows and of its dual's basis rows, in
    blocks of codes of one dimension.  The two left out are each the only
    code of their dimension, so they share a lam-distribution with no other
    code.

    By dimension d, then pivot tuple in ``itertools.combinations`` order;
    a pattern's free entries B[r, c] (right of a pivot, outside the pivot
    columns, row by row) take the base-p digits of 0, 1, ..., p^f - 1,
    most significant first, so the fills come in ``itertools.product``
    order.  Row r's free entries lie in the last width_r of the N - d free
    columns, so its chunk of the fill, read as N - d digits, is its row of
    B over the free columns.  Row r is e_(piv_r) + sum_c B[r, c] e_c, and
    the dual has a row e_c - sum_r B[r, c] e_(piv_r) for each free column
    c, orthogonal to every row r.  The codes of a dimension are numbered
    across patterns, and the rows of up to ``_codes_per_block`` of them
    are made at once, each code's pattern found by its number, in
    d (N - d) digit cells a code, fewer than its p^d + p^(N - d) words.
    They are handed out in blocks: the first of a dimension holds
    ``_FIRST_BLOCK`` codes and each next one twice as many, up to
    ``_codes_per_block``, so an early clash is found after few codes."""
    p, n = space.p, space.dim
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for d in range(1, n):
        piv = np.array(list(itertools.combinations(range(n), d)), dtype=np.int64)
        is_free = np.ones((len(piv), n), dtype=bool)
        is_free[np.arange(len(piv))[:, None], piv] = False
        piv_place = place[piv]
        free_place = np.broadcast_to(place, is_free.shape)[is_free].reshape(len(piv), n - d)
        # row r's chunk of the fill f is f % p^(after + width) // p^after:
        # its width free columns, then the later rows' digits
        width = n - d - (piv - np.arange(d))
        after = np.cumsum(width[:, ::-1], axis=1)[:, ::-1] - width
        high, low = p ** (after + width), p**after
        sizes = p ** width.sum(axis=1)
        starts = np.cumsum(sizes) - sizes
        # a chunk's entries over the free columns, and their negatives
        digits = np.arange(p ** (n - d))[:, None] // place[d:] % p
        negated = -digits % p
        full = _codes_per_block(space, d)
        size, total = min(_FIRST_BLOCK, full), int(sizes.sum())
        for lo in range(0, total, full):
            code = np.arange(lo, min(total, lo + full))
            pat = np.searchsorted(starts, code, side="right") - 1
            chunk = (code - starts[pat])[:, None] % high.take(pat, 0) // low.take(pat, 0)
            pp, fp = piv_place.take(pat, 0), free_place.take(pat, 0)
            rows = pp + np.einsum("crj,cj->cr", digits.take(chunk, 0), fp)
            dual = fp + np.einsum("cr,crj->cj", pp, negated.take(chunk, 0))
            at = 0
            while at < len(code):
                yield rows[at : at + size], dual[at : at + size]
                at, size = at + size, min(2 * size, full)


def macwilliams_admits(
    space: PrimeFieldSpace,
    lam: Partition,
    gamma: Partition,
    config: RunConfig = DEFAULT_CONFIG,
) -> dict:
    """Exhaustive all-codes statement: codes with equal lam-distributions
    must have gamma-equidistributed duals.  Also requires the zero class to
    be a singleton of lam.

    Both partitions must be of ``space.group``, or ``InputError`` is
    raised before any work.  Then the exact number of subspaces is
    checked against ``enumeration_cap``, and the |V| x |V| addition
    table, from which every codeword and dual codeword index is read,
    against ``pair_work_cap`` before it is built.  The codes go to
    ``_distribution_clash`` in the blocks of ``_subspace_blocks``, each
    of at most ``_codes_per_block`` codes, and the witness is the RREF
    basis of the first code whose dual's gamma-distribution differs from
    that of an earlier code with the same lam-distribution."""
    for part in (lam, gamma):
        if part.host_size != space.order or part.host not in (None, space.group):
            raise InputError("partition is not of the code space")
    config.check(
        "enumeration_cap",
        _subspace_count(space.p, space.dim),
        f"subspaces of F_{space.p}^{space.dim}",
    )
    zero_singleton = _zero_is_singleton(lam)
    clash = None
    if zero_singleton:
        clash = _distribution_clash(space, lam, gamma, _subspace_blocks(space), config)
    return {
        "admits": zero_singleton and clash is None,
        "zero_singleton": zero_singleton,
        "witness": None if clash is None else clash[1],
    }


# ---------------------------------------------------------------------------
# the invariance subgroup inside GL(N, p)
# ---------------------------------------------------------------------------

def _refine(cls: np.ndarray, add: np.ndarray, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """The colour refinement of the classes ``cls`` (contiguous ids, one
    per vector index) to a fixed point, read off the index table ``add``
    of x + y.

    A round keys each x by the sorted row of (cls(x), cls(y), cls(x + y))
    over all y, one integer each below m^3 for m <= |V| classes (an int64
    while |V| < 2^21), and the rows' ranks (``_rank_rows``) are the next classes.  The key holds cls(x), so
    each round refines the last, and the rounds stop when the class count
    stops growing.  Each round builds |V|^2 keys and ranks a copy of them;
    those 2|V|^2 cells are checked against ``pair_work_cap`` first."""
    size, num = len(cls), int(cls.max()) + 1
    while True:
        config.check("pair_work_cap", 2 * size * size, "2|V|^2 colour-refinement cells")
        keys = np.add.outer(cls * (num * num), cls * num)
        keys += cls[add]
        keys.sort(axis=1)
        new = _rank_rows(keys)[1]
        count = int(new.max()) + 1
        if count == num:
            return cls
        cls, num = new, count


def _invariance_orbits(
    space: PrimeFieldSpace,
    delta: Partition,
    config: RunConfig = DEFAULT_CONFIG,
) -> tuple[int, Partition]:
    """The order of Inv(delta), the invertible linear maps preserving every
    class of delta, and its orbit partition of the space, numbered in the
    order of the orbits' least elements.

    delta is refined first (``_refine``) to its fixed point delta'.  It
    refines delta, so Inv(delta') lies in Inv(delta).  Conversely, if every
    g in Inv(delta) preserves the classes of one round, it preserves the
    keys of the next: the key of gx counts (cls(y), cls(gx + y)) over all
    y, and with y = g y' that is (cls(g y'), cls(g(x + y'))) =
    (cls(y'), cls(x + y')).  So Inv(delta') = Inv(delta), and the search
    runs on delta'.

    A stabilizer chain (``posets._stabilizer_chain``) on the basis
    vectors: the image of e_l, with e_0..e_(l-1) fixed, is tried at each
    vector c of the delta'-class of e_l, and backtracking over the later
    columns completes it to a map of Inv(delta').  The maps act on the
    element indices, so the orbits are the closures under the generators;
    the order and the orbits are those of the group, whatever classes the
    search read."""
    p, n = space.p, space.dim
    if not _gl_enumerable(p, n):
        raise BudgetError("invariance-subgroup search guarded to GL(5,2) / GL(3,3)")
    size = space.order
    add_table = _addition(space, config)
    cls = _refine(delta.class_ids, add_table, config).tolist()
    add = add_table.tolist()
    unit = [p ** (n - 1 - j) for j in range(n)]  # the index of e_j
    # column j is the image of e_j, so it lies in the class of e_j
    candidates = [[c for c in range(size) if cls[c] == cls[u]] for u in unit]
    mults = _multiples(add_table, p).tolist()
    # img maps every vector supported on the settled columns; the vectors
    # supported on columns 0..j-1 carry the largest place values, so they
    # are the multiples of p^(n-j), and adding coef * e_j to one is exact
    img = list(range(size))

    def settle(j: int, c: int) -> bool:
        """Set column j to c; False at the first class violation."""
        base = unit[j]
        for coef in range(1, p):
            shifted, off = mults[c][coef], coef * base
            for s2 in range(0, size, base * p):
                im = add[img[s2]][shifted]
                if cls[s2 + off] != cls[im]:
                    return False
                img[s2 + off] = im
        return True

    def complete(j: int) -> bool:
        """Whether columns j..n-1 extend the settled ones to a map of
        Inv(delta), which img then holds."""
        if j == n:
            return True
        span = {img[s] for s in range(0, size, unit[j] * p)}
        return any(c not in span and settle(j, c) and complete(j + 1) for c in candidates[j])

    def image(lvl: int, c: int) -> list[int] | None:
        if settle(lvl, c) and complete(lvl + 1):
            return img.copy()
        return None

    # img stays the identity on the span of e_0..e_(l-1), the multiples of
    # p^(n-l): the levels searched before settle only vectors outside it,
    # and an image of e_l inside it would make the map singular
    outside = [[c for c in cands if c % (u * p)] for u, cands in zip(unit, candidates)]
    order, gens = _stabilizer_chain(unit, outside, image)
    ids = [-1] * size
    num = 0
    for x in range(size):
        if ids[x] < 0:
            for y in _closure([x], gens):
                ids[y] = num
            num += 1
    return order, Partition(np.array(ids, dtype=np.int64), host=space.group)


def mep_witness_search(
    space: PrimeFieldSpace,
    delta: Partition,
    config: RunConfig = DEFAULT_CONFIG,
) -> dict:
    """Search for a one-dimensional extension-property counter-example: a
    same-class pair lying in different orbits of the invariance subgroup.

    Such a pair alpha, beta defines an injective map F.alpha -> H sending
    alpha to beta that preserves classes but extends to no class-preserving
    automorphism.

    ``inv_order`` is |Inv(delta)|, the product of the basic-orbit lengths
    down the stabilizer chain of ``_invariance_orbits``; the orbits come
    from the strong generators that search finds, so no list of the group
    is built."""
    inv_order, orb = _invariance_orbits(space, delta, config)
    if not orb.is_finer(delta):
        raise AssertionError("orbit partition must refine the input partition")
    result = {
        "inv_order": inv_order,
        "orbit_classes": orb.num_classes,
        "delta_classes": delta.num_classes,
        "witness": None,
    }
    if orb.num_classes == delta.num_classes:
        return result
    # find a delta class split into several orbits
    pairs = delta.class_ids * orb.num_classes + orb.class_ids
    order = np.argsort(pairs, kind="stable")
    sorted_delta = delta.class_ids[order]
    sorted_orbit = orb.class_ids[order]
    for i in range(len(order) - 1):
        if sorted_delta[i] == sorted_delta[i + 1] and sorted_orbit[i] != sorted_orbit[i + 1]:
            a, b = int(order[i]), int(order[i + 1])
            alpha, beta = np.transpose(np.unravel_index([a, b], space.group.factor_orders)).tolist()
            result["witness"] = {
                "alpha": alpha,
                "beta": beta,
                "class_label": int(delta.class_ids[a]),
                "inv_order": inv_order,
            }
            return result
    raise AssertionError("class counts differ but no split class found")


# ---------------------------------------------------------------------------
# the conjecture report
# ---------------------------------------------------------------------------

def co_vector_space_partition(
    space: PrimeFieldSpace, k: int, config: RunConfig = DEFAULT_CONFIG
) -> Partition:
    """The all-k-subsets covering partition in the vector-space view."""
    from .metrics import pk_covering

    return induce_CO(space.group, pk_covering(k, len(space.block_sizes)), config)


def conjecture21_report(
    q_prime: int, n: int, k: int, config: RunConfig = DEFAULT_CONFIG
) -> dict:
    """Evidence-tiered verdict on whether the k-covering partition of
    F_q^n satisfies the extension property.

    Non-reflexivity refutes the extension property (the orbit equality
    implies reflexivity); the witness search runs, and attaches a concrete
    pair when it finds one, within the GL(5,2) / GL(3,3) guard.  Both
    tables are built under ``config``, whose cap on n is checked first."""
    from .krawtchouk import co_nonreflexivity_verdict, ku_value_table

    if not _is_prime(q_prime):
        raise InputError("prime-field scope: q must be prime")
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    config.check("krawtchouk_cap_n", n, "Krawtchouk n")
    report: dict = {"q": q_prime, "n": n, "k": k, "tiers": []}
    crit = co_nonreflexivity_verdict(n, k, q_prime, config=config)
    report["criteria"] = crit
    if crit["verdict"] == "non-reflexive":
        report["tiers"].append("criteria-non-reflexive")
    brute = co_reflexivity_bruteforce(q_prime, n, k, co_profile_prefix_sums(ku_value_table(n, q_prime, config)))
    report["brute_force"] = brute
    if not brute["reflexive"]:
        report["tiers"].append("brute-force-non-reflexive")
    witness = None
    if _gl_enumerable(q_prime, n):
        space = PrimeFieldSpace(q_prime, (1,) * n)
        delta = co_vector_space_partition(space, k, config)
        search = mep_witness_search(space, delta, config)
        report["witness_search"] = search
        witness = search["witness"]
        if witness is not None:
            report["tiers"].append("explicit-witness")
    nonreflexive = crit["verdict"] == "non-reflexive" or not brute["reflexive"]
    if witness is not None:
        report["refuted"] = True
        report["evidence"] = "explicit non-extendable one-dimensional isometry"
    elif nonreflexive:
        report["refuted"] = True
        report["evidence"] = (
            "non-reflexivity; the orbit-equality property implies reflexivity, "
            "so the extension property fails"
        )
    else:
        report["refuted"] = False
        checked = (
            "every class is one orbit of the invariance group, so no one-dimensional witness exists"
            if "witness_search" in report
            else "no witness search outside GL(5,2) / GL(3,3)"
        )
        report["evidence"] = f"reflexive; {checked}; instance open"
    return report


# ---------------------------------------------------------------------------
# generator-matrix files
# ---------------------------------------------------------------------------

def parse_code_file(text: str) -> LinearCode:
    """First line: "p N k_1 k_2 ..." with sum k_i = N; following lines are
    generator rows of N space-separated digits."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise InputError("empty code file")
    head = lines[0].split()
    if len(head) < 3:
        raise InputError("header needs: p N dims...")
    try:
        p, n, *dims = (int(x) for x in head)
    except ValueError as e:
        raise InputError(f"bad header: {e}") from None
    if sum(dims) != n:
        raise InputError("block sizes must sum to N")
    space = PrimeFieldSpace(p, tuple(dims))
    rows = []
    for ln in lines[1:]:
        try:
            row = [int(x) for x in ln.split()]
        except ValueError as e:
            raise InputError(f"bad row {ln!r}: {e}") from None
        if len(row) != n:
            raise InputError(f"row {ln!r} has wrong length")
        rows.append(row)
    return LinearCode.from_rows(space, rows)
