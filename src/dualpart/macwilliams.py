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
one code at a time: every subspace is listed by its RREF basis, a block
holding the bases of one pivot pattern, and each block's words, duals and
distributions are a few array operations, all in integers.
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


def _indices(space: PrimeFieldSpace, vectors: np.ndarray) -> np.ndarray:
    """Element indices of vectors (along the last axis, entries taken mod p)
    in the index encoding of ``space.group``: first entry most significant."""
    place = space.p ** np.arange(space.dim - 1, -1, -1, dtype=np.int64)
    return (vectors % space.p) @ place


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

# the most cells one block of codes holds: the digits of its words and
# the dual flags of its generator rows
_CODE_BLOCK = 1 << 16


def _codes_per_block(space: PrimeFieldSpace, d: int) -> int:
    """How many codes of dimension d one block holds: each brings p^d words
    of N digits and d + 1 rows of |V| dual flags."""
    cells = space.p**d * space.dim + (d + 1) * space.order
    return max(1, _CODE_BLOCK // cells)


def _orthogonality(space: PrimeFieldSpace, config: RunConfig) -> np.ndarray:
    """|V| x |V| booleans: whether the two vectors' bilinear form is 0.

    The forms of the last j coordinates make a p^j x p^j table, and one
    more coordinate in front adds x * y: the form of (x, a) and (y, b) is
    x * y plus that of a and b, mod p, in a dtype that holds 2(p - 1)."""
    config.check("pair_work_cap", space.order**2, "|V|^2 orthogonality cells")
    p = space.p
    dtype = np.min_scalar_type(2 * (p - 1))
    prod = (np.arange(p)[:, None] * np.arange(p) % p).astype(dtype)
    form = np.zeros((1, 1), dtype=dtype)
    for _ in range(space.dim):
        size = len(form) * p
        form = ((prod[:, None, :, None] + form[None, :, None, :]) % p).reshape(size, size)
    return form == 0


def _addition(space: PrimeFieldSpace, config: RunConfig) -> np.ndarray:
    """|V| x |V| element indices of x + y, built as ``_orthogonality``
    builds its forms: a coordinate in front of the last j adds
    ((x + y) mod p) * p^j to the index of the sum of the rest."""
    config.check("pair_work_cap", space.order**2, "|V|^2 addition-table cells")
    p = space.p
    digit = (np.arange(p)[:, None] + np.arange(p)) % p
    add = np.zeros((1, 1), dtype=np.int64)
    for _ in range(space.dim):
        size = len(add) * p
        add = (digit[:, None, :, None] * len(add) + add[None, :, None, :]).reshape(size, size)
    return add


def _as_basis(rows: np.ndarray) -> tuple[tuple[int, ...], ...]:
    return tuple(map(tuple, rows.tolist()))


def _distribution_clash(
    space: PrimeFieldSpace,
    lam: Partition,
    gamma: Partition,
    blocks: Iterable[np.ndarray],
    config: RunConfig,
) -> tuple | None:
    """The first two codes, in the order of ``blocks``, whose
    lam-distributions agree while their duals' gamma-distributions differ;
    None if no two codes do.

    A block is an int array (F, d, N) of F bases of d rows each, and the
    blocks come in order of nondecreasing d.  The words of a block are
    every digit row of p^d times each basis; a dual word is a vector whose
    form with every basis row is 0, read off the orthogonality table, so
    the zero code's dual is the whole space.  Both distributions of the
    block are one ``bincount`` each.  The block's distinct
    lam-distributions, ranked as rows, are looked up by their bytes among
    those seen, each with the gamma-distribution and basis of the first
    code that had it.  Codes of different dimensions have different word
    counts, so they never share a lam-distribution, and only those of the
    current dimension are kept."""
    p, n = space.p, space.dim
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    ortho = _orthogonality(space, config)
    nl, ng = lam.num_classes, gamma.num_classes
    seen_d = -1
    for basis in blocks:
        count, d = basis.shape[:2]
        if d != seen_d:
            seen_d, seen = d, {}
            digits = np.arange(p**d)[:, None] // place[n - d :] % p
        words = (digits @ basis % p) @ place
        lam_ids = lam.class_ids[words] + nl * np.arange(count)[:, None]
        lam_dist = np.bincount(lam_ids.ravel(), minlength=nl * count).reshape(count, nl)
        code, word = np.nonzero(ortho[basis @ place].all(axis=1))
        gam_ids = gamma.class_ids[word] + ng * code
        gam_dist = np.bincount(gam_ids, minlength=ng * count).reshape(count, ng)
        first, inverse = _rank_rows(lam_dist)
        keys = [lam_dist[i].tobytes() for i in first.tolist()]
        for key, i in zip(keys, first.tolist()):
            if key not in seen:
                # a copy, so the block's arrays are not held
                seen[key] = (gam_dist[i].copy(), _as_basis(basis[i]))
        ref = np.array([seen[key][0] for key in keys])
        clash = np.flatnonzero((ref[inverse] != gam_dist).any(axis=1))
        if clash.size:
            at = int(clash[0])
            return seen[keys[inverse[at]]][1], _as_basis(basis[at])
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


def _subspace_blocks(space: PrimeFieldSpace) -> Iterator[np.ndarray]:
    """Every subspace of F_p^N exactly once, as its RREF basis, in blocks
    of ``_codes_per_block`` bases of one pivot pattern.

    By dimension d, then pivot tuple in ``itertools.combinations`` order;
    a pattern's free entries (right of a pivot, outside the pivot columns,
    row by row) take the base-p digits of 0, 1, ..., p^f - 1, most
    significant first, so the fills come in ``itertools.product`` order."""
    p, n = space.p, space.dim
    for d in range(n + 1):
        step = _codes_per_block(space, d)
        for pivots in itertools.combinations(range(n), d):
            slots = [(r, c) for r, piv in enumerate(pivots) for c in range(piv + 1, n) if c not in pivots]
            rows, cols = np.array(slots, dtype=np.int64).reshape(-1, 2).T
            fill_place = p ** np.arange(len(slots) - 1, -1, -1, dtype=np.int64)
            echelon = np.eye(n, dtype=np.int64)[list(pivots)]
            total = p ** len(slots)
            for lo in range(0, total, step):
                fills = np.arange(lo, min(lo + step, total))
                block = np.repeat(echelon[None], len(fills), axis=0)
                block[:, rows, cols] = fills[:, None] // fill_place % p
                yield block


def macwilliams_admits(
    space: PrimeFieldSpace,
    lam: Partition,
    gamma: Partition,
    config: RunConfig = DEFAULT_CONFIG,
) -> dict:
    """Exhaustive all-codes statement: codes with equal lam-distributions
    must have gamma-equidistributed duals.  Also requires the zero class to
    be a singleton of lam.

    The exact number of subspaces is checked against ``enumeration_cap``
    before anything else, and the |V| x |V| orthogonality table against
    ``pair_work_cap`` before it is built.  The codes go to
    ``_distribution_clash`` in the blocks of ``_subspace_blocks``, and the
    witness is the RREF basis of the first code whose dual's
    gamma-distribution differs from that of an earlier code with the same
    lam-distribution."""
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
    v = space.all_vectors(config)
    add_table = _addition(space, config)
    cls = _refine(delta.class_ids, add_table, config).tolist()
    add = add_table.tolist()
    unit = [p ** (n - 1 - j) for j in range(n)]  # the index of e_j
    # column j is the image of e_j, so it lies in the class of e_j
    candidates = [[c for c in range(size) if cls[c] == cls[u]] for u in unit]
    smul = [_indices(space, c * v).tolist() for c in range(p)]
    # img maps every vector supported on the settled columns; the vectors
    # supported on columns 0..j-1 carry the largest place values, so they
    # are the multiples of p^(n-j), and adding coef * e_j to one is exact
    img = list(range(size))

    def settle(j: int, c: int) -> bool:
        """Set column j to c; False at the first class violation."""
        base = unit[j]
        for coef in range(1, p):
            shifted, off = smul[coef][c], coef * base
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
    from .krawtchouk import co_nonreflexivity_verdict

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
    brute = co_reflexivity_bruteforce(q_prime, n, k, co_profile_prefix_sums(q_prime, n, config))
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
