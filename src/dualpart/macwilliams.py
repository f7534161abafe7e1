"""Linear codes over prime fields: dual codes, distribution identities,
partition-admits-MacWilliams equivalences, the invariance subgroup of a
partition inside GL(N, p), orbit partitions, and the extension-property
witness search.

The ambient space prod_i F_p^(k_i) is welded to the group-product view (all
cyclic factors of order p), so dual codes agree with character-sum
annihilators and partitions transfer between the two views unchanged.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Iterator, Sequence

import numpy as np

from .config import DEFAULT_CONFIG, BudgetError, InputError, RunConfig
from .groups import GroupProduct
from .partitions import (
    DualityContext,
    Partition,
    co_reflexivity_bruteforce,
    induce_CO,
    macwilliams_identity_holds,
)


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


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

    def codeword_indices(self) -> np.ndarray:
        """Element indices of all codewords, sorted."""
        p = self.space.p
        if not self.basis:
            return np.array([0], dtype=np.int64)
        basis = np.array(self.basis, dtype=np.int64)
        coeffs = np.array(
            list(itertools.product(range(p), repeat=self.dim)), dtype=np.int64
        )
        return np.sort(_indices(self.space, coeffs @ basis))

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


def dual_code(c: LinearCode) -> LinearCode:
    return c.dual()


def distribution(code: LinearCode, part: Partition) -> tuple[int, ...]:
    """Per-class codeword counts (the partition distribution of the code)."""
    ids = part.class_ids[code.codeword_indices()]
    return tuple(int(x) for x in np.bincount(ids, minlength=part.num_classes))


def macwilliams_verify(
    code: LinearCode,
    lam: Partition,
    gamma: Partition,
    ctx: DualityContext,
) -> dict:
    """Exact check of the distribution identity for one code; ``ctx`` is
    the duality context of the code's space."""
    if ctx.group != code.space.group:
        raise InputError("duality context is not over the code's space")
    ok = macwilliams_identity_holds(ctx, code.codeword_indices(), lam, gamma)
    return {
        "holds": ok,
        "code_dim": code.dim,
        "dual_dim": code.dual().dim,
    }


# ---------------------------------------------------------------------------
# scalar invariance and one-dimensional checks
# ---------------------------------------------------------------------------

def scalar_permutation(space: PrimeFieldSpace, c: int, config: RunConfig = DEFAULT_CONFIG) -> np.ndarray:
    """index -> index of the scalar multiple c * v."""
    return _indices(space, space.all_vectors(config) * c)


def is_f_invariant(space: PrimeFieldSpace, part: Partition, config: RunConfig = DEFAULT_CONFIG) -> bool:
    for c in range(2, space.p):
        perm = scalar_permutation(space, c, config)
        if not np.array_equal(part.class_ids[perm], part.class_ids):
            return False
    return True


def _one_dim_representatives(space: PrimeFieldSpace, config: RunConfig) -> list[np.ndarray]:
    """One generator per 1-dimensional code (first nonzero entry 1)."""
    v = space.all_vectors(config)
    reps = []
    for row in v[1:]:
        nz = next(i for i, x in enumerate(row) if x)
        if row[nz] == 1:
            reps.append(row)
    return reps


def pami_onedim_check(
    space: PrimeFieldSpace,
    lam: Partition,
    gamma: Partition,
    config: RunConfig = DEFAULT_CONFIG,
) -> dict:
    """Statement on 1-dimensional codes vs the finer-than statement: both
    computed independently; they must agree for F-invariant partitions."""
    if not (is_f_invariant(space, lam, config) and is_f_invariant(space, gamma, config)):
        raise InputError("both partitions must be F-invariant")
    if int(np.sum(lam.class_ids == lam.class_ids[0])) != 1:
        zero_singleton = False
    else:
        zero_singleton = True
    p = space.p
    v = space.all_vectors(config)
    stmt3 = True
    witness = None
    if zero_singleton:
        seen: dict[tuple, tuple] = {}
        for g in _one_dim_representatives(space, config):
            code_idx = np.sort(_indices(space, np.outer(np.arange(p), g)))
            lam_key = tuple(np.bincount(lam.class_ids[code_idx], minlength=lam.num_classes))
            syn = (v @ g) % p
            dual_idx = np.nonzero(syn == 0)[0]
            gam_dist = tuple(np.bincount(gamma.class_ids[dual_idx], minlength=gamma.num_classes))
            if lam_key in seen and seen[lam_key][0] != gam_dist:
                stmt3 = False
                witness = (tuple(int(x) for x in seen[lam_key][1]), tuple(int(x) for x in g))
                break
            seen.setdefault(lam_key, (gam_dist, g))
    else:
        stmt3 = False
    ctx = DualityContext(space.group, config)
    stmt1 = lam.is_finer(ctx.left_dual(gamma))
    return {
        "one_dim_statement": stmt3 and zero_singleton,
        "finer_statement": stmt1,
        "agree": (stmt3 and zero_singleton) == stmt1,
        "witness": witness,
    }


# ---------------------------------------------------------------------------
# full subspace enumeration (the all-codes MacWilliams statement)
# ---------------------------------------------------------------------------

def subspace_rref_bases(p: int, n: int) -> Iterator[tuple[tuple[int, ...], ...]]:
    """Every subspace of F_p^n exactly once, as its canonical RREF basis."""
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


def macwilliams_admits(
    space: PrimeFieldSpace,
    lam: Partition,
    gamma: Partition,
    config: RunConfig = DEFAULT_CONFIG,
) -> dict:
    """Exhaustive all-codes statement: codes with equal lam-distributions
    must have gamma-equidistributed duals.  Also requires the zero class to
    be a singleton of lam."""
    p, n = space.p, space.dim
    config.check("pair_work_cap", space.order**2, "|V|^2 for the subspace check")
    zero_singleton = int(np.sum(lam.class_ids == lam.class_ids[0])) == 1
    v = space.all_vectors(config)
    holds = zero_singleton
    witness = None
    if holds:
        seen: dict[tuple, tuple] = {}
        for basis in subspace_rref_bases(p, n):
            code = LinearCode(space, basis)
            lam_key = tuple(np.bincount(lam.class_ids[code.codeword_indices()], minlength=lam.num_classes))
            if basis:
                syn = (v @ np.array(basis, dtype=np.int64).T) % p
                dual_idx = np.nonzero((syn == 0).all(axis=1))[0]
            else:
                dual_idx = np.arange(space.order)
            gam_dist = tuple(np.bincount(gamma.class_ids[dual_idx], minlength=gamma.num_classes))
            if lam_key in seen and seen[lam_key] != gam_dist:
                holds = False
                witness = basis
                break
            seen.setdefault(lam_key, gam_dist)
    return {"admits": holds, "zero_singleton": zero_singleton, "witness": witness}


# ---------------------------------------------------------------------------
# the invariance subgroup inside GL(N, p)
# ---------------------------------------------------------------------------

def _inv_enumerate_binary(cls: Sequence[int], n: int) -> list[tuple[int, ...]]:
    """All invertible F_2-maps preserving every class, as column bitmasks.

    Backtracks over columns; every vector supported in the settled prefix
    has a determined image, so class violations prune entire subtrees.
    """
    size = 1 << n
    img = [0] * size
    cols = [0] * n
    out: list[tuple[int, ...]] = []

    def rec(j: int, span: frozenset[int]) -> None:
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


def _binary_cols_to_matrix(cols: Sequence[int], n: int) -> np.ndarray:
    m = np.zeros((n, n), dtype=np.int64)
    for j, c in enumerate(cols):
        for i in range(n):
            # cols[j] is the image of index bit 2^j, which is vector entry
            # n-1-j; entry i carries place value 2^(n-1-i)
            m[i, n - 1 - j] = (c >> (n - 1 - i)) & 1
    return m


def inv_enumerate(
    space: PrimeFieldSpace,
    delta: Partition,
    config: RunConfig = DEFAULT_CONFIG,
) -> list[np.ndarray]:
    """All invertible linear maps preserving every class of delta, as N x N
    matrices (columns are the images of the standard basis)."""
    p, n = space.p, space.dim
    if not ((p == 2 and n <= 5) or (p == 3 and n <= 3)):
        raise BudgetError("invariance-subgroup enumeration guarded to GL(5,2) / GL(3,3)")
    if p == 2:
        cls = [int(delta.class_ids[i]) for i in range(space.order)]
        return [_binary_cols_to_matrix(cols, n) for cols in _inv_enumerate_binary(cls, n)]
    # generic small-p path: backtrack over columns with index arithmetic
    size = space.order
    cls = [int(x) for x in delta.class_ids]
    v = space.all_vectors(config)
    vecs = v.tolist()
    add = _indices(space, v[:, None, :] + v[None, :, :]).tolist()
    smul = [_indices(space, c * v).tolist() for c in range(p)]
    img = [0] * size
    cols = [0] * n
    out: list[np.ndarray] = []

    def rec(j: int, span: frozenset[int]) -> None:
        if j == n:
            mat = np.zeros((n, n), dtype=np.int64)
            for jj, cidx in enumerate(cols):
                mat[:, jj] = vecs[cidx]
            out.append(mat)
            return
        base = p ** (n - 1 - j)
        for cidx in range(1, size):
            if cidx in span:
                continue
            news = []
            ok = True
            for coef in range(1, p):
                shifted = smul[coef][cidx]
                for s2 in span_sources[j]:
                    # prefix digits and digit j never collide, so plain
                    # integer addition is exact here
                    s = s2 + coef * base
                    im = add[img[s2]][shifted]
                    if cls[s] != cls[im]:
                        ok = False
                        break
                    news.append((s, im))
                if not ok:
                    break
            if not ok:
                continue
            for s, im in news:
                img[s] = im
            cols[j] = cidx
            rec(j + 1, span | {im for _, im in news})

    # sources supported on coordinates 0..j-1 carry the largest place
    # values, hence are exactly the multiples of p^(n-j)
    span_sources = [
        [i for i in range(size) if i % (p ** (n - j)) == 0] for j in range(n)
    ]
    rec(0, frozenset([0]))
    return out


def orbit_partition(
    space: PrimeFieldSpace,
    maps: Sequence[np.ndarray],
    config: RunConfig = DEFAULT_CONFIG,
) -> Partition:
    """Orbits of a set of linear maps acting on the space (union-find;
    the result is the orbit partition of the generated group when the input
    is closed, and of the generated groupoid closure in general)."""
    size = space.order
    parent = list(range(size))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    v = space.all_vectors(config)
    for mat in maps:
        images = _indices(space, v @ mat.T).tolist()
        for a in range(size):
            ra, rb = find(a), find(images[a])
            if ra != rb:
                parent[rb] = ra
    roots = [find(x) for x in range(size)]
    uniq = sorted(set(roots))
    remap = {r: i for i, r in enumerate(uniq)}
    return Partition(np.array([remap[r] for r in roots], dtype=np.int64), host=space.group)


def mep_witness_search(
    space: PrimeFieldSpace,
    delta: Partition,
    config: RunConfig = DEFAULT_CONFIG,
) -> dict:
    """Search for a one-dimensional extension-property counter-example: a
    same-class pair lying in different orbits of the invariance subgroup.

    Such a pair alpha, beta defines an injective map F.alpha -> H sending
    alpha to beta that preserves classes but extends to no class-preserving
    automorphism."""
    maps = inv_enumerate(space, delta, config)
    orb = orbit_partition(space, maps, config)
    if not orb.is_finer(delta):
        raise AssertionError("orbit partition must refine the input partition")
    result = {
        "inv_order": len(maps),
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
            result["witness"] = {
                "alpha": list(space.group.element_from_index(a).residues),
                "beta": list(space.group.element_from_index(b).residues),
                "class_label": int(delta.class_ids[a]),
                "inv_order": len(maps),
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
    implies reflexivity); a concrete witness pair is attached whenever the
    invariance subgroup is enumerable."""
    from .krawtchouk import co_nonreflexivity_verdict

    if not _is_prime(q_prime):
        raise InputError("prime-field scope: q must be prime")
    if not 1 <= k <= n:
        raise InputError("need 1 <= k <= n")
    report: dict = {"q": q_prime, "n": n, "k": k, "tiers": []}
    crit = co_nonreflexivity_verdict(n, k, q_prime)
    report["criteria"] = crit
    if crit["verdict"] == "non-reflexive":
        report["tiers"].append("criteria-non-reflexive")
    brute = co_reflexivity_bruteforce(q_prime, n, k)
    report["brute_force"] = brute
    if not brute["reflexive"]:
        report["tiers"].append("brute-force-non-reflexive")
    witness = None
    space = PrimeFieldSpace(q_prime, (1,) * n)
    if (q_prime == 2 and n <= 5) or (q_prime == 3 and n <= 3):
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
        report["evidence"] = "no implemented criterion applies; instance open"
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
