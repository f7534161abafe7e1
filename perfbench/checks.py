"""Independent correctness checks for the benchmark's operations.

Nothing here imports dualpart.  Every expected value is computed from the
definitions: pairing exponents of a product of cyclic groups, per-class
exponent-count vectors reduced modulo the cyclotomic polynomial by this
file's own polynomial division, Krawtchouk values from binomial sums, and
codes and general linear groups enumerated by brute force.

The one convention shared with dualpart is the documented element index:
residue vectors in mixed radix, first cyclic factor most significant.

Each ``check_*`` function takes an instance spec and the operation's output
text and returns a list of problems; an empty list means the output is
correct.
"""

from __future__ import annotations

import itertools
import json
import math
from fractions import Fraction

import numpy as np


# ---------------------------------------------------------------------------
# integer polynomials (constant term first)
# ---------------------------------------------------------------------------

def _poly_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_divmod(num, den):
    """Quotient and remainder of integer polynomials, den monic."""
    if den[-1] != 1:
        raise ValueError("divisor must be monic")
    rem = list(num)
    quot = [0] * max(1, len(num) - len(den) + 1)
    for i in range(len(num) - len(den), -1, -1):
        c = rem[i + len(den) - 1]
        quot[i] = c
        if c:
            for j, d in enumerate(den):
                rem[i + j] -= c * d
    return quot, rem[: len(den) - 1]


def _mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def cyclotomic(m):
    """Coefficients of Phi_m, constant first, from the Moebius product
    Phi_m = prod_{d | m} (x^d - 1)^mu(m/d)."""
    num, den = [1], [1]
    for d in range(1, m + 1):
        if m % d:
            continue
        factor = [-1] + [0] * (d - 1) + [1]
        mu = _mobius(m // d)
        if mu == 1:
            num = _poly_mul(num, factor)
        elif mu == -1:
            den = _poly_mul(den, factor)
    if den[-1] != 1:  # leading coefficient of prod (x^d - 1) is 1
        raise ValueError("unexpected leading coefficient")
    quot, rem = _poly_divmod(num, den)
    if any(rem):
        raise ValueError(f"Phi_{m} division left a remainder")
    while len(quot) > 1 and quot[-1] == 0:
        quot.pop()
    return quot


def reduce_mod_cyclotomic(counts, m):
    """Remainder of each count vector (last axis, coefficient of zeta^e at
    position e) modulo Phi_m: long division vectorised over the leading
    axes.  Equal remainders mean equal sums of roots of unity."""
    phi = np.array(cyclotomic(m), dtype=np.int64)
    d = len(phi) - 1
    c = np.array(counts, dtype=np.int64, copy=True)
    for i in range(m - 1, d - 1, -1):
        top = c[..., i].copy()
        c[..., i - d : i + 1] -= top[..., None] * phi
    return c[..., :d]


# ---------------------------------------------------------------------------
# groups, pairing and dual partitions
# ---------------------------------------------------------------------------

def factor_orders(coords):
    return [d for factors in coords for d in factors]


def residues(coords):
    """All elements as residue rows, in index order (first factor most
    significant)."""
    orders = factor_orders(coords)
    return np.array(list(itertools.product(*(range(d) for d in orders))), dtype=np.int64)


def group_exponent(coords):
    return math.lcm(*factor_orders(coords))


def pairing_table(coords):
    """e(a, b) with f(a, b) = zeta_m^e(a, b): sum over cyclic factors of
    (m / d) * a_f * b_f, modulo the exponent m."""
    v = residues(coords)
    m = group_exponent(coords)
    weights = np.array([m // d for d in factor_orders(coords)], dtype=np.int64)
    return ((v * weights) @ v.T) % m, m


def ids_from_keys(keys):
    """Class ids in first-occurrence order for a sequence of hashable keys."""
    pos = {}
    return np.array([pos.setdefault(k, len(pos)) for k in keys], dtype=np.int64)


def dual_partition(table, m, class_ids):
    """Class ids of the dual partition: rows a grouped by the exact values
    of all per-class character sums sum_{b in class} zeta_m^e(a, b).

    The rows of ``table`` index the elements being classified and its
    columns the host of ``class_ids``, so the transposed table gives the
    right dual."""
    class_ids = np.asarray(class_ids, dtype=np.int64)
    rows = table.shape[0]
    k = int(class_ids.max()) + 1
    out = np.empty(rows, dtype=np.int64)
    seen = {}
    step = max(1, (1 << 21) // max(table.shape[1], k * m))
    for start in range(0, rows, step):
        sub = table[start : start + step]
        r = sub.shape[0]
        keys = class_ids[None, :] * m + sub + (np.arange(r) * (k * m))[:, None]
        counts = np.bincount(keys.ravel(), minlength=r * k * m).reshape(r, k, m)
        sig = np.ascontiguousarray(reduce_mod_cyclotomic(counts, m).reshape(r, -1))
        for i in range(r):
            out[start + i] = seen.setdefault(sig[i].tobytes(), len(seen))
    return out


def num_classes(ids):
    return len(set(np.asarray(ids).tolist()))


def is_finer(fine, coarse):
    """Every class of ``fine`` lies inside one class of ``coarse``."""
    pairs = set(zip(np.asarray(fine).tolist(), np.asarray(coarse).tolist()))
    return len(pairs) == num_classes(fine)


def same_partition(a, b):
    return num_classes(a) == num_classes(b) and is_finer(a, b)


def classes_as_sets(ids):
    groups = {}
    for i, c in enumerate(np.asarray(ids).tolist()):
        groups.setdefault(c, []).append(i)
    return {frozenset(g) for g in groups.values()}


# ---------------------------------------------------------------------------
# induced partitions (support-based weights)
# ---------------------------------------------------------------------------

def support_masks(coords):
    v = residues(coords)
    coord_of = [i for i, factors in enumerate(coords) for _ in factors]
    masks = np.zeros(len(v), dtype=np.int64)
    for f, i in enumerate(coord_of):
        masks |= (v[:, f] != 0).astype(np.int64) << i
    return masks


def down_closure(n, relations):
    """below[v] = bitmask of all u <= v, by transitive closure."""
    leq = [[u == v for v in range(n)] for u in range(n)]
    for u, v in relations:
        leq[u][v] = True
    for w in range(n):
        for u in range(n):
            if leq[u][w]:
                for v in range(n):
                    if leq[w][v]:
                        leq[u][v] = True
    return [sum(1 << u for u in range(n) if leq[u][v]) for v in range(n)]


def min_cover(members, target):
    """Fewest covering members whose union contains the target mask."""
    if target == 0:
        return 0
    masks = [sum(1 << i for i in mem) for mem in members]
    for size in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, size):
            union = 0
            for mk in combo:
                union |= mk
            if union & target == target:
                return size
    raise ValueError("target is not covered")


def weight_function(part, n):
    """mask -> weight for a partition spec (see workloads.py)."""
    kind = part["type"]
    if kind == "hamming":
        return lambda mask: bin(mask).count("1")
    if kind == "pk":
        k = part["k"]
        return lambda mask: -(-bin(mask).count("1") // k)
    if kind == "covering":
        members = part["members"]
        return lambda mask: min_cover(members, mask)
    if kind == "poset":
        below = down_closure(n, part["relations"])
        weights = [Fraction(w) for w in part["weights"]]

        def weight(mask):
            closed = 0
            for v in range(n):
                if mask >> v & 1:
                    closed |= below[v]
            return sum((weights[v] for v in range(n) if closed >> v & 1), Fraction(0))

        return weight
    raise ValueError(f"unknown partition type {kind!r}")


def induced_partition(coords, part):
    masks = support_masks(coords)
    weight = weight_function(part, len(coords))
    table = {mk: weight(mk) for mk in set(masks.tolist())}
    return ids_from_keys(table[mk] for mk in masks.tolist())


# ---------------------------------------------------------------------------
# Krawtchouk values
# ---------------------------------------------------------------------------

def kraw(n, k, q, x):
    """K_k(x) = sum_t (-1)^t (q-1)^(k-t) C(x, t) C(n-x, k-t) at an integer
    0 <= x <= n."""
    return sum(
        (-1) ** t * (q - 1) ** (k - t) * math.comb(x, t) * math.comb(n - x, k - t)
        for t in range(k + 1)
    )


def _binom_frac(x, t):
    out = Fraction(1)
    for i in range(t):
        out *= x - i
    return out / math.factorial(t)


def kraw_frac(n, k, q, x):
    """The same sum formula at a rational point, in exact arithmetic."""
    x = Fraction(x)
    return sum(
        (-1) ** t * (q - 1) ** (k - t) * _binom_frac(x, t) * _binom_frac(n - x, k - t)
        for t in range(k + 1)
    )


def pk_dual_class_count(q, n, k):
    """Classes of the dual of the all-k-subsets covering partition of
    (Z/q)^n: an element of support size t has, on the class of covering
    weight b, the character sum of all Hamming weights l with
    ceil(l / k) = b, which is sum_l K_l(t); the count is the number of
    distinct such vectors over t = 0..n."""
    sigs = set()
    for t in range(n + 1):
        sig = [0] * (-(-n // k) + 1)
        for l in range(n + 1):
            sig[-(-l // k)] += kraw(n, l, q, t)
        sigs.add(tuple(sig))
    return len(sigs)


# ---------------------------------------------------------------------------
# linear codes and GL(n, p)
# ---------------------------------------------------------------------------

def code_words(rows, p):
    rows = np.array(rows, dtype=np.int64)
    coeffs = np.array(list(itertools.product(range(p), repeat=len(rows))), dtype=np.int64)
    return np.unique((coeffs @ rows) % p, axis=0)


def dual_code_words(rows, p, length):
    """Every vector orthogonal to all generator rows, by enumeration."""
    space = np.array(list(itertools.product(range(p), repeat=length)), dtype=np.int64)
    syn = (space @ np.array(rows, dtype=np.int64).T) % p
    return space[(syn == 0).all(axis=1)]


def block_weights(words, block_sizes):
    out = np.zeros(len(words), dtype=np.int64)
    start = 0
    for b in block_sizes:
        out += (words[:, start : start + b] != 0).any(axis=1)
        start += b
    return out


def gl_order(n, p):
    return math.prod(p**n - p**i for i in range(n))


def pk_invariant_maps(n, p, k):
    """|{A in GL(n, p) : ceil(wt(Av)/k) = ceil(wt(v)/k) for every v}| by
    brute force over all n x n matrices."""
    vecs = np.array(list(itertools.product(range(p), repeat=n)), dtype=np.int64)
    cls = -(-(vecs != 0).sum(axis=1) // k)
    total = 0
    entries = np.array(list(itertools.product(range(p), repeat=n * n)), dtype=np.int64)
    place = p ** np.arange(n - 1, -1, -1)
    for start in range(0, len(entries), 4096):
        mats = entries[start : start + 4096].reshape(-1, n, n)
        images = np.einsum("mij,vj->mvi", mats, vecs) % p
        idx = np.sort(images @ place, axis=1)
        bijective = (np.diff(idx, axis=1) != 0).all(axis=1)
        preserves = (-(-(images != 0).sum(axis=2) // k) == cls[None, :]).all(axis=1)
        total += int((bijective & preserves).sum())
    return total


# ---------------------------------------------------------------------------
# per-operation checks
# ---------------------------------------------------------------------------

def _dual_counts(coords, gamma_ids):
    table, m = pairing_table(coords)
    lam = dual_partition(table, m, gamma_ids)
    bidual = dual_partition(table.T, m, lam)
    return lam, bidual


def _check_dual_report(out, gamma, lam, bidual):
    problems = []
    ng, nl, nb = num_classes(gamma), num_classes(lam), num_classes(bidual)
    if out["gamma_classes"] != ng:
        problems.append(f"gamma_classes {out['gamma_classes']} != {ng}")
    if out["dual_classes"] != nl:
        problems.append(f"dual_classes {out['dual_classes']} != {nl}")
    if not out["gamma_classes"] <= out["dual_classes"]:
        problems.append("|gamma| > |l(gamma)|")
    reflexive = out["gamma_classes"] == out["dual_classes"]
    if out["reflexive"] != reflexive:
        problems.append("reflexive flag disagrees with the class counts")
    if out["verdict"] != ("reflexive" if reflexive else "non-reflexive"):
        problems.append(f"verdict {out['verdict']!r} disagrees with the class counts")
    if not is_finer(bidual, gamma):
        problems.append("independent bidual is not finer than gamma")
    if out["bidual_classes"] != nb:
        problems.append(f"bidual_classes {out['bidual_classes']} != {nb}")
    if out["bidual_equals_gamma"] != same_partition(bidual, gamma):
        problems.append("bidual_equals_gamma disagrees")
    return problems


def check_dual(spec, text):
    out = json.loads(text)
    gamma = induced_partition(spec["coords"], spec["partition"])
    lam, bidual = _dual_counts(spec["coords"], gamma)
    problems = _check_dual_report(out, gamma, lam, bidual)
    if spec.get("export"):
        if {frozenset(c) for c in out["gamma"]["classes"]} != classes_as_sets(gamma):
            problems.append("exported gamma classes differ")
        if {frozenset(c) for c in out["dual"]["classes"]} != classes_as_sets(lam):
            problems.append("exported dual classes differ")
    return problems


def check_dense(spec, text):
    out = json.loads(text)
    gamma = np.asarray(spec["class_ids"], dtype=np.int64)
    lam, bidual = _dual_counts(spec["coords"], gamma)
    return _check_dual_report(out, gamma, lam, bidual)


def check_poset(spec, text):
    out = json.loads(text)
    part = spec["partition"]
    n = len(spec["coords"])
    below = down_closure(n, part["relations"])
    ideal_count = sum(
        1
        for mask in range(1 << n)
        if all(below[v] & ~mask == 0 for v in range(n) if mask >> v & 1)
    )
    problems = []
    if out["ideal_count"] != ideal_count:
        problems.append(f"ideal_count {out['ideal_count']} != {ideal_count}")
    t32 = out.get("theorem32")
    if not t32:
        return problems + ["theorem32 missing"]
    if t32["equivalent"] is not True:
        problems.append("theorem32.equivalent is not true")
    gamma = induced_partition(spec["coords"], part)
    table, m = pairing_table(spec["coords"])
    lam = dual_partition(table, m, gamma)
    if t32["gamma_classes"] != num_classes(gamma):
        problems.append("theorem32 gamma_classes differs")
    if t32["dual_classes"] != num_classes(lam):
        problems.append("theorem32 dual_classes differs")
    if t32["reflexive"] != (num_classes(gamma) == num_classes(lam)):
        problems.append("theorem32 reflexive flag differs")
    return problems


def check_scan_co(spec, text):
    lines = text.strip().splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]
    problems = []
    if header[:4] != ["q", "n", "k", "verdict"]:
        problems.append("unexpected header")
    q = spec["q"]
    want = [(n, k) for n in range(spec["n_lo"], spec["n_hi"] + 1) for k in range(1, n + 1)]
    got = [(int(r["n"]), int(r["k"])) for r in rows]
    if got != want:
        return problems + ["rows do not cover the requested (n, k) grid"]
    for r in rows:
        n, k = int(r["n"]), int(r["k"])
        co = -(-n // k) + 1
        count = pk_dual_class_count(q, n, k)
        where = f"q={q} n={n} k={k}"
        if int(r["q"]) != q or int(r["co_classes"]) != co:
            problems.append(f"{where}: co_classes {r['co_classes']} != {co}")
        verdict = r["verdict"]
        if verdict == "reflexive" and count != co:
            problems.append(f"{where}: reflexive, but |l| = {count} != {co}")
        elif verdict == "non-reflexive" and count == co:
            problems.append(f"{where}: non-reflexive, but |l| = |CO| = {co}")
        elif verdict not in ("reflexive", "non-reflexive", "undecided-by-criteria"):
            problems.append(f"{where}: unknown verdict {verdict!r}")
        if r["lambda_lower_bound"] and int(r["lambda_lower_bound"]) > count:
            problems.append(f"{where}: lower bound {r['lambda_lower_bound']} > {count}")
        if r["brute_force_confirmed"] not in ("yes", "skipped"):
            problems.append(f"{where}: brute_force_confirmed {r['brute_force_confirmed']!r}")
    return problems


def check_krawtchouk(spec, text):
    out = json.loads(text)
    n, k, q = spec["n"], spec["k"], spec["q"]
    problems = []
    values = [kraw(n, k, q, s) for s in range(n + 1)]
    if out["values"] != values:
        problems.append("integer values differ from the binomial sums")
    coeffs = [Fraction(c) for c in out["coefficients"]]
    if len(coeffs) != k + 1 or any(
        sum(c * s**i for i, c in enumerate(coeffs)) != values[s] for s in range(n + 1)
    ):
        problems.append("coefficients do not reproduce the values")
    roots = [(Fraction(r["lo"]), Fraction(r["hi"])) for r in out["roots"]]
    if len(roots) != k:
        return problems + [f"{len(roots)} root intervals, expected {k}"]
    width = Fraction(1, 10**9)
    for i, (lo, hi) in enumerate(roots):
        if not 0 < lo <= hi < n:
            problems.append(f"interval {i} not inside (0, n)")
        if hi - lo > width:
            problems.append(f"interval {i} wider than {width}")
        if i and roots[i - 1][1] >= lo:
            problems.append(f"intervals {i - 1} and {i} not sorted and disjoint")
        a, b = kraw_frac(n, k, q, lo), kraw_frac(n, k, q, hi)
        if not (a == 0 or b == 0 or (a > 0) != (b > 0)):
            problems.append(f"no sign change on interval {i}")
    return problems


def check_macwilliams(spec, text):
    out = json.loads(text)
    p, rows, blocks = spec["p"], spec["rows"], spec["blocks"]
    problems = []
    if out["holds"] is not True:
        problems.append("identity does not hold with lambda = l(gamma)")
    length = sum(blocks)
    code = code_words(rows, p)
    dual = dual_code_words(rows, p, length)
    dim = 0
    while p**dim < len(code):
        dim += 1
    if out["code_dim"] != dim or out["dual_dim"] != length - dim:
        problems.append("code or dual dimension differs")
    if len(code) * len(dual) != p**length:
        problems.append("|C| |C~| != |space|")
    if spec["gamma"] == "hamming":
        # classic identity |C| B_j = sum_i A_i K_j(i) over q = p^b symbols
        n, qq = len(blocks), p ** blocks[0]
        a = np.bincount(block_weights(code, blocks), minlength=n + 1)
        b = np.bincount(block_weights(dual, blocks), minlength=n + 1)
        for j in range(n + 1):
            rhs = sum(int(a[i]) * kraw(n, j, qq, i) for i in range(n + 1))
            if len(code) * int(b[j]) != rhs:
                problems.append(f"classic MacWilliams identity fails at weight {j}")
    return problems


def check_admits(spec, text):
    out = json.loads(text)
    problems = []
    if out["admits"] is not True:
        problems.append("lambda = l(gamma) does not admit the identity")
    if out["zero_singleton"] is not True:
        problems.append("zero class of l(gamma) is not a singleton")
    return problems


def check_refute(spec, text):
    out = json.loads(text)
    q, n, k = spec["q"], spec["n"], spec["k"]
    co = -(-n // k) + 1
    count = pk_dual_class_count(q, n, k)
    problems = []
    if out["criteria"]["co_classes"] != co:
        problems.append("criteria co_classes differs")
    brute = out.get("brute_force")
    if brute:
        if brute["dual_classes"] != count:
            problems.append(f"brute-force dual_classes {brute['dual_classes']} != {count}")
        if brute["reflexive"] != (count == co):
            problems.append("brute-force reflexive flag differs")
    search = out.get("witness_search")
    if search:
        order = gl_order(n, q)
        if order % search["inv_order"]:
            problems.append(f"inv_order {search['inv_order']} does not divide |GL| = {order}")
        if order <= 20160 and search["inv_order"] != pk_invariant_maps(n, q, k):
            problems.append("inv_order differs from the brute-force count over GL")
        if search["delta_classes"] != co:
            problems.append("delta_classes differs")
        wit = search["witness"]
        if wit is not None:
            alpha, beta = wit["alpha"], wit["beta"]
            wa = -(-sum(1 for x in alpha if x) // k)
            wb = -(-sum(1 for x in beta if x) // k)
            if alpha == beta or wa != wb:
                problems.append("witness pair is not two vectors of one covering-weight class")
            if out["refuted"] is not True:
                problems.append("witness found but not refuted")
    if count != co and out["refuted"] is not True:
        problems.append("non-reflexive partition, but the report is not refuted")
    return problems


CHECKS = {
    "dual": check_dual,
    "dense": check_dense,
    "poset": check_poset,
    "scan-co": check_scan_co,
    "krawtchouk": check_krawtchouk,
    "macwilliams": check_macwilliams,
    "admits": check_admits,
    "refute": check_refute,
}


def check(spec, text):
    return CHECKS[spec["op"]](spec, text)
