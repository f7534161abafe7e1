"""Seeded instance lists for the four workloads.

Each workload is a fixed make-up of instances; the seed fills in the details
(coordinate order, covering members, poset weights and labels, random
partitions, generator matrices, Krawtchouk alphabet sizes) without changing
the group orders, class counts or ranges that set the cost.  Every instance
is a JSON-friendly dict: ``op`` names the operation and its check, ``argv``
is the dualpart command line for operations the CLI takes, and the other
keys carry what the independent checks need.
"""

from __future__ import annotations

import json
import os
import random

def _write(workdir, name, doc):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        if isinstance(doc, str):
            fh.write(doc)
        else:
            json.dump(doc, fh)
    return path


def _rational(rng):
    return f"{rng.randint(1, 9)}/{rng.randint(1, 4)}"


def _random_covering(rng, n, extra):
    """A partition of range(n) into blocks of at most three, plus ``extra``
    random three-element members."""
    order = list(range(n))
    rng.shuffle(order)
    members = [sorted(order[i : i + 3]) for i in range(0, n, 3)]
    members += [sorted(rng.sample(range(n), 3)) for _ in range(extra)]
    return members


def _levels_poset(rng, sizes):
    """A hierarchical poset: every element of a level lies below every
    element of the next; the seed permutes the element labels."""
    labels = list(range(sum(sizes)))
    rng.shuffle(labels)
    levels, start = [], 0
    for s in sizes:
        levels.append(labels[start : start + s])
        start += s
    relations = [[u, v] for lo, hi in zip(levels, levels[1:]) for u in lo for v in hi]
    return levels, relations


def _dual(name, workdir, coords, part, export=False):
    group = _write(workdir, f"{name}.group.json", {"coordinates": coords})
    if part["type"] == "hamming":
        token = "hamming"
    elif part["type"] == "pk":
        token = f"Pk:{part['k']}"
    elif part["type"] == "covering":
        token = _write(workdir, f"{name}.covering.json", {"n": len(coords), "members": part["members"]})
    else:
        weights = {str(i): w for i, w in enumerate(part["weights"])}
        token = _write(
            workdir,
            f"{name}.poset.json",
            {"n": len(coords), "relations": part["relations"], "weights": weights},
        )
    argv = ["dual", group, token] + (["--export"] if export else [])
    return {"op": "dual", "name": name, "argv": argv, "coords": coords, "partition": part, "export": export}


def _poset_report(name, workdir, coords, relations, weights):
    doc = {
        "n": len(coords),
        "relations": relations,
        "weights": {str(i): w for i, w in enumerate(weights)},
        "coordinates": coords,
    }
    part = {"type": "poset", "relations": relations, "weights": weights}
    return {
        "op": "poset",
        "name": name,
        "argv": ["poset", _write(workdir, f"{name}.json", doc)],
        "coords": coords,
        "partition": part,
    }


def dual_induced(rng, workdir):
    mixed = [[2], [4], [2, 3], [5]]
    rng.shuffle(mixed)
    mixed5 = [[2], [4], [2, 3], [5], [2]]
    rng.shuffle(mixed5)
    hier_coords = [[2], [2], [3], [3], [3], [2], [2]]
    levels, hier_rel = _levels_poset(rng, [2, 3, 2])
    for lvl, h in zip(levels, (2, 3, 2)):
        for v in lvl:
            hier_coords[v] = [h]
    chain6 = list(range(6))
    rng.shuffle(chain6)
    chain_rel = [[u, v] for u, v in zip(chain6, chain6[1:])]
    _, hier6_rel = _levels_poset(rng, [2, 2, 2])
    chain6b = list(range(6))
    rng.shuffle(chain6b)
    return [
        _dual("z2-11-pk2", workdir, [[2]] * 11, {"type": "pk", "k": 2}),
        _dual("z2-10-hamming", workdir, [[2]] * 10, {"type": "hamming"}),
        _dual("z2-10-pk3-export", workdir, [[2]] * 10, {"type": "pk", "k": 3}, export=True),
        _dual("z2z2-5-pk2", workdir, [[2, 2]] * 5, {"type": "pk", "k": 2}),
        _dual("z3-7-pk3", workdir, [[3]] * 7, {"type": "pk", "k": 3}),
        _dual("z3-6-pk2", workdir, [[3]] * 6, {"type": "pk", "k": 2}),
        _dual("z4-5-pk2-export", workdir, [[4]] * 5, {"type": "pk", "k": 2}, export=True),
        _dual("mixed4-hamming", workdir, mixed, {"type": "hamming"}),
        _dual("mixed5-pk2-export", workdir, mixed5, {"type": "pk", "k": 2}, export=True),
        _dual("z2-7-covering", workdir, [[2]] * 7, {"type": "covering", "members": _random_covering(rng, 7, 2)}),
        _dual("z3-5-covering", workdir, [[3]] * 5, {"type": "covering", "members": _random_covering(rng, 5, 1)}),
        _dual(
            "z3-6-chain-rational",
            workdir,
            [[3]] * 6,
            {"type": "poset", "relations": chain_rel, "weights": [_rational(rng) for _ in range(6)]},
        ),
        _dual(
            "z2-9-antichain-rational",
            workdir,
            [[2]] * 9,
            # weights from a small set, so subset sums repeat and the classes stay few
            {"type": "poset", "relations": [], "weights": [rng.choice(("1/2", "1", "3/2")) for _ in range(9)]},
        ),
        _dual(
            "mixed7-hierarchical-rational",
            workdir,
            hier_coords,
            {"type": "poset", "relations": hier_rel, "weights": [_rational(rng) for _ in range(7)]},
        ),
        _poset_report(
            "z3-6-chain-report",
            workdir,
            [[3]] * 6,
            [[u, v] for u, v in zip(chain6b, chain6b[1:])],
            [str(rng.randint(1, 3)) for _ in range(6)],
        ),
        _poset_report("z2-6-antichain-report", workdir, [[2]] * 6, [], [str(rng.randint(1, 2)) for _ in range(6)]),
        _poset_report(
            "z3-6-hierarchical-report",
            workdir,
            [[3]] * 6,
            hier6_rel,
            [str(rng.randint(1, 3)) for _ in range(6)],
        ),
    ]


DENSE_GROUPS = (
    # (coordinates, |G| / classes)
    ([[48]], 8),
    ([[48]], 2),
    ([[4], [12]], 4),
    ([[2], [4], [2, 3]], 4),
    ([[60]], 4),
    ([[2, 3], [2, 5]], 4),
    ([[2], [6], [10]], 4),
    ([[120]], 2),
    ([[2], [2], [4], [3, 5]], 4),
)


def dual_dense(rng, workdir):
    out = []
    for coords, ratio in DENSE_GROUPS:
        order = 1
        for d in (d for factors in coords for d in factors):
            order *= d
        k = order // ratio
        # every class present, the rest assigned at random
        ids = list(range(k)) + [rng.randrange(k) for _ in range(order - k)]
        rng.shuffle(ids)
        name = "x".join("z" + "-".join(map(str, f)) for f in coords) + f"-classes{k}"
        out.append({"op": "dense", "name": name, "coords": coords, "class_ids": ids})
    return out


SCAN_RANGES = (
    # (q, first n, last n); q = 2 up to n = 10 still confirms with the
    # pairwise engine, the other ranges with the support-profile engine
    (2, 3, 10),
    (2, 14, 20),
    (2, 21, 26),
    (3, 9, 14),
    (3, 15, 20),
    (4, 7, 15),
    (5, 6, 12),
)

ROOT_LADDER = ((30, 8), (40, 10), (50, 12), (60, 14), (70, 16), (80, 18))


def criteria(rng, workdir):
    out = []
    for q, lo, hi in SCAN_RANGES:
        argv = ["scan-co", "--q", str(q), "--n", f"{lo}..{hi}", "--k", "all"]
        out.append({"op": "scan-co", "name": f"scan-q{q}-n{lo}-{hi}", "argv": argv, "q": q, "n_lo": lo, "n_hi": hi})
    for n, k in ROOT_LADDER:
        q = rng.choice((2, 3, 4, 5))
        argv = ["krawtchouk", "--n", str(n), "--k", str(k), "--q", str(q), "--roots"]
        out.append({"op": "krawtchouk", "name": f"roots-n{n}-k{k}-q{q}", "argv": argv, "n": n, "k": k, "q": q})
    return out


REFUTE = [(2, 4, k) for k in range(1, 5)] + [(3, 3, k) for k in range(1, 4)] + [(2, 5, k) for k in range(1, 4)]

CODES = (
    # (p, block sizes, code dimension, gamma)
    (2, (1,) * 8, 4, "hamming"),
    (2, (1,) * 10, 4, "Pk:2"),
    (2, (2,) * 4, 3, "hamming"),
    (3, (1,) * 6, 3, "hamming"),
    (3, (1,) * 6, 3, "Pk:2"),
    (5, (1,) * 4, 2, "hamming"),
    (5, (1,) * 4, 2, "Pk:3"),
)

ADMITS = (
    # (p, n, extra covering members)
    (2, 4, 1),
    (2, 5, 1),
    (3, 3, 1),
    (2, 6, 0),
)


def _generator(rng, p, length, dim):
    """[I | R] with R uniform: full rank by construction."""
    return [
        [int(i == j) for j in range(dim)] + [rng.randrange(p) for _ in range(length - dim)]
        for i in range(dim)
    ]


def codes(rng, workdir):
    out = []
    for q, n, k in REFUTE:
        argv = ["refute", str(q), str(n), str(k)]
        out.append({"op": "refute", "name": f"refute-{q}-{n}-{k}", "argv": argv, "q": q, "n": n, "k": k})
    for i, (p, blocks, dim, gamma) in enumerate(CODES):
        if gamma == "hamming" and len(set(blocks)) != 1:
            raise ValueError("the classic identity check needs equal blocks")
        rows = _generator(rng, p, sum(blocks), dim)
        text = " ".join(map(str, (p, sum(blocks)) + blocks)) + "\n"
        text += "".join(" ".join(map(str, r)) + "\n" for r in rows)
        name = f"macwilliams-p{p}-N{sum(blocks)}-b{blocks[0]}-{gamma.replace(':', '')}"
        path = _write(workdir, f"code{i}.txt", text)
        argv = ["macwilliams", path, "--gamma", gamma, "--lambda", "dual"]
        out.append({"op": "macwilliams", "name": name, "argv": argv, "p": p, "blocks": list(blocks), "rows": rows, "gamma": gamma})
    for p, n, extra in ADMITS:
        members = _random_covering(rng, n, extra)
        out.append({"op": "admits", "name": f"admits-p{p}-n{n}", "p": p, "n": n, "members": members})
    return out


BUILDERS = {"dual-induced": dual_induced, "dual-dense": dual_dense, "criteria": criteria, "codes": codes}


def build(workload, seed, workdir):
    """The instance list of a workload; the same seed gives the same list."""
    rng = random.Random(f"{workload}:{seed}")
    return BUILDERS[workload](rng, workdir)
