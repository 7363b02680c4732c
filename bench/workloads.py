"""Seeded inputs, reasons and output checks for the benchmark workloads.

Each workload is one ``hyperdp`` command on files written here from a
seed alone, so the program sees nothing but the generated inputs.  Only
``random.Random.random`` draws are used, whose sequence for a given seed
is stable across Python versions.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass

DEFAULT_SEED = 1

# sha256 of the generated inputs and of the CLI's stdout for DEFAULT_SEED,
# recorded on the unmodified program (python 3.11, numpy 2.4).  A changed
# output digest means a change altered the output bytes; a changed input
# digest means the generator drifted and the output pin no longer applies.
PINNED = {
    "sample_draws": {
        "inputs": "82b6456cff831ac354705b1ae923402f14dec140ce070b79cef998ef424e9dec",
        "stdout": "ae37b04d4e5a21519c1c1c7ef6a62b0897ac070d366b50a7d52988e426dbbd15",
    },
    "posterior_chain": {
        "inputs": "886f7f32065e42fedcb0604ab0c5a6a32d4c0c3224a6f2f1be0f9ff9f77552e3",
        "stdout": "3921a24b6b823f9ed9867434d117206dc03ee1e2ad7f16b373990bfcd504f4e0",
    },
    "gibbs_mixture": {
        "inputs": "910ab77e4462a7a75119a56b12c46a317f0e81845bb9fc3ea5adc4040dc3fe83",
        "stdout": "884dfa554454ea35988abdb204a231e648bc2cb532834163507cea3fab99b0a0",
    },
    "reconcile_tables": {
        "inputs": "e141fcd73afadcde7b3d4933d507c39df217acbcacfa816633d6e8a48b3c0fce",
        "stdout": "720da567ee683e6f92ce465a9a76192802b12625490ef6dba300172e61b972f5",
    },
}

# Why each workload exists: the layer it loads and the ROADMAP item it
# judges.  Later changes cite these when they predict which numbers move.
WHY = {
    "sample_draws": (
        "sample-hdp, nu=10, 1000 serial replicates on a 4-vertex chain with a "
        "4-point support: ~75% of traced time in dp+rng (stick breaking, atom "
        "lookup), ~18% in serialize, validation negligible; judges the sampler "
        "hot path (item 3) and bypasses sparse is_markov (item 2)"
    ),
    "posterior_chain": (
        "posterior-hdp on a 15-vertex binary chain, nu=4, 200 observations: "
        "~97% of traced time in measures.is_markov walking all 2^15 "
        "assignments twice, dp and rng never run; the mirror of sample_draws "
        "and the workload sparse is_markov (item 2) must move"
    ),
    "gibbs_mixture": (
        "mixture over 10 categories, a=1, 400 observations around 4 centres, "
        "5 sweeps, 5 nonzero likelihood neighbours per category: O(n^2) "
        "_gibbs_weights recounts and ProductSpace.as_tuple scans dominate; "
        "judges incremental Gibbs counts and category index maps (item 3)"
    ),
    "reconcile_tables": (
        "reconcile --strategy average on positive 40x20 (A,B) and 20x40 (B,C) "
        "tables, 32,000 result cells: the only workload that runs reconcile "
        "(union-cell assembly, item 5); builds and writes a large measure "
        "where posterior_chain reads and checks one"
    ),
}

NAMES = tuple(WHY)


@dataclass(frozen=True)
class Inputs:
    """Files for one CLI run plus its argument list (paths relative to the
    directory the files are written to)."""

    files: dict
    argv: tuple
    meta: dict

    def digest(self):
        h = hashlib.sha256()
        for name in sorted(self.files):
            h.update(name.encode() + b"\0" + self.files[name] + b"\0")
        h.update(json.dumps(list(self.argv)).encode())
        return h.hexdigest()


def _json(obj):
    return json.dumps(obj, indent=1).encode()


def _index(rng, n):
    return min(int(rng.random() * n), n - 1)


def _measure(variables, domains, points):
    return {
        "variables": list(variables),
        "domains": {v: list(d) for v, d in zip(variables, domains)},
        "points": [
            {"assignment": dict(zip(variables, x)), "mass": repr(float(m))}
            for x, m in points
        ],
    }


def _chain(rng, k, nu):
    """Binary chain X01-...-Xk.  The first clique is uniform over its four
    cells; every later clique maps its separator value through a seeded
    bijection (copy or flip), so the combined base has four points and
    every separator pins its clique."""
    names = [f"X{i:02d}" for i in range(1, k + 1)]
    flips = [int(rng.random() < 0.5) for _ in range(k - 2)]
    bases = [
        _measure(names[:2], [(0, 1)] * 2, [((a, b), 0.25) for a in (0, 1) for b in (0, 1)])
    ]
    for j, flip in enumerate(flips, start=1):
        bases.append(
            _measure(names[j:j + 2], [(0, 1)] * 2, [((a, a ^ flip), 0.5) for a in (0, 1)])
        )
    spec = {
        "graph": {"vertices": names, "edges": [[names[i], names[i + 1]] for i in range(k - 1)]},
        "nu": nu,
        "clique_bases": bases,
    }

    def complete(a, b):
        point = [a, b]
        for flip in flips:
            point.append(point[-1] ^ flip)
        return tuple(point)

    return names, spec, complete


def sample_draws(seed):
    _, spec, complete = _chain(random.Random(seed), 4, 10.0)
    support = sorted(complete(a, b) for a in (0, 1) for b in (0, 1))
    argv = ("sample-hdp", "--spec", "spec.json", "--seed", str(seed),
            "--replicates", "1000", "--parallel", "1")
    return Inputs({"spec.json": _json(spec)}, argv,
                  {"support": support, "replicates": 1000, "seed": seed})


def posterior_chain(seed):
    rng = random.Random(seed)
    names, spec, complete = _chain(rng, 15, 4.0)
    rows = [complete(_index(rng, 2), _index(rng, 2)) for _ in range(200)]
    csv = ",".join(names) + "\n" + "".join(",".join(map(str, r)) + "\n" for r in rows)
    argv = ("posterior-hdp", "--spec", "spec.json", "--data", "data.csv")
    return Inputs({"spec.json": _json(spec), "data.csv": csv.encode()}, argv,
                  {"nu": 4.0 + len(rows)})


KERNEL = (0.1, 0.2, 0.4, 0.2, 0.1)   # likelihood of offsets -2..2 around a value


def gibbs_mixture(seed):
    rng = random.Random(seed)
    cats = list(range(10))
    order = cats[:]
    for i in range(len(order) - 1, 0, -1):
        j = _index(rng, i + 1)
        order[i], order[j] = order[j], order[i]
    centres = order[:4]
    data = []
    for _ in range(400):
        c = centres[_index(rng, 4)]
        u, acc, offset = rng.random(), 0.0, 2
        for off, p in zip(range(-2, 3), KERNEL):
            acc += p
            if u < acc:
                offset = off
                break
        data.append((c + offset) % 10)
    base = _measure(("Z",), [cats], [((c,), 0.1) for c in cats])
    table = {
        "entries": [
            {"x": {"Z": (pi + off) % 10}, "pi": {"Z": pi}, "prob": p}
            for pi in cats
            for off, p in zip(range(-2, 3), KERNEL)
        ]
    }
    csv = "Z\n" + "".join(f"{x}\n" for x in data)
    argv = ("mixture", "--data", "data.csv", "--base", "base.json", "--a", "1",
            "--sweeps", "5", "--seed", str(seed), "--likelihood", "likelihood.json")
    return Inputs(
        {"base.json": _json(base), "data.csv": csv.encode(), "likelihood.json": _json(table)},
        argv, {"n": len(data)})


def _positive_table(rng, variables, sizes):
    cells = [(a, b) for a in range(sizes[0]) for b in range(sizes[1])]
    raw = [0.5 + rng.random() for _ in cells]
    total = math.fsum(raw)
    return _measure(variables, [range(s) for s in sizes],
                    [(x, w / total) for x, w in zip(cells, raw)])


def reconcile_tables(seed):
    rng = random.Random(seed)
    mu = _positive_table(rng, ("A", "B"), (40, 20))
    lam = _positive_table(rng, ("B", "C"), (20, 40))
    argv = ("reconcile", "--mu", "mu.json", "--lambda", "lambda.json",
            "--strategy", "average")
    return Inputs({"mu.json": _json(mu), "lambda.json": _json(lam)}, argv,
                  {"cells": 40 * 20 * 40})


GENERATORS = {
    "sample_draws": sample_draws,
    "posterior_chain": posterior_chain,
    "gibbs_mixture": gibbs_mixture,
    "reconcile_tables": reconcile_tables,
}


def generate(name, seed):
    return GENERATORS[name](seed)


# ---- output checks: each raises ValueError on a wrong answer ----

def _require(ok, what):
    if not ok:
        raise ValueError(what)


def _check_sample_draws(out, meta):
    support = {tuple(p) for p in meta["support"]}
    lines = out.splitlines()
    _require(len(lines) == meta["replicates"], f"{len(lines)} lines, expected {meta['replicates']}")
    for r, line in enumerate(lines):
        draw = json.loads(line)
        w = draw["weights"]
        _require(draw["replicate"] == r and draw["seed"] == meta["seed"], f"line {r}: bad replicate/seed")
        _require(len(w) == len(draw["atoms"]) and all(x > 0.0 for x in w), f"line {r}: bad weights")
        _require(abs(math.fsum(w) - 1.0) <= 1e-12, f"line {r}: weights sum to {math.fsum(w)!r}")
        _require(all(tuple(a) in support for a in draw["atoms"]), f"line {r}: atom outside support")


def _check_posterior_chain(out, meta):
    post = json.loads(out)
    _require(post["nu"] == meta["nu"], f"posterior nu {post['nu']!r}, expected {meta['nu']!r}")
    for k, base in enumerate(post["clique_bases"]):
        total = math.fsum(float(p["mass"]) for p in base["points"])
        _require(abs(total - 1.0) <= 1e-12, f"clique base {k} has mass {total!r}")


def _check_gibbs_mixture(out, meta):
    result = json.loads(out)
    _require(len(result["assignments"]) == meta["n"], "assignment count differs from n")
    _require(sum(result["class_counts"]) == meta["n"], "class_counts do not sum to n")


def _check_reconcile_tables(out, meta):
    result = json.loads(out)
    points = result["measure"]["points"]
    _require(len(points) == meta["cells"], f"{len(points)} cells, expected {meta['cells']}")
    total = math.fsum(float(p["mass"]) for p in points)
    _require(abs(total - 1.0) <= 1e-9, f"result mass {total!r}, expected 1")


CHECKS = {
    "sample_draws": _check_sample_draws,
    "posterior_chain": _check_posterior_chain,
    "gibbs_mixture": _check_gibbs_mixture,
    "reconcile_tables": _check_reconcile_tables,
}


def check_output(name, stdout_bytes, inputs):
    """Semantic checks on one workload's stdout; raises ValueError."""
    CHECKS[name](stdout_bytes.decode("utf-8"), inputs.meta)
