"""Acceptance gate: one test per criterion, one pass/fail line under -v.

Each docstring states the tolerance and workload; oracles are the
brute-force ones from the unit modules, never the code paths under
test.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from hyperdp import (
    ContinuousBase,
    DiscreteMeasure,
    DPParams,
    ProductSpace,
    SamplerConfig,
    atoms_to_measure,
    bayes_cdf,
    build_graph,
    build_hdp,
    check_refinement,
    dp_posterior,
    expected_clusters,
    gibbs_chain,
    hdp_posterior,
    is_decomposable,
    is_markov,
    kl_compromise,
    marginalize,
    markov_combination,
    normalize,
    ordering_from_cliques,
    sample_dp,
    sample_from_atoms,
    sample_hdp,
    sample_partition,
    scale_measure,
    stream,
    uniform_measure,
    verify_sample_markov,
    verify_sample_refinement,
)

from conftest import all_graphs, exact_partition_law, random_joint
from test_graphs import oracle_chordal
from test_measures import clique_graph


def path_spec(nu=4.0):
    graph = build_graph(("I", "J", "K"), [("I", "J"), ("J", "K")])
    sp_ij = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    sp_jk = ProductSpace.from_domains(("J", "K"), {"J": (0, 1), "K": (0, 1)})
    uniform_ij = uniform_measure(sp_ij)
    copy_jk = DiscreteMeasure(sp_jk, {(0, 0): 0.5, (1, 1): 0.5})
    return build_hdp(graph, [uniform_ij, copy_jk], nu=nu)


_PAIRS = None


def consistent_pairs():
    """200 randomized consistent pairs over 2/3-category domains.

    Each pair comes from one normalized joint on three or four
    variables (union space at most 3**4 points), split into two
    overlapping blocks that both keep a private variable.
    """
    global _PAIRS
    if _PAIRS is not None:
        return _PAIRS
    rng = np.random.default_rng(74125)
    pairs = []
    while len(pairs) < 200:
        n_vars = int(rng.integers(3, 5))
        names = tuple("ABCD"[:n_vars])
        sizes = [int(rng.integers(2, 4)) for _ in names]
        joint = normalize(random_joint(rng, names, sizes))
        cut = int(rng.integers(1, n_vars - 1))  # overlap start
        width = int(rng.integers(1, n_vars - cut))  # overlap width
        block_a = names[: cut + width]
        block_b = names[cut:]
        mu = marginalize(joint, block_a)
        lam = marginalize(joint, block_b)
        pairs.append((joint, mu, lam, block_a, block_b))
    _PAIRS = pairs
    return pairs


def sup_gap(a, b):
    keys = set(a.mass) | set(b.mass)
    return max((abs(a.mass.get(k, 0.0) - b.mass.get(k, 0.0)) for k in keys), default=0.0)


def test_criterion_01_chordality_oracle_equivalence():
    """is_decomposable equals cycle-chord enumeration on all 1,024
    labeled 5-vertex graphs in under 10 seconds."""
    start = time.perf_counter()
    count = 0
    for g in all_graphs(5):
        assert is_decomposable(g) == oracle_chordal(g), g.sorted_edges()
        count += 1
    elapsed = time.perf_counter() - start
    assert count == 1024
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    print(f"criterion 1: 1024 graphs agree with the oracle in {elapsed:.2f}s")


def test_criterion_02_markov_combination_contract():
    """On 200 consistent pairs: combination marginals match inputs to
    L-infinity 1e-12 and the result factorizes at 1e-12, under 5 s."""
    start = time.perf_counter()
    for joint, mu, lam, block_a, block_b in consistent_pairs():
        combined = markov_combination(mu, lam)
        assert sup_gap(marginalize(combined, block_a), mu) <= 1e-12
        got_b = marginalize(combined, block_b)
        for x in lam.space.assignments():
            cell = dict(zip(lam.space.variables, x))
            assert abs(got_b.mass_at(cell) - lam.mass_at(cell)) <= 1e-12
        decomp = ordering_from_cliques(
            clique_graph([block_a, block_b]), [block_a, block_b]
        )
        assert is_markov(combined, decomp, tol=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"{elapsed:.1f}s"
    print(f"criterion 2: 200 pairs glued and factorized in {elapsed:.2f}s")


def test_criterion_03_combination_commutes_with_normalization():
    """normalize(mu * lam) equals normalize(mu) * normalize(lam) to
    1e-12 on the same 200 pairs, after rescaling inputs off mass one."""
    rng = np.random.default_rng(3)
    for joint, mu, lam, block_a, block_b in consistent_pairs():
        s = float(rng.uniform(0.5, 3.0))
        mu_s, lam_s = scale_measure(mu, s), scale_measure(lam, s)
        left = normalize(markov_combination(mu_s, lam_s))
        right = markov_combination(normalize(mu_s), normalize(lam_s))
        assert sup_gap(left, right) <= 1e-12
    print("criterion 3: commutation holds to 1e-12 on all 200 pairs")


def test_criterion_04_dirichlet_moments():
    """nu=4, uniform binary base, eps=1e-10, 20,000 draws: mean of
    theta({0}) within 3 sigma of 0.5, variance within 10% of 0.05,
    under 60 s."""
    sp = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    params = DPParams(4.0, uniform_measure(sp))
    reps = 20_000
    cfg = SamplerConfig(seed=40_000, eps=1e-10)
    start = time.perf_counter()
    vals = np.empty(reps)
    for r in range(reps):
        vals[r] = atoms_to_measure(sample_dp(params, cfg, replicate=r)).mass_at((0,))
    elapsed = time.perf_counter() - start
    mean_band = 3 * math.sqrt(0.05 / reps)
    assert abs(vals.mean() - 0.5) < mean_band, vals.mean()
    assert abs(vals.var() - 0.05) < 0.10 * 0.05, vals.var()
    assert elapsed < 60.0, f"{elapsed:.1f}s"
    print(
        f"criterion 4: mean {vals.mean():.5f} (band {mean_band:.5f}), "
        f"variance {vals.var():.5f} vs 0.05, {elapsed:.1f}s"
    )


def test_criterion_05_posterior_exactness():
    """Sequential equals batch posterior to 1e-12 on 100 random data
    sets; the nu=2 / uniform / data=[0] fixture gives exactly 2/3."""
    sp = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    fixture = dp_posterior(DPParams(2.0, uniform_measure(sp)), [(0,)])
    assert fixture.base.mass[(0,)] == 2 / 3

    rng = np.random.default_rng(505)
    for _ in range(100):
        n_vars = int(rng.integers(1, 3))
        names = tuple("XY"[:n_vars])
        sizes = [int(rng.integers(2, 4)) for _ in names]
        base = normalize(random_joint(rng, names, sizes))
        params = DPParams(float(rng.uniform(0.2, 6.0)), base)
        support = list(base.space.assignments())
        data = [support[int(rng.integers(len(support)))] for _ in range(int(rng.integers(0, 25)))]
        cut = int(rng.integers(0, len(data) + 1))
        steps = dp_posterior(dp_posterior(params, data[:cut]), data[cut:])
        batch = dp_posterior(params, data)
        assert abs(steps.nu - batch.nu) <= 1e-12
        assert sup_gap(steps.base, batch.base) <= 1e-12
    print("criterion 5: 100 sequential/batch updates agree to 1e-12; fixture exact")


def test_criterion_06_bayes_cdf_identity_and_monotonicity():
    """Ratio and convex-blend forms agree to 1e-12 over a 1,000-point
    (nu, n, t) sweep; each sweep is monotone nondecreasing in t."""
    rng = np.random.default_rng(606)
    points = 0
    for _ in range(50):
        k = int(rng.integers(2, 5))
        raw = rng.uniform(0.1, 1.0, size=k)
        masses = raw / raw.sum()
        sp = ProductSpace.from_domains(("X",), {"X": tuple(range(k))})
        base = DiscreteMeasure(sp, {(i,): float(m) for i, m in enumerate(masses)})
        nu = float(rng.uniform(0.1, 10.0))
        params = DPParams(nu, base)
        n = int(rng.integers(0, 21))
        data = [int(rng.integers(k)) for _ in range(n)]
        ts = np.sort(rng.uniform(-1.0, k, size=20))
        prev = -1.0
        for t in ts:
            convex = bayes_cdf(params, data, float(t))
            prior = math.fsum(v for (c,), v in base.mass.items() if c <= t)
            ratio = (nu * prior + sum(1 for x in data if x <= t)) / (nu + n)
            assert abs(convex - ratio) <= 1e-12
            assert convex >= prev - 1e-15
            prev = convex
            points += 1
    assert points == 1000
    print("criterion 6: 1000 sweep points, both forms within 1e-12, monotone")


def test_criterion_07_sampled_draws_factorize():
    """1,000/1,000 draws from the refining spec pass factorization at
    1e-9 and atom refinement; the uniform-base control fails the
    factorization check for more than half of 1,000 draws at nu=4."""
    spec = path_spec(nu=4.0)
    decomp = spec.decomposition
    cfg = SamplerConfig(seed=7007)
    for r in range(1000):
        theta = sample_hdp(spec, cfg, replicate=r)
        assert verify_sample_markov(theta, decomp, tol=1e-9)
        assert all(
            verify_sample_refinement(theta, s, c)
            for s, c in zip(decomp.separators, decomp.cliques[1:])
        )

    sp = ProductSpace.from_domains(
        ("I", "J", "K"), {"I": (0, 1), "J": (0, 1), "K": (0, 1)}
    )
    control = DPParams(4.0, uniform_measure(sp))
    failures = 0
    for r in range(1000):
        theta = sample_dp(control, cfg, replicate=r)
        failures += not verify_sample_markov(theta, decomp, tol=1e-9)
    assert failures > 500, failures
    print(f"criterion 7: 1000/1000 structured draws verify; control fails {failures}/1000")


def test_criterion_08_posterior_spec_stays_valid():
    """After 50 observations from a sampled theta: refinement passes,
    each clique update equals the direct mixture to 1e-12, and 1,000
    posterior draws all pass the factorization check."""
    spec = path_spec(nu=4.0)
    theta_star = sample_hdp(spec, SamplerConfig(seed=123))
    data = sample_from_atoms(theta_star, stream(456), 50)
    post = hdp_posterior(spec, data)
    assert post.nu == 54.0
    decomp = post.decomposition
    for s, c in zip(decomp.separators, decomp.cliques[1:]):
        assert check_refinement(post.combined.base, s, c).passed
    # direct mixture oracle for each clique update
    for clique, before, after in zip(decomp.cliques, spec.clique_bases, post.clique_bases):
        idx = tuple(spec.combined.base.space.index(v) for v in before.space.variables)
        counts = {}
        for x in data:
            key = tuple(x[i] for i in idx)
            counts[key] = counts.get(key, 0) + 1
        for cell in before.space.assignments():
            want = (4.0 * before.mass_at(cell) + counts.get(cell, 0)) / 54.0
            assert abs(after.mass_at(cell) - want) <= 1e-12
    cfg = SamplerConfig(seed=888)
    for r in range(1000):
        draw = sample_hdp(post, cfg, replicate=r)
        assert verify_sample_markov(draw, decomp, tol=1e-9)
    print("criterion 8: posterior refines, matches the mixture oracle, 1000 draws verify")


def _grid_search_2(weights, step=1e-4):
    p = np.arange(step, 1.0, step)
    obj = -(weights[0] * np.log(p) + weights[1] * np.log1p(-p))
    i = int(np.argmin(obj))
    return np.array([p[i], 1.0 - p[i]]), float(obj[i])


def _grid_search_3(weights, step=1e-4, block=200):
    p = np.arange(step, 1.0, step)
    log_p = np.log(p)
    best_val, best_pt = math.inf, None
    for lo in range(0, p.size, block):
        p0 = p[lo : lo + block, None]
        # p2 falls along rows and columns, so the first row's feasible columns cover the block's
        n = int(np.count_nonzero(1.0 - p0[0, 0] - p > 0.0))
        if not n:
            break
        p2 = 1.0 - p0 - p[None, :n]
        with np.errstate(invalid="ignore", divide="ignore"):
            obj = -(
                weights[0] * np.log(p0)
                + weights[1] * log_p[None, :n]
                + weights[2] * np.log(p2)
            )
        obj[p2 <= 0.0] = np.inf
        i = int(np.argmin(obj))
        val = float(obj.flat[i])
        if val < best_val:
            r, c = divmod(i, n)
            best_val = val
            best_pt = np.array([float(p0[r, 0]), float(p[c]), float(p2[r, c])])
    return best_pt, best_val


def test_criterion_09_kl_compromise_matches_grid_search():
    """Closed-form compromise marginal agrees with a brute-force
    simplex grid search at resolution 1e-4 on 20 random two- and
    three-category overlap fixtures (within one grid step, and never
    worse than the best grid point)."""
    rng = np.random.default_rng(909)
    for trial in range(20):
        k = 2 if trial < 10 else 3
        sp_u = ProductSpace.from_domains(("U", "C"), {"U": (0, 1), "C": tuple(range(k))})
        sp_b = ProductSpace.from_domains(("C", "B"), {"C": tuple(range(k)), "B": (0, 1)})
        mu = normalize(random_joint(rng, ("U", "C"), [2, k]))
        lam = normalize(random_joint(rng, ("C", "B"), [k, 2]))
        assert mu.space == sp_u and lam.space == sp_b
        m = marginalize(mu, ("C",))
        l = marginalize(lam, ("C",))
        weights = np.array([m.mass_at((c,)) + l.mass_at((c,)) for c in range(k)])
        closed = marginalize(kl_compromise(mu, lam), ("C",))
        closed_vec = np.array([closed.mass_at((c,)) for c in range(k)])
        assert np.max(np.abs(closed_vec - weights / 2.0)) <= 1e-12
        search = _grid_search_2 if k == 2 else _grid_search_3
        grid_pt, grid_val = search(weights)
        assert np.max(np.abs(closed_vec - grid_pt)) <= 2e-4
        closed_val = float(-(weights * np.log(closed_vec)).sum())
        assert closed_val <= grid_val + 1e-12
    print("criterion 9: 20 fixtures; closed form within one grid step of the search")


def test_criterion_10_urn_statistics():
    """Mean cluster count over 50,000 replicates within 3 sigma of
    sum a/(a+i-1) for (a,n) in {0.5,1,2}x{3,10}; the n=3 partition
    posterior from collapsed sweeps matches enumeration over all 5 set
    partitions within 3 sigma; under 2 minutes."""
    start = time.perf_counter()
    reps = 50_000
    for a in (0.5, 1.0, 2.0):
        for n in (3, 10):
            cfg = SamplerConfig(seed=int(1000 * a) + n)
            sampler = ContinuousBase(sampler=lambda rng: float(rng.random()))
            total = 0
            var = math.fsum((a / (a + i)) * (1 - a / (a + i)) for i in range(n))
            for r in range(reps):
                total += len(set(sample_partition(a, sampler, n, cfg, replicate=r)))
            mean = total / reps
            want = expected_clusters(a, n)
            band = 3 * math.sqrt(var / reps)
            assert abs(mean - want) < band, (a, n, mean, want)

    sp = ProductSpace.from_domains(("X",), {"X": (0, 1, 2)})
    base = uniform_measure(sp)
    data = [(0,), (1,), (0,)]

    def likelihood(x, pi):
        return 0.7 if tuple(x) == tuple(pi) else 0.3

    law = exact_partition_law(data, likelihood, 1.0, base)
    assert len(law) == 5  # every set partition of three items is reachable
    chains = 4000
    cfg = SamplerConfig(seed=1414)
    counts = {}
    for r in range(chains):
        _, history = gibbs_chain(data, likelihood, 1.0, base, 25, cfg, replicate=r)
        pattern = tuple(history[-1])
        counts[pattern] = counts.get(pattern, 0) + 1
    for pattern, p in law.items():
        freq = counts.get(pattern, 0) / chains
        band = 3 * math.sqrt(p * (1 - p) / chains)
        assert abs(freq - p) < band, (pattern, freq, p)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"{elapsed:.1f}s"
    print(f"criterion 10: urn means and the 5-partition posterior agree, {elapsed:.1f}s")


def test_criterion_11_cli_byte_determinism(tmp_path):
    """Every randomized command emits byte-identical stdout across two
    runs with the same --seed (and identical plot files where written)."""

    def measure_dict(variables, domains, points):
        return {
            "variables": list(variables),
            "domains": {v: list(d) for v, d in domains.items()},
            "points": [
                {"assignment": dict(zip(variables, x)), "mass": repr(float(m))}
                for x, m in points.items()
            ],
        }

    uniform_ij = measure_dict(
        ("I", "J"), {"I": (0, 1), "J": (0, 1)},
        {(0, 0): 0.25, (0, 1): 0.25, (1, 0): 0.25, (1, 1): 0.25},
    )
    copy_jk = measure_dict(("J", "K"), {"J": (0, 1), "K": (0, 1)}, {(0, 0): 0.5, (1, 1): 0.5})
    base_x = measure_dict(("X",), {"X": (0, 1)}, {(0,): 0.5, (1,): 0.5})
    spec = {
        "graph": {"vertices": ["I", "J", "K"], "edges": [["I", "J"], ["J", "K"]]},
        "nu": 4.0,
        "clique_bases": [uniform_ij, copy_jk],
    }
    base_path = tmp_path / "base.json"
    base_path.write_text(json.dumps(base_x), encoding="utf-8")
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    data_path = tmp_path / "data.csv"
    data_path.write_text("X\n0\n1\n0\n", encoding="utf-8")
    plot_path = tmp_path / "hist.csv"

    commands = [
        ("sample", "--base", base_path, "--nu", "2.0", "--replicates", "5", "--seed", "17"),
        ("sample-hdp", "--spec", spec_path, "--replicates", "5", "--seed", "17"),
        ("diagnose", "--spec", spec_path, "--samples", "5", "--seed", "17"),
        (
            "mixture", "--data", data_path, "--base", base_path, "--a", "1.0",
            "--sweeps", "10", "--seed", "17", "--plot-csv", plot_path,
        ),
    ]
    for argv in commands:
        runs = []
        plots = []
        for _ in range(2):
            proc = subprocess.run(
                [sys.executable, "-m", "hyperdp", *map(str, argv)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stdout
            runs.append(proc.stdout)
            if plot_path.exists():
                plots.append(plot_path.read_bytes())
                plot_path.unlink()
        assert runs[0] == runs[1], argv[0]
        if plots:
            assert plots[0] == plots[1]
    print("criterion 11: 4 randomized commands byte-identical across reruns")
