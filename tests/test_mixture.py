"""Urn predictives, partition sampling, and collapsed Gibbs reassignment.

The exact oracle for small problems enumerates every latent value
vector (see conftest.exact_partition_law); Monte Carlo checks here stay
small and use 3-sigma bands.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdp import (
    ContinuousBase,
    DiscreteMeasure,
    ProductSpace,
    SamplerConfig,
    UrnState,
    ZeroMass,
    expected_clusters,
    gibbs_chain,
    identity_likelihood,
    sample_partition,
    uniform_measure,
    urn_predictive,
)
from hyperdp.mixture import _urn_weights

from conftest import exact_partition_law, recount_gibbs_chain


def one_var_base(masses):
    sp = ProductSpace.from_domains(("X",), {"X": tuple(range(len(masses)))})
    return DiscreteMeasure(sp, {(i,): m for i, m in enumerate(masses)})


def distinct_base():
    return ContinuousBase(sampler=lambda rng: float(rng.random()))


def noisy_likelihood(x, pi):
    return 0.7 if tuple(x) == tuple(pi) else 0.3


# ------------------------------------------------------------------- urn


def test_urn_state_validation():
    base = one_var_base([0.5, 0.5])
    UrnState(((0,),), 1.0, base)
    with pytest.raises(ValueError):
        UrnState((), 0.0, base)
    with pytest.raises(ValueError):
        UrnState((), 1.0, one_var_base([0.5, 0.6]))
    with pytest.raises(ValueError):
        UrnState(((7,),), 1.0, base)
    with pytest.raises(TypeError):
        UrnState((), 1.0, "nope")


def test_urn_predictive_no_draws_is_base():
    base = one_var_base([0.3, 0.7])
    got = urn_predictive(UrnState((), 2.0, base))
    assert got.mass_at((0,)) == pytest.approx(0.3)
    assert got.mass_at((1,)) == pytest.approx(0.7)


def test_urn_predictive_counts_draws():
    base = one_var_base([0.5, 0.5])
    got = urn_predictive(UrnState(((0,),), 1.0, base))
    assert got.mass == {(0,): 0.75, (1,): 0.25}
    twice = urn_predictive(UrnState(((0,), (0,)), 1.0, base))
    assert twice.mass_at((0,)) == pytest.approx(2.5 / 3)


def test_urn_predictive_supports_values_off_the_base():
    base = one_var_base([1.0, 0.0])  # the zero cell is dropped at build
    got = urn_predictive(UrnState(((1,),), 1.0, base))
    assert got.mass_at((1,)) == pytest.approx(0.5)
    assert got.is_probability()


def test_urn_predictive_large_precision_recovers_base():
    base = one_var_base([0.2, 0.3, 0.5])
    state = UrnState(((0,), (2,), (2,)), 1e9, base)
    got = urn_predictive(state)
    gap = max(abs(got.mass_at(x) - base.mass_at(x)) for x in base.space.assignments())
    assert gap < 1e-8


def test_urn_predictive_requires_discrete_base():
    with pytest.raises(TypeError):
        urn_predictive(UrnState((), 1.0, distinct_base()))


# -------------------------------------------------------------- partitions


def test_sample_partition_is_deterministic_and_canonical():
    cfg = SamplerConfig(seed=99)
    labels = sample_partition(1.0, distinct_base(), 12, cfg)
    again = sample_partition(1.0, distinct_base(), 12, cfg)
    assert labels == again
    assert labels[0] == 0
    # first-appearance canonicalization: a new label is always +1
    seen = 0
    for lab in labels:
        assert lab <= seen
        seen = max(seen, lab + 1)
    other = sample_partition(1.0, distinct_base(), 12, cfg, replicate=3)
    assert other != labels


def test_sample_partition_precision_extremes():
    cfg = SamplerConfig(seed=4)
    for r in range(5):
        merged = sample_partition(1e-9, distinct_base(), 6, cfg, replicate=r)
        assert merged == [0] * 6
        split = sample_partition(1e12, distinct_base(), 6, cfg, replicate=r)
        assert split == list(range(6))
    with pytest.raises(ValueError):
        sample_partition(0.0, distinct_base(), 3, cfg)


def test_expected_clusters_values():
    assert expected_clusters(1.0, 3) == pytest.approx(1 + 1 / 2 + 1 / 3)
    assert expected_clusters(2.0, 1) == 1.0
    assert expected_clusters(5.0, 0) == 0.0
    with pytest.raises(ValueError):
        expected_clusters(-1.0, 3)


def test_negative_draw_counts_are_rejected():
    cfg = SamplerConfig(seed=1)
    with pytest.raises(ValueError, match="n must be nonnegative, got -3"):
        sample_partition(1.0, one_var_base([0.5, 0.5]), -3, cfg)
    with pytest.raises(ValueError, match="n must be nonnegative, got -5"):
        expected_clusters(1.0, -5)
    assert sample_partition(1.0, one_var_base([0.5, 0.5]), 0, cfg) == []


def test_mean_cluster_count_matches_formula():
    a, n, reps = 1.0, 5, 2000
    cfg = SamplerConfig(seed=31)
    counts = np.empty(reps)
    for r in range(reps):
        counts[r] = len(set(sample_partition(a, distinct_base(), n, cfg, replicate=r)))
    want = expected_clusters(a, n)
    # K is a sum of independent indicators, so its variance is known too
    var = math.fsum((a / (a + i)) * (1 - a / (a + i)) for i in range(n))
    assert abs(counts.mean() - want) < 3 * math.sqrt(var / reps)


def test_three_element_partition_exchangeability():
    # the three "pair plus singleton" patterns are exchangeable, each
    # with probability 1/6 at a=1; compare their counts with chi-square
    reps = 3000
    cfg = SamplerConfig(seed=8)
    counts = {}
    for r in range(reps):
        pattern = tuple(sample_partition(1.0, distinct_base(), 3, cfg, replicate=r))
        counts[pattern] = counts.get(pattern, 0) + 1
    pair_patterns = [(0, 0, 1), (0, 1, 0), (0, 1, 1)]
    pair_counts = [counts.get(p, 0) for p in pair_patterns]
    expected = sum(pair_counts) / 3
    chi2 = sum((c - expected) ** 2 / expected for c in pair_counts)
    assert chi2 < 13.8  # df=2, p about 0.001
    for c in pair_counts:
        assert abs(c / reps - 1 / 6) < 3 * math.sqrt((1 / 6) * (5 / 6) / reps)


def test_sample_partition_matches_enumeration_with_atomic_base():
    # a two-point base can repeat values, so the pair probability is
    # 0.75 rather than the atomless 0.5
    base = one_var_base([0.5, 0.5])
    law = exact_partition_law([(0,), (1,)], lambda x, pi: 1.0, 1.0, base)
    assert law[(0, 0)] == pytest.approx(0.75)
    reps = 2000
    cfg = SamplerConfig(seed=63)
    same = sum(
        sample_partition(1.0, base, 2, cfg, replicate=r) == [0, 0] for r in range(reps)
    )
    assert abs(same / reps - 0.75) < 3 * math.sqrt(0.75 * 0.25 / reps)


# ------------------------------------------------------------------- gibbs


def test_gibbs_weights_match_urn_predictive_under_flat_likelihood():
    base = one_var_base([0.25, 0.75])
    others = ((0,), (1,), (0,))
    a = 1.5
    counts = {(0,): 2.0, (1,): 1.0}
    candidates, weights = _urn_weights((1,), counts, lambda x, pi: 1.0, a, base)
    predictive = urn_predictive(UrnState(others, a, base))
    total = math.fsum(weights)
    for cand, w in zip(candidates, weights):
        assert w / total == pytest.approx(predictive.mass_at(cand), abs=1e-15)


def test_gibbs_weights_include_off_base_values():
    base = one_var_base([1.0, 0.0])
    candidates, weights = _urn_weights((0,), {(1,): 1.0}, lambda x, pi: 1.0, 1.0, base)
    assert (1,) in candidates
    assert weights[candidates.index((1,))] == pytest.approx(1.0)


def test_gibbs_reassign_zero_likelihood_raises():
    base = one_var_base([0.5, 0.5])
    with pytest.raises(ZeroMass):
        gibbs_chain([(0,)], lambda x, pi: 0.0, 1.0, base, 1, SamplerConfig(seed=1))


@pytest.mark.parametrize(
    "bad, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-1.0, "-0.5")],
)
def test_gibbs_reassign_rejects_bad_likelihood_values(bad, shown):
    # only the last cell's likelihood is bad; the draw must not fall through to it
    base = one_var_base([0.5, 0.5])

    def likelihood(x, pi):
        return bad if pi == (1,) else 1.0

    with pytest.raises(ValueError, match=rf"value \(1,\) has weight {shown};"):
        gibbs_chain([(0,), (1,)], likelihood, 1.0, base, 1, SamplerConfig(seed=2))


def test_gibbs_reassign_single_observation_samples_base():
    # one observation and a flat likelihood: the redraw ignores the start
    # value, so one sweep's value is a fresh draw from the base
    base = one_var_base([0.2, 0.8])
    cfg = SamplerConfig(seed=23)
    reps = 2000
    draws = [
        gibbs_chain([(0,)], lambda x, pi: 1.0, 1.0, base, 1, cfg, replicate=r)[0][0]
        for r in range(reps)
    ]
    freq = sum(1 for d in draws if d == (1,)) / reps
    assert abs(freq - 0.8) < 3 * math.sqrt(0.8 * 0.2 / reps)


def test_gibbs_chain_shapes_and_determinism():
    base = one_var_base([0.5, 0.5])
    data = [(0,), (1,), (0,)]
    cfg = SamplerConfig(seed=41)
    final, history = gibbs_chain(data, noisy_likelihood, 1.0, base, 4, cfg)
    assert len(final) == 3
    assert len(history) == 4
    assert all(len(h) == 3 for h in history)
    again, history2 = gibbs_chain(data, noisy_likelihood, 1.0, base, 4, cfg)
    assert final == again and history == history2


def test_gibbs_chain_identity_likelihood_locks_to_data():
    base = one_var_base([0.5, 0.5])
    data = [(0,), (1,), (0,)]
    final, history = gibbs_chain(data, identity_likelihood, 1.0, base, 2, SamplerConfig(seed=5))
    assert final == data
    assert history[-1] == [0, 1, 0]


def test_gibbs_chain_reaches_exact_stationary_law():
    # two observations, soft likelihood: the pattern law is computable
    # by enumeration, and independent short chains should match it
    base = one_var_base([0.5, 0.5])
    data = [(0,), (1,)]
    a = 1.0
    law = exact_partition_law(data, noisy_likelihood, a, base)
    p_same = law[(0, 0)]
    assert p_same == pytest.approx(0.1575 / 0.23)
    reps, sweeps = 600, 12
    cfg = SamplerConfig(seed=2718)
    hits = 0
    for r in range(reps):
        _, history = gibbs_chain(data, noisy_likelihood, a, base, sweeps, cfg, replicate=r)
        hits += history[-1] == [0, 0]
    assert abs(hits / reps - p_same) < 3 * math.sqrt(p_same * (1 - p_same) / reps)


def test_gibbs_chain_rejects_bad_precision_and_sweeps():
    base = one_var_base([0.5, 0.5])
    data = [(0,), (1,)]
    cfg = SamplerConfig(seed=3)
    for a in (0.0, -0.5, math.nan, math.inf):
        with pytest.raises(ValueError, match="precision a must be finite and positive"):
            gibbs_chain(data, noisy_likelihood, a, base, 2, cfg)
    with pytest.raises(ValueError, match="sweeps"):
        gibbs_chain(data, noisy_likelihood, 1.0, base, -3, cfg)
    with pytest.raises(TypeError):
        gibbs_chain(data, noisy_likelihood, 1.0, distinct_base(), 2, cfg)
    final, history = gibbs_chain(data, noisy_likelihood, 1.0, base, 0, cfg)
    assert final[0] == final[1] and history == []


def _outcome(chain, *args):
    try:
        return chain(*args)
    except ZeroMass:
        return "ZeroMass"


@st.composite
def gibbs_chain_cases(draw):
    """A small chain whose base may leave cells without mass.

    Observations range over the whole space, so identity and sparse
    likelihood tables can leave an observation with no candidate.
    """
    size = draw(st.integers(2, 5))
    masses = draw(st.lists(st.sampled_from([0.0, 0.0, 0.1, 0.5, 1.0, 3.0]),
                           min_size=size, max_size=size))
    if not any(masses):
        masses[draw(st.integers(0, size - 1))] = 1.0
    total = math.fsum(masses)
    base = one_var_base([m / total for m in masses])
    cells = [(k,) for k in range(size)]
    data = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=30))
    if draw(st.booleans()):
        likelihood = identity_likelihood
    else:
        table = {
            (x, pi): draw(st.sampled_from([0.0, 0.0, 0.05, 0.3, 1.0]))
            for x in cells for pi in cells
        }

        def likelihood(x, pi):
            return table[(tuple(x), tuple(pi))]

    a = draw(st.sampled_from([0.1, 1.0, 50.0]))
    sweeps = draw(st.integers(0, 4))
    cfg = SamplerConfig(seed=draw(st.integers(0, 2**32 - 1)))
    return data, likelihood, a, base, sweeps, cfg, draw(st.integers(0, 3))


@settings(max_examples=300, deadline=None)
@given(gibbs_chain_cases())
def test_gibbs_chain_running_counts_match_recount(case):
    assert _outcome(gibbs_chain, *case) == _outcome(recount_gibbs_chain, *case)


def test_identity_likelihood():
    assert identity_likelihood((0, 1), (0, 1)) == 1.0
    assert identity_likelihood((0, 1), (1, 1)) == 0.0
    assert identity_likelihood([0, 1], (0, 1)) == 1.0
