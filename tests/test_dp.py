"""Stick-breaking draws, conjugate updates, and distribution functions.

Monte Carlo assertions here are deliberately light (a few thousand
replicates with 3-sigma bands); the heavy sweeps live in the
acceptance suite.
"""

import functools
import itertools
import math
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperdp import (
    ContinuousBase,
    DiscreteMeasure,
    DPParams,
    OutsideDomain,
    ProductSpace,
    SamplerConfig,
    WeightedAtoms,
    atoms_to_measure,
    bayes_cdf,
    dp_posterior,
    marginalize,
    sample_dp,
    sample_from_atoms,
    stream,
    uniform_measure,
)
from hyperdp import stick
from hyperdp.rng import _weighted_draw
from hyperdp.rng import _LANES, _blocks, _key, _round_keys, scalars, uniforms

from conftest import beta_moments, beta_variate, looped_dp_posterior, looped_sample_dp


def one_var_base(masses):
    sp = ProductSpace.from_domains(("X",), {"X": tuple(range(len(masses)))})
    return DiscreteMeasure(sp, {(i,): m for i, m in enumerate(masses)})


# ------------------------------------------------------------------ streams


def test_stream_is_reproducible():
    a = stream(12345).random(8)
    b = stream(12345).random(8)
    assert np.array_equal(a, b)


def test_stream_replicates_are_independent_keys():
    base = stream(12345, 0).random(8)
    other = stream(12345, 1).random(8)
    again = stream(12345, 1).random(8)
    assert not np.array_equal(base, other)
    assert np.array_equal(other, again)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    replicate=st.integers(0, 2**64 - 1),
    n=st.integers(1, 40),
)
@example(seed=0, replicate=0, n=9)
@example(seed=2**64 - 1, replicate=2**64 - 1, n=9)
@example(seed=7, replicate=3, n=9 * _LANES)
def test_uniforms_match_numpy_philox_draw_for_draw(seed, replicate, n):
    # 1-40 draws cross the 4-word block boundaries at every offset; the
    # last example crosses two batches of 4 * _LANES words
    ours, numpy_rng = uniforms(seed, replicate), stream(seed, replicate)
    assert [ours.random().hex() for _ in range(n)] == [numpy_rng.random().hex() for _ in range(n)]


@pytest.mark.parametrize("counter", [2**64 - 1, 2**256 - 1])
def test_philox_blocks_carry_and_wrap_like_numpy(counter):
    # numpy bumps its counter before each block, carrying across words
    # and wrapping 2**256 - 1 to 0
    key = 0xFEDCBA9876543210 | (0x0123456789ABCDEF << 64)
    raw = np.random.Philox(key=key, counter=counter).random_raw(4 * _LANES)
    ours = _blocks((counter + 1) % 2**256, _round_keys(key))
    assert [int(w) for w in raw] == [(ours >> (64 * i)) & (2**64 - 1) for i in range(4 * _LANES)]


def test_beta_variate_range_and_mean():
    # the conftest oracle that pins sample_dp's stick fractions
    rng = stream(9)
    draws = [beta_variate(rng, 1.0, 4.0) for _ in range(4000)]
    assert all(0.0 < d < 1.0 for d in draws)
    # Beta(1, 4): mean 0.2, variance 4/150
    se = math.sqrt(4 / 150 / 4000)
    assert abs(np.mean(draws) - 0.2) < 3 * se


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    ops=st.lists(
        st.one_of(
            st.just(("exponential", None)),
            st.just(("random", None)),
            st.floats(0.01, 500.0).map(lambda nu: ("gamma", nu)),
        ),
        min_size=1,
        max_size=60,
    ),
)
def test_standard_exponential_takes_the_bits_of_unit_gamma(seed, ops):
    # sample_dp draws the Gamma(1) half of each Beta(1, nu) fraction with
    # standard_exponential; both streams must stay in step call for call
    fast, slow = stream(seed, 3), stream(seed, 3)
    for kind, nu in ops:
        if kind == "exponential":
            a, b = fast.standard_exponential(), slow.standard_gamma(1.0)
        elif kind == "random":
            a, b = fast.random(), slow.random()
        else:
            a, b = fast.standard_gamma(nu), slow.standard_gamma(nu)
        assert a.hex() == b.hex()


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    ops=st.lists(
        st.one_of(st.none(), st.floats(1.0, 500.0, exclude_min=True)), min_size=1, max_size=60
    ),
)
@example(seed=0, ops=[math.nextafter(1.0, 2.0), None, 1.5, None])
def test_unit_beta_takes_the_bits_of_the_two_call_fraction(seed, ops):
    # for nu > 1 sample_dp draws each stick fraction with one beta(1, nu)
    # call; it must stay in step with exponential / (exponential + gamma(nu)),
    # with random() (an atom lookup) between fractions
    fast, slow = stream(seed, 3), stream(seed, 3)
    for nu in ops:
        if nu is None:
            a, b = fast.random(), slow.random()
        else:
            a = fast.beta(1.0, nu)
            x = slow.standard_exponential()
            b = x / (x + slow.standard_gamma(nu))
        assert a.hex() == b.hex()


SHORTCUT_OPS = [
    ("random", None), ("beta", math.nextafter(1.0, 2.0)), ("random", None),
    ("gamma", 0.5), ("exponential", None), ("beta", 500.0), ("random", None),
]


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**64 - 1),
    replicate=st.integers(0, 2**64 - 1),
    ops=st.lists(
        st.one_of(
            st.just(("random", None)),
            st.just(("exponential", None)),
            st.floats(0.01, 500.0).map(lambda nu: ("gamma", nu)),
            st.floats(1.0, 500.0, exclude_min=True).map(lambda nu: ("beta", nu)),
        ),
        min_size=1,
        max_size=60,
    ),
)
@example(seed=0, replicate=0, ops=SHORTCUT_OPS)
@example(seed=2**64 - 1, replicate=2**64 - 1, ops=SHORTCUT_OPS)
def test_sample_dp_shortcuts_take_the_bits_of_the_plain_calls(seed, replicate, ops):
    # sample_dp draws from stream's key-only seed sequence, reads each
    # atom's uniform from a raw word, and passes its shapes as 0-d arrays;
    # call for call, that must draw what the plain numpy calls draw on a
    # generator keyed with Philox(key=...)
    fast = stream(seed, replicate)
    plain = np.random.Generator(np.random.Philox(key=_key(seed, replicate)))
    for kind, nu in ops:
        if kind == "random":
            a, b = (fast.bit_generator.random_raw() >> 11) * 2**-53, plain.random()
        elif kind == "exponential":
            a, b = fast.standard_exponential(), plain.standard_exponential()
        elif kind == "gamma":
            a, b = fast.standard_gamma(*scalars(nu)), plain.standard_gamma(nu)
        else:
            a, b = fast.beta(*scalars(1.0, nu)), plain.beta(1.0, nu)
        assert type(a) is float and a.hex() == b.hex()


@pytest.mark.parametrize("seed, replicate", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_streams_refuse_a_seed_or_replicate_outside_64_bits(seed, replicate):
    # masking would alias them: -1 would draw as 2**64 - 1, and 2**64 as 0
    name, value = ("seed", seed) if seed else ("replicate", replicate)
    for make in (stream, uniforms):
        with pytest.raises(ValueError, match=rf"^{name} must lie in \[0, 2\*\*64\), got {value}$"):
            make(seed, replicate)


@pytest.mark.parametrize("seed, replicate", [(2.5, 0), (2.0, 0), ("3", 0), (0, 1.5), (0, None)])
def test_streams_refuse_a_seed_or_replicate_that_is_not_an_integer(seed, replicate):
    # int() would truncate them: 2.5 drew seed 2's stream
    name, value = ("replicate", replicate) if seed == 0 else ("seed", seed)
    for make in (stream, uniforms):
        with pytest.raises(ValueError, match=rf"^{name} must be an integer, got {value!r}$"):
            make(seed, replicate)


def test_streams_take_numpy_integers():
    want = stream(3, 7).random()
    assert stream(np.uint64(3), np.int32(7)).random() == want
    assert uniforms(np.int64(3), np.uint8(7)).random() == want


def test_streams_cannot_spawn():
    with pytest.raises(TypeError):
        stream(3, 1).spawn(1)


# --------------------------------------------------------------- parameters


def test_params_validation():
    base = one_var_base([0.5, 0.5])
    assert DPParams(3, base).nu == 3.0
    with pytest.raises(ValueError):
        DPParams(0.0, base)
    with pytest.raises(ValueError):
        DPParams(float("inf"), base)
    with pytest.raises(ValueError):
        DPParams(2.0, one_var_base([0.5, 0.6]))
    with pytest.raises(TypeError):
        DPParams(2.0, {"not": "a base"})


def test_sampler_config_validation():
    SamplerConfig(seed=1)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, eps=0.0)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, eps=1.5)
    with pytest.raises(ValueError):
        SamplerConfig(seed=1, max_atoms=0)
    with pytest.raises(ValueError, match=r"^max_atoms must be an integer, got 2\.5$"):
        SamplerConfig(seed=1, max_atoms=2.5)
    assert SamplerConfig(seed=1, max_atoms=np.int64(2)).max_atoms == 2


def test_weighted_atoms_validation():
    WeightedAtoms(((0,), (1,)), (0.5, 0.5), 0.0)
    with pytest.raises(ValueError):
        WeightedAtoms(((0,),), (0.5, 0.5), 0.0)
    with pytest.raises(ValueError):
        WeightedAtoms((), (), 0.0)
    with pytest.raises(ValueError):
        WeightedAtoms(((0,), (1,)), (1.0, 0.0), 0.0)
    with pytest.raises(ValueError):
        WeightedAtoms(((0,), (1,)), (0.6, 0.6), 0.0)
    with pytest.raises(ValueError, match="sum to one"):
        WeightedAtoms(((0,), (1,)), (0.5, 0.5 + 1e-9), 0.0)
    # a NaN weight makes the sum NaN too, which no sum check can catch
    with pytest.raises(ValueError, match="strictly positive"):
        WeightedAtoms(((0,), (1,)), (math.nan, 1.0), 0.0)


# ------------------------------------------------------------ stick breaking


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_stick_breaking_invariants(seed):
    params = DPParams(4.0, one_var_base([0.5, 0.5]))
    cfg = SamplerConfig(seed=seed)
    theta = sample_dp(params, cfg)
    assert all(w > 0.0 for w in theta.weights)
    assert abs(math.fsum(theta.weights) - 1.0) <= 1e-12
    assert len(theta.atoms) <= cfg.max_atoms
    assert all(a in {(0,), (1,)} for a in theta.atoms)
    # the leftover was folded into the final atom
    assert theta.truncation_residual == theta.weights[-1]
    assert theta.truncation_residual < cfg.eps


def test_sample_dp_is_deterministic():
    params = DPParams(2.0, one_var_base([0.3, 0.7]))
    cfg = SamplerConfig(seed=77)
    a = sample_dp(params, cfg)
    b = sample_dp(params, cfg)
    assert a.atoms == b.atoms and a.weights == b.weights
    c = sample_dp(params, cfg, replicate=1)
    assert c.weights != a.weights


def test_tiny_precision_concentrates_on_one_atom():
    # nu -> 0 makes the first stick fraction essentially one
    params = DPParams(1e-9, one_var_base([0.5, 0.5]))
    for seed in range(5):
        theta = sample_dp(params, SamplerConfig(seed=seed))
        assert theta.weights[0] >= 0.999
        assert len(theta.atoms) <= 2


def test_atom_budget_folds_leftover():
    params = DPParams(50.0, one_var_base([0.5, 0.5]))
    theta = sample_dp(params, SamplerConfig(seed=3, eps=1e-12, max_atoms=5))
    assert len(theta.atoms) == 5
    assert abs(math.fsum(theta.weights) - 1.0) <= 1e-12
    # a nu this large cannot spend the stick in four breaks
    assert theta.truncation_residual > 1e-12


def test_a_leftover_equal_to_eps_breaks_another_stick():
    params = DPParams(2.0, one_var_base([0.5, 0.5]))
    first = sample_dp(params, SamplerConfig(seed=12))
    eps = 1.0 - first.weights[0]  # the leftover after the first stick, to the bit
    theta = sample_dp(params, SamplerConfig(seed=12, eps=eps))
    assert theta.weights[:2] == first.weights[:2]
    assert len(theta.weights) == 3


# Stick lengths -log(1 - V), V ~ Beta(1, nu), are Exp(nu), so the breaks
# that leave at least eps are a Poisson(nu * ln(1/eps)) count; one more
# break crosses eps and the fold adds the last atom.  Seed 20261020, R
# replicates each; the bands are 5 sigma of the sample mean and variance.
@pytest.mark.parametrize("eps", [1e-2, 1e-4])
@pytest.mark.parametrize("nu, reps", [(0.5, 1000), (1.0, 1000), (10.0, 1000), (200.0, 200)])
def test_atom_count_below_the_budget_is_two_plus_poisson(nu, reps, eps):
    params = DPParams(nu, one_var_base([0.25, 0.25, 0.5]))
    cfg = SamplerConfig(seed=20261020, eps=eps, max_atoms=100_000)
    counts = np.array([len(sample_dp(params, cfg, r).atoms) for r in range(reps)])
    assert counts.max() < cfg.max_atoms
    lam = nu * math.log(1.0 / eps)
    n = counts - 2
    assert abs(n.mean() - lam) <= 5.0 * math.sqrt(lam / reps)
    # Var of a sample variance of Poisson(lam) is about (lam + 2 lam^2) / reps
    assert abs(n.var(ddof=1) - lam) <= 5.0 * math.sqrt((lam + 2.0 * lam * lam) / reps)


def test_draws_from_one_base_build_its_lookup_table_once(monkeypatch):
    built = []

    def counted(keys, weights):
        built.append(len(built))
        return lookup_table(keys, weights)

    lookup_table = stick._lookup_table
    monkeypatch.setattr(stick, "_lookup_table", counted)
    base = one_var_base([0.25, 0.25, 0.5])
    params, cfg = DPParams(3.0, base), SamplerConfig(seed=5)
    draws = [sample_dp(params, cfg, r) for r in range(20)]
    assert len(built) == 1
    # the kept table gives the draws of a table built afresh each time
    for r, theta in enumerate(draws):
        assert theta == looped_sample_dp(params, cfg, r)
    # an equal but distinct base measure builds its own
    sample_dp(DPParams(3.0, one_var_base([0.25, 0.25, 0.5])), cfg)
    assert len(built) == 2


def test_partition_moments_match_dirichlet_law():
    # theta({0}) under (nu=4, uniform binary) is Beta(2, 2):
    # mean 1/2, variance 1/20
    params = DPParams(4.0, one_var_base([0.5, 0.5]))
    reps = 2000
    vals = np.empty(reps)
    for r in range(reps):
        theta = sample_dp(params, SamplerConfig(seed=1001), replicate=r)
        vals[r] = atoms_to_measure(theta).mass_at((0,))
    assert abs(vals.mean() - 0.5) < 3 * math.sqrt(0.05 / reps)
    assert abs(vals.var() - 0.05) < 0.10 * 0.05


@pytest.mark.parametrize("nu", [0.5, 4.0], ids=["two-call-fraction", "beta-fraction"])
def test_theta_of_a_set_has_the_dirichlet_moments(nu):
    # theta(A) ~ Beta(nu g(A), nu (1 - g(A))): mean g(A), variance
    # g(A) (1 - g(A)) / (nu + 1).  g(A) = 0.7 on a base that is not uniform.
    # Bands are 4 sigma of the sample mean and of the sample variance over
    # 4000 draws: 0.0237 and 0.0092 at nu = 0.5, 0.0130 and 0.0035 at nu = 4.
    base = one_var_base([0.2, 0.3, 0.5])
    inside = {(0,), (2,)}
    mean, var, mu4 = beta_moments(nu * 0.7, nu * 0.3)
    assert math.isclose(var, 0.7 * 0.3 / (nu + 1))
    reps, params, cfg = 4000, DPParams(nu, base), SamplerConfig(seed=7)
    vals = np.array([
        sum(w for x, w in zip(theta.atoms, theta.weights) if x in inside)
        for theta in (sample_dp(params, cfg, r) for r in range(reps))
    ])
    assert abs(vals.mean() - mean) < 4 * math.sqrt(var / reps)
    assert abs(vals.var() - var) < 4 * math.sqrt((mu4 - var * var) / reps)


def test_atom_keys_follow_the_base_by_a_chi_square_test():
    # each atom's key is an independent draw from the base, whatever its
    # weight, so the atoms per key are multinomial with the base's masses.
    # Over 5 keys the statistic x is chi-square with 4 degrees of freedom,
    # whose tail is exp(-x / 2) (1 + x / 2); the bound is a tail of 1e-4,
    # x < 23.5.  About 18,000 atoms: at least 900 expected per key.
    masses = [0.05, 0.1, 0.15, 0.3, 0.4]
    params, cfg = DPParams(100.0, one_var_base(masses)), SamplerConfig(seed=11)
    counts = [0] * len(masses)
    for r in range(8):
        for (key,) in sample_dp(params, cfg, r).atoms:
            counts[key] += 1
    n = sum(counts)
    assert n > 10_000
    x = sum((c - n * g) ** 2 / (n * g) for c, g in zip(counts, masses))
    assert math.exp(-x / 2) * (1 + x / 2) > 1e-4, (counts, x)


def test_continuous_base_draws():
    base = ContinuousBase(sampler=lambda rng: float(rng.random()))
    theta = sample_dp(DPParams(5.0, base), SamplerConfig(seed=11))
    assert theta.space is None
    assert all(0.0 <= a <= 1.0 for a in theta.atoms)
    assert len(set(theta.atoms)) == len(theta.atoms)
    with pytest.raises(TypeError):
        atoms_to_measure(theta)


MIXED_SPACE = ProductSpace.from_domains(
    ("X", "Y"), {"X": (0, "a", 2.5, True), "Y": ("b\n\"", 7, -0.0)}
)


@settings(max_examples=150, deadline=None)
@given(
    cells=st.lists(
        st.sampled_from(tuple(MIXED_SPACE.assignments())), min_size=1, max_size=6, unique=True
    ),
    masses=st.lists(st.floats(0.01, 10.0), min_size=6, max_size=6),
    continuous=st.booleans(),
    nu=st.sampled_from(
        (0.01, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1.5, 10.0, 500.0)
    ),
    eps=st.floats(1e-12, 0.5),
    max_atoms=st.sampled_from((1, 2, 3, 10_000)),
    seed=st.integers(0, 2**64 - 1),
    replicate=st.integers(0, 5),
)
@example(  # the budget stops it: about 13,800 sticks to reach eps
    cells=list(MIXED_SPACE.assignments())[:6], masses=[1.0] * 6, continuous=False,
    nu=500.0, eps=1e-12, max_atoms=10_000, seed=5, replicate=1,
)
@example(  # eps stops it after a few hundred sticks of a continuous base
    cells=[(0, 7)], masses=[1.0] * 6, continuous=True,
    nu=10.0, eps=1e-12, max_atoms=10_000, seed=2**64 - 1, replicate=0,
)
def test_sample_dp_matches_the_looped_oracle(
    cells, masses, continuous, nu, eps, max_atoms, seed, replicate
):
    if continuous:
        base = ContinuousBase(sampler=lambda rng: rng.normal())
    else:
        total = math.fsum(masses[: len(cells)])
        base = DiscreteMeasure(MIXED_SPACE, {x: m / total for x, m in zip(cells, masses)})
    params = DPParams(nu, base)
    cfg = SamplerConfig(seed=seed, eps=eps, max_atoms=max_atoms)
    fused = sample_dp(params, cfg, replicate)
    looped = looped_sample_dp(params, cfg, replicate)
    # repr tells (True,) from (1,) and -0.0 from 0.0; hex pins every weight bit
    assert repr(fused.atoms) == repr(looped.atoms)
    assert [w.hex() for w in fused.weights] == [w.hex() for w in looped.weights]
    assert fused.truncation_residual.hex() == looped.truncation_residual.hex()
    assert fused.space == looped.space


class _ScriptedStream:
    """Stand-in for ``stream``'s generator: each method replays its script
    and every call is logged by name.  Shape arguments must come as the
    0-d arrays that ``sample_dp`` builds once per draw; they are logged as
    floats."""

    def __init__(self, **scripts):
        self.scripts = {name: iter(draws) for name, draws in scripts.items()}
        self.calls = []
        self.bit_generator = types.SimpleNamespace(
            random_raw=functools.partial(self._next, "bit_generator.random_raw")
        )

    def _next(self, name, *args):
        for arg in args:
            assert isinstance(arg, np.ndarray) and arg.shape == () and arg.dtype == np.float64
        self.calls.append((name, *map(float, args)))
        return next(self.scripts[name])

    def beta(self, a, b):
        return self._next("beta", a, b)

    def standard_exponential(self):
        return self._next("standard_exponential")

    def standard_gamma(self, shape):
        return self._next("standard_gamma", shape)


def _scripted_draw(monkeypatch, nu, **scripts):
    """Two-atom ``sample_dp`` draw on a scripted stream, and the stream.

    The raw words 0 and 2**64 - 1 are the uniforms 0 and 1 - 2**-53, so
    the first atom is (0,) and the folded one is (1,).
    """
    rng = _ScriptedStream(**{"bit_generator.random_raw": [0, 2**64 - 1]}, **scripts)
    monkeypatch.setattr("hyperdp.rng.stream", lambda seed, replicate=0: rng)
    theta = sample_dp(DPParams(nu, one_var_base([0.5, 0.5])), SamplerConfig(seed=1, max_atoms=2))
    return theta, rng.calls


def test_both_zero_gammas_redraw_the_beta_fraction(monkeypatch):
    # numpy's beta gives 0/0 = NaN when both of its gamma draws are zero
    theta, calls = _scripted_draw(monkeypatch, 2.0, beta=[math.nan, 0.25])
    assert calls == [("beta", 1.0, 2.0)] * 2 + [("bit_generator.random_raw",)] * 2
    assert theta.atoms == ((0,), (1,)) and theta.weights == (0.25, 0.75)


@pytest.mark.parametrize("nu", [0.5, 1.0])
def test_both_zero_gammas_redraw_the_two_call_fraction(monkeypatch, nu):
    theta, calls = _scripted_draw(
        monkeypatch, nu, standard_exponential=[0.0, 1.0], standard_gamma=[0.0, 3.0]
    )
    pair = [("standard_exponential",), ("standard_gamma", nu)]
    assert calls == pair * 2 + [("bit_generator.random_raw",)] * 2
    assert theta.atoms == ((0,), (1,)) and theta.weights == (0.25, 0.75)


# ------------------------------------------------------- derived quantities


def test_atoms_to_measure_aggregates():
    sp = ProductSpace.from_domains(("X",), {"X": (0, 1)})
    theta = WeightedAtoms(((0,), (1,), (0,)), (0.25, 0.5, 0.25), 0.0, sp)
    m = atoms_to_measure(theta)
    assert m.mass == {(0,): 0.5, (1,): 0.5}


def test_marginal_atoms_mean_matches_marginal_prior():
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    base = DiscreteMeasure(sp, {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4})
    params = DPParams(3.0, base)
    reps = 1200
    vals = np.empty(reps)
    for r in range(reps):
        theta = sample_dp(params, SamplerConfig(seed=500), replicate=r)
        vals[r] = marginalize(atoms_to_measure(theta), ("J",)).mass_at((0,))
    want = marginalize(params.base, ("J",)).mass_at((0,))
    assert want == pytest.approx(0.4)
    assert abs(vals.mean() - want) < 3 * math.sqrt(0.25 / (params.nu + 1) / reps)


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(
        st.floats(min_value=1e-300, max_value=1e3, allow_nan=False), min_size=1, max_size=40
    ),
    pick=st.one_of(
        st.integers(0, 39).map(lambda k: ("boundary", k)),
        st.just(("total", None)),
        st.just(("zero", None)),
        st.floats(0.0, 1.0).map(lambda f: ("fraction", f)),
    ),
)
def test_atom_index_matches_searchsorted(weights, pick):
    cum = list(itertools.accumulate(weights))
    dense = np.cumsum(np.array(weights, dtype=float))
    assert cum == dense.tolist()
    kind, value = pick
    fraction = {
        "boundary": lambda: cum[value % len(cum)] / cum[-1],
        "total": lambda: 1.0,
        "zero": lambda: 0.0,
        "fraction": lambda: value,
    }[kind]()

    class Fixed:
        def random(self):
            return fraction

    u = fraction * cum[-1]
    expected = min(int(np.searchsorted(dense, u, side="right")), len(cum) - 1)
    assert _weighted_draw(range(len(weights)), weights)(Fixed()) == expected


def test_sample_from_atoms_frequencies():
    sp = ProductSpace.from_domains(("X",), {"X": (0, 1, 2)})
    theta = WeightedAtoms(((0,), (1,), (2,)), (0.5, 0.3, 0.2), 0.0, sp)
    draws = sample_from_atoms(theta, stream(21), 2000)
    for atom, p in zip(theta.atoms, theta.weights):
        freq = sum(1 for d in draws if d == atom) / len(draws)
        assert abs(freq - p) < 3 * math.sqrt(p * (1 - p) / 2000)


# ---------------------------------------------------------------- posterior


def test_posterior_exact_fixture():
    params = DPParams(1.0, one_var_base([0.5, 0.5]))
    post = dp_posterior(params, [(0,), (0,)])
    assert post.nu == 3.0
    assert post.base.mass[(0,)] == 2.5 / 3
    assert post.base.mass[(1,)] == 0.5 / 3


def test_posterior_accepts_dict_observations():
    params = DPParams(2.0, one_var_base([0.5, 0.5]))
    post = dp_posterior(params, [{"X": 1}])
    assert post.base.mass[(1,)] == 2.0 / 3


def test_posterior_empty_data_is_identity():
    params = DPParams(2.0, one_var_base([0.5, 0.5]))
    assert dp_posterior(params, []) is params


def test_posterior_rejects_foreign_observations():
    params = DPParams(2.0, one_var_base([0.5, 0.5]))
    with pytest.raises(OutsideDomain):
        dp_posterior(params, [(7,)])
    with pytest.raises(TypeError):
        dp_posterior(DPParams(1.0, ContinuousBase(sampler=lambda r: r.random())), [(0,)])


def test_a_string_or_bytes_is_no_assignment():
    # tuple() read "ab" as the cell ("a", "b") and b"ab" as (97, 98)
    sp = ProductSpace.from_domains(("X", "Y"), {"X": ("a", "b"), "Y": ("a", "b")})
    with pytest.raises(ValueError, match="^assignment 'ab' is text, not a sequence of values$"):
        DiscreteMeasure(sp, {"ab": 0.5, ("b", "a"): 0.5})
    codes = ProductSpace.from_domains(("X", "Y"), {"X": (97, 98), "Y": (97, 98)})
    with pytest.raises(ValueError, match="^assignment b'ab' is text, not a sequence of values$"):
        DiscreteMeasure(codes, {b"ab": 1.0})
    m = DiscreteMeasure(sp, {("a", "b"): 0.5, ("b", "a"): 0.5})
    with pytest.raises(ValueError, match="is text"):
        m.mass_at("ab")
    with pytest.raises(OutsideDomain, match="^observation 'ba' is outside the base's space"):
        dp_posterior(DPParams(1.0, m), [("a", "b"), "ba"])
    with pytest.raises(OutsideDomain, match="^observation b'ab' is outside the base's space"):
        dp_posterior(DPParams(1.0, DiscreteMeasure(codes, {(97, 98): 1.0})), [b"ab"])
    assert dp_posterior(DPParams(1.0, m), [("a", "b")]).base.mass[("a", "b")] == 0.75


def test_posterior_adds_each_count_one_unit_at_a_time():
    # nu * g + 2 rounds up where g + 1.0 + 1.0 does not
    third = DPParams(1.0, one_var_base([1 / 3, 1 / 3, 1 / 3]))
    assert 1 / 3 + 1.0 + 1.0 != 1 / 3 + 2
    assert dp_posterior(third, [(0,), (0,)]).base.mass[(0,)] == (1 / 3 + 1.0 + 1.0) / 3.0


def _posterior_cells(update, params, data):
    """The update's precision and cells, keys as printed, or its error."""
    try:
        post = update(params, data)
    except Exception as exc:  # the differential test compares errors too
        return type(exc), str(exc)
    return post.nu, post.base.space, [(repr(x), w) for x, w in post.base.mass.items()]


@settings(max_examples=300, deadline=None)
@given(
    nu=st.sampled_from([0.5, 1.0, 3.0]),
    masses=st.sampled_from([[1 / 3, 1 / 3, 1 / 3], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]),
    data=st.lists(
        st.one_of(
            st.sampled_from([(0,), (1,), (2,), (True,), (1.0,), (False,), (0.0,), (2.0,)]),
            st.sampled_from([[1], {"X": 2}, {"X": True}, (7,), {"Y": 0}, (0, 1), ([1],)]),
        ),
        max_size=12,
    ),
)
def test_posterior_counts_each_distinct_row_as_the_row_loop_adds_them(nu, masses, data):
    # 1, True and 1.0 find one cell, which keeps the first of them, and the
    # first bad row is named whatever rows repeat around it
    params = DPParams(nu, one_var_base(masses))
    assert _posterior_cells(dp_posterior, params, data) == _posterior_cells(
        looped_dp_posterior, params, data
    )


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_posterior_sequential_equals_batch(seed):
    rng = np.random.default_rng(seed)
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    params = DPParams(float(rng.uniform(0.5, 5.0)), uniform_measure(sp))
    n1, n2 = int(rng.integers(0, 15)), int(rng.integers(0, 15))
    data = [(int(rng.integers(2)), int(rng.integers(2))) for _ in range(n1 + n2)]
    steps = dp_posterior(dp_posterior(params, data[:n1]), data[n1:])
    batch = dp_posterior(params, data)
    assert steps.nu == pytest.approx(batch.nu, abs=1e-12)
    for x in sp.assignments():
        assert steps.base.mass_at(x) == pytest.approx(batch.base.mass_at(x), abs=1e-12)


# ---------------------------------------------------- distribution function


def test_bayes_cdf_fixture():
    params = DPParams(2.0, one_var_base([0.2, 0.3, 0.5]))
    got = bayes_cdf(params, [0, 2, 2], 1)
    assert got == pytest.approx(0.4)


def test_bayes_cdf_two_forms_agree():
    params = DPParams(3.5, one_var_base([0.1, 0.4, 0.2, 0.3]))
    data = [0, 1, 1, 3, 2, 0, 3]
    n = len(data)
    for t in np.linspace(-1.0, 4.0, 41):
        blend = bayes_cdf(params, data, t)
        prior = math.fsum(v for (c,), v in params.base.mass.items() if c <= t)
        ratio = (params.nu * prior + sum(1 for x in data if x <= t)) / (params.nu + n)
        assert blend == pytest.approx(ratio, abs=1e-15)


def test_bayes_cdf_is_monotone_with_unit_limits():
    params = DPParams(1.5, one_var_base([0.25, 0.25, 0.5]))
    data = [0, 2]
    grid = np.linspace(-0.5, 2.5, 31)
    vals = [bayes_cdf(params, data, t) for t in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[0] == 0.0
    assert vals[-1] == pytest.approx(1.0)


def test_bayes_cdf_no_data_returns_prior():
    params = DPParams(2.0, one_var_base([0.2, 0.8]))
    assert bayes_cdf(params, [], 0) == pytest.approx(0.2)


def test_bayes_cdf_continuous_base():
    base = ContinuousBase(
        sampler=lambda rng: float(rng.random()),
        cdf=lambda t: min(max(t, 0.0), 1.0),
    )
    params = DPParams(1.0, base)
    got = bayes_cdf(params, [0.25], 0.5)
    assert got == pytest.approx(0.5 * 0.5 + 0.5 * 1.0)
    bare = ContinuousBase(sampler=lambda rng: float(rng.random()))
    with pytest.raises(ValueError):
        bayes_cdf(DPParams(1.0, bare), [0.25], 0.5)


def test_bayes_cdf_input_validation():
    params = DPParams(2.0, one_var_base([0.2, 0.8]))
    with pytest.raises(ValueError):
        bayes_cdf(params, ["zero"], 0)
    with pytest.raises(ValueError):
        bayes_cdf(params, [True], 0)
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    with pytest.raises(ValueError):
        bayes_cdf(DPParams(1.0, uniform_measure(sp)), [0], 0)
    labeled = DiscreteMeasure(
        ProductSpace.from_domains(("X",), {"X": ("a", "b")}), {("a",): 0.5, ("b",): 0.5}
    )
    with pytest.raises(ValueError):
        bayes_cdf(DPParams(1.0, labeled), [], 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_bayes_cdf_rejects_non_finite_values(bad):
    params = DPParams(2.0, one_var_base([0.2, 0.8]))
    with pytest.raises(ValueError):
        bayes_cdf(params, [0.0, bad], 1)
    with pytest.raises(ValueError):
        bayes_cdf(params, [0.0], bad)
    with pytest.raises(ValueError):
        bayes_cdf(params, [], bad)
