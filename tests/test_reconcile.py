"""Merging strategies for inconsistent measure pairs.

The disagreement fixture used throughout: the first measure sees the
shared variable J as (0.6, 0.4), the second as (0.5, 0.5), both with
uniform conditionals, so every completion is easy to write down by
hand.
"""

import itertools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdp import (
    DiscreteMeasure,
    HyperDPError,
    Inconsistent,
    ProductSpace,
    ReconcileStrategy,
    ZeroConditional,
    ZeroMass,
    complete_via,
    is_consistent,
    kl_compromise,
    marginalize,
    markov_combination,
    normalize,
    rescale,
    scale_measure,
    suggested_gamma,
    uniform_measure,
    weighted_average,
)
from hyperdp import algebra as algebra_module
from hyperdp import reconcile as reconcile_module
from hyperdp.reconcile import reconcile
from hyperdp.serialize import measure_json

from conftest import (
    assembled_complete_via,
    assembled_kl_compromise,
    assembled_markov_combination,
    assembled_weighted_average,
    equal_twin,
    looped_glue,
    outcome,
    random_joint,
)


@pytest.fixture
def mu_skew(space_ij):
    # J-marginal (0.6, 0.4), I uniform given J
    return DiscreteMeasure(
        space_ij, {(0, 0): 0.3, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.2}
    )


@pytest.fixture
def lam_flat(space_jk):
    return uniform_measure(space_jk)


def assert_measures_close(a, b, tol=1e-12):
    assert a.space.variables == b.space.variables
    keys = set(a.mass) | set(b.mass)
    gap = max((abs(a.mass.get(k, 0.0) - b.mass.get(k, 0.0)) for k in keys), default=0.0)
    assert gap <= tol, f"sup gap {gap}"


# ------------------------------------------------------------- strategies


def test_strategy_validation():
    ReconcileStrategy("rescale-min")
    ReconcileStrategy("weighted-average", gamma=0.3)
    with pytest.raises(ValueError):
        ReconcileStrategy("shrug")
    with pytest.raises(ValueError):
        ReconcileStrategy("rescale-convex")
    with pytest.raises(ValueError):
        ReconcileStrategy("weighted-average", gamma=1.5)
    with pytest.raises(ValueError):
        ReconcileStrategy("condition-on-a", gamma=0.5)


# -------------------------------------------------------------- rescaling


def test_rescale_min(space_ij, space_jk):
    mu = scale_measure(uniform_measure(space_ij), 2.0)
    lam = scale_measure(uniform_measure(space_jk), 3.0)
    mu2, lam2 = rescale(mu, lam, ReconcileStrategy("rescale-min"))
    assert mu2.total == pytest.approx(2.0)
    assert lam2.total == pytest.approx(2.0)
    assert is_consistent(mu2, lam2).consistent
    # the smaller measure is untouched
    assert mu2.mass == mu.mass
    markov_combination(mu2, lam2)


def test_rescale_convex(space_ij, space_jk):
    mu = scale_measure(uniform_measure(space_ij), 2.0)
    lam = scale_measure(uniform_measure(space_jk), 3.0)
    mu2, lam2 = rescale(mu, lam, ReconcileStrategy("rescale-convex", gamma=0.25))
    assert mu2.total == pytest.approx(2.75)
    assert lam2.total == pytest.approx(2.75)


@pytest.mark.parametrize(
    "strategy", [ReconcileStrategy("rescale-min"), ReconcileStrategy("rescale-convex", gamma=0.5)]
)
def test_zero_measures_have_no_mass_to_rescale_or_mix(space_ij, space_jk, strategy):
    mu, lam = DiscreteMeasure(space_ij, {}), DiscreteMeasure(space_jk, {})
    with pytest.raises(ZeroMass, match="^cannot rescale measures with zero total mass$"):
        rescale(mu, lam, strategy)
    with pytest.raises(ZeroMass, match="^cannot suggest a mixing weight"):
        suggested_gamma(mu, lam)
    # one zero measure is not proportional to a positive one
    with pytest.raises(Inconsistent, match="condition 1"):
        rescale(mu, uniform_measure(space_jk), strategy)
    assert suggested_gamma(mu, uniform_measure(space_jk)) == 0.0


def test_rescale_rejects_shape_disagreement(mu_skew, lam_flat):
    with pytest.raises(Inconsistent, match="condition 1"):
        rescale(mu_skew, lam_flat, ReconcileStrategy("rescale-min"))
    with pytest.raises(ValueError):
        rescale(mu_skew, lam_flat, ReconcileStrategy("condition-on-a"))


# -------------------------------------------------------------- completion


def test_complete_via_a_frozen(mu_skew, lam_flat):
    got = complete_via(mu_skew, lam_flat, "A")
    assert got.space.variables == ("I", "J", "K")
    assert got.mass == {
        (0, 0, 0): 0.15,
        (0, 0, 1): 0.15,
        (0, 1, 0): 0.10,
        (0, 1, 1): 0.10,
        (1, 0, 0): 0.15,
        (1, 0, 1): 0.15,
        (1, 1, 0): 0.10,
        (1, 1, 1): 0.10,
    }
    # the trusted side's view of J survives
    assert marginalize(got, ("J",)).mass == {(0,): 0.6, (1,): 0.4}


def test_complete_via_b_frozen(mu_skew, lam_flat):
    got = complete_via(mu_skew, lam_flat, "B")
    assert got.space.variables == ("I", "J", "K")
    assert set(got.mass.values()) == {0.125}
    assert marginalize(got, ("J",)).mass == {(0,): 0.5, (1,): 0.5}


def test_complete_via_preserves_trusted_marginal():
    rng = np.random.default_rng(11)
    for _ in range(15):
        mu = random_joint(rng, ("A", "B"), [2, 3])
        lam = random_joint(rng, ("B", "C"), [3, 2])
        via_a = complete_via(mu, lam, "A")
        assert_measures_close(marginalize(via_a, ("A", "B")), mu, tol=1e-12)
        via_b = complete_via(mu, lam, "B")
        got = marginalize(via_b, ("B", "C"))
        for x in lam.space.assignments():
            cell = dict(zip(lam.space.variables, x))
            assert got.mass_at(cell) == pytest.approx(lam.mass_at(cell), abs=1e-12)


def test_complete_via_zero_conditional(mu_skew, space_jk, space_ij, lam_flat):
    gap_j0 = DiscreteMeasure(space_jk, {(1, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(ZeroConditional):
        complete_via(mu_skew, gap_j0, "A")
    mu_gap = DiscreteMeasure(space_ij, {(0, 1): 0.5, (1, 1): 0.5})
    with pytest.raises(ZeroConditional):
        complete_via(mu_gap, lam_flat, "B")
    with pytest.raises(ValueError):
        complete_via(mu_skew, lam_flat, "C")


# ---------------------------------------------------------------- blending


def test_weighted_average_frozen(mu_skew, lam_flat):
    got = weighted_average(mu_skew, lam_flat, 0.5)
    assert marginalize(got, ("J",)).mass == {(0,): pytest.approx(0.55), (1,): pytest.approx(0.45)}
    assert got.mass_at((0, 0, 0)) == pytest.approx(0.1375)
    assert got.mass_at((0, 1, 1)) == pytest.approx(0.1125)
    assert got.total == pytest.approx(1.0)


def test_weighted_average_endpoints(mu_skew, lam_flat):
    assert_measures_close(
        weighted_average(mu_skew, lam_flat, 1.0), complete_via(mu_skew, lam_flat, "A")
    )
    assert_measures_close(
        weighted_average(mu_skew, lam_flat, 0.0), complete_via(mu_skew, lam_flat, "B")
    )
    with pytest.raises(ValueError):
        weighted_average(mu_skew, lam_flat, -0.1)


def test_suggested_gamma(mu_skew, lam_flat):
    assert suggested_gamma(mu_skew, lam_flat) == pytest.approx(0.5)
    assert suggested_gamma(
        scale_measure(mu_skew, 2.0), scale_measure(lam_flat, 6.0)
    ) == pytest.approx(0.25)


# -------------------------------------------------------------- compromise


def test_kl_compromise_frozen(mu_skew, lam_flat):
    got = kl_compromise(mu_skew, lam_flat)
    assert got.is_probability()
    assert marginalize(got, ("J",)).mass == {(0,): pytest.approx(0.55), (1,): pytest.approx(0.45)}
    # uniform conditionals on both sides spread each J-cell over 4 points
    assert got.mass_at((1, 0, 1)) == pytest.approx(0.55 / 4)
    assert got.mass_at((1, 1, 0)) == pytest.approx(0.45 / 4)


def test_kl_compromise_matches_grid_search(space_ij, space_jk):
    # overlap views (0.8, 0.2) and (0.4, 0.6) compromise at their
    # equal-weight mixture (0.6, 0.4); a grid search over candidate
    # laws confirms that mixture minimizes the summed divergence
    mu = DiscreteMeasure(space_ij, {(0, 0): 0.4, (1, 0): 0.4, (0, 1): 0.1, (1, 1): 0.1})
    lam = DiscreteMeasure(space_jk, {(0, 0): 0.2, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.3})
    got_j = marginalize(kl_compromise(mu, lam), ("J",))
    assert got_j.mass_at((0,)) == pytest.approx(0.6, abs=1e-12)
    assert got_j.mass_at((1,)) == pytest.approx(0.4, abs=1e-12)

    def objective(p):
        return (
            0.8 * math.log(0.8 / p)
            + 0.2 * math.log(0.2 / (1 - p))
            + 0.4 * math.log(0.4 / p)
            + 0.6 * math.log(0.6 / (1 - p))
        )

    grid = np.linspace(1e-4, 1 - 1e-4, 9999)
    best = grid[np.argmin([objective(p) for p in grid])]
    assert abs(best - 0.6) < 2e-4


def test_kl_compromise_zero_conditional(mu_skew, space_jk, space_ij, lam_flat):
    gap_j0 = DiscreteMeasure(space_jk, {(1, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(ZeroConditional, match="second"):
        kl_compromise(mu_skew, gap_j0)
    mu_gap = DiscreteMeasure(space_ij, {(0, 1): 0.5, (1, 1): 0.5})
    with pytest.raises(ZeroConditional, match="first"):
        kl_compromise(mu_gap, lam_flat)


def test_kl_compromise_names_the_value_the_support_reaches_first():
    # mu's support reaches (B, C) = (1, 1) before (0, 0); lam has neither
    doms = {v: (0, 1) for v in ("A", "B", "C", "D")}
    mu = DiscreteMeasure(
        ProductSpace.from_domains(("A", "B", "C"), doms), {(0, 1, 1): 0.5, (1, 0, 0): 0.5}
    )
    lam = DiscreteMeasure(ProductSpace.from_domains(("B", "C", "D"), doms), {(0, 1, 0): 1.0})
    text = "the second measure has no conditional at overlap value (1, 1)"
    with pytest.raises(ZeroConditional, match=f"^{re.escape(text)}$"):
        kl_compromise(mu, lam)


def test_kl_compromise_of_a_zero_measure_raises_zero_mass(mu_skew, lam_flat, space_ij, space_jk):
    zero_ij = DiscreteMeasure(space_ij, {})
    zero_jk = DiscreteMeasure(space_jk, {(0, 1): 0.0})
    for mu, lam in ((zero_ij, lam_flat), (mu_skew, zero_jk), (zero_ij, zero_jk)):
        with pytest.raises(ZeroMass, match="^cannot normalize a measure with zero total mass$"):
            kl_compromise(mu, lam)


# -------------------------------------------- degradation and dispatching


def test_consistent_inputs_reproduce_combination():
    # on already-consistent probability inputs every strategy collapses
    # to the plain combination
    rng = np.random.default_rng(5)
    for _ in range(10):
        joint = normalize(random_joint(rng, ("A", "B", "C"), [2, 2, 2]))
        mu = marginalize(joint, ("A", "B"))
        lam = marginalize(joint, ("B", "C"))
        want = markov_combination(mu, lam)
        assert_measures_close(complete_via(mu, lam, "A"), want)
        assert_measures_close(complete_via(mu, lam, "B"), want)
        assert_measures_close(weighted_average(mu, lam, 0.3), want)
        assert_measures_close(kl_compromise(mu, lam), want)
        mu2, lam2 = rescale(mu, lam, ReconcileStrategy("rescale-min"))
        assert mu2.mass == mu.mass and lam2.mass == lam.mass


def test_reconcile_dispatch(mu_skew, lam_flat, space_ij, space_jk):
    # rescalers only repair scale disagreements, so feed them one
    pair = reconcile(
        scale_measure(uniform_measure(space_ij), 2.0),
        scale_measure(uniform_measure(space_jk), 3.0),
        ReconcileStrategy("rescale-min"),
    )
    assert isinstance(pair, tuple) and len(pair) == 2
    got = reconcile(mu_skew, lam_flat, ReconcileStrategy("weighted-average", gamma=0.5))
    assert_measures_close(got, weighted_average(mu_skew, lam_flat, 0.5))
    got = reconcile(mu_skew, lam_flat, ReconcileStrategy("condition-on-b"))
    assert_measures_close(got, complete_via(mu_skew, lam_flat, "B"))
    got = reconcile(mu_skew, lam_flat, ReconcileStrategy("kl-compromise"))
    assert_measures_close(got, kl_compromise(mu_skew, lam_flat))


# ------------------------------------------- union-cell assembly oracle

CATEGORIES = (0, 1, 2, "a", "b", 2.5)


@st.composite
def reconcile_cases(draw):
    """Two sparse measures on permuted variable orders sharing 1-2 variables."""
    n_overlap = draw(st.integers(1, 2))
    n_mu_only = draw(st.integers(0, 2))
    n_extra = draw(st.integers(0, 2))
    overlap = [f"O{i}" for i in range(n_overlap)]
    mu_vars = draw(st.permutations(overlap + [f"U{i}" for i in range(n_mu_only)]))
    lam_vars = draw(st.permutations(overlap + [f"E{i}" for i in range(n_extra)]))
    domains = {
        v: tuple(draw(st.permutations(CATEGORIES))[: draw(st.integers(1, 3))])
        for v in set(mu_vars) | set(lam_vars)
    }
    # zero cells are listed too, so construction has to drop them
    weights = st.sampled_from((0.0, 0.0, 0.1, 0.25, 1.0, 3.0))

    def measure(variables):
        space = ProductSpace.from_domains(variables, domains)
        # a cell may name a category by an equal twin, which prints differently
        cells = {
            tuple(equal_twin(c) if draw(st.booleans()) else c for c in x): draw(weights)
            for x in space.assignments()
        }
        return DiscreteMeasure(space, cells)

    gamma = draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    return measure(mu_vars), measure(lam_vars), gamma


def printed(fn, *args):
    """A measure-valued call's result as ``measure_json`` text, or its error as (class, message)."""
    try:
        m = fn(*args)
    except Exception as exc:  # differential tests compare errors too
        return type(exc), str(exc)
    return measure_json(m)


@settings(max_examples=300, deadline=None)
@given(reconcile_cases())
def test_union_cells_match_the_assembled_oracle(case):
    # compared as printed, so the key objects must match too: 1, True and 1.0 print differently
    mu, lam, gamma = case
    for side in ("A", "B"):
        assert printed(complete_via, mu, lam, side) == printed(
            assembled_complete_via, mu, lam, side
        )
    assert printed(weighted_average, mu, lam, gamma) == printed(
        assembled_weighted_average, mu, lam, gamma
    )
    assert printed(kl_compromise, mu, lam) == printed(assembled_kl_compromise, mu, lam)


def _per_cell_glue(cells, at, grouped, arrange, mass=None):
    """``looped_glue``, calling a ``_glue`` mass hook on one row per output cell."""
    if mass is not None:
        hook = mass

        def mass(c, w, wo, d):
            (v,) = hook(c, w, [(None, wo, wo / d)])
            return v

    return looped_glue(cells, at, grouped, arrange, mass)


def printed_per_cell(fn, *args):
    """``printed(fn, *args)`` with ``_per_cell_glue`` as the one join."""
    with pytest.MonkeyPatch.context() as patch:
        for module in (algebra_module, reconcile_module):
            patch.setattr(module, "_glue", _per_cell_glue)
        return printed(fn, *args)


@st.composite
def nearly_consistent_cases(draw):
    """A measure and a consistent partner that lacks one of its overlap values.

    The first measure puts only a total mass below the consistency
    tolerance on the overlap value the second one lacks, so the pair is
    consistent and the combination has cells to skip.
    """
    n_overlap = draw(st.integers(1, 2))
    overlap = [f"O{i}" for i in range(n_overlap)]
    mu_vars = draw(st.permutations(overlap + [f"U{i}" for i in range(draw(st.integers(0, 2)))]))
    lam_vars = draw(st.permutations(overlap + [f"E{i}" for i in range(draw(st.integers(0, 2)))]))
    domains = {
        v: tuple(draw(st.permutations(CATEGORIES))[: draw(st.integers(1, 3))])
        for v in set(mu_vars) | set(lam_vars)
    }
    for v in overlap:  # room for a lacking value next to a kept one
        domains[v] = domains[v] + tuple(c for c in CATEGORIES if c not in domains[v])[:1]
    weights = st.sampled_from((0.0, 0.1, 0.25, 1.0, 3.0))
    mu_space = ProductSpace.from_domains(mu_vars, domains)
    o_mu = [mu_space.index(v) for v in overlap]
    lacking = tuple(draw(st.sampled_from(domains[v])) for v in overlap)
    mu_mass = {}
    for x in mu_space.assignments():
        c = tuple(x[i] for i in o_mu)
        mu_mass[x] = draw(st.sampled_from((1e-13, 4e-13))) if c == lacking else draw(weights)
    mu = DiscreteMeasure(mu_space, mu_mass)
    marginal = {}
    for x, w in mu.mass.items():
        c = tuple(x[i] for i in o_mu)
        if c != lacking:
            marginal[c] = marginal.get(c, 0.0) + w
    lam_space = ProductSpace.from_domains(lam_vars, domains)
    o_lam = [lam_space.index(v) for v in overlap]
    conditional = {x: draw(st.sampled_from((0.0, 0.5, 1.0, 2.0))) for x in lam_space.assignments()}
    norm = {}
    for x, w in conditional.items():
        c = tuple(x[i] for i in o_lam)
        norm[c] = norm.get(c, 0.0) + w
    lam_mass = {}
    for x, w in conditional.items():
        c = tuple(x[i] for i in o_lam)
        if c in marginal:
            # a conditional with no mass at all falls back to a point mass
            lam_mass[x] = marginal[c] * (w / norm[c]) if norm[c] > 0.0 else 0.0
    for c in marginal:
        if not norm.get(c):
            x = next(x for x in lam_space.assignments() if tuple(x[i] for i in o_lam) == c)
            lam_mass[x] = marginal[c]
    return mu, DiscreteMeasure(lam_space, lam_mass)


@settings(max_examples=200, deadline=None)
@given(nearly_consistent_cases())
def test_glued_cells_match_the_assembled_combination(case):
    mu, lam = case
    assert outcome(markov_combination, mu, lam) == outcome(
        assembled_markov_combination, mu, lam
    )
    for side in ("A", "B"):
        assert outcome(complete_via, mu, lam, side) == outcome(
            assembled_complete_via, mu, lam, side
        )
    if is_consistent(mu, lam).consistent:
        # condition-on-a runs the same glue, but names the skipped value
        assert outcome(complete_via, mu, lam, "A")[0] is ZeroConditional


@settings(max_examples=200, deadline=None)
@given(st.one_of(reconcile_cases(), nearly_consistent_cases().map(lambda case: (*case, 0.3))))
def test_grouped_glue_matches_the_per_cell_loop(case):
    # printed, so cells, key objects and mass bits must all match; the nearly
    # consistent pairs give markov_combination cells to glue and to skip
    mu, lam, gamma = case
    builds = [
        (markov_combination, mu, lam),
        (complete_via, mu, lam, "A"),
        (complete_via, mu, lam, "B"),
        (kl_compromise, mu, lam),
        (weighted_average, mu, lam, gamma),
    ]
    for fn, *args in builds:
        assert printed(fn, *args) == printed_per_cell(fn, *args)


# factors that keep, shrink to subnormals, underflow to zero or sign the zeros
SCALE_FACTORS = st.sampled_from((-0.0, 5e-324, 1e-310, 0.3, 1.0, 7.0, 1e300))


def assert_passes_the_full_check(m):
    """``m`` equals itself rebuilt through ``DiscreteMeasure``'s full check.

    Keys are compared as JSON text, so that ``1``, ``True`` and ``1.0``
    stay apart, and masses bit for bit.
    """
    full = DiscreteMeasure(m.space, dict(m.mass))
    assert type(m) is DiscreteMeasure and full.space == m.space
    assert list(map(json.dumps, full.mass)) == list(map(json.dumps, m.mass))
    assert [v.hex() for v in full.mass.values()] == [v.hex() for v in m.mass.values()]


def assert_kernel_cells_pass_the_full_check(mu, lam, gamma, factor):
    calls = [
        (markov_combination, mu, lam),
        (complete_via, mu, lam, "A"),
        (weighted_average, mu, lam, gamma),
        (scale_measure, mu, factor),
        (scale_measure, lam, factor),
        (normalize, mu),
        (normalize, lam),
    ]
    for fn, *args in calls:
        try:
            m = fn(*args)
        except HyperDPError:  # no cells to check; the oracle tests compare the errors
            continue
        assert_passes_the_full_check(m)


@settings(max_examples=150, deadline=None)
@given(reconcile_cases(), SCALE_FACTORS)
def test_kernel_cells_of_any_pair_pass_the_full_check(case, factor):
    assert_kernel_cells_pass_the_full_check(*case, factor)


@settings(max_examples=150, deadline=None)
@given(nearly_consistent_cases(), st.sampled_from((0.0, 0.3, 1.0)), SCALE_FACTORS)
def test_kernel_cells_of_consistent_pairs_pass_the_full_check(case, gamma, factor):
    assert_kernel_cells_pass_the_full_check(*case, gamma, factor)


@pytest.mark.parametrize(
    "glue",
    [
        markov_combination,
        lambda mu, lam: complete_via(mu, lam, "A"),
        lambda mu, lam: weighted_average(mu, lam, 0.5),
    ],
)
def test_cells_that_underflow_to_zero_are_dropped(glue):
    # a consistent pair; the cell (0, 0, 0) would have mass 1e-300 * 1e-30
    mu_space = ProductSpace.from_domains(("A", "B"), {"A": (0, 1), "B": (0, 1)})
    lam_space = ProductSpace.from_domains(("B", "C"), {"B": (0, 1), "C": (0, 1)})
    mu = DiscreteMeasure(mu_space, {(0, 0): 1e-300, (1, 0): 1.0})
    lam = DiscreteMeasure(lam_space, {(0, 0): 1e-30, (0, 1): 1.0})
    m = glue(mu, lam)
    assert list(m.mass) == [(0, 0, 1), (1, 0, 0), (1, 0, 1)]
    assert m.mass[(0, 0, 1)] == 1e-300
    assert_passes_the_full_check(m)


def test_normalizing_drops_quotients_that_underflow(space_ij):
    m = normalize(DiscreteMeasure(space_ij, {(0, 0): 5e-324, (1, 1): 1e10}))
    assert m.mass == {(1, 1): 1.0}


@pytest.mark.parametrize("factor", [-0.0, 0.0, 5e-324])
def test_a_result_without_cells_is_the_empty_measure(uniform_ij, factor):
    m = scale_measure(uniform_ij, factor)
    assert m == DiscreteMeasure(uniform_ij.space, {}) and m.total == 0.0


def test_a_mass_that_overflows_gets_the_full_checks_error(space_ij):
    m = DiscreteMeasure(space_ij, {(0, 1): 1.0, (1, 0): 1e10})
    message = "mass at (1, 0) must be finite and nonnegative"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        DiscreteMeasure(space_ij, {x: v * 1e300 for x, v in m.mass.items()})
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        scale_measure(m, 1e300)


@st.composite
def sparse_overlap_cases(draw):
    """A measure with full overlap support and a partner lacking two or more values.

    Also returns the side that trusts the full measure and the partner's
    overlap values, each as a set of (variable, value) pairs, since the
    two measures may list the overlap in different orders.
    """
    mu, lam, _ = draw(reconcile_cases())
    overlap = tuple(v for v in mu.space.variables if v in set(lam.space.variables))
    domains = dict(zip(mu.space.variables, mu.space.domains))
    domains.update(zip(lam.space.variables, lam.space.domains))
    for v in overlap:
        domains[v] = tuple(CATEGORIES[:3])
    values = list(itertools.product(*(domains[v] for v in overlap)))
    kept = set(draw(st.lists(st.sampled_from(values), max_size=len(values) - 2)))
    positive = st.sampled_from((0.1, 0.25, 1.0, 3.0))

    def measure(variables, keep):
        space = ProductSpace.from_domains(variables, domains)
        o_idx = [space.index(v) for v in overlap]
        return DiscreteMeasure(
            space,
            {
                x: draw(positive) if keep(tuple(x[i] for i in o_idx)) else 0.0
                for x in space.assignments()
            },
        )

    full = measure(mu.space.variables, lambda c: True)
    partial = measure(lam.space.variables, lambda c: c in kept)
    kept = {frozenset(zip(overlap, c)) for c in kept}
    if draw(st.booleans()):
        return full, partial, "A", kept
    # swapped, so that side B is the one whose trusted measure outruns the other
    return partial, full, "B", kept


@settings(max_examples=200, deadline=None)
@given(sparse_overlap_cases())
def test_zero_conditional_names_the_first_missing_overlap_value(case):
    mu, lam, trusted_side, kept = case
    for side in ("A", "B"):
        got = outcome(complete_via, mu, lam, side)
        assert got == outcome(assembled_complete_via, mu, lam, side)
    trusted = mu if trusted_side == "A" else lam
    overlap = tuple(v for v in mu.space.variables if v in set(lam.space.variables))
    o_idx = [trusted.space.index(v) for v in overlap]
    first = next(
        c
        for c in (tuple(x[i] for i in o_idx) for x in trusted.mass)
        if frozenset(zip(overlap, c)) not in kept
    )
    with pytest.raises(ZeroConditional, match=re.escape(f"overlap value {first!r} ")):
        complete_via(mu, lam, trusted_side)


def test_interleaved_overlap_orders_are_consistent():
    # lambda lists the shared variables as (C, B), mu as (B, C)
    mu_space = ProductSpace.from_domains(
        ("A", "B", "C"), {"A": (0, 1), "B": (0, 1), "C": ("x", "y")}
    )
    joint = {x: 0.05 * (1 + i) for i, x in enumerate(mu_space.assignments())}
    mu = normalize(DiscreteMeasure(mu_space, joint))
    lam_space = ProductSpace.from_domains(
        ("C", "B", "D"), {"C": ("x", "y"), "B": (0, 1), "D": (0, 1)}
    )
    bc = marginalize(mu, ("B", "C"))
    lam = DiscreteMeasure(
        lam_space,
        {(c, b, d): bc.mass_at((b, c)) * (0.25 if d else 0.75) for c, b, d in lam_space.assignments()},
    )
    report = is_consistent(mu, lam)
    assert report.consistent and report.marginal_gap <= 1e-15
    glued = markov_combination(mu, lam)
    assert_measures_close(marginalize(glued, ("A", "B", "C")), mu)
    assert_measures_close(kl_compromise(mu, lam), glued)
    scaled = scale_measure(lam, 2.0)
    mu2, lam2 = rescale(mu, scaled, ReconcileStrategy("rescale-min"))
    assert mu2.mass == mu.mass and lam2.mass == lam.mass
