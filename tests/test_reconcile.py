"""Merging strategies for inconsistent measure pairs.

The disagreement fixture used throughout: the first measure sees the
shared variable J as (0.6, 0.4), the second as (0.5, 0.5), both with
uniform conditionals, so every completion is easy to write down by
hand.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdp import (
    DiscreteMeasure,
    Inconsistent,
    ProductSpace,
    ReconcileStrategy,
    ZeroConditional,
    complete_via,
    is_consistent,
    kl_compromise,
    marginalize,
    markov_combination,
    normalize,
    reconcile,
    rescale,
    scale_measure,
    suggested_gamma,
    uniform_measure,
    weighted_average,
)

from conftest import (
    assembled_complete_via,
    assembled_kl_compromise,
    assembled_weighted_average,
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
        return DiscreteMeasure(space, {x: draw(weights) for x in space.assignments()})

    gamma = draw(st.sampled_from((0.0, 0.3, 0.5, 1.0)))
    return measure(mu_vars), measure(lam_vars), gamma


def _outcome(fn, *args):
    try:
        m = fn(*args)
    except Exception as exc:  # compared by class and message below
        return type(exc), str(exc)
    return m.space, list(m.mass.items())


@settings(max_examples=300, deadline=None)
@given(reconcile_cases())
def test_union_cells_match_the_assembled_oracle(case):
    mu, lam, gamma = case
    for side in ("A", "B"):
        assert _outcome(complete_via, mu, lam, side) == _outcome(
            assembled_complete_via, mu, lam, side
        )
    assert _outcome(weighted_average, mu, lam, gamma) == _outcome(
        assembled_weighted_average, mu, lam, gamma
    )
    got, want = _outcome(kl_compromise, mu, lam), _outcome(assembled_kl_compromise, mu, lam)
    if isinstance(want[0], type):
        # with several bad overlap values the oracle's set order picks which one is named
        assert got[0] is want[0]
    else:
        assert got == want


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
