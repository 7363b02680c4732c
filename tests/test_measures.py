"""Measure algebra: spaces, marginals, consistency, and gluing.

Oracles live at the top and recompute everything by direct summation
over full assignment grids, independent of the library's sparse paths.
"""

import collections
import itertools
import math
import os
import subprocess
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperdp import (
    DiscreteMeasure,
    DomainMismatch,
    Inconsistent,
    ProductSpace,
    UnknownVariable,
    ZeroConditional,
    ZeroMass,
    build_graph,
    condition,
    is_consistent,
    is_markov,
    marginalize,
    markov_combination,
    markov_combination_seq,
    normalize,
    ordering_from_cliques,
    perfect_ordering,
    point_mass,
    scale_measure,
    uniform_measure,
)
from hyperdp import measures

from conftest import (
    dense_is_markov,
    equal_twin,
    looped_condition,
    looped_measure_mass,
    outcome,
    random_joint,
    rekeyed_overlap_law,
    scan_as_tuple,
    scan_sort_key,
)


# ---------------------------------------------------------------- oracles


def oracle_marginal(m, keep):
    """Marginal by looping over the full grid with naive accumulation."""
    keepset = set(keep)
    sub_vars = tuple(v for v in m.space.variables if v in keepset)
    idx = [m.space.variables.index(v) for v in sub_vars]
    out = {}
    for x in m.space.assignments():
        v = m.mass.get(x, 0.0)
        if v != 0.0:
            key = tuple(x[i] for i in idx)
            out[key] = out.get(key, 0.0) + v
    return sub_vars, out


def oracle_pairwise_ci(theta, graph, tol=1e-9):
    """Pairwise Markov property via cross-multiplied marginals.

    For every non-adjacent pair (u, v) and every full assignment x the
    identity P(x) * P(x_rest) = P(x_{u,rest}) * P(x_{v,rest}) must hold.
    Equivalent to factorization only for strictly positive measures, so
    callers feed it positive ones.
    """
    for u, v in itertools.combinations(graph.vertices, 2):
        if graph.has_edge(u, v):
            continue
        rest = [w for w in graph.vertices if w not in (u, v)]
        _, p_rest = oracle_marginal(theta, rest)
        _, p_urest = oracle_marginal(theta, rest + [u])
        _, p_vrest = oracle_marginal(theta, rest + [v])
        ridx = [theta.space.variables.index(w) for w in theta.space.variables if w in set(rest)]
        uidx = [theta.space.variables.index(w) for w in theta.space.variables if w in set(rest) | {u}]
        vidx = [theta.space.variables.index(w) for w in theta.space.variables if w in set(rest) | {v}]
        for x in theta.space.assignments():
            lhs = theta.mass.get(x, 0.0) * p_rest.get(tuple(x[i] for i in ridx), 0.0)
            rhs = p_urest.get(tuple(x[i] for i in uidx), 0.0) * p_vrest.get(
                tuple(x[i] for i in vidx), 0.0
            )
            if abs(lhs - rhs) > tol:
                return False
    return True


def assert_measures_close(a, b, tol=1e-12):
    assert a.space.variables == b.space.variables
    keys = set(a.mass) | set(b.mass)
    gap = max((abs(a.mass.get(k, 0.0) - b.mass.get(k, 0.0)) for k in keys), default=0.0)
    assert gap <= tol, f"sup gap {gap}"


def clique_graph(cliques):
    """Graph whose edges are exactly the within-clique pairs."""
    verts = []
    for c in cliques:
        for v in c:
            if v not in verts:
                verts.append(v)
    edges = [p for c in cliques for p in itertools.combinations(c, 2)]
    return build_graph(verts, edges)


# ----------------------------------------------------------- product space


def test_space_construction_and_lookup():
    sp = ProductSpace.from_domains(("A", "B"), {"A": (0, 1, 2), "B": ("x", "y")})
    assert sp.variables == ("A", "B")
    assert sp.domains == ((0, 1, 2), ("x", "y"))
    assert sp.index("B") == 1
    assert sp.domain("A") == (0, 1, 2)
    assert sp.size() == 6
    assert len(list(sp.assignments())) == 6
    with pytest.raises(UnknownVariable):
        sp.index("C")


def test_space_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ProductSpace(("A", "A"), ((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        ProductSpace(("A", "B"), ((0, 1),))
    with pytest.raises(ValueError):
        ProductSpace(("A",), ((),))
    with pytest.raises(ValueError):
        ProductSpace(("A",), ((0, 0),))


def test_subspace_preserves_declaration_order():
    sp = ProductSpace.from_domains(("A", "B", "C"), {v: (0, 1) for v in "ABC"})
    sub = sp.subspace(["C", "A"])
    assert sub.variables == ("A", "C")
    with pytest.raises(UnknownVariable):
        sp.subspace(["Z"])


def test_an_unknown_variable_error_names_the_first_one_asked_for():
    # the variables are looked up in the caller's order, not in the hash
    # order of a set, so every hash seed names the same one
    code = (
        "from hyperdp import DiscreteMeasure, ProductSpace, marginalize\n"
        "m = DiscreteMeasure(ProductSpace(('A',), ((0,),)), {(0,): 1.0})\n"
        "try:\n"
        "    marginalize(m, ('A', 'Zx', 'Zy', 'Zz'))\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__, exc)\n"
    )
    for seed in range(1, 7):
        env = {**os.environ, "PYTHONHASHSEED": str(seed)}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert proc.stdout == "UnknownVariable unknown variable 'Zx'\n"


def test_as_tuple_coercion():
    sp = ProductSpace.from_domains(("A", "B"), {"A": (0, 1), "B": (0, 1)})
    assert sp.as_tuple({"B": 1, "A": 0}) == (0, 1)
    assert sp.as_tuple([1, 0]) == (1, 0)
    with pytest.raises(ValueError):
        sp.as_tuple({"A": 0})
    with pytest.raises(UnknownVariable):
        sp.as_tuple({"A": 0, "B": 0, "Z": 0})
    with pytest.raises(ValueError):
        sp.as_tuple((0,))
    with pytest.raises(ValueError):
        sp.as_tuple((0, 7))


MIXED_CATEGORIES = st.one_of(
    st.integers(-3, 3),
    st.text(alphabet="ab1", max_size=2),
    st.floats(-2.0, 2.0, allow_nan=False),
    st.booleans(),
)


def _attempt(fn, *args):
    try:
        got = fn(*args)
    except Exception as exc:  # compared by class and message below
        return type(exc), str(exc)
    return [(type(v), v) for v in got]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_category_maps_agree_with_domain_scans(data):
    # lists(unique=True) hashes, so 1, 1.0 and True never share a domain
    domains = data.draw(
        st.lists(st.lists(MIXED_CATEGORIES, min_size=1, max_size=5, unique=True), min_size=1, max_size=3)
    )
    sp = ProductSpace(tuple(f"V{i}" for i in range(len(domains))), tuple(map(tuple, domains)))
    assert sp == ProductSpace(sp.variables, sp.domains)
    assert repr(sp) == f"ProductSpace(variables={sp.variables!r}, domains={sp.domains!r})"
    for _ in range(5):
        # known categories, equal values of another type, strangers, unhashables
        value = st.one_of(st.sampled_from([c for dom in domains for c in dom]), MIXED_CATEGORIES, st.just([0]))
        assignment = tuple(data.draw(value) for _ in domains)
        want = _attempt(scan_as_tuple, sp, assignment)
        assert _attempt(sp.as_tuple, assignment) == want
        named = dict(zip(sp.variables, assignment))
        assert _attempt(sp.as_tuple, named) == _attempt(scan_as_tuple, sp, named)
        if isinstance(want, list):
            assert sp.sort_key(assignment) == scan_sort_key(sp, assignment)


class CountedCategory:
    """A category whose equality test counts its calls."""

    calls = 0

    def __init__(self, key):
        self.key = key

    def __hash__(self):
        return hash(self.key)

    def __eq__(self, other):
        CountedCategory.calls += 1
        return isinstance(other, CountedCategory) and other.key == self.key


def test_measure_construction_never_scans_a_domain():
    n = 1000
    sp = ProductSpace(("X", "Y"), (tuple(CountedCategory(k) for k in range(n)), (0, 1)))
    # equal but distinct objects, as a parser produces them
    mass = {(CountedCategory(k), k % 2): 1.0 for k in range(n)}
    CountedCategory.calls = 0
    m = DiscreteMeasure(sp, mass)
    # one hash probe per lookup; a scan of the domain makes about n / 2 calls per cell
    assert CountedCategory.calls <= 4 * n
    assert [x[0].key for x in m.mass] == list(range(n))


# ------------------------------------------------- columnar construction


def _built(build):
    """The cells ``build()`` returns, with their values' types, or its error."""
    try:
        cells = build()
    except Exception as exc:  # compared by class and message below
        return type(exc), str(exc)
    return [(x, tuple(map(type, x)), v) for x, v in cells.items()]


BAD_MASSES = st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), -1.0, -5e-324, -0.0, 0.0, 10**400, "0.5", "x", None]
)


@st.composite
def spaces_and_masses(draw):
    """A space of up to three variables and a nonempty dict of cells for it.

    Good keys are tuples of categories, some replaced by an equal value
    of another type.  Bad keys are tuples with strangers, tuples of any
    length, strings (coerced per character) and namedtuples (coerced to
    tuples).  Bad masses are NaN, infinities, negatives, zeros, huge
    ints and strings.  A case mixes in bad keys, bad masses, both or
    neither.
    """
    n = draw(st.sampled_from([0, 1, 2, 2, 3]))
    domains = [draw(st.lists(MIXED_CATEGORIES, min_size=1, max_size=4, unique=True)) for _ in range(n)]
    sp = ProductSpace(tuple(f"V{i}" for i in range(n)), tuple(map(tuple, domains)))
    category = [st.sampled_from(d).flatmap(lambda c: st.sampled_from((c, equal_twin(c)))) for d in domains]
    inside = st.tuples(*category)
    value = st.one_of(*category, MIXED_CATEGORIES)
    cell = collections.namedtuple("Cell", [f"v{i}" for i in range(n)])
    bad_key = st.one_of(
        st.tuples(*(st.one_of(c, value) for c in category)),
        st.lists(value, max_size=4).map(tuple),
        st.text(alphabet="ab1", max_size=3),
        inside.map(lambda t: cell(*t)),
    )
    good_mass = st.one_of(st.floats(1e-300, 10.0), st.floats(0.0, 10.0), st.integers(0, 3))
    key = st.one_of(inside, bad_key) if draw(st.booleans()) else inside
    mass = st.one_of(good_mass, BAD_MASSES) if draw(st.booleans()) else good_mass
    return sp, draw(st.dictionaries(key, mass, min_size=1, max_size=8))


@settings(max_examples=500, deadline=None)
@given(case=spaces_and_masses())
def test_columnar_construction_matches_the_per_cell_loop(case):
    sp, mass = case
    before = list(mass.items())
    want = _built(lambda: looped_measure_mass(sp, mass))
    assert _built(lambda: DiscreteMeasure(sp, mass).mass) == want
    assert list(mass.items()) == before


def test_construction_names_the_first_bad_cell():
    sp = ProductSpace.from_domains(("A", "B"), {"A": ("a", "b"), "B": (0, 1)})
    cases = [
        ({("a", 0): 0.5, ("a", 7): 0.25, ("b", 1): -1.0}, "value 7 is not in the domain of 'B'"),
        ({("a", 0): float("nan"), ("a", 7): 0.25}, "mass at ('a', 0) must be finite and nonnegative"),
        ({("a", 1): 0.5, ("b",): 0.25}, "assignment length does not match the variable count"),
        ({("a", 1): 0.5, ("b", 0): float("-inf")}, "mass at ('b', 0) must be finite and nonnegative"),
    ]
    for mass, message in cases:
        with pytest.raises(ValueError) as caught:
            DiscreteMeasure(sp, mass)
        assert str(caught.value) == message
    # keys that are not tuples are coerced, then merged in first-seen order
    chars = ProductSpace.from_domains(("A", "B"), {"A": ("a", "b"), "B": ("0", "1")})
    merged = DiscreteMeasure(chars, {"a1": 0.25, ("a", "1"): 0.5, "b0": -0.0})
    assert merged.mass == {("a", "1"): 0.75} and type(next(iter(merged.mass))) is tuple


def test_construction_without_variables():
    sp = ProductSpace((), ())
    assert DiscreteMeasure(sp, {(): 0.5}).mass == {(): 0.5}
    assert DiscreteMeasure(sp, {(): 0.0}).mass == {}
    with pytest.raises(ValueError, match="assignment length"):
        DiscreteMeasure(sp, {(0,): 0.5})


def test_construction_calls_no_per_cell_helper(monkeypatch):
    sp = ProductSpace.from_domains(("A", "B"), {"A": tuple(range(30)), "B": tuple(range(30))})
    calls = []
    for name in ("as_tuple", "sort_key"):
        method = getattr(ProductSpace, name)
        monkeypatch.setattr(
            ProductSpace, name, lambda self, x, _m=method, _n=name: calls.append(_n) or _m(self, x)
        )
    cells = {(a, b): 1.0 + a for a in reversed(range(30)) for b in range(30)}
    m = DiscreteMeasure(sp, cells)
    assert calls == []
    assert list(m.mass) == sorted(cells)


# --------------------------------------------------------------- measures


def test_measure_drops_zeros_and_sorts_by_category_index():
    # domain order is deliberately not the natural value order
    sp = ProductSpace.from_domains(("A",), {"A": (2, 0, 1)})
    m = DiscreteMeasure(sp, {(1,): 0.2, (2,): 0.5, (0,): 0.0})
    assert list(m.mass) == [(2,), (1,)]
    assert m.mass_at((0,)) == 0.0
    assert m.total == pytest.approx(0.7)


def test_measure_accepts_dict_keys():
    sp = ProductSpace.from_domains(("A", "B"), {"A": (0, 1), "B": (0, 1)})
    m = DiscreteMeasure(sp, {(0, 1): 0.25})
    assert m.mass_at({"A": 0, "B": 1}) == 0.25


def test_measure_rejects_bad_mass():
    sp = ProductSpace.from_domains(("A",), {"A": (0, 1)})
    with pytest.raises(ValueError):
        DiscreteMeasure(sp, {(0,): -0.1})
    with pytest.raises(ValueError):
        DiscreteMeasure(sp, {(0,): float("nan")})
    with pytest.raises(ValueError):
        DiscreteMeasure(sp, {(7,): 0.1})


def test_uniform_point_scale():
    sp = ProductSpace.from_domains(("A", "B"), {"A": (0, 1), "B": (0, 1, 2)})
    u = uniform_measure(sp)
    assert u.is_probability()
    assert all(v == pytest.approx(1 / 6) for v in u.mass.values())
    p = point_mass(sp, {"A": 1, "B": 2})
    assert p.mass == {(1, 2): 1.0}
    doubled = scale_measure(u, 2.0)
    assert doubled.total == pytest.approx(2.0)
    assert scale_measure(u, 0.0).mass == {}
    with pytest.raises(ValueError):
        scale_measure(u, -1.0)
    with pytest.raises(ValueError):
        scale_measure(u, float("inf"))


# -------------------------------------------------------- marginal oracle


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_marginalize_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    names = ("A", "B", "C", "D")
    sizes = [int(rng.integers(2, 4)) for _ in names]
    m = random_joint(rng, names, sizes)
    for r in range(len(names) + 1):
        for keep in itertools.combinations(names, r):
            got = marginalize(m, keep)
            want_vars, want = oracle_marginal(m, keep)
            assert got.space.variables == want_vars
            for k, v in want.items():
                assert got.mass_at(k) == pytest.approx(v, abs=1e-12)
            assert abs(got.total - m.total) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_marginalize_composes(seed):
    # summing out in stages equals summing out at once
    rng = np.random.default_rng(seed)
    m = random_joint(rng, ("A", "B", "C"), [2, 3, 2])
    two_step = marginalize(marginalize(m, ("A", "B")), ("A",))
    one_step = marginalize(m, ("A",))
    assert_measures_close(two_step, one_step)


def test_normalize():
    sp = ProductSpace.from_domains(("A",), {"A": (0, 1)})
    m = DiscreteMeasure(sp, {(0,): 3.0, (1,): 1.0})
    n = normalize(m)
    assert n.mass == {(0,): 0.75, (1,): 0.25}
    with pytest.raises(ZeroMass):
        normalize(DiscreteMeasure(sp, {}))


def test_condition():
    sp = ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)})
    m = DiscreteMeasure(sp, {(0, 0): 0.1, (0, 1): 0.2, (1, 0): 0.3, (1, 1): 0.4})
    c = condition(m, {"I": 1})
    assert c.space.variables == ("J",)
    assert c.mass_at((0,)) == pytest.approx(0.3 / 0.7)
    assert c.mass_at((1,)) == pytest.approx(0.4 / 0.7)
    # conditioning on everything leaves the empty product space
    full = condition(m, {"I": 0, "J": 1})
    assert full.space.variables == ()
    assert full.mass == {(): 1.0}
    sparse = DiscreteMeasure(sp, {(1, 0): 0.5, (1, 1): 0.5})
    with pytest.raises(ZeroConditional):
        condition(sparse, {"I": 0})
    with pytest.raises(ValueError):
        condition(m, {"I": 9})


@st.composite
def conditioning_cases(draw):
    """A sparse measure and a partial assignment in a random order.

    Values come from the variable's domain, an equal value of another
    type or outside it; variables are occasionally unknown.
    """
    variables = draw(st.permutations(("A", "B", "C", "D")))[: draw(st.integers(1, 4))]
    domains = {
        v: tuple(draw(st.permutations((0, 1, 2, "a", "b", 2.5)))[: draw(st.integers(1, 3))])
        for v in variables
    }
    space = ProductSpace.from_domains(variables, domains)
    weights = st.sampled_from((0.0, 0.0, 0.1, 0.25, 1.0, 3.0))
    m = DiscreteMeasure(space, {x: draw(weights) for x in space.assignments()})
    chosen = draw(st.permutations(variables))[: draw(st.integers(0, len(variables)))]
    partial = {v: draw(st.sampled_from(domains[v] + (True, 1.0, "z"))) for v in chosen}
    if draw(st.integers(0, 9)) == 0:
        partial["Z"] = 0
    return m, partial


@settings(max_examples=300, deadline=None)
@given(conditioning_cases())
def test_condition_matches_the_filtering_loop(case):
    m, partial = case
    assert outcome(condition, m, partial) == outcome(looped_condition, m, partial)


# ------------------------------------------------------------- consistency


def test_consistency_of_shared_marginals(space_ij, space_jk):
    mu = DiscreteMeasure(space_ij, {(0, 0): 0.1, (0, 1): 0.4, (1, 0): 0.2, (1, 1): 0.3})
    lam = DiscreteMeasure(space_jk, {(0, 0): 0.2, (0, 1): 0.1, (1, 0): 0.5, (1, 1): 0.2})
    # both J-marginals are (0.3, 0.7)
    report = is_consistent(mu, lam)
    assert report.overlap == ("J",)
    assert report.consistent
    assert report.marginal_gap <= 1e-15
    assert report.mass_gap <= 1e-15


def test_consistency_scale_mismatch(space_ij, space_jk, uniform_ij):
    # same shape, totals 2 vs 3: condition 1 holds, condition 2 fails
    mu = scale_measure(uniform_ij, 2.0)
    lam = scale_measure(uniform_measure(space_jk), 3.0)
    report = is_consistent(mu, lam)
    assert report.proportional_marginals
    assert not report.equal_total_mass
    assert not report.consistent
    assert report.mass_gap == pytest.approx(1.0)


def test_consistency_marginal_mismatch(space_ij, space_jk, uniform_ij):
    lam = DiscreteMeasure(space_jk, {(0, 0): 0.7, (1, 0): 0.15, (1, 1): 0.15})
    report = is_consistent(uniform_ij, lam)
    assert not report.proportional_marginals
    assert report.equal_total_mass
    assert report.marginal_gap == pytest.approx(0.2)


def test_consistency_disjoint_variables():
    a = ProductSpace.from_domains(("A",), {"A": (0, 1)})
    b = ProductSpace.from_domains(("B",), {"B": (0, 1)})
    mu = DiscreteMeasure(a, {(0,): 0.5, (1,): 0.5})
    lam = DiscreteMeasure(b, {(0,): 1.0})
    report = is_consistent(mu, lam)
    assert report.overlap == ()
    assert report.consistent
    assert not is_consistent(mu, scale_measure(lam, 2.0)).consistent


def test_consistency_zero_measures(space_ij, space_jk, uniform_ij):
    zero_ij = DiscreteMeasure(space_ij, {})
    zero_jk = DiscreteMeasure(space_jk, {})
    assert is_consistent(zero_ij, zero_jk).consistent
    report = is_consistent(zero_ij, uniform_measure(space_jk))
    assert not report.consistent
    assert not report.proportional_marginals


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1e-9])
def test_consistency_refuses_a_bad_tolerance(space_jk, uniform_ij, tol):
    with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
        is_consistent(uniform_ij, uniform_measure(space_jk), tol)
    with pytest.raises(ValueError, match="^tol must be finite and nonnegative"):
        markov_combination(uniform_ij, uniform_measure(space_jk), tol)


def test_consistency_domain_mismatch(space_ij):
    other = ProductSpace.from_domains(("J", "K"), {"J": (0, 1, 2), "K": (0, 1)})
    with pytest.raises(DomainMismatch):
        is_consistent(uniform_measure(space_ij), uniform_measure(other))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_consistency_is_symmetric(seed):
    rng = np.random.default_rng(seed)
    mu = random_joint(rng, ("A", "B"), [2, 2])
    lam = random_joint(rng, ("B", "C"), [2, 3])
    forward = is_consistent(mu, lam)
    backward = is_consistent(lam, mu)
    assert forward.consistent == backward.consistent
    assert forward.marginal_gap == pytest.approx(backward.marginal_gap, abs=1e-15)


def test_report_as_dict(space_ij, space_jk):
    report = is_consistent(uniform_measure(space_ij), uniform_measure(space_jk))
    d = report.as_dict()
    assert d["overlap"] == ["J"]
    assert d["consistent"] is True
    assert set(d) == {
        "overlap",
        "proportional_marginals",
        "equal_total_mass",
        "consistent",
        "marginal_gap",
        "mass_gap",
    }


# ------------------------------------------------------------- overlap law

# categories that are pairwise unequal, so any part of a pool is a domain
CATEGORY_POOLS = ((0, 1, 2), (False, True, "t"), ("a", "b", "c"), (0.5, 1.0, 2.5), (1, "a", 2.5))
LAW_WEIGHTS = (0.0, 0.0, 0.1, 0.2, 0.3, 0.7, 1.0, 3.0)


@st.composite
def overlap_law_cases(draw):
    """Two sparse measures sharing 0-3 variables, and the overlap in a third order.

    Each measure lists the shared variables in its own order.  Cells are
    left out, given zero weight, or keyed by values equal to the
    categories but of another type (``True`` for ``1``, ``2.0`` for ``2``).
    """
    overlap = [f"O{i}" for i in range(draw(st.integers(0, 3)))]
    mu_vars = draw(st.permutations(overlap + [f"U{i}" for i in range(draw(st.integers(0, 2)))]))
    lam_vars = draw(st.permutations(overlap + [f"E{i}" for i in range(draw(st.integers(0, 2)))]))
    domains = {}
    for v in sorted(set(mu_vars) | set(lam_vars)):
        pool = draw(st.permutations(draw(st.sampled_from(CATEGORY_POOLS))))
        domains[v] = tuple(pool[: draw(st.integers(1, 3))])

    def measure(variables):
        space = ProductSpace.from_domains(variables, domains)
        cells = {}
        for x in space.assignments():
            if draw(st.booleans()):
                x = tuple(equal_twin(c) if draw(st.booleans()) else c for c in x)
                cells[x] = draw(st.sampled_from(LAW_WEIGHTS))
        return DiscreteMeasure(space, cells)

    return measure(mu_vars), measure(lam_vars), tuple(draw(st.permutations(overlap)))


def _law_bits(law, m, overlap):
    """Each key's ``repr`` with its value's ``float.hex``, or the error raised."""
    try:
        return {repr(c): w.hex() for c, w in law(m, overlap, m.total).items()}
    except ZeroMass as exc:
        return ZeroMass, str(exc)


@settings(max_examples=300, deadline=None)
@given(overlap_law_cases())
def test_overlap_law_matches_the_rekeyed_marginal(case):
    mu, lam, overlap = case
    for m in (mu, lam):
        assert _law_bits(measures._overlap_law, m, overlap) == _law_bits(
            rekeyed_overlap_law, m, overlap
        )
    with mock.patch.object(measures, "_overlap_law", rekeyed_overlap_law):
        want = is_consistent(mu, lam)
    got = is_consistent(mu, lam)
    assert got == want
    assert got.marginal_gap.hex() == want.marginal_gap.hex()


def test_consistency_and_factorization_checks_build_no_measure(
    monkeypatch, path_decomp, space_ij, space_jk, space_ijk
):
    mu = DiscreteMeasure(space_ij, {(0, 0): 0.1, (1, 0): 0.2, (1, 1): 0.7})
    lam = DiscreteMeasure(space_jk, {(0, 0): 0.3, (1, 1): 0.7})
    flat = uniform_measure(space_jk)
    combined = markov_combination(mu, lam)
    coupled = DiscreteMeasure(space_ijk, {(0, 0, 0): 0.5, (1, 0, 1): 0.5})
    builds = collections.Counter()
    for cls in (DiscreteMeasure, ProductSpace):
        original = vars(cls)["__post_init__"]

        def counted(self, original=original):
            builds[type(self).__name__] += 1
            original(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    assert is_consistent(mu, lam).consistent
    assert not is_consistent(mu, flat).consistent
    assert is_markov(combined, path_decomp)
    assert not is_markov(coupled, path_decomp)
    assert not builds


# ------------------------------------------------------------- combination


def test_combination_frozen_example(path_decomp, uniform_ij, copy_jk):
    got = markov_combination(uniform_ij, copy_jk)
    assert got.space.variables == ("I", "J", "K")
    # the copy clique pins K to J, so only the diagonal cells survive
    assert got.mass == {
        (0, 0, 0): 0.25,
        (0, 1, 1): 0.25,
        (1, 0, 0): 0.25,
        (1, 1, 1): 0.25,
    }
    assert is_markov(got, path_decomp)


def test_combination_glues_marginals_back():
    # marginals of one joint are always consistent; gluing recovers a
    # measure that projects back onto both inputs
    rng = np.random.default_rng(42)
    for _ in range(25):
        joint = random_joint(rng, ("A", "B", "C", "D"), [2, 2, 3, 2])
        mu = marginalize(joint, ("A", "B", "C"))
        lam = marginalize(joint, ("B", "C", "D"))
        glued = markov_combination(mu, lam)
        assert glued.space.variables == ("A", "B", "C", "D")
        assert_measures_close(marginalize(glued, ("A", "B", "C")), mu)
        assert_measures_close(marginalize(glued, ("B", "C", "D")), lam)
        decomp = ordering_from_cliques(
            clique_graph([("A", "B", "C"), ("B", "C", "D")]),
            [("A", "B", "C"), ("B", "C", "D")],
        )
        assert is_markov(normalize(glued), decomp, tol=1e-12)


def test_combination_of_disjoint_measures_is_product():
    a = ProductSpace.from_domains(("A",), {"A": (0, 1)})
    b = ProductSpace.from_domains(("B",), {"B": (0, 1, 2)})
    mu = DiscreteMeasure(a, {(0,): 0.9, (1,): 0.6})
    lam = DiscreteMeasure(b, {(0,): 0.5, (1,): 0.5, (2,): 0.5})
    glued = markov_combination(mu, lam)
    for (x,), v in mu.mass.items():
        for (y,), w in lam.mass.items():
            assert glued.mass_at((x, y)) == pytest.approx(v * w / lam.total)
    assert glued.total == pytest.approx(mu.total)


def test_combination_skips_unsupported_overlap_values(space_ij, space_jk):
    # a J=0 sliver below tolerance on one side, absent on the other:
    # nothing extends it, and the rest glues normally
    mu = DiscreteMeasure(space_ij, {(0, 0): 1e-12, (0, 1): 1.0})
    lam = DiscreteMeasure(space_jk, {(1, 0): 0.5, (1, 1): 0.5 + 1e-12})
    glued = markov_combination(mu, lam)
    assert all(x[1] == 1 for x in glued.mass)
    assert glued.mass_at((0, 1, 0)) == pytest.approx(0.5)


def test_combination_rejects_inconsistent_inputs(space_ij, space_jk, uniform_ij):
    skewed = DiscreteMeasure(space_jk, {(0, 0): 0.7, (1, 0): 0.3})
    with pytest.raises(Inconsistent, match="condition 1"):
        markov_combination(uniform_ij, skewed)
    with pytest.raises(Inconsistent, match="condition 2"):
        markov_combination(uniform_ij, scale_measure(uniform_measure(space_jk), 2.0))
    with pytest.raises(Inconsistent) as err:
        markov_combination(uniform_ij, skewed)
    assert err.value.report.marginal_gap > 0.1
    # two measures outside any list: the payload carries the report, no pair
    payload = err.value.payload()
    assert payload["report"] == err.value.report.as_dict() and "pair" not in payload


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_combination_commutes_with_normalization(seed):
    rng = np.random.default_rng(seed)
    joint = random_joint(rng, ("A", "B", "C"), [2, 3, 2])
    scale = 2.5
    mu = scale_measure(marginalize(joint, ("A", "B")), scale)
    lam = scale_measure(marginalize(joint, ("B", "C")), scale)
    left = normalize(markov_combination(mu, lam))
    right = markov_combination(normalize(mu), normalize(lam))
    assert_measures_close(left, right)


# -------------------------------------------------------- sequential fold


def test_seq_combination_frozen_example(path_decomp, uniform_ij, copy_jk):
    got = markov_combination_seq(path_decomp, [uniform_ij, copy_jk])
    assert got.mass == {
        (0, 0, 0): 0.25,
        (0, 1, 1): 0.25,
        (1, 0, 0): 0.25,
        (1, 1, 1): 0.25,
    }


def test_seq_combination_validates_inputs(path_decomp, uniform_ij, copy_jk, space_ij):
    with pytest.raises(ValueError):
        markov_combination_seq(path_decomp, [uniform_ij])
    with pytest.raises(DomainMismatch):
        markov_combination_seq(path_decomp, [uniform_ij, uniform_ij])
    skewed = DiscreteMeasure(
        ProductSpace.from_domains(("J", "K"), {"J": (0, 1), "K": (0, 1)}),
        {(0, 0): 0.7, (1, 0): 0.3},
    )
    with pytest.raises(Inconsistent, match="bases 1 and 2"):
        markov_combination_seq(path_decomp, [uniform_ij, skewed])


def test_seq_combination_is_order_invariant():
    # every perfect ordering of a 4-chain glues to the same joint
    graph = clique_graph([("I", "J"), ("J", "K"), ("K", "L")])
    orders = [
        [("I", "J"), ("J", "K"), ("K", "L")],
        [("K", "L"), ("J", "K"), ("I", "J")],
        [("J", "K"), ("I", "J"), ("K", "L")],
    ]
    rng = np.random.default_rng(7)
    for _ in range(10):
        joint = random_joint(rng, ("I", "J", "K", "L"), [2, 2, 2, 2])
        results = []
        for order in orders:
            decomp = ordering_from_cliques(graph, order)
            bases = [marginalize(joint, c) for c in decomp.cliques]
            results.append(markov_combination_seq(decomp, bases))
        # fold order also permutes the output variables, so compare by name
        for x in joint.space.assignments():
            cell = dict(zip(joint.space.variables, x))
            values = [m.mass_at(cell) for m in results]
            assert max(values) - min(values) <= 1e-12


# ------------------------------------------------------------ markov check


def test_is_markov_copy_measure(path_decomp, space_ijk):
    theta = DiscreteMeasure(space_ijk, {(0, 0, 0): 0.5, (1, 1, 1): 0.5})
    assert is_markov(theta, path_decomp)


def test_is_markov_detects_coupling(path_decomp, space_ijk):
    # given J=0 the I/K block is not a product
    theta = DiscreteMeasure(
        space_ijk,
        {
            (0, 0, 0): 0.15,
            (0, 0, 1): 0.10,
            (1, 0, 0): 0.10,
            (1, 0, 1): 0.15,
            (0, 1, 0): 0.125,
            (0, 1, 1): 0.125,
            (1, 1, 0): 0.125,
            (1, 1, 1): 0.125,
        },
    )
    assert not is_markov(theta, path_decomp)


def test_is_markov_validates(path_decomp, space_ij, space_ijk, uniform_ij):
    with pytest.raises(DomainMismatch):
        is_markov(uniform_ij, path_decomp)
    with pytest.raises(ValueError):
        is_markov(scale_measure(uniform_measure(space_ijk), 2.0), path_decomp)


def test_is_markov_agrees_with_independence_oracle():
    graphs = [
        clique_graph([("I", "J"), ("J", "K")]),
        clique_graph([("I", "J"), ("J", "K"), ("K", "L")]),
        clique_graph([(1, 2, 3), (1, 3, 4)]),
        clique_graph([("A", "B", "C")]),  # complete: trivially factorizes
    ]
    rng = np.random.default_rng(20260814)
    for graph in graphs:
        decomp = perfect_ordering(graph)
        for _ in range(8):
            raw = normalize(random_joint(rng, graph.vertices, [2] * len(graph.vertices)))
            assert is_markov(raw, decomp) == oracle_pairwise_ci(raw, graph)
            bases = [marginalize(raw, c) for c in decomp.cliques]
            markovized = markov_combination_seq(decomp, bases)
            assert is_markov(markovized, decomp)
            assert oracle_pairwise_ci(markovized, graph)


def test_is_markov_single_vertex():
    graph = build_graph(("A",), [])
    decomp = perfect_ordering(graph)
    sp = ProductSpace.from_domains(("A",), {"A": (0, 1, 2)})
    theta = DiscreteMeasure(sp, {(0,): 0.2, (1,): 0.3, (2,): 0.5})
    assert is_markov(theta, decomp)


def _graph_of_shape(shape, n):
    """Path, star or two-triangle graph on vertices v0..v(n-1).

    Two triangles share an edge on four vertices and a vertex on five;
    below four vertices the triangle shape is the complete graph.
    """
    verts = [f"v{i}" for i in range(n)]
    if shape == "path":
        edges = list(zip(verts, verts[1:]))
    elif shape == "star":
        edges = [(verts[0], v) for v in verts[1:]]
    elif n < 4:
        edges = list(itertools.combinations(verts, 2))
    else:
        second = verts[1:4] if n == 4 else verts[2:5]
        edges = [p for c in (verts[:3], second) for p in itertools.combinations(c, 2)]
    return build_graph(verts, edges)


def _reordered(m, variables):
    """The same measure on a space whose variables come in another order."""
    space = ProductSpace.from_domains(variables, dict(zip(m.space.variables, m.space.domains)))
    pos = [m.space.index(v) for v in variables]
    return DiscreteMeasure(space, {tuple(x[i] for i in pos): w for x, w in m.mass.items()})


@st.composite
def markov_check_cases(draw):
    """A decomposition, a probability measure on its vertices and a tolerance.

    The measure is a sparse random joint, the Markov combination of its
    clique marginals, or that combination mixed with a little of the
    joint, so verdicts fall on both sides of every tolerance.
    """
    graph = _graph_of_shape(
        draw(st.sampled_from(["path", "star", "triangles"])), draw(st.integers(1, 5))
    )
    decomp = perfect_ordering(graph)
    sizes = draw(st.lists(st.integers(2, 3), min_size=len(graph.vertices),
                          max_size=len(graph.vertices)))
    variables = tuple(draw(st.permutations(graph.vertices)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    joint = random_joint(rng, variables, [sizes[graph.index(v)] for v in variables])
    zero_share = draw(st.sampled_from([0.0, 0.5, 0.8, 0.95]))
    cells = list(joint.mass)
    keep = {x: w for x, w in joint.mass.items() if rng.uniform() >= zero_share}
    keep = keep or {cells[int(rng.integers(len(cells)))]: 1.0}
    joint = normalize(DiscreteMeasure(joint.space, keep))
    tol = draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3]))
    kind = draw(st.sampled_from(["joint", "combination", "mixed"]))
    if kind == "joint":
        return joint, decomp, tol
    bases = [marginalize(joint, c) for c in decomp.cliques]
    combined = _reordered(markov_combination_seq(decomp, bases), variables)
    if kind == "mixed":
        share = draw(st.sampled_from([1e-13, 1e-10, 1e-6, 1e-2]))
        combined = DiscreteMeasure(
            joint.space,
            {x: (1.0 - share) * combined.mass.get(x, 0.0) + share * joint.mass.get(x, 0.0)
             for x in joint.space.assignments()},
        )
    return normalize(combined), decomp, tol


@settings(max_examples=400, deadline=None)
@given(markov_check_cases())
def test_is_markov_agrees_with_dense_walk(case):
    theta, decomp, tol = case
    assert is_markov(theta, decomp, tol) == dense_is_markov(theta, decomp, tol)
