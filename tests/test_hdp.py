"""Graph-structured priors: degeneracy checks, assembly, posteriors."""

import importlib
import itertools
import json
import math
import pkgutil
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperdp
from hyperdp import (
    ContinuousBase,
    DiscreteMeasure,
    DomainMismatch,
    HyperDPError,
    Inconsistent,
    NotConnected,
    NotDecomposable,
    ObservationViolatesSupport,
    ProductSpace,
    RefinementReport,
    RefinementViolated,
    SamplerConfig,
    UnknownVariable,
    WeightedAtoms,
    atoms_to_measure,
    audit_hdp,
    build_graph,
    build_hdp,
    check_refinement,
    dp_posterior,
    hdp_posterior,
    hdp_spec_json,
    is_connected,
    is_consistent,
    is_markov,
    marginalize,
    perfect_ordering,
    sample_hdp,
    uniform_measure,
    verify_sample_markov,
    verify_sample_refinement,
)
from hyperdp import algebra, hdp, reconcile
from hyperdp.algebra import _sup_gap
from hyperdp.measures import CONSISTENCY_TOL

from conftest import (
    beta_moments,
    chordal_graphs,
    folded_clique_bases,
    looped_degeneracy,
    looped_dp_posterior,
    reaudited_hdp_posterior,
    seen_hdp_posterior,
)


@pytest.fixture
def path_spec(path_graph, uniform_ij, copy_jk):
    # the second clique copies J into K, so the separator pins it down
    return build_hdp(path_graph, [uniform_ij, copy_jk], nu=4.0)


# ------------------------------------------------------------- refinement


def test_refinement_passes_for_copy_clique(copy_jk):
    report = check_refinement(copy_jk, ("J",), ("J", "K"))
    assert report.passed
    assert report.first_witness() is None
    (check,) = report.checks
    assert check.separator == ("J",)
    assert check.witness is None and check.conditional is None


def test_refinement_fails_for_uniform_clique(space_jk):
    report = check_refinement(uniform_measure(space_jk), ("J",), ("J", "K"))
    assert not report.passed
    # the scan walks separator values in category order, so J=0 reports first
    assert report.first_witness() == {"J": 0}
    (check,) = report.checks
    assert set(check.conditional.values()) == {0.5}
    assert len(check.conditional) == 2


def test_refinement_tolerance_boundary(space_jk):
    slop = 1e-13
    base = DiscreteMeasure(
        space_jk, {(0, 0): 0.5 * (1 - slop), (0, 1): 0.5 * slop, (1, 1): 0.5}
    )
    assert check_refinement(base, ("J",), ("J", "K")).passed
    assert not check_refinement(base, ("J",), ("J", "K"), tol=1e-15).passed
    # top = (1 - tol) * total exactly: a group on the bound passes
    even = DiscreteMeasure(space_jk, {(0, 0): 0.5, (0, 1): 0.5})
    assert check_refinement(even, ("J",), ("J", "K"), tol=0.5).passed


def test_refinement_validates_arguments(copy_jk):
    with pytest.raises(ValueError):
        check_refinement(copy_jk, ("I",), ("J", "K"))
    with pytest.raises(UnknownVariable):
        check_refinement(copy_jk, ("J",), ("J", "Z"))


def test_refinement_continuous_base():
    base = ContinuousBase(sampler=lambda rng: float(rng.random()))
    report = check_refinement(base, ("J",), ("J", "K"))
    assert report.passed


def test_refinement_report_plumbing(space_jk, copy_jk):
    (good,) = check_refinement(copy_jk, ("J",), ("J", "K")).checks
    (bad,) = check_refinement(uniform_measure(space_jk), ("J",), ("J", "K")).checks
    report = RefinementReport((good, bad))
    assert not report.passed
    assert report.first_witness() == bad.witness == {"J": 0}


# ----------------------------------------------------------------- assembly


def test_build_hdp_fixture(path_spec, uniform_ij, copy_jk):
    assert path_spec.nu == 4.0
    assert path_spec.decomposition.cliques == (("I", "J"), ("J", "K"))
    assert path_spec.decomposition.separators == (("J",),)
    assert path_spec.clique_bases == (uniform_ij, copy_jk)
    assert path_spec.combined.nu == 4.0
    assert path_spec.combined.base.mass == {
        (0, 0, 0): 0.25,
        (0, 1, 1): 0.25,
        (1, 0, 0): 0.25,
        (1, 1, 1): 0.25,
    }


def test_build_hdp_single_clique_degenerates(uniform_ij):
    graph = build_graph(("I", "J"), [("I", "J")])
    spec = build_hdp(graph, [uniform_ij], nu=2.0)
    assert spec.decomposition.separators == ()
    # with one clique the combined base is the input, bit for bit
    assert spec.combined.base is uniform_ij


def test_build_hdp_rejections(path_graph, space_ij, space_jk, uniform_ij, copy_jk):
    with pytest.raises(ValueError):
        build_hdp(path_graph, [uniform_ij], nu=1.0)
    with pytest.raises(TypeError):
        build_hdp(path_graph, [uniform_ij, "nope"], nu=1.0)
    with pytest.raises(DomainMismatch):
        build_hdp(path_graph, [uniform_ij, uniform_ij], nu=1.0)
    heavy = DiscreteMeasure(space_jk, {(0, 0): 0.6, (1, 1): 0.6})
    with pytest.raises(ValueError):
        build_hdp(path_graph, [uniform_ij, heavy], nu=1.0)
    skewed = DiscreteMeasure(space_jk, {(0, 0): 0.7, (1, 1): 0.3})
    with pytest.raises(Inconsistent) as err:
        build_hdp(path_graph, [uniform_ij, skewed], nu=1.0)
    payload = err.value.payload()
    assert payload["pair"] == [1, 2] and payload["report"]["overlap"] == ["J"]
    with pytest.raises(ValueError):
        build_hdp(path_graph, [uniform_ij, copy_jk], nu=0.0)


def test_build_hdp_rejects_uniform_bases(path_graph, space_jk, uniform_ij):
    with pytest.raises(RefinementViolated) as err:
        build_hdp(path_graph, [uniform_ij, uniform_measure(space_jk)], nu=1.0)
    assert err.value.report.first_witness() == {"J": 0}
    payload = err.value.payload()
    assert payload["error"] == "RefinementViolated"
    assert payload["witness"] == {"J": 0}


def test_build_hdp_rejects_bad_graphs(space_ij, uniform_ij):
    square = build_graph((1, 2, 3, 4), [(1, 2), (2, 3), (3, 4), (4, 1)])
    with pytest.raises(NotDecomposable):
        build_hdp(square, [], nu=1.0)
    split = build_graph(("I", "J", "K", "L"), [("I", "J"), ("K", "L")])
    with pytest.raises(NotConnected):
        build_hdp(split, [], nu=1.0)


# -------------------------------------------------------------------- audit


def test_audit_reports_every_stage(path_graph, uniform_ij, copy_jk):
    audit = audit_hdp(path_graph, [uniform_ij, copy_jk])
    assert audit.failure is None
    assert [c["name"] for c in audit.checks] == [
        "graph",
        "consistency of clique bases 1 and 2",
        "combined base factorizes over the cliques",
        "degenerate completion of clique ['J', 'K'] given separator ['J']",
    ]
    assert all(c["passed"] for c in audit.checks)
    spec = build_hdp(path_graph, [uniform_ij, copy_jk], nu=1.0)
    assert audit.decomposition == spec.decomposition
    assert audit.combined == spec.combined.base


def test_audit_entries_carry_the_failure_report(path_graph, space_jk, uniform_ij):
    audit = audit_hdp(path_graph, [uniform_ij, uniform_measure(space_jk)])
    entries = [(c["witness"], c["conditional"]) for c in audit.checks if not c["passed"]]
    report = audit.failure.report
    assert entries == [(c.witness, c.conditional) for c in report.checks if not c.passed]
    assert len(entries) == 1


@pytest.mark.parametrize(
    "call",
    [
        lambda f: build_hdp(f["path_graph"], [f["uniform_ij"], f["copy_jk"]], 1.0, strict=False),
        lambda f: audit_hdp(f["path_graph"], [f["uniform_ij"], f["copy_jk"]], strict=False),
        lambda f: ContinuousBase(abs, atoms_distinct=True),
        lambda f: ContinuousBase(abs, label="continuous"),
    ],
    ids=["build_hdp-strict", "audit_hdp-strict", "atoms_distinct", "label"],
)
def test_retired_settings_are_type_errors(call, path_graph, uniform_ij, copy_jk):
    with pytest.raises(TypeError):
        call(dict(locals()))


def test_audit_reports_mass_lost_by_the_fold(space_ij, space_jk, path_graph):
    # the pair gap of 1e-10 passes, but B=1 has no completion in base 2,
    # so the fold keeps 1 - 1e-10 of the mass
    first = DiscreteMeasure(space_ij, {(0, 0): 0.9999999999, (1, 1): 1e-10})
    second = DiscreteMeasure(space_jk, {(0, 0): 1.0})
    audit = audit_hdp(path_graph, [first, second])
    assert [c["passed"] for c in audit.checks] == [True, True, False]
    assert isinstance(audit.failure, Inconsistent)
    assert "lost 1.000e-10 of mass" in str(audit.failure)
    assert audit.checks[-1]["name"] == "fold of the clique bases keeps their mass"
    assert audit.checks[-1]["detail"] == str(audit.failure)


# each pair of this binary chain is 9e-10 apart on its overlap, within
# the default tol of 1e-9, and no point loses mass; but the fold of the
# first two hands the third the first one's law of C, 1.8e-9 from its own
DRIFT = 9e-10
DRIFTING_CHAIN = (
    build_graph("ABCD", [("A", "B"), ("B", "C"), ("C", "D")]),
    [
        DiscreteMeasure(
            ProductSpace.from_domains((a, b), {a: (0, 1), b: (0, 1)}),
            {(0, 0): 0.5 + shift, (1, 1): 0.5 - shift},
        )
        for (a, b), shift in zip(("AB", "BC", "CD"), (DRIFT, 0.0, -DRIFT))
    ],
)


def test_audit_names_overlap_drift_in_the_fold():
    audit = audit_hdp(*DRIFTING_CHAIN)
    assert [c["passed"] for c in audit.checks] == [True, True, True, True, False]
    assert max(c["marginal_gap"] for c in audit.checks[1:4]) == pytest.approx(DRIFT)
    assert audit.checks[-1]["name"] == (
        "fold of the clique bases keeps their overlap marginals proportional"
    )
    assert audit.checks[-1]["detail"] == str(audit.failure) == (
        "folding the clique bases drifted their overlap marginals 1.800e-09 apart, "
        "although every pair of them is consistent"
    )
    assert isinstance(audit.failure, Inconsistent)
    report = audit.failure.report
    assert not report.proportional_marginals and report.equal_total_mass
    assert report.marginal_gap == pytest.approx(2 * DRIFT) and report.mass_gap == 0.0


def test_the_fold_recheck_alone_catches_overlap_drift(monkeypatch):
    # the join keeps all the mass, so without the re-check of each step
    # the drifting chain would build: a tolerance of 1 passes every check
    consistency = hdp._consistency
    monkeypatch.setattr(
        hdp,
        "_consistency",
        lambda overlap, tm, tl, laws, tol: consistency(overlap, tm, tl, laws, 1.0),
    )
    spec = build_hdp(*DRIFTING_CHAIN, nu=1.0)
    base_cd = marginalize(spec.combined.base, ("C", "D")).mass
    assert max(abs(base_cd[k] - w) for k, w in DRIFTING_CHAIN[1][2].mass.items()) > (
        CONSISTENCY_TOL
    )


@st.composite
def clique_base_cases(draw):
    """A decomposition, clique bases for it and a tolerance.

    The bases are the clique marginals of a sparse random joint on a path
    or a star of 2-5 binary vertices.  Each may be nudged by a drift of a
    few 1e-10 (which the pairs can pass and the join cannot), scaled, or
    replaced by an unrelated measure, so that every check fails somewhere.
    """
    n = draw(st.integers(2, 5))
    verts = tuple(f"V{i}" for i in range(n))
    star = draw(st.booleans())
    edges = [(verts[0], v) for v in verts[1:]] if star else list(zip(verts, verts[1:]))
    decomp = perfect_ordering(build_graph(verts, edges))
    space = ProductSpace.from_domains(verts, {v: (0, 1) for v in verts})
    cells = list(space.assignments())
    support = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(support), max_size=len(support)))
    joint = DiscreteMeasure(space, {x: w / sum(weights) for x, w in zip(support, weights)})
    bases = []
    for clique in decomp.cliques:
        base = marginalize(joint, clique)
        change = draw(st.sampled_from(["none", "none", "drift", "scale", "replace"]))
        if change == "drift":
            # the first cell gains what the last one loses
            shift = draw(st.sampled_from([1e-10, -3e-10, 6e-10]))
            cells = dict(base.mass)
            first, last = list(cells)[0], list(cells)[-1]
            cells[first] += shift
            cells[last] = max(cells[last] - shift, 0.0)
            base = DiscreteMeasure(base.space, cells)
        elif change == "scale":
            factor = draw(st.sampled_from([1.0 + 1e-10, 1.5, 0.0]))
            base = DiscreteMeasure(base.space, {x: w * factor for x, w in base.mass.items()})
        elif change == "replace":
            masses = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4))
            base = DiscreteMeasure(base.space, dict(zip(base.space.assignments(), masses)))
        bases.append(base)
    return decomp, bases, draw(st.sampled_from([0.0, 1e-12, 1e-9, 1e-3, 0.6]))


def _joined(combine, decomp, bases, tol):
    """The pair reports, join and failure of a combination, or its error."""
    try:
        pairs, combined, failure = combine(decomp, bases, tol)
    except Exception as exc:  # the differential test compares errors too
        return type(exc), str(exc)
    if combined is not None:
        combined = combined.space, list(combined.mass.items())
    if failure is not None:
        text = str(failure) if failure.pair else None  # the join words a drift its own way
        failure = type(failure), failure.report, failure.pair, text
    return list(pairs), combined, failure


@settings(max_examples=300, deadline=None)
@given(clique_base_cases())
def test_join_agrees_with_the_pairwise_fold(case):
    decomp, bases, tol = case
    assert _joined(hdp.combine_clique_bases, decomp, bases, tol) == _joined(
        folded_clique_bases, decomp, bases, tol
    )


def test_the_scan_passes_the_pairs_that_share_nothing_without_their_reports(monkeypatch):
    # at tol = 0 the scan's bounds are met with equality; the reports of the
    # other 78 pairs are made only when they are read
    graph, bases = _copy_flip_chain(15)
    reports, consistency = [], hdp._consistency
    monkeypatch.setattr(hdp, "_consistency", lambda *args: reports.append(args) or consistency(*args))
    glued, glue = [], hdp._glue
    monkeypatch.setattr(hdp, "_glue", lambda *args: glued.append(args) or glue(*args))
    pairs, combined, failure = hdp.combine_clique_bases(perfect_ordering(graph), bases, 0.0)
    assert failure is None and len(combined.mass) == 4
    # one report per pair that shares a variable, one per step of the one join
    assert len(reports) == 13 + 13 and len(glued) == 13
    assert [(i, j) for i, j, _ in pairs] == list(itertools.combinations(range(14), 2))
    assert len(reports) == 13 + 13 + 78


def test_a_pair_between_the_extreme_totals_can_fail_where_the_extreme_pair_passes():
    # at tol 0.6 the extreme totals (lo, hi) pass their own bound, 0.6 * hi,
    # but not the scan's, 0.6 * lo; the pair (lo, mid), which shares no
    # variable, fails by rounding, and only the pairwise fallback finds it
    lo, mid, hi = 0.667260170837883, 1.6681504270947076, 1.6681504270947078
    assert hi - lo <= 0.6 * hi and hi - lo > 0.6 * lo and mid - lo > 0.6 * mid
    graph = build_graph("ABCDE", [("A", "B"), ("B", "C"), ("C", "D"), ("D", "E")])
    decomp = perfect_ordering(graph)
    bases = [
        uniform_measure(ProductSpace.from_domains(c, {v: (0, 1) for v in c}))
        for c in decomp.cliques
    ]
    bases = [
        DiscreteMeasure(b.space, {x: w * t for x, w in b.mass.items()})
        for b, t in zip(bases, (lo, hi, mid, hi))
    ]
    joined = _joined(hdp.combine_clique_bases, decomp, bases, 0.6)
    assert joined == _joined(folded_clique_bases, decomp, bases, 0.6)
    assert joined[2][2] == (1, 3)


def test_one_clique_spec_on_forty_variables_builds():
    names = tuple(f"X{i}" for i in range(40))
    space = ProductSpace.from_domains(names, {v: (0, 1) for v in names})
    points = {tuple(k >> (i % 2) & 1 for i in range(40)): 0.25 for k in range(4)}
    base = DiscreteMeasure(space, points)
    spec = build_hdp(build_graph(names[::-1], itertools.combinations(names, 2)), [base], 3.0)
    assert spec.decomposition.cliques == (names[::-1],)
    assert spec.combined.base == base


def test_audit_raises_on_malformed_specs(path_graph, space_jk, uniform_ij, copy_jk):
    with pytest.raises(ValueError, match="2 cliques but 3 base measures"):
        audit_hdp(path_graph, [uniform_ij, copy_jk, copy_jk])
    with pytest.raises(TypeError):
        audit_hdp(path_graph, [uniform_ij, "nope"])
    with pytest.raises(DomainMismatch):
        audit_hdp(path_graph, [uniform_ij, uniform_ij])
    heavy = DiscreteMeasure(space_jk, {(0, 0): 1.0, (1, 1): 1.0})
    with pytest.raises(ValueError, match="clique base 2 is not a probability measure"):
        audit_hdp(path_graph, [uniform_ij, heavy])


# ---------------------------------------------------------------- tolerance

# on the I-J-K path this couples I and K given J, so it does not factorize
COUPLED_IJK = {(0, 0, 0): 0.5, (1, 0, 1): 0.5}

TOL_ENTRIES = {
    "is_markov": lambda f: is_markov(
        DiscreteMeasure(f["space_ijk"], COUPLED_IJK), f["path_decomp"], f["tol"]
    ),
    "verify_sample_markov": lambda f: verify_sample_markov(
        WeightedAtoms(tuple(COUPLED_IJK), (0.5, 0.5), 0.0, f["space_ijk"]),
        f["path_decomp"],
        f["tol"],
    ),
    "audit_hdp": lambda f: audit_hdp(f["path_graph"], [f["uniform_ij"], f["copy_jk"]], f["tol"]),
    # one clique: no pair ever reaches the check in is_consistent
    "build_hdp": lambda f: build_hdp(
        build_graph(("I", "J"), [("I", "J")]), [f["uniform_ij"]], 2.0, tol=f["tol"]
    ),
    "check_refinement": lambda f: check_refinement(f["copy_jk"], ("J",), ("J", "K"), f["tol"]),
}


@pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf, -1.0], ids=repr)
@pytest.mark.parametrize("entry", sorted(TOL_ENTRIES))
def test_every_entry_taking_tol_refuses_a_bad_one(
    entry, tol, space_ijk, path_graph, path_decomp, uniform_ij, copy_jk
):
    fixtures = dict(locals())
    message = f"tol must be finite and nonnegative, got {tol!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        TOL_ENTRIES[entry](fixtures)


@st.composite
def small_specs(draw):
    """Path or star graphs on 2-4 binary vertices with clique bases that are
    the marginals of a random sparse joint, one of them optionally replaced
    by an unrelated measure."""
    n = draw(st.integers(2, 4))
    verts = tuple(f"V{i}" for i in range(n))
    if draw(st.booleans()):
        edges = list(zip(verts, verts[1:]))
    else:
        edges = [(verts[0], v) for v in verts[1:]]
    graph = build_graph(verts, edges)
    decomp = perfect_ordering(graph)
    space = ProductSpace.from_domains(verts, {v: (0, 1) for v in verts})
    cells = list(space.assignments())
    support = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=len(cells), unique=True))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(support), max_size=len(support)))
    joint = DiscreteMeasure(space, {x: w / sum(weights) for x, w in zip(support, weights)})
    bases = [marginalize(joint, c) for c in decomp.cliques]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(bases) - 1))
        sp = bases[k].space
        masses = draw(st.lists(st.integers(0, 3), min_size=4, max_size=4).filter(any))
        bases[k] = DiscreteMeasure(
            sp, {x: m / sum(masses) for x, m in zip(sp.assignments(), masses)}
        )
    return graph, bases


@settings(max_examples=200, deadline=None)
@given(small_specs())
def test_build_hdp_raises_exactly_when_the_audit_fails(case):
    graph, bases = case
    audit = audit_hdp(graph, bases)
    failing = [c for c in audit.checks if not c["passed"]]
    inconsistent = any(
        not is_consistent(a, b).consistent for a, b in itertools.combinations(bases, 2)
    )
    assert isinstance(audit.failure, Inconsistent) == inconsistent
    try:
        spec = build_hdp(graph, bases, nu=1.0)
    except HyperDPError as exc:
        assert failing
        assert type(exc).__name__ == type(audit.failure).__name__
        witness = exc.report.first_witness() if isinstance(exc, RefinementViolated) else None
        assert witness == failing[0].get("witness")
        if isinstance(exc, Inconsistent):
            assert exc.report.marginal_gap == failing[0]["marginal_gap"]
            assert exc.report.mass_gap == failing[0]["mass_gap"]
    else:
        assert audit.failure is None and not failing
        assert spec.combined.base == audit.combined


@settings(max_examples=200, deadline=None)
@given(small_specs())
def test_degeneracy_agrees_with_the_check_of_every_block(case):
    # a clique whose base pins each separator value passes without
    # grouping the combined base; the others give the same report
    graph, bases = case
    decomp = perfect_ordering(graph)
    _, combined, failure = hdp.combine_clique_bases(decomp, bases)
    if failure is not None:
        return
    report, failure = hdp._degeneracy(combined, decomp, bases)
    want = looped_degeneracy(combined, decomp)
    assert report == want[0]
    assert repr(failure) == repr(want[1])


def test_star_import_exposes_the_public_names():
    namespace = {}
    exec("from hyperdp import *", namespace)
    public = {name for name in vars(hyperdp) if not name.startswith("_")}
    assert {"audit_hdp", "HDPAudit", "build_hdp"} <= public
    assert public <= set(namespace)


def test_every_submodule_is_the_package_attribute_of_its_name():
    # a root-level name bound to anything else would shadow the submodule
    for info in pkgutil.iter_modules(hyperdp.__path__):
        module = importlib.import_module(f"hyperdp.{info.name}")
        assert getattr(hyperdp, info.name) is module, info.name


# ------------------------------------------------------------------ scaling


def _copy_flip_chain(k):
    """Binary chain v0 - ... - v(k-1): a uniform first clique, then each
    clique copies its separator value or flips it, alternately."""
    verts = [f"v{i}" for i in range(k)]
    graph = build_graph(verts, list(zip(verts, verts[1:])))
    bases = [uniform_measure(ProductSpace.from_domains(verts[:2], {v: (0, 1) for v in verts[:2]}))]
    for i, (a, b) in enumerate(zip(verts[1:], verts[2:])):
        sp = ProductSpace.from_domains((a, b), {a: (0, 1), b: (0, 1)})
        bases.append(DiscreteMeasure(sp, {(x, x ^ (i % 2)): 0.5 for x in (0, 1)}))
    return graph, bases


def test_factorization_checks_never_walk_the_product_space(monkeypatch):
    # a 64-vertex space has 2**64 assignments; the checks must stay on
    # the joined clique supports, which hold four points here
    graph, bases = _copy_flip_chain(64)

    def refuse(self):
        raise AssertionError("walked the whole product space")

    monkeypatch.setattr(ProductSpace, "assignments", refuse)
    spec = build_hdp(graph, bases, nu=2.0)
    assert len(spec.combined.base.mass) == 4
    theta = sample_hdp(spec, SamplerConfig(seed=5))
    assert verify_sample_markov(theta, spec.decomposition)
    # v0 and v63 are coupled although every vertex between them is fixed
    space = ProductSpace.from_domains(graph.vertices, {v: (0, 1, 2) for v in graph.vertices})
    coupled = DiscreteMeasure(space, {(0,) * 64: 0.5, (1,) + (0,) * 62 + (2,): 0.5})
    assert not is_markov(coupled, spec.decomposition)


def test_every_cell_assembly_runs_the_one_join(monkeypatch):
    # the Markov combination and the reconcile strategies build their cells
    # through algebra._glue and nothing else
    glue, calls, hook_calls = algebra._glue, [], []

    def counted(cells, at, grouped, arrange, mass=None):
        if mass is not None:
            hook = mass

            def mass(*args):
                hook_calls.append(args[0])
                return hook(*args)

        calls.append(glue(cells, at, grouped, arrange, mass))
        return calls[-1]

    for module in (algebra, reconcile):
        monkeypatch.setattr(module, "_glue", counted)
    _, (_, mu, lam) = _copy_flip_chain(4)

    def refuse(*args):
        raise AssertionError("the weighted average built a one-sided completion")

    def averaged(a, b):
        # the blend takes both completions' masses from its one join
        with monkeypatch.context() as patch:
            patch.setattr(reconcile, "_completion_cells", refuse)
            return reconcile.weighted_average(a, b, 0.3)

    builds = [
        (algebra.markov_combination, 1),
        (lambda a, b: reconcile.complete_via(a, b, "A"), 1),
        (lambda a, b: reconcile.complete_via(a, b, "B"), 1),
        (reconcile.kl_compromise, 2),
        (averaged, 1),
    ]
    for build, n in builds:
        calls.clear()
        m = build(mu, lam)
        assert len(calls) == n
        assert m.mass == calls[-1]
    # the blend's hook runs once per cell of the first measure, not once per
    # union cell: 40 x 20 and 20 x 40 tables give 800 calls for 32,000 cells
    tables = []
    for variables, shape in ((("A", "B"), (40, 20)), (("B", "C"), (20, 40))):
        space = ProductSpace.from_domains(variables, dict(zip(variables, map(range, shape))))
        tables.append(DiscreteMeasure(space, {x: 1.0 + k % 7 for k, x in enumerate(space.assignments())}))
    hook_calls.clear()
    assert len(reconcile.weighted_average(*tables, 0.3).mass) == 32_000
    assert len(hook_calls) == 800


# ----------------------------------------------------------------- sampling


def test_sampled_draws_verify(path_spec):
    decomp = path_spec.decomposition
    cfg = SamplerConfig(seed=2024)
    for r in range(20):
        theta = sample_hdp(path_spec, cfg, replicate=r)
        assert verify_sample_markov(theta, decomp)
        for sep, clique in zip(decomp.separators, decomp.cliques[1:]):
            assert verify_sample_refinement(theta, sep, clique)
        assert atoms_to_measure(theta).is_probability()


def test_verify_sample_refinement_negative(space_ijk):
    theta = WeightedAtoms(((0, 0, 0), (0, 0, 1)), (0.5, 0.5), 0.0, space_ijk)
    assert not verify_sample_refinement(theta, ("J",), ("J", "K"))
    shared = WeightedAtoms(((0, 0, 0), (1, 0, 0)), (0.4, 0.6), 0.0, space_ijk)
    assert verify_sample_refinement(shared, ("J",), ("J", "K"))


def test_verify_sample_refinement_validation(space_ijk):
    opaque = WeightedAtoms((0.1, 0.7), (0.5, 0.5), 0.0, None)
    with pytest.raises(TypeError):
        verify_sample_refinement(opaque, ("J",), ("J", "K"))
    theta = WeightedAtoms(((0, 0, 0),), (1.0,), 0.0, space_ijk)
    with pytest.raises(ValueError):
        verify_sample_refinement(theta, ("I",), ("J", "K"))
    # as in check_refinement, every variable must be one of the space's
    with pytest.raises(UnknownVariable, match="'Kx'"):
        verify_sample_refinement(theta, ("J",), ("J", "Kx"))
    with pytest.raises(UnknownVariable, match="'Jx'"):
        verify_sample_refinement(theta, ("Jx",), ("Jx", "K"))


# ---------------------------------------------------------------- posterior


def test_posterior_empty_data_is_identity(path_spec):
    assert hdp_posterior(path_spec, []) is path_spec


def test_posterior_fixture(path_spec):
    post = hdp_posterior(path_spec, [(0, 0, 0)])
    assert post.nu == 5.0
    assert post.combined.nu == 5.0
    first, second = post.clique_bases
    assert first.mass == {(0, 0): 0.4, (0, 1): 0.2, (1, 0): 0.2, (1, 1): 0.2}
    assert second.mass == {(0, 0): 0.6, (1, 1): 0.4}


def test_posterior_accepts_dict_observations(path_spec):
    post = hdp_posterior(path_spec, [{"I": 0, "J": 0, "K": 0}])
    assert post.nu == 5.0


def test_posterior_rejects_unsupported_observation(path_spec):
    # K must copy J under this prior, so (0, 0, 1) cannot be absorbed
    with pytest.raises(ObservationViolatesSupport) as err:
        hdp_posterior(path_spec, [(0, 0, 1)])
    assert err.value.report.first_witness() == {"J": 0}
    assert err.value.payload()["witness"] == {"J": 0}


def test_posterior_batches(path_spec):
    data = [(0, 0, 0), (1, 1, 1), (0, 1, 1), (1, 0, 0), (0, 0, 0)]
    steps = hdp_posterior(hdp_posterior(path_spec, data[:2]), data[2:])
    batch = hdp_posterior(path_spec, data)
    assert steps.nu == batch.nu
    a, b = steps.combined.base, batch.combined.base
    keys = set(a.mass) | set(b.mass)
    assert all(abs(a.mass.get(k, 0.0) - b.mass.get(k, 0.0)) <= 1e-12 for k in keys)


def test_posterior_draws_still_verify(path_spec):
    post = hdp_posterior(path_spec, [(0, 0, 0), (1, 1, 1), (1, 1, 1)])
    decomp = post.decomposition
    cfg = SamplerConfig(seed=77)
    for r in range(10):
        theta = sample_hdp(post, cfg, replicate=r)
        assert verify_sample_markov(theta, decomp)
        for sep, clique in zip(decomp.separators, decomp.cliques[1:]):
            assert verify_sample_refinement(theta, sep, clique)


# values equal to 0 and 1 that print differently
STAND_INS = {0: (0, False, 0.0), 1: (1, True, 1.0)}


@st.composite
def posterior_cases(draw, bad_rows=True, drift=False):
    """A spec that passes its audit, and rows for its update.

    The graph is a path or a star on 2-4 vertices, or a connected
    chordal graph on at most 5, with 2 or 3 values per vertex.  The
    joint law weighs a few cells of the first clique, and every later
    clique sets its residual vertices to a drawn function of its
    separator value, so every separator pins its clique.  The cells of
    the joint, and so of the clique bases, may take False or 0.0 for a 0
    and True or 1.0 for a 1, and one of them may have a subnormal mass,
    which an update can round to zero.  Rows repeat support points, leave
    the support, are given as dicts, and take stand-ins too; with
    ``bad_rows`` one of them may be no row of the space.

    With ``drift`` that cell may instead have 1e-10 of mass, and a later
    clique base shift its share to its heaviest cell: the bases then agree
    only within tol, and a subnormal clique cell stands under a combined
    cell of 1e-10.  One row gives that cell's separator value a second
    completion, and the others repeat support points.
    """
    shape = draw(st.sampled_from(["path", "star", "chordal"]))
    if shape == "chordal":
        graph = draw(chordal_graphs(max_vertices=5, max_clique=3).filter(is_connected))
    else:
        verts = tuple(f"V{i}" for i in range(draw(st.integers(2, 4))))
        if shape == "path":
            graph = build_graph(verts, list(zip(verts, verts[1:])))
        else:
            graph = build_graph(verts, [(verts[0], v) for v in verts[1:]])
    decomp = perfect_ordering(graph)
    domains = {v: tuple(range(draw(st.integers(2, 3)))) for v in graph.vertices}

    def values(block):
        return st.tuples(*(st.sampled_from(domains[v]) for v in block))

    first = decomp.cliques[0]
    cells = draw(st.lists(values(first), min_size=1, max_size=4, unique=True))
    rows = [dict(zip(first, x)) for x in cells]
    completion = {}
    for k, (sep, res) in enumerate(zip(decomp.separators, decomp.residuals)):
        for row in rows:
            key = (k, tuple(row[v] for v in sep))
            if key not in completion:
                completion[key] = draw(values(res))
            row.update(zip(res, completion[key]))
    weights = draw(st.lists(st.integers(1, 4), min_size=len(rows), max_size=len(rows)))
    masses = [w / sum(weights) for w in weights]
    tiny = draw(st.sampled_from([None, 5e-324, 1e-320, 2e-308]))
    if drift and draw(st.booleans()):
        tiny = 1e-10
    if tiny is not None and len(rows) > 1:
        masses = [w * (1.0 - tiny) / sum(weights[1:]) for w in weights]
        masses[0] = tiny
    vertices = ProductSpace.from_domains(graph.vertices, domains)
    keys = [
        tuple(draw(st.sampled_from(STAND_INS.get(c, (c,)))) for c in vertices.as_tuple(r))
        for r in rows
    ]
    joint = DiscreteMeasure(vertices, dict(zip(keys, masses)))
    nu = draw(st.one_of(st.sampled_from([0.5, 1.0, 3.0, 4.0, 123.0]), st.floats(0.5, 123.0)))
    bases, shaved = [marginalize(joint, c) for c in decomp.cliques], None
    if tiny == 1e-10 and len(bases) > 1:
        k = draw(st.integers(1, len(bases) - 1))
        mass = dict(bases[k].mass)
        small = [x for x, w in mass.items() if w < 1e-9]
        if small:
            heaviest = max(mass, key=mass.get)
            mass[heaviest] += mass[small[0]]
            mass[small[0]] = 5e-324
            bases[k] = DiscreteMeasure(bases[k].space, mass)
            shaved = (k, small[0])
    spec = build_hdp(graph, bases, nu)
    space = spec.combined.base.space
    anywhere = st.tuples(*(st.sampled_from(d) for d in space.domains))
    point = st.sampled_from(list(spec.combined.base.mass))
    if not shaved:
        point = st.one_of(point, anywhere)
    data = []
    for x in draw(st.lists(point, min_size=1, max_size=12)):
        x = tuple(draw(st.sampled_from(STAND_INS.get(c, (c,)))) for c in x)
        data.append(dict(zip(space.variables, x)) if draw(st.booleans()) else x)
    if shaved:
        # a row that gives the shaved cell's separator value a second completion
        k, cell = shaved
        on_clique = space.projector(bases[k].space.variables)
        x = next(x for x in spec.combined.base.mass if on_clique(x) == cell)
        row = dict(zip(space.variables, x))
        v = decomp.residuals[k - 1][0]
        row[v] = draw(st.sampled_from([c for c in domains[v] if c != row[v]]))
        data.insert(draw(st.integers(0, len(data))), row)
    if bad_rows and draw(st.integers(0, 3)) == 0:
        x = data[-1] if isinstance(data[-1], tuple) else tuple(data[-1].values())
        bad = draw(
            st.sampled_from(
                [x + (0,), x[:-1] + (7,), x[:-1] + ("1",), x[:-1] + ([0],), {"zz": 0}]
            )
        )
        data.insert(draw(st.integers(0, len(data))), bad)
    return spec, data


def _posterior_outcome(update, spec, data):
    """The printed parts of an update, or its error's class and payload."""
    try:
        post = update(spec, data)
    except HyperDPError as exc:
        return type(exc), exc.payload()
    return [repr(b) for b in post.clique_bases], post.nu, post.combined.nu, post.decomposition


@settings(max_examples=300, deadline=None)
@given(posterior_cases())
def test_posterior_agrees_with_the_reaudited_update(case):
    spec, data = case
    assert _posterior_outcome(hdp_posterior, spec, data) == _posterior_outcome(
        reaudited_hdp_posterior, spec, data
    )


def _payload_bytes(update, spec, data):
    """The printed spec of an update, or its error's class, payload bytes and
    report."""
    try:
        post = update(spec, data)
    except HyperDPError as exc:
        return type(exc), json.dumps(exc.payload()), repr(getattr(exc, "report", None))
    return hdp_spec_json(post.graph, post.nu, post.clique_bases), repr(post.combined)


@settings(max_examples=100, deadline=None)
@given(posterior_cases(drift=True))
def test_posterior_agrees_with_the_stage_that_read_the_rows_on_the_side(case):
    # the degeneracy stage reads the posterior clique bases, whose cells are
    # the prior's and the rows' clique values unless the update rounded a
    # prior cell to zero, and names its witness from combine_clique_bases'
    # one join, not from a fold of markov_combination
    spec, data = case
    assert _payload_bytes(hdp_posterior, spec, data) == _payload_bytes(
        seen_hdp_posterior, spec, data
    )


def test_a_posterior_whose_bases_fail_the_join_names_the_witness_of_its_combined_base(
    path_graph, space_jk, uniform_ij
):
    # the spec passes at tol 1e-6, but its posterior bases, 5e-8 apart on J,
    # fail the join at the default tol, so the witness comes from the combined
    # base; a fold of markov_combination raised Inconsistent here instead
    second = DiscreteMeasure(space_jk, {(0, 0): 0.5 + 1e-7, (1, 1): 0.5 - 1e-7})
    spec = build_hdp(path_graph, [uniform_ij, second], 1.0, tol=1e-6)
    rows = [(0, 0, 1)]
    assert hdp.combine_clique_bases(spec.decomposition, spec.clique_bases)[2] is not None
    with pytest.raises(ObservationViolatesSupport) as err:
        hdp_posterior(spec, rows)
    assert err.value.payload()["witness"] == {"J": 0}
    (check,) = err.value.report.checks
    assert check.conditional == pytest.approx({"(0, 0)": 1 / 3, "(0, 1)": 2 / 3}, abs=1e-12)
    with pytest.raises(Inconsistent):
        seen_hdp_posterior(spec, rows)


def test_a_prior_cell_the_update_rounds_to_zero_still_counts_for_the_degeneracy_check(
    path_graph, space_ij, space_jk
):
    # the bases agree on J within tol; the combined cell (0, 0, 0) keeps
    # 5e-11 of mass while the update rounds its clique cell (0, 0) in the
    # second base to 0.0, so the posterior bases alone look pinned
    first = DiscreteMeasure(space_ij, {(0, 0): 1e-10, (1, 1): 1 - 1e-10})
    second = DiscreteMeasure(space_jk, {(0, 0): 5e-324, (1, 1): 1.0})
    spec = build_hdp(path_graph, [first, second], 1.0)
    rows = [(0, 0, 1)]
    with pytest.raises(ObservationViolatesSupport) as err:
        hdp_posterior(spec, rows)
    assert err.value.payload()["witness"] == {"J": 0}
    assert _payload_bytes(hdp_posterior, spec, rows) == _payload_bytes(
        seen_hdp_posterior, spec, rows
    )


@settings(max_examples=150, deadline=None)
@given(posterior_cases(bad_rows=False))
def test_posterior_clique_bases_are_marginals_of_its_base(case):
    # the paper's conjugacy, which the update relies on instead of a
    # second audit
    spec, data = case
    try:
        post = hdp_posterior(spec, data)
    except ObservationViolatesSupport:
        return
    combined = post.combined.base
    assert post.combined == dp_posterior(spec.combined, data)
    for base in post.clique_bases:
        marginal = marginalize(combined, base.space.variables)
        idx = [marginal.space.index(v) for v in base.space.variables]
        keyed = {tuple(x[i] for i in idx): w for x, w in marginal.mass.items()}
        assert _sup_gap(keyed, base.mass) <= 1e-12
    fold = reaudited_hdp_posterior(spec, data).combined.base
    assert _sup_gap(combined.mass, fold.mass) <= 1e-12


def test_posterior_checks_each_distinct_row_once_and_audits_nothing_again(monkeypatch):
    graph, bases = _copy_flip_chain(15)
    spec = build_hdp(graph, bases, nu=4.0)
    data = [x for _ in range(50) for x in spec.combined.base.mass]

    def refuse(*args, **kwargs):
        raise AssertionError("the posterior was audited again")

    for name in ("combine_clique_bases", "is_consistent", "markov_combination", "is_markov"):
        for module in (hdp, algebra):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    as_tuple = ProductSpace.as_tuple
    calls = []

    def counted(self, assignment):
        calls.append(assignment)
        return as_tuple(self, assignment)

    monkeypatch.setattr(ProductSpace, "as_tuple", counted)
    post = hdp_posterior(spec, data)
    assert len(data) == 200 and calls == list(spec.combined.base.mass)
    assert post.nu == 204.0 and len(post.clique_bases) == 14


def test_posterior_clique_cells_keep_the_first_row_that_reaches_them(path_graph):
    # J and K are 0 on the prior's support, so the rows add the clique cell
    # J = K = 1, first as True (the first row) and then as 1 (the second)
    first = DiscreteMeasure(
        ProductSpace.from_domains(("I", "J"), {"I": (0, 1), "J": (0, 1)}),
        {(0, 0): 0.5, (1, 0): 0.5},
    )
    second = DiscreteMeasure(
        ProductSpace.from_domains(("J", "K"), {"J": (0, 1), "K": (0, 1)}), {(0, 0): 1.0}
    )
    spec = build_hdp(path_graph, [first, second], nu=2.0)
    data = [(0, True, True), (1, 1, 1)]
    post = hdp_posterior(spec, data)
    assert repr(list(post.clique_bases[1].mass)) == "[(0, 0), (True, True)]"
    assert post.clique_bases[1].mass[1, 1] == 2.0 / 4.0
    assert _posterior_outcome(hdp_posterior, spec, data) == _posterior_outcome(
        reaudited_hdp_posterior, spec, data
    )


@pytest.mark.parametrize("rows", [0, 3], ids=["prior", "posterior"])
def test_clique_marginals_of_draws_have_the_dirichlet_moments(path_spec, rows):
    # A draw's marginal on a clique C is DP(nu, g_C) (the source paper;
    # Dawid & Lauritzen 1993), so theta_C(A) is Beta(nu g_C(A), nu (1 - g_C(A))):
    # mean g_C(A), variance g_C(A) (1 - g_C(A)) / (nu + 1).  A posterior on n
    # rows is again such a prior, of precision nu + n, on the updated bases.
    # Bands are 4 sigma of the sample mean and of the sample variance over
    # 1200 draws: 0.022-0.026 and 0.0063 for the prior (nu = 4), 0.018-0.020
    # and 0.0040-0.0042 for the posterior (nu = 7).
    data = [(0, 0, 0), (0, 1, 1), (1, 1, 1)][:rows]
    spec = hdp_posterior(path_spec, data)
    assert spec.nu == path_spec.nu + rows
    assert spec.combined.base == looped_dp_posterior(path_spec.combined, data).base
    reps, cfg = 1200, SamplerConfig(seed=19)
    draws = [sample_hdp(spec, cfg, r) for r in range(reps)]
    space = spec.combined.base.space
    for base, cell in zip(spec.clique_bases, [(0, 1), (1, 1)]):
        at, g = space.projector(base.space.variables), base.mass[cell]
        mean, var, mu4 = beta_moments(spec.nu * g, spec.nu * (1.0 - g))
        assert math.isclose(mean, g) and math.isclose(var, g * (1.0 - g) / (spec.nu + 1.0))
        vals = [sum(w for x, w in zip(t.atoms, t.weights) if at(x) == cell) for t in draws]
        sample_mean = math.fsum(vals) / reps
        sample_var = math.fsum((v - sample_mean) ** 2 for v in vals) / reps
        assert abs(sample_mean - mean) < 4 * math.sqrt(var / reps)
        assert abs(sample_var - var) < 4 * math.sqrt((mu4 - var * var) / reps)


def test_posterior_of_a_zero_tolerance_spec_takes_rows_on_its_support(
    path_graph, space_ij, space_jk
):
    # the updated overlap laws of these thirds round apart, so a second
    # audit at tol = 0 called the posterior bases inconsistent
    first = DiscreteMeasure(space_ij, {(0, 0): 1 / 3, (0, 1): 1 / 3, (1, 0): 1 / 3})
    second = DiscreteMeasure(space_jk, {(0, 0): 2 / 3, (1, 0): 1 / 3})
    spec = build_hdp(path_graph, [first, second], 1.0, tol=0.0)
    with pytest.raises(Inconsistent):
        reaudited_hdp_posterior(spec, [(0, 0, 0)], tol=0.0)
    post = hdp_posterior(spec, [(0, 0, 0)])
    assert post.nu == 2.0
    assert post.clique_bases[0].mass == {(0, 0): 2 / 3, (0, 1): 1 / 6, (1, 0): 1 / 6}
