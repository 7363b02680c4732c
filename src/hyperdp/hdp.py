"""Graph-structured Dirichlet process priors.

A prior here is a plain Dirichlet process whose base measure is the
combination of per-clique bases along a perfect ordering.  ``audit_hdp``
is the one place that checks what makes the clique marginals of a draw
behave like coupled Dirichlet processes: a decomposable connected
graph, pairwise consistency, a join of the bases that keeps their
mass, factorization of the combined base, and degeneracy of every
clique-given-separator conditional.  ``build_hdp`` raises the audit's
failure; ``hyperdp diagnose`` prints its report; ``hdp_posterior`` reruns
only its degeneracy stage, on the conjugate update of the combined base
from one count table of the distinct rows.
"""

from __future__ import annotations

import functools
import itertools
import math

from ._record import record
from .algebra import (
    _check_tol,
    _consistency,
    _glue,
    _grouped,
    _law,
    _overlap,
    _overlap_law,
    is_markov,
    marginalize,
)
from .dp import ContinuousBase, DPParams, _counted, _posterior, _tally
from .errors import (
    DomainMismatch,
    Inconsistent,
    NotConnected,
    NotDecomposable,
    NotMarkov,
    ObservationViolatesSupport,
    RefinementViolated,
)
from .graphs import perfect_ordering
from .measures import CONSISTENCY_TOL, DiscreteMeasure, ProductSpace, _ordered_measure, _projector

DEGENERACY_TOL = 1e-12


@record
class SeparatorCheck:
    """Degeneracy verdict for one (separator, clique) pair."""

    separator: tuple
    clique: tuple
    passed: bool
    witness: dict | None = None
    conditional: dict | None = None


@record
class RefinementReport:
    """Per-separator verdicts; failing entries carry a witness value."""

    checks: tuple

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def first_witness(self):
        for c in self.checks:
            if not c.passed:
                return c.witness
        return None


@record
class HDPSpec:
    """A validated prior: graph, ordering, clique bases, precision.

    ``combined`` holds the equivalent single-process parameters; it is
    derived, never supplied.
    """

    graph: object
    decomposition: object
    clique_bases: tuple
    nu: float
    combined: DPParams


def check_refinement(base, separator, clique, tol=DEGENERACY_TOL):
    """Is each clique value pinned down by its separator value?

    For every separator assignment with positive mass, the conditional
    law of the clique must put all its mass (within ``tol``) on a single
    point.  A continuous base passes outright: it is nonatomic, so its
    draws are almost surely distinct and equal separator draws never happen.
    """
    _check_tol(tol)
    separator, clique = tuple(separator), tuple(clique)
    if isinstance(base, ContinuousBase):
        return RefinementReport((SeparatorCheck(separator, clique, True),))
    if not set(separator) <= set(clique):
        raise ValueError("the separator must be a subset of the clique")
    clique_m = marginalize(base, clique)
    sep_space = clique_m.space.subspace(separator)
    groups, totals = _grouped(clique_m, sep_space.variables, clique_m.space.variables)
    for key in sorted(groups, key=sep_space.sort_key):
        entries, total = groups[key], totals[key]
        if max(w for _, w in entries) < (1.0 - tol) * total:
            witness = dict(zip(sep_space.variables, key))
            check = SeparatorCheck(
                separator, clique, False, witness, {repr(x): w / total for x, w in entries}
            )
            return RefinementReport((check,))
    return RefinementReport((SeparatorCheck(separator, clique, True),))


@record
class HDPAudit:
    """Verdicts of every check ``build_hdp`` makes, in the order made.

    ``checks`` holds one JSON-ready dict per check, each with a ``name``
    and a ``passed`` flag.  ``failure`` is the exception ``build_hdp``
    raises for the spec, or None when every check passed.
    """

    checks: tuple
    decomposition: object = None
    combined: object = None
    failure: Exception | None = None


def combine_clique_bases(decomp, bases, tol=CONSISTENCY_TOL):
    """Check clique bases pairwise and join them along a perfect ordering.

    Raises unless there is one discrete base per clique, on exactly its
    clique, and one domain per shared variable.  Returns ``(pairs, combined,
    failure)``: ``pairs`` yields an ``(i, j, report)`` triple per pair of
    bases, lexicographically, as it is read; ``failure`` is the error of the
    first failing pair, and then ``combined`` is None.  Pair gaps within
    ``tol`` can add up along the join, so each step is checked too: at the
    first that fails, ``failure`` is its error and ``combined`` the join so far.
    """
    if len(bases) != len(decomp.cliques):
        raise ValueError(f"{len(decomp.cliques)} cliques but {len(bases)} base measures")
    holders = {}  # variable -> the positions of the bases on it, in order
    for k, (clique, base) in enumerate(zip(decomp.cliques, bases)):
        if not isinstance(base, DiscreteMeasure):
            raise TypeError("clique bases must be discrete measures")
        if set(base.space.variables) != set(clique):
            raise DomainMismatch(f"base {k + 1} is not defined on exactly the clique {clique!r}")
        for v in clique:
            holders.setdefault(v, []).append(k)
    totals, laws = [base.total for base in bases], {}  # (base, overlap) -> law, built once

    def law(k, overlap):
        if (k, overlap) not in laws:
            laws[k, overlap] = _overlap_law(bases[k], overlap, totals[k])
        return laws[k, overlap]

    def report(i, j):
        overlap = _overlap(bases[i].space, bases[j].space)
        return _consistency(
            overlap, totals[i], totals[j], lambda: (law(i, overlap), law(j, overlap)), tol
        )

    def pairs():
        for i, j in itertools.combinations(range(len(bases)), 2):
            yield linked.get((i, j)) or (i, j, report(i, j))

    shared = {p for ks in holders.values() for p in itertools.combinations(ks, 2)}
    linked = {p: (*p, report(*p)) for p in sorted(shared)}
    # The pairs sharing no variable pass if the extreme totals pass the mass bound at
    # the smaller (at the larger, a pair nearer to them can fail by rounding) and the
    # laws of the empty overlap spread within tol; else every pair is checked in turn.
    low, high = min(totals), max(totals)
    spread = [math.fsum(w / t for w in b.mass.values()) for b, t in zip(bases, totals)]
    scanned = high - low <= tol * low and max(spread) - min(spread) <= tol
    for i, j, r in linked.values() if scanned else pairs():
        if not r.consistent:
            failure = Inconsistent(
                f"clique bases {i + 1} and {j + 1} are not consistent", r, (i + 1, j + 1)
            )
            return pairs(), None, failure
    cells, failure = bases[0].mass, None
    position = {v: p for p, v in enumerate(bases[0].space.variables)}
    domains = list(bases[0].space.domains)
    for k in range(1, len(bases)):
        space = bases[k].space
        overlap = tuple(sorted((v for v in space.variables if v in position), key=position.get))
        at, tm = _projector(tuple(map(position.get, overlap))), math.fsum(cells.values())
        step = _consistency(
            overlap, tm, totals[k], lambda: (_law(cells, at, tm), law(k, overlap)), tol
        )
        if not step.consistent:
            failure = Inconsistent("the join of the clique bases drifted from the next one", step)
            break
        extra = tuple(v for v in space.variables if v not in position)
        cells = _glue(cells, at, _grouped(bases[k], overlap, extra), tuple)
        for v in extra:
            position[v] = len(position)
            domains.append(space.domain(v))
    if cells is bases[0].mass:
        return pairs(), bases[0], failure
    return pairs(), _ordered_measure(ProductSpace(tuple(position), tuple(domains)), cells), failure


def audit_hdp(graph, clique_bases, tol=CONSISTENCY_TOL):
    """Check a spec stage by stage: the graph, every pair of clique bases
    (a sequence in perfect order) for consistency, the mass of their
    fold, factorization of the combined base, and degeneracy of each
    clique given its separator.  A failed graph, consistency or fold
    stage ends the audit.

    A malformed spec (wrong base count, a base that is not discrete, not
    on its clique, or not a probability measure) raises instead.
    """
    checks, decomp, combined, failure = _audit(graph, clique_bases, tol)
    return HDPAudit(tuple(checks), decomp, combined, failure)


def _audit(graph, clique_bases, tol):
    """The fields of ``audit_hdp``'s record, with the checks as an iterator:
    a pair's entry is made only when it is read, and ``build_hdp`` reads none."""
    _check_tol(tol)
    try:
        decomp = perfect_ordering(graph)
    except (NotDecomposable, NotConnected) as exc:
        return [{"name": "graph", "passed": False, "detail": str(exc)}], None, None, exc
    pairs, combined, failure = combine_clique_bases(decomp, clique_bases, tol)
    # only now is every base known to be a DiscreteMeasure
    for k, base in enumerate(clique_bases, start=1):
        if not base.is_probability():
            raise ValueError(f"clique base {k} is not a probability measure")
    paired = (
        {
            "name": f"consistency of clique bases {i + 1} and {j + 1}",
            "passed": report.consistent,
            "marginal_gap": report.marginal_gap,
            "mass_gap": report.mass_gap,
        }
        for i, j, report in pairs
    )
    later = []  # the entries after the pairs'
    checks = itertools.chain([{"name": "graph", "passed": True}], paired, later)
    if combined is not None and (failure is not None or not combined.is_probability()):
        # every pair passed, but their gaps added up along the fold
        report = failure.report if failure else None
        if report is None or not report.equal_total_mass:
            kept, change = "their mass", f"lost {1.0 - combined.total:.3e} of mass"
        else:
            kept = "their overlap marginals proportional"
            change = f"drifted their overlap marginals {report.marginal_gap:.3e} apart"
        detail = f"folding the clique bases {change}, although every pair of them is consistent"
        later.append(
            {"name": f"fold of the clique bases keeps {kept}", "passed": False, "detail": detail}
        )
        failure = Inconsistent(detail, report)
    if failure is not None:
        return checks, decomp, None, failure
    factorizes = is_markov(combined, decomp, tol)
    later.append({"name": "combined base factorizes over the cliques", "passed": factorizes})
    report, failure = _degeneracy(combined, decomp, clique_bases)
    for c in report.checks:
        entry = {
            "name": f"degenerate completion of clique {list(c.clique)} given separator "
            f"{list(c.separator)}",
            "passed": c.passed,
        }
        if not c.passed:
            entry["witness"] = c.witness
            entry["conditional"] = c.conditional
        later.append(entry)
    if failure is None and not factorizes:
        failure = NotMarkov("internal error: the combined base does not factorize")
    return checks, decomp, combined, failure


def _degeneracy(combined, decomp, bases):
    """The degeneracy stage of ``audit_hdp``: the RefinementReport of each
    clique given its separator, and its failure or None.  A clique passes
    without ``check_refinement`` grouping ``combined`` when its base in
    ``bases``, if given, has cells that hold the support of ``combined``
    projected on the clique and pin each separator value."""
    checks = []
    for t, (sep, clique) in enumerate(zip(decomp.separators, decomp.cliques[1:]), start=1):
        cells = bases[t].mass if bases else ()
        if cells and len(set(map(bases[t].space.projector(sep), cells))) == len(cells):
            checks.append(SeparatorCheck(sep, clique, True))
        else:
            checks.append(check_refinement(combined, sep, clique).checks[0])
    report = RefinementReport(tuple(checks))
    if report.passed:
        return report, None
    w = report.first_witness()
    message = f"a separator value admits multiple completions (witness {w!r})"
    return report, RefinementViolated(message, report)


def build_hdp(graph, clique_bases, nu, tol=CONSISTENCY_TOL):
    """Validate clique bases against a graph and fuse them into one prior.

    Raises the failure ``audit_hdp`` reports: NotDecomposable /
    NotConnected for an unusable graph, Inconsistent when clique bases
    disagree, and RefinementViolated when some separator value admits two
    clique completions.
    """
    bases = tuple(clique_bases)
    _, decomp, combined, failure = _audit(graph, bases, tol)
    if failure is not None:
        raise failure
    return HDPSpec(
        graph=graph,
        decomposition=decomp,
        clique_bases=bases,
        nu=float(nu),
        combined=DPParams(nu, combined),
    )


def hdp_posterior(spec, data):
    """Conjugate update: the combined base absorbs one unit of mass per
    observation, each clique base the observations' projections, from one
    table of the distinct rows and their counts.  The posterior is again
    such a prior (Ferguson 1973), so only degeneracy is checked again, on
    the posterior clique bases, whose cells are the prior's and the rows'
    clique values: a row that gives a separator value a second completion
    raises ObservationViolatesSupport.  If the update rounds a prior cell's
    mass to 0.0, which may leave it in the combined base, every clique is
    checked on the combined base.
    """
    space = spec.combined.base.space
    counts = _counted(space, data)
    if not counts:
        return spec
    projected = [_tally(counts, space.projector(b.space.variables)) for b in spec.clique_bases]
    bases = tuple(map(functools.partial(_posterior, spec.nu), spec.clique_bases, projected))
    nu, base = spec.combined.nu, spec.combined.base
    combined = DPParams(nu + sum(counts.values()), _posterior(nu, base, counts))
    kept = all(b.mass.keys() >= p.mass.keys() for b, p in zip(bases, spec.clique_bases))
    _, failure = _degeneracy(combined.base, spec.decomposition, bases if kept else None)
    if failure is not None:
        # the join names the witness by the bases' own keys (1, True and 1.0
        # are equal but print differently); bases a looser tol built may fail it
        _, joined, unjoined = combine_clique_bases(spec.decomposition, bases)
        if unjoined is None:
            failure = _degeneracy(joined, spec.decomposition, bases)[1] or failure
        raise ObservationViolatesSupport(
            f"observations contradict the degeneracy structure of the base ({failure})",
            failure.report,
        )
    return HDPSpec(spec.graph, spec.decomposition, bases, combined.nu, combined)
