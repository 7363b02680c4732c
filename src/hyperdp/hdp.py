"""Graph-structured Dirichlet process priors.

A prior here is a plain Dirichlet process whose base measure is the
combination of per-clique bases along a perfect ordering.  ``audit_hdp``
is the one place that checks what makes the clique marginals of a draw
behave like coupled Dirichlet processes: a decomposable connected
graph, pairwise consistency, a fold that keeps the bases' mass,
factorization of the combined base, and degeneracy of every
clique-given-separator conditional.  ``build_hdp`` raises the audit's
failure; ``hyperdp diagnose`` prints its report; ``hdp_posterior`` reruns
only its degeneracy stage, on the conjugate update of the combined base.
"""

from __future__ import annotations

import functools

from ._record import record
from .algebra import (
    _check_tol,
    _grouped,
    combine_clique_bases,
    is_markov,
    marginalize,
    markov_combination,
)
from .dp import ContinuousBase, DPParams, _coerce_data, _posterior
from .errors import (
    Inconsistent,
    NotConnected,
    NotDecomposable,
    NotMarkov,
    ObservationViolatesSupport,
    RefinementViolated,
)
from .graphs import perfect_ordering
from .measures import CONSISTENCY_TOL

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
    point.  A declared continuous base with almost-surely distinct atoms
    passes outright, since equal separator draws then never happen.
    """
    _check_tol(tol)
    separator = tuple(separator)
    clique = tuple(clique)
    if isinstance(base, ContinuousBase):
        if not base.atoms_distinct:
            raise ValueError(
                "cannot audit a continuous base that does not declare distinct atoms"
            )
        return RefinementReport(
            (SeparatorCheck(separator, clique, True, None, None),)
        )
    if not set(separator) <= set(clique):
        raise ValueError("the separator must be a subset of the clique")
    clique_m = marginalize(base, clique)
    sep_space = clique_m.space.subspace(separator)
    groups, totals = _grouped(clique_m, sep_space.variables, clique_m.space.variables)
    witness = None
    conditional = None
    passed = True
    for key in sorted(groups, key=sep_space.sort_key):
        entries = groups[key]
        total = totals[key]
        top = max(w for _, w in entries)
        if top < (1.0 - tol) * total:
            passed = False
            witness = dict(zip(sep_space.variables, key))
            conditional = {
                repr(x): w / total for x, w in entries
            }
            break
    return RefinementReport(
        (SeparatorCheck(separator, clique, passed, witness, conditional),)
    )


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


def audit_hdp(graph, clique_bases, tol=CONSISTENCY_TOL, strict=False):
    """Check a spec stage by stage: the graph, every pair of clique bases
    (a sequence in perfect order) for consistency, the mass of their
    fold, factorization of the combined base, and degeneracy of each
    clique (and, when ``strict``, each running-history block) given its
    separator.  A failed graph, consistency or fold stage ends the audit.

    A malformed spec (wrong base count, a base that is not discrete, not
    on its clique, or not a probability measure) raises instead.
    """
    _check_tol(tol)
    try:
        decomp = perfect_ordering(graph)
    except (NotDecomposable, NotConnected) as exc:
        return HDPAudit(({"name": "graph", "passed": False, "detail": str(exc)},), failure=exc)
    checks = [{"name": "graph", "passed": True}]
    pairs, combined, failure = combine_clique_bases(decomp, clique_bases, tol)
    # only now is every base known to be a DiscreteMeasure
    for k, base in enumerate(clique_bases, start=1):
        if not base.is_probability():
            raise ValueError(f"clique base {k} is not a probability measure")
    checks += [
        {
            "name": f"consistency of clique bases {i + 1} and {j + 1}",
            "passed": report.consistent,
            "marginal_gap": report.marginal_gap,
            "mass_gap": report.mass_gap,
        }
        for i, j, report in pairs
    ]
    if combined is not None and (failure is not None or not combined.is_probability()):
        # every pair passed, but their gaps added up along the fold
        report = failure.report if failure else None
        if report is None or not report.equal_total_mass:
            kept, change = "their mass", f"lost {1.0 - combined.total:.3e} of mass"
        else:
            kept = "their overlap marginals proportional"
            change = f"drifted their overlap marginals {report.marginal_gap:.3e} apart"
        detail = f"folding the clique bases {change}, although every pair of them is consistent"
        checks.append(
            {"name": f"fold of the clique bases keeps {kept}", "passed": False, "detail": detail}
        )
        failure = Inconsistent(detail, report)
    if failure is not None:
        return HDPAudit(tuple(checks), decomp, failure=failure)
    factorizes = is_markov(combined, decomp, tol)
    checks.append({"name": "combined base factorizes over the cliques", "passed": factorizes})
    blocks, report, failure = _degeneracy(combined, decomp, strict)
    for (kind, _, _), c in zip(blocks, report.checks):
        entry = {
            "name": f"degenerate completion of {kind} {list(c.clique)} given separator "
            f"{list(c.separator)}",
            "passed": c.passed,
        }
        if not c.passed:
            entry["witness"] = c.witness
            entry["conditional"] = c.conditional
        checks.append(entry)
    if failure is None and not factorizes:
        failure = NotMarkov("internal error: the combined base does not factorize")
    return HDPAudit(tuple(checks), decomp, combined, failure)


def _degeneracy(combined, decomp, strict=False):
    """The degeneracy stage of ``audit_hdp``: the (kind, separator, block)
    triples it checks, their RefinementReport, and its failure or None."""
    blocks = [
        (kind, sep, block)
        for sep, clique, history in zip(decomp.separators, decomp.cliques[1:], decomp.histories)
        for kind, block in (("clique", clique), ("history", history))[: 2 if strict else 1]
    ]
    report = RefinementReport(
        tuple(check_refinement(combined, sep, block).checks[0] for _, sep, block in blocks)
    )
    failure = None
    if not report.passed:
        w = report.first_witness()
        failure = RefinementViolated(
            f"a separator value admits multiple completions (witness {w!r})",
            report,
        )
    return blocks, report, failure


def build_hdp(graph, clique_bases, nu, tol=CONSISTENCY_TOL, strict=False):
    """Validate clique bases against a graph and fuse them into one prior.

    Raises the failure ``audit_hdp`` reports: NotDecomposable /
    NotConnected for an unusable graph, Inconsistent when clique bases
    disagree, and RefinementViolated when some separator value admits two
    clique completions.  ``strict`` also audits each running-history
    block against its separator.
    """
    bases = tuple(clique_bases)
    audit = audit_hdp(graph, bases, tol, strict)
    if audit.failure is not None:
        raise audit.failure
    return HDPSpec(
        graph=graph,
        decomposition=audit.decomposition,
        clique_bases=bases,
        nu=float(nu),
        combined=DPParams(nu, audit.combined),
    )


def sample_hdp(spec, cfg, replicate=0):
    """One draw from the prior; same truncation contract as ``sample_dp``."""
    from .stick import sample_dp  # here, so that commands that draw nothing skip the sampler

    return sample_dp(spec.combined, cfg, replicate)


def verify_sample_markov(theta, decomp, tol=CONSISTENCY_TOL):
    """Aggregate a draw's atoms and test the clique factorization."""
    from .stick import atoms_to_measure

    return is_markov(atoms_to_measure(theta), decomp, tol)


def verify_sample_refinement(theta, separator, clique):
    """Do atoms that share a separator value share the whole clique value?

    Then the separator values and the clique values group the weights
    into the same masses, which is the degeneracy condition on a draw.
    """
    if theta.space is None:
        raise TypeError("only draws from a discrete base can be audited")
    separator = tuple(separator)
    clique = tuple(clique)
    if not set(separator) <= set(clique):
        raise ValueError("the separator must be a subset of the clique")
    s_at, c_at = theta.space.projector(separator), theta.space.projector(clique)
    completion = {}
    for atom in theta.atoms:
        c = c_at(atom)
        if completion.setdefault(s_at(atom), c) != c:
            return False
    return True


def hdp_posterior(spec, data):
    """Conjugate update: the combined base absorbs one unit of mass per
    observation, each clique base the observations' projections.  The
    posterior is again such a prior (Ferguson 1973), so only degeneracy is
    checked again: a row that gives a separator value a second completion
    raises ObservationViolatesSupport.
    """
    space = spec.combined.base.space
    obs = _coerce_data(space, data)
    if not obs:
        return spec
    bases = []
    for base in spec.clique_bases:
        projected = list(map(space.projector(base.space.variables), obs))
        bases.append(_posterior(DPParams(spec.nu, base), projected).base)
    combined = _posterior(spec.combined, obs)
    _, _, failure = _degeneracy(combined.base, spec.decomposition)
    if failure is not None:
        # the fold of the clique bases names the witness by their own
        # values: 1, True and 1.0 are equal but print differently
        fold = functools.reduce(markov_combination, bases)
        failure = _degeneracy(fold, spec.decomposition)[2] or failure
        raise ObservationViolatesSupport(
            f"observations contradict the degeneracy structure of the base ({failure})",
            failure.report,
        )
    return HDPSpec(spec.graph, spec.decomposition, tuple(bases), combined.nu, combined)
