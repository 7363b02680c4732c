"""Exact algebra of measures: marginals, conditionals, the consistency
check, the Markov combination and the factorization check.

Cells are grouped in one place, ``_group`` (split a ``{key: mass}``
dict by two projections of its keys; ``_grouped`` takes them by
variable and sums each group), and glued in one place, ``_glue`` (extend each cell by a
conditional law given the overlap).  Marginals, conditionals, overlap
laws, the Markov combination, the join of clique bases in ``hdp``,
every union-cell strategy of ``reconcile`` and the degeneracy check of
``hdp`` are built from these two loops.  ``is_markov`` reads its clique tables from ``_group`` but
joins them as a list of keys: that join carries no masses, and it can
be far larger than the support.
"""

from __future__ import annotations

import math

from ._record import record
from .errors import DomainMismatch, Inconsistent, ZeroConditional, ZeroMass
from .measures import (
    CONSISTENCY_TOL,
    DiscreteMeasure,
    ProductSpace,
    _ordered_measure,
    _projector,
    normalize,
)


def _grouped(m, key_vars, rest_vars):
    """``_group`` on the cells of ``m``, projected on ``key_vars`` and
    ``rest_vars``, and ``totals``, the ``fsum`` of each group's masses."""
    groups = _group(m.mass, m.space.projector(key_vars), m.space.projector(rest_vars))
    return groups, {c: math.fsum(w for _, w in g) for c, g in groups.items()}


def _group(cells, key, rest):
    """Split ``cells``, a ``{key: mass}`` dict, by the projections ``key`` of
    their keys: each value (in order of first appearance) maps to its cells'
    ``(rest(x), mass)`` pairs, in ``cells``' order.  It takes no totals, as
    some callers read none."""
    groups = {}
    for x, w in cells.items():
        groups.setdefault(key(x), []).append((rest(x), w))
    return groups


def _glue(cells, at, grouped, arrange, mass=None):
    """Extend each of ``cells``, a ``{key: mass}`` dict, by a conditional law.

    ``at`` projects a key on the overlap and ``grouped`` is another
    measure's ``_grouped`` table keyed by the overlap.  The first cell
    whose overlap value is ``c`` turns ``c``'s group, of total ``d``,
    into rows ``(b, wo, wo / d)``, which every later cell of ``c``
    reuses.  A cell ``x`` of mass ``w`` gives ``arrange(x + b)`` the
    mass ``w * (wo / d)`` for each row, or, if ``mass`` is given, the
    row's entry of the list ``mass(c, w, rows)``, called once per cell.
    Cells whose overlap value has no group are skipped.
    """
    groups, totals = grouped
    rows_at, glued = {}, {}
    for x, w in cells.items():
        c = at(x)
        rows = rows_at.get(c)
        if rows is None:
            d = totals.get(c, 0.0)
            rows = rows_at[c] = [(b, wo, wo / d) for b, wo in groups[c]] if d > 0.0 else []
        if mass is None:
            for b, _, q in rows:
                glued[arrange(x + b)] = w * q
        elif rows:
            for (b, _, _), v in zip(rows, mass(c, w, rows)):
                glued[arrange(x + b)] = v
    return glued


def marginalize(m, keep):
    """Sum out every variable not in ``keep``; total mass is preserved."""
    sub = m.space.subspace(keep)
    _, totals = _grouped(m, sub.variables, ())
    return DiscreteMeasure(sub, totals)


def condition(m, given):
    """Probability measure on the remaining variables given a partial assignment."""
    given = dict(given)
    for var, val in given.items():
        if val not in m.space.domain(var):
            raise ValueError(f"value {val!r} is not in the domain of {var!r}")
    sub = m.space.subspace(v for v in m.space.variables if v not in given)
    groups = _group(m.mass, m.space.projector(tuple(given)), m.space.projector(sub.variables))
    cells = groups.get(tuple(given.values()))
    if cells is None:
        raise ZeroConditional(f"conditioning event {given!r} has zero mass")
    return normalize(DiscreteMeasure(sub, dict(cells)))


@record
class ConsistencyReport:
    """Outcome of the two agreement conditions between two measures."""

    overlap: tuple
    proportional_marginals: bool
    equal_total_mass: bool
    marginal_gap: float
    mass_gap: float

    @property
    def consistent(self):
        return self.proportional_marginals and self.equal_total_mass

    def as_dict(self):
        """The report as JSON values; a gap that is not finite becomes None."""
        gaps = {"marginal_gap": self.marginal_gap, "mass_gap": self.mass_gap}
        return {
            "overlap": list(self.overlap),
            "proportional_marginals": self.proportional_marginals,
            "equal_total_mass": self.equal_total_mass,
            "consistent": self.consistent,
            **{name: gap if math.isfinite(gap) else None for name, gap in gaps.items()},
        }


def _overlap_law(m, overlap, total):
    """Normalized marginal of ``m`` on ``overlap``, keyed in ``overlap``'s order.

    ``total`` is ``m.total``, which the caller has at hand.  Keys come in
    the order in which ``m``'s support first reaches them.  Each value
    sums ``normalize``'s per-cell quotients, bit for bit.
    """
    return _law(m.mass, m.space.projector(overlap), total)


def _law(cells, at, total):
    """``_overlap_law`` of the ``{key: mass}`` dict ``cells`` of total mass
    ``total``, whose keys ``at`` projects on the overlap."""
    if total <= 0.0:
        raise ZeroMass("cannot normalize a measure with zero total mass")
    groups = _group(cells, at, _projector(()))
    return {c: math.fsum(w / total for _, w in g) for c, g in groups.items()}


def _sup_gap(a, b):
    keys = a.keys() | b.keys()
    return max((abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys), default=0.0)


def _check_tol(tol):
    """Reject a tolerance that would make a check pass or fail regardless."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ValueError(f"tol must be finite and nonnegative, got {tol!r}")


def is_consistent(mu, lam, tol=CONSISTENCY_TOL):
    """Check proportional overlap marginals and equal total masses.

    The first condition compares the normalized overlap marginals in sup
    norm; the second compares total masses relative to the larger one.
    ``tol`` must be finite and nonnegative.
    """
    _check_tol(tol)
    overlap = _overlap(mu.space, lam.space)
    tm, tl = mu.total, lam.total
    return _consistency(
        overlap, tm, tl, lambda: (_overlap_law(mu, overlap, tm), _overlap_law(lam, overlap, tl)),
        tol,
    )


def _overlap(mu, lam):
    """The variables of space ``mu`` that space ``lam`` shares, in ``mu``'s order;
    a shared variable with two domains raises."""
    lam_vars = set(lam.variables)
    overlap = tuple(v for v in mu.variables if v in lam_vars)
    for v in overlap:
        if mu.domain(v) != lam.domain(v):
            raise DomainMismatch(f"overlap variable {v!r} has mismatched domains")
    return overlap


def _consistency(overlap, tm, tl, laws, tol):
    """The report of two measures of totals ``tm`` and ``tl``; ``laws()`` gives
    their overlap laws, and is called only when both totals are positive."""
    mass_gap = abs(tm - tl)
    equal_mass = mass_gap <= tol * max(tm, tl)
    if tm > 0.0 and tl > 0.0:
        marginal_gap = _sup_gap(*laws())
        proportional = marginal_gap <= tol
    else:
        # a zero measure is proportional only to another zero measure
        proportional = tm == 0.0 and tl == 0.0
        marginal_gap = 0.0 if proportional else math.inf
    return ConsistencyReport(overlap, proportional, equal_mass, marginal_gap, mass_gap)


def _union_space(mu, lam):
    mu_vars = mu.space.variables
    extra = tuple(v for v in lam.space.variables if v not in set(mu_vars))
    domains = tuple(mu.space.domains) + tuple(lam.space.domain(v) for v in extra)
    return ProductSpace(mu_vars + extra, domains), extra


def markov_combination(mu, lam, tol=CONSISTENCY_TOL):
    """The unique measure on the union space gluing two consistent measures.

    The result marginalizes back to each input and makes the two
    non-shared blocks independent given the overlap.  Overlap values the
    second measure never touches contribute nothing (the usual null-set
    convention for conditionals).
    """
    report = is_consistent(mu, lam, tol)
    if not report.consistent:
        failing = (
            "overlap marginals are not proportional (condition 1)"
            if not report.proportional_marginals
            else "total masses differ (condition 2)"
        )
        raise Inconsistent(f"measures cannot be combined: {failing}", report)
    union, extra = _union_space(mu, lam)
    at = mu.space.projector(report.overlap)
    return _ordered_measure(union, _glue(mu.mass, at, _grouped(lam, report.overlap, extra), tuple))


def is_markov(theta, decomp, tol=CONSISTENCY_TOL):
    """Does the measure factorize over the decomposition's cliques?

    Checks that the product of clique marginals equals the measure times
    the product of separator marginals, up to ``tol`` in absolute terms,
    at every full assignment.  Only assignments whose projection on each
    clique carries clique-marginal mass are visited: they are built by
    joining the clique supports along the perfect ordering, extending
    each row by the residual values the next clique allows for the row's
    separator value.  Anywhere else some clique factor is zero, so both
    sides are zero (a point of the measure's support projects into every
    clique support), and the check cannot fail there for any ``tol``.
    The cost is thus bounded by the joined supports, not the product
    space, and the verdict is the one of the full walk.
    """
    _check_tol(tol)
    if set(theta.space.variables) != set(decomp.vertices):
        raise DomainMismatch(
            "measure variables do not match the decomposition's vertex set"
        )
    if not theta.is_probability():
        raise ValueError("a probability measure is required")

    def within(names, sub):
        return _projector(tuple(map(names.index, sub)))

    # tables are keyed in the decomposition's own variable order
    clique_at = list(map(theta.space.projector, decomp.cliques))
    sep_at = list(map(theta.space.projector, decomp.separators))
    clique_mass = [_grouped(theta, c, ())[1] for c in decomp.cliques]
    sep_mass = [_grouped(theta, s, ())[1] for s in decomp.separators]
    # rows hold values of the variables in ``order``, the history so far
    order = decomp.cliques[0]
    rows = list(clique_mass[0])
    steps = zip(decomp.separators, decomp.residuals, decomp.cliques[1:], clique_mass[1:])
    for sep, res, clique, mass in steps:
        allowed = _group(mass, within(clique, sep), within(clique, res))
        at = within(order, sep)
        rows = [row + r for row in rows for r, _ in allowed.get(at(row), ())]
        order += res
    back = within(order, theta.space.variables)
    for row in rows:
        x = back(row)
        lhs = theta.mass.get(x, 0.0)
        for at, mass in zip(sep_at, sep_mass):
            lhs *= mass.get(at(x), 0.0)
        rhs = 1.0
        for at, mass in zip(clique_at, clique_mass):
            rhs *= mass.get(at(x), 0.0)
        if abs(lhs - rhs) > tol:
            return False
    return True
