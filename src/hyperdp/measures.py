"""Exact algebra of finite nonnegative measures on finite product spaces.

Measures are sparse: an assignment with zero mass is never stored.
Assignments are tuples aligned with the space's variable order, support
iteration is sorted by per-variable category index, and summation uses
``math.fsum``, so identical inputs give bit-identical outputs.

A measure is built in one columnar pass, ``_checked_cells``: keys,
categories and masses are checked a column at a time, and the cells are
sorted by category index.  The per-cell loop ``_coerced_cells`` runs
only when that pass rejects a cell.

Cells are grouped in one place, ``_group`` (split a ``{key: mass}`` dict
by its keys' values at some positions; ``_grouped`` names them by
variable), and glued in one place, ``_glue`` (extend each cell by a
conditional law given the overlap).  Marginals, conditionals, overlap
laws, the Markov combination, every union-cell strategy of
``reconcile`` and the degeneracy check of ``hdp`` are built from these
two loops.  ``is_markov`` reads its clique tables from ``_group`` but
joins them as a list of keys: that join carries no masses, and it can
be far larger than the support.
"""

from __future__ import annotations

import itertools
import math
import operator

from ._record import record
from .errors import (
    DomainMismatch,
    Inconsistent,
    UnknownVariable,
    ZeroConditional,
    ZeroMass,
)

CONSISTENCY_TOL = 1e-9     # default overlap-marginal / total-mass agreement
PROBABILITY_TOL = 1e-12    # |total - 1| threshold for probability measures


@record
class ProductSpace:
    """Finite product of per-variable category tuples.

    Each domain also gets a ``{category: index}`` map, built once, so a
    membership test or an index lookup is one hash probe rather than a
    scan of the domain.  The maps and their lookups are plain attributes,
    not fields, so equality, hashing and ``repr`` see only the two tuples.
    """

    variables: tuple
    domains: tuple

    def __post_init__(self):
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("variable labels must be distinct")
        if len(self.domains) != len(self.variables):
            raise ValueError("exactly one domain per variable is required")
        maps = []
        for var, dom in zip(self.variables, self.domains):
            if not dom:
                raise ValueError(f"variable {var!r} has an empty domain")
            index = {x: i for i, x in enumerate(dom)}
            if len(index) != len(dom):
                raise ValueError(f"variable {var!r} has duplicate categories")
            maps.append(index)
        object.__setattr__(self, "_category_index", tuple(maps))
        object.__setattr__(self, "_category_rank", tuple(m.__getitem__ for m in maps))

    @classmethod
    def from_domains(cls, variables, domains):
        """Build from an ordered variable list and a mapping to categories."""
        vs = tuple(variables)
        return cls(vs, tuple(tuple(domains[v]) for v in vs))

    def index(self, var):
        try:
            return self.variables.index(var)
        except ValueError:
            raise UnknownVariable(f"unknown variable {var!r}") from None

    def domain(self, var):
        return self.domains[self.index(var)]

    def size(self):
        n = 1
        for dom in self.domains:
            n *= len(dom)
        return n

    def assignments(self):
        """Every full assignment, in category-index order."""
        return itertools.product(*self.domains)

    def subspace(self, keep):
        pos = sorted(set(map(self.index, keep)))  # an error names the first unknown in ``keep``
        vs = tuple(self.variables[i] for i in pos)
        return ProductSpace(vs, tuple(self.domains[i] for i in pos))

    def sort_key(self, assignment):
        return tuple(map(operator.getitem, self._category_index, assignment))

    def as_tuple(self, assignment):
        """Coerce a mapping or aligned sequence to a validated tuple."""
        if isinstance(assignment, dict):
            missing = [v for v in self.variables if v not in assignment]
            if missing:
                raise ValueError(f"assignment missing variables {missing!r}")
            extra = [v for v in assignment if v not in self.variables]
            if extra:
                raise UnknownVariable(f"assignment names unknown variables {extra!r}")
            assignment = tuple(assignment[v] for v in self.variables)
        else:
            assignment = tuple(assignment)
        if len(assignment) != len(self.variables):
            raise ValueError("assignment length does not match the variable count")
        for var, index, val in zip(self.variables, self._category_index, assignment):
            try:
                known = val in index
            except TypeError:  # unhashable, so equal to no category
                known = False
            if not known:
                raise ValueError(f"value {val!r} is not in the domain of {var!r}")
        return assignment


@record
class DiscreteMeasure:
    """Sparse finite measure; construction validates and drops zeros."""

    space: ProductSpace
    mass: dict

    def __post_init__(self):
        cells = _checked_cells(self.space, self.mass)
        if cells is None:
            cells = _checked_cells(self.space, _coerced_cells(self.space, self.mass))
        keys, values, ranks = cells
        if 0.0 in values:
            keep = list(map(bool, values))
            keys = list(itertools.compress(keys, keep))
            values = list(itertools.compress(values, keep))
            ranks = [list(itertools.compress(r, keep)) for r in ranks]
        if len(keys) > 1:
            rank = ranks[0] if len(ranks) == 1 else list(zip(*ranks))
            if rank != sorted(rank):
                order = sorted(range(len(keys)), key=rank.__getitem__)
                keys, values = map(keys.__getitem__, order), map(values.__getitem__, order)
        object.__setattr__(self, "mass", dict(zip(keys, values)))

    @property
    def total(self):
        return math.fsum(self.mass.values())

    def is_probability(self, tol=PROBABILITY_TOL):
        return abs(self.total - 1.0) <= tol

    def mass_at(self, assignment):
        return self.mass.get(self.space.as_tuple(assignment), 0.0)


def _checked_cells(space, mass):
    """``(keys, values, ranks)`` of ``mass`` if every cell is valid, else None.

    Every key must be a tuple of categories, one per variable (``ranks``
    holds their indices, a list per variable), and every value a finite,
    nonnegative float.
    """
    keys = list(mass)
    if not set(map(type, keys)) <= {tuple} or not set(map(len, keys)) <= {len(space.variables)}:
        return None
    try:
        values = list(map(float, mass.values()))
        ranks = list(map(list, map(map, space._category_rank, zip(*keys))))
    except (TypeError, ValueError, ArithmeticError, KeyError):
        return None
    if not all(map(math.isfinite, values)) or (values and min(values) < 0.0):
        return None
    return keys, values, ranks


def _coerced_cells(space, mass):
    """``mass`` checked cell by cell, so that an error names the first bad cell.

    Keys that are not tuples come back as tuples, merged in first-seen
    order, with zeros dropped.
    """
    cleaned = {}
    for assignment, value in mass.items():
        x = space.as_tuple(assignment)
        v = float(value)
        if v < 0.0 or not math.isfinite(v):
            raise ValueError(f"mass at {x!r} must be finite and nonnegative")
        if v > 0.0:
            cleaned[x] = cleaned.get(x, 0.0) + v
    return cleaned


def uniform_measure(space):
    """The probability measure giving every full assignment equal mass."""
    w = 1.0 / space.size()
    return DiscreteMeasure(space, {x: w for x in space.assignments()})


def point_mass(space, assignment):
    return DiscreteMeasure(space, {space.as_tuple(assignment): 1.0})


def scale_measure(m, factor):
    factor = float(factor)
    if factor < 0.0 or not math.isfinite(factor):
        raise ValueError("scale factor must be finite and nonnegative")
    return DiscreteMeasure(m.space, {x: v * factor for x, v in m.mass.items()})


def _grouped(m, key_vars, rest_vars):
    """``_group`` on the cells of ``m``, with the positions of ``key_vars`` and ``rest_vars``."""
    index = m.space.index
    return _group(m.mass, tuple(map(index, key_vars)), tuple(map(index, rest_vars)))


def _group(cells, k_idx, r_idx):
    """Split ``cells``, a ``{key: mass}`` dict, by the keys' values at ``k_idx``.

    Returns ``(groups, totals)``: ``groups`` maps each value (in order of
    first appearance) to its cells' ``(values at r_idx, mass)`` pairs, in
    ``cells``' order; ``totals`` maps it to the ``fsum`` of those masses.
    """
    groups = {}
    for x, w in cells.items():
        c = tuple(x[i] for i in k_idx)
        groups.setdefault(c, []).append((tuple(x[i] for i in r_idx), w))
    totals = {c: math.fsum(w for _, w in g) for c, g in groups.items()}
    return groups, totals


def _glue(cells, at, grouped, arrange, mass=None):
    """Extend each of ``cells``, a ``{key: mass}`` dict, by a conditional law.

    ``at`` holds the overlap's positions in the keys and ``grouped`` is
    another measure's ``_grouped`` table keyed by the overlap.  A cell
    ``x`` of mass ``w`` and a pair ``(b, wo)`` of its overlap value
    ``c``'s group, of total ``d``, give ``arrange(x + b)`` mass
    ``w * (wo / d)``, or ``mass(c, w, wo, d)`` if ``mass`` is given.
    Cells whose overlap value has no group are skipped.
    """
    groups, totals = grouped
    glued = {}
    for x, w in cells.items():
        c = tuple(x[i] for i in at)
        d = totals.get(c, 0.0)
        if d > 0.0:
            for b, wo in groups[c]:
                glued[arrange(x + b)] = w * (wo / d) if mass is None else mass(c, w, wo, d)
    return glued


def marginalize(m, keep):
    """Sum out every variable not in ``keep``; total mass is preserved."""
    sub = m.space.subspace(keep)
    _, totals = _grouped(m, sub.variables, ())
    return DiscreteMeasure(sub, totals)


def normalize(m):
    total = m.total
    if total <= 0.0:
        raise ZeroMass("cannot normalize a measure with zero total mass")
    return DiscreteMeasure(m.space, {x: v / total for x, v in m.mass.items()})


def condition(m, given):
    """Probability measure on the remaining variables given a partial assignment."""
    given = dict(given)
    for var, val in given.items():
        if val not in m.space.domain(var):
            raise ValueError(f"value {val!r} is not in the domain of {var!r}")
    sub = m.space.subspace(v for v in m.space.variables if v not in given)
    groups, _ = _grouped(m, tuple(given), sub.variables)
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
    if total <= 0.0:
        raise ZeroMass("cannot normalize a measure with zero total mass")
    groups, _ = _grouped(m, overlap, ())
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
    lam_vars = set(lam.space.variables)
    overlap = tuple(v for v in mu.space.variables if v in lam_vars)
    for v in overlap:
        if mu.space.domain(v) != lam.space.domain(v):
            raise DomainMismatch(f"overlap variable {v!r} has mismatched domains")
    tm, tl = mu.total, lam.total
    mass_gap = abs(tm - tl)
    equal_mass = mass_gap <= tol * max(tm, tl)
    if tm > 0.0 and tl > 0.0:
        marginal_gap = _sup_gap(_overlap_law(mu, overlap, tm), _overlap_law(lam, overlap, tl))
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
    at = tuple(map(mu.space.index, report.overlap))
    return DiscreteMeasure(union, _glue(mu.mass, at, _grouped(lam, report.overlap, extra), tuple))


def combine_clique_bases(decomp, bases, tol=CONSISTENCY_TOL):
    """Check clique bases pairwise and fold them along a perfect ordering.

    Raises unless there is one discrete base per clique, on exactly its
    clique.  Returns ``(pairs, combined, failure)``: ``pairs`` holds an
    ``(i, j, report)`` consistency triple for every pair of bases, in
    lexicographic order; ``failure`` is the ``Inconsistent`` error of the
    first failing pair, in which case ``combined`` is None.  Gaps each
    pair keeps within ``tol`` can still add up along the fold; then
    ``failure`` is the error ``markov_combination`` raised, and
    ``combined`` is the fold up to that step.
    """
    if len(bases) != len(decomp.cliques):
        raise ValueError(
            f"{len(decomp.cliques)} cliques but {len(bases)} base measures"
        )
    for k, (clique, base) in enumerate(zip(decomp.cliques, bases), start=1):
        if not isinstance(base, DiscreteMeasure):
            raise TypeError("clique bases must be discrete measures")
        if set(base.space.variables) != set(clique):
            raise DomainMismatch(
                f"base {k} is not defined on exactly the clique {clique!r}"
            )
    pairs = [
        (i, j, is_consistent(bases[i], bases[j], tol))
        for i, j in itertools.combinations(range(len(bases)), 2)
    ]
    for i, j, report in pairs:
        if not report.consistent:
            failure = Inconsistent(
                f"clique bases {i + 1} and {j + 1} are not consistent", report, (i + 1, j + 1)
            )
            return pairs, None, failure
    combined = bases[0]
    for base in bases[1:]:
        try:
            combined = markov_combination(combined, base, tol)
        except Inconsistent as exc:
            return pairs, combined, exc
    return pairs, combined, None


def markov_combination_seq(decomp, bases, tol=CONSISTENCY_TOL):
    """Fold clique bases along a perfect ordering into one joint measure."""
    _, combined, failure = combine_clique_bases(decomp, bases, tol)
    if failure is not None:
        raise failure
    return combined


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

    # tables and positions follow the decomposition's own variable order
    clique_idx = [tuple(map(theta.space.index, c)) for c in decomp.cliques]
    sep_idx = [tuple(map(theta.space.index, s)) for s in decomp.separators]
    res_idx = [tuple(map(theta.space.index, r)) for r in decomp.residuals]
    clique_mass = [_group(theta.mass, idx, ())[1] for idx in clique_idx]
    sep_mass = [_group(theta.mass, idx, ())[1] for idx in sep_idx]
    # rows hold values of the positions in ``order``, the history so far
    order = list(clique_idx[0])
    rows = list(clique_mass[0])
    for sep, res, idx, mass in zip(sep_idx, res_idx, clique_idx[1:], clique_mass[1:]):
        allowed, _ = _group(mass, tuple(map(idx.index, sep)), tuple(map(idx.index, res)))
        at = tuple(map(order.index, sep))
        rows = [row + r for row in rows for r, _ in allowed.get(tuple(row[j] for j in at), ())]
        order += res
    back = [order.index(i) for i in range(len(order))]
    for row in rows:
        x = tuple(row[j] for j in back)
        lhs = theta.mass.get(x, 0.0)
        for idx, mass in zip(sep_idx, sep_mass):
            lhs *= mass.get(tuple(x[i] for i in idx), 0.0)
        rhs = 1.0
        for idx, mass in zip(clique_idx, clique_mass):
            rhs *= mass.get(tuple(x[i] for i in idx), 0.0)
        if abs(lhs - rhs) > tol:
            return False
    return True
