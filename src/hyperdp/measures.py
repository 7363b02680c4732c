"""Exact finite nonnegative measures on finite product spaces: the types.

Measures are sparse: an assignment with zero mass is never stored.
Assignments are tuples aligned with the space's variable order, support
iteration is sorted by per-variable category index, and summation uses
``math.fsum``, so identical inputs give bit-identical outputs.

A measure from a file or a library caller is built through the full
check, one columnar pass, ``_checked_cells``: keys, categories and masses
are checked a column at a time, and the cells are sorted by category
index.  The per-cell loop ``_coerced_cells`` runs only when that pass
rejects a cell.  Cells derived from validated measures in the space's
order skip it (``_ordered_measure``: ``markov_combination``, ``normalize``,
``scale_measure``, ``reconcile.weighted_average``, ``complete_via`` side A).

A key is projected in one place, ``_projector`` (its values at some
positions, as a tuple; ``ProductSpace.projector`` names them by
variable).  The algebra of these measures, from marginals to the
factorization check, is in ``algebra``.
"""

from __future__ import annotations

import itertools
import math
import operator

from ._record import record
from .errors import UnknownVariable, ZeroMass

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
        take = _projector(sorted(set(map(self.index, keep))))  # an error names the first unknown
        return ProductSpace(take(self.variables), take(self.domains))

    def projector(self, variables):
        """``_projector`` of the positions of ``variables``, in their order."""
        return _projector(tuple(map(self.index, variables)))

    def sort_key(self, assignment):
        return tuple(map(operator.getitem, self._category_index, assignment))

    def as_tuple(self, assignment):
        """Coerce a mapping or aligned sequence, not text, to a validated tuple."""
        if isinstance(assignment, dict):
            missing = [v for v in self.variables if v not in assignment]
            if missing:
                raise ValueError(f"assignment missing variables {missing!r}")
            extra = [v for v in assignment if v not in self.variables]
            if extra:
                raise UnknownVariable(f"assignment names unknown variables {extra!r}")
            assignment = _projector(self.variables)(assignment)
        elif isinstance(assignment, (str, bytes)):  # else read as its characters
            raise ValueError(f"assignment {assignment!r} is text, not a sequence of values")
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
    """Sparse finite measure; construction (the full check) validates, sorts, drops zeros."""

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


def _ordered_measure(space, cells):
    """The measure of ``cells`` derived from validated measures, without the full check.

    Precondition: the keys are distinct tuples of ``space``'s categories in
    its sort order (``_glue`` walks one measure's cells, then each group of
    another's, in their order), and the masses are products, quotients or
    convex sums of finite nonnegative floats.  Zeros (underflows, ``-0.0``)
    are dropped; a mass that is not finite gets the full check's error.
    """
    if not all(map(math.isfinite, cells.values())):
        return DiscreteMeasure(space, cells)
    if 0.0 in cells.values():
        cells = {x: v for x, v in cells.items() if v}
    m = object.__new__(DiscreteMeasure)
    m.__dict__.update(space=space, mass=cells)
    return m


def uniform_measure(space):
    """The probability measure giving every full assignment equal mass."""
    w = 1.0 / space.size()
    return DiscreteMeasure(space, {x: w for x in space.assignments()})


def scale_measure(m, factor):
    factor = float(factor)
    if factor < 0.0 or not math.isfinite(factor):
        raise ValueError("scale factor must be finite and nonnegative")
    return _ordered_measure(m.space, {x: v * factor for x, v in m.mass.items()})


def _projector(idx):
    """``x -> tuple(x[i] for i in idx)``: the one place a key is projected.

    ``operator.itemgetter`` of one position returns the bare value, not a
    1-tuple, so one position and none get their own functions.
    """
    if len(idx) == 1:
        (i,) = idx
        return lambda x: (x[i],)
    return operator.itemgetter(*idx) if idx else lambda x: ()


def normalize(m):
    total = m.total
    if total <= 0.0:
        raise ZeroMass("cannot normalize a measure with zero total mass")
    return _ordered_measure(m.space, {x: v / total for x, v in m.mass.items()})
