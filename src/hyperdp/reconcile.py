"""Strategies for merging two measures that fail the consistency checks.

Every strategy degrades gracefully: on inputs that are already
consistent each one reproduces the plain combination (the rescalers
return the inputs themselves).  The completions, the weighted average
and the KL compromise each check their conditionals on grouped tables,
then glue cells in ``algebra._glue`` (the average in one pass), so
``condition-on-a`` on consistent inputs runs ``markov_combination``'s loop.
"""

from __future__ import annotations

import math

from ._record import record
from .algebra import _glue, _grouped, _overlap_law, _union_space, is_consistent
from .errors import Inconsistent, ZeroConditional, ZeroMass
from .measures import CONSISTENCY_TOL, DiscreteMeasure, _ordered_measure, _projector, scale_measure

KINDS = (
    "rescale-min",
    "rescale-convex",
    "condition-on-a",
    "condition-on-b",
    "weighted-average",
    "kl-compromise",
)
_NEEDS_GAMMA = {"rescale-convex", "weighted-average"}


@record
class ReconcileStrategy:
    """A named merge rule, with a mixing weight where the rule needs one."""

    kind: str
    gamma: float | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown strategy {self.kind!r}; choose from {KINDS}")
        if self.kind in _NEEDS_GAMMA:
            if self.gamma is None:
                raise ValueError(f"strategy {self.kind!r} requires gamma")
            if not (0.0 <= self.gamma <= 1.0):
                raise ValueError("gamma must lie in [0, 1]")
        elif self.gamma is not None:
            raise ValueError(f"strategy {self.kind!r} takes no gamma")


def rescale(mu, lam, strategy, tol=CONSISTENCY_TOL):
    """Scale both measures to one common total mass.

    Requires the shapes to already agree on the overlap (condition 1);
    rescaling can only repair a total-mass disagreement.  The target is
    the smaller total for ``rescale-min`` and the gamma-blend of the two
    totals for ``rescale-convex``.  Raises ZeroMass for two zero measures.
    """
    if strategy.kind not in ("rescale-min", "rescale-convex"):
        raise ValueError(f"{strategy.kind!r} is not a rescaling strategy")
    report = is_consistent(mu, lam, tol)
    if not report.proportional_marginals:
        raise Inconsistent(
            "rescaling cannot reconcile measures whose overlap marginals disagree "
            "(condition 1)",
            report,
        )
    tm, tl = mu.total, lam.total
    if tm == 0.0:
        # condition 1 holds, so the other measure is zero too
        raise ZeroMass("cannot rescale measures with zero total mass")
    if strategy.kind == "rescale-min":
        target = min(tm, tl)
    else:
        target = strategy.gamma * tm + (1.0 - strategy.gamma) * tl
    return scale_measure(mu, target / tm), scale_measure(lam, target / tl)


@record
class _UnionLayout:
    """The union space of two measures and how its cells are put together.

    A union cell is the first measure's variables in its order, then the
    second measure's extra variables in theirs.  ``arrange`` takes the
    concatenated values of the ``overlap``, ``mu_only`` and ``extra``
    blocks and returns them in union order; ``arrange_b`` does the same
    for a cell of the second measure followed by its ``mu_only`` values.
    """

    space: object
    overlap: tuple
    mu_only: tuple
    extra: tuple
    arrange: object
    arrange_b: object


def _union_layout(mu, lam):
    lam_vars = set(lam.space.variables)
    overlap = tuple(v for v in mu.space.variables if v in lam_vars)
    mu_only = tuple(v for v in mu.space.variables if v not in lam_vars)
    union, extra = _union_space(mu, lam)

    arrange, arrange_b = (
        _projector([blocks.index(v) for v in union.variables])
        for blocks in (overlap + mu_only + extra, lam.space.variables + mu_only)
    )
    return _UnionLayout(union, overlap, mu_only, extra, arrange, arrange_b)


def _check_conditionals(trusted, other):
    """Raise ZeroConditional at the first overlap value of the ``trusted``
    ``_grouped`` table that the ``other`` table gives no mass."""
    for c in trusted[1]:
        if other[1].get(c, 0.0) <= 0.0:
            raise ZeroConditional(
                f"the trusted measure puts mass on overlap value {c!r} "
                "where the other measure has none"
            )


def _completion_cells(mu, lam, layout, side):
    """Unvalidated cells of the one-sided completion; see ``complete_via``."""
    if side == "A":
        trusted, other, rest, arrange = mu, lam, layout.extra, tuple
    else:
        trusted, other, rest, arrange = lam, mu, layout.mu_only, layout.arrange_b
    table = _grouped(other, layout.overlap, rest)
    _check_conditionals(_grouped(trusted, layout.overlap, ()), table)
    return _glue(trusted.mass, trusted.space.projector(layout.overlap), table, arrange)


def complete_via(mu, lam, side):
    """Trust one measure outright and borrow the other's conditional.

    Side "A" keeps the first measure on its own block and extends each of
    its points with the second measure's overlap-conditional law (and
    symmetrically for side "B").  The trusted side's marginal is
    reproduced exactly.  Raises ZeroConditional where the trusted
    measure puts mass on an overlap value the other measure never
    touches, naming the first such value in the trusted measure's order.
    """
    if side not in ("A", "B"):
        raise ValueError("side must be 'A' or 'B'")
    layout = _union_layout(mu, lam)
    build = _ordered_measure if side == "A" else DiscreteMeasure  # arrange_b permutes
    return build(layout.space, _completion_cells(mu, lam, layout, side))


def weighted_average(mu, lam, gamma):
    """Pointwise gamma-blend of the two one-sided completions, in one join.

    Both exist only if the measures charge the same overlap values (else
    ZeroConditional, side A's first), and then both live on the cells
    ``x + b`` with ``mu(x) > 0`` and ``lam(c(x), b) > 0``: gluing ``mu``
    onto ``lam`` gives side A's ``w * (wo / d)`` and B's ``wo * (w / e)``.
    """
    if not (0.0 <= gamma <= 1.0):
        raise ValueError("gamma must lie in [0, 1]")
    layout = _union_layout(mu, lam)
    mu_table = _grouped(mu, layout.overlap, ())
    lam_table = _grouped(lam, layout.overlap, layout.extra)
    _check_conditionals(mu_table, lam_table)
    _check_conditionals(lam_table, mu_table)
    gamma_b, e = 1.0 - gamma, mu_table[1]

    def blend(c, w, rows):
        r = w / e[c]
        return [gamma * (w * q) + gamma_b * (wo * r) for _, wo, q in rows]

    at = mu.space.projector(layout.overlap)
    return _ordered_measure(layout.space, _glue(mu.mass, at, lam_table, tuple, blend))


def suggested_gamma(mu, lam):
    """Mass-proportional mixing weight for the weighted average."""
    tm, tl = mu.total, lam.total
    if tm + tl == 0.0:
        raise ZeroMass("cannot suggest a mixing weight for two measures with zero total mass")
    if math.isinf(tm + tl):
        return (0.5 * tm) / (0.5 * tm + 0.5 * tl)
    return tm / (tm + tl)


def kl_compromise(mu, lam):
    """Replace the disputed overlap law with the closest single law.

    The compromise marginal minimizes the sum of the two divergences
    from the normalized overlap marginals, whose minimizer over
    probability vectors is their equal-weight mixture.  Both conditional
    laws are then hung off that marginal, giving a probability measure
    on the union space.  Raises ZeroConditional if either side lacks a
    conditional somewhere the compromise puts mass, naming the first such
    overlap value in the order in which the first measure's support, then
    the second's, reaches them.
    """
    layout = _union_layout(mu, lam)
    overlap = layout.overlap
    mu_c = _overlap_law(mu, overlap, mu.total)
    lam_c = _overlap_law(lam, overlap, lam.total)
    compromise = {c: 0.5 * (mu_c.get(c, 0.0) + lam_c.get(c, 0.0)) for c in {**mu_c, **lam_c}}
    mu_table = _grouped(mu, overlap, layout.mu_only)
    lam_table = _grouped(lam, overlap, layout.extra)
    for c, w_c in compromise.items():
        for (_, totals), which in ((mu_table, "first"), (lam_table, "second")):
            if w_c > 0.0 and totals.get(c, 0.0) <= 0.0:
                raise ZeroConditional(
                    f"the {which} measure has no conditional at overlap value {c!r}"
                )
    # compromise law, then each side's conditional: cells ``c + u``, then ``c + u + b``
    at = _projector(range(len(overlap)))
    cells = _glue(_glue(compromise, at, mu_table, tuple), at, lam_table, layout.arrange)
    return DiscreteMeasure(layout.space, cells)


def reconcile(mu, lam, strategy, tol=CONSISTENCY_TOL):
    """Dispatch to one strategy; rescalers return a pair, the rest a measure."""
    if strategy.kind in ("rescale-min", "rescale-convex"):
        return rescale(mu, lam, strategy, tol)
    if strategy.kind == "condition-on-a":
        return complete_via(mu, lam, "A")
    if strategy.kind == "condition-on-b":
        return complete_via(mu, lam, "B")
    if strategy.kind == "weighted-average":
        return weighted_average(mu, lam, strategy.gamma)
    return kl_compromise(mu, lam)
