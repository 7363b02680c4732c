"""Dirichlet process engine: parameters and conjugate posteriors.

Base measures are either exact discrete measures or opaque continuous
sampling oracles; every exactness claim applies to the discrete case
only.  The stick-breaking sampler is in ``stick``, weighted draws in ``rng``.
"""

from __future__ import annotations

import collections
import math
from collections.abc import Callable

from ._record import record
from .errors import OutsideDomain
from .measures import DiscreteMeasure, _ordered_measure


@record
class ContinuousBase:
    """Opaque atom sampler for a nonatomic base measure.

    ``sampler`` maps a generator to one draw; ``cdf`` (optional) maps a
    real threshold to cumulative mass and is required only for posterior
    distribution-function estimates.  The measure is nonatomic, so two
    draws almost surely never coincide; the degeneracy check relies on it.
    """

    sampler: Callable
    cdf: Callable | None = None


@record
class DPParams:
    """Precision and base measure of one Dirichlet process prior."""

    nu: float
    base: object

    def __post_init__(self):
        object.__setattr__(self, "nu", float(self.nu))
        if not math.isfinite(self.nu) or self.nu <= 0.0:
            raise ValueError("precision nu must be finite and positive")
        if isinstance(self.base, DiscreteMeasure):
            if not self.base.is_probability():
                raise ValueError("a discrete base must be a probability measure")
        elif not isinstance(self.base, ContinuousBase):
            raise TypeError("base must be a DiscreteMeasure or a ContinuousBase")


def _counted(space, data):
    """The rows of ``data`` checked against ``space``, as a ``_tally`` of their
    counts: each distinct row is checked once, so an error names the first bad
    row.  Rows that cannot be hashed, such as dicts, are checked one by one."""

    def check(obs):
        try:
            return space.as_tuple(obs)
        except (ValueError, KeyError) as exc:
            raise OutsideDomain(f"observation {obs!r} is outside the base's space: {exc}") from None

    rows = list(data)
    try:
        counts = collections.Counter(rows)
    except TypeError:
        counts = collections.Counter(map(check, rows))
    return _tally(counts, check)


def _tally(counts, key):
    """``{key(x): count}`` of a ``{x: count}`` table, in order of first
    appearance, equal keys' counts added; a key keeps the object first seen:
    ``1``, ``True`` and ``1.0`` are equal but print differently."""
    out = {}
    for x, c in counts.items():
        y = key(x)
        out[y] = out.get(y, 0) + c
    return out


def dp_posterior(params, data):
    """Exact conjugate update: add one unit of mass per observation.

    The posterior precision grows by the sample size and the base
    becomes the normalized blend of the prior base and the empirical
    point masses.
    """
    if not isinstance(params.base, DiscreteMeasure):
        raise TypeError("exact posterior updates require a discrete base")
    counts = _counted(params.base.space, data)
    if not counts:
        return params
    return DPParams(params.nu + sum(counts.values()), _posterior(params.nu, params.base, counts))


def _posterior(nu, base, counts):
    """The base of ``dp_posterior`` for a ``_counted`` table.  A row's cell
    adds 1.0 once per count, in turn: ``nu * g + count`` can round otherwise."""
    mass = {x: nu * v for x, v in base.mass.items()}
    for x, c in counts.items():
        v = mass.get(x, 0.0)
        for _ in range(c):
            v += 1.0
        mass[x] = v
    scale = nu + sum(counts.values())
    # rows off the support append cells that the full check must sort
    build = DiscreteMeasure if len(mass) > len(base.mass) else _ordered_measure
    return build(base.space, {x: v / scale for x, v in mass.items()})


def _base_cdf(base, t):
    if isinstance(base, DiscreteMeasure):
        if len(base.space.variables) != 1:
            raise ValueError("distribution functions need a one-variable base")
        dom = base.space.domains[0]
        if not all(isinstance(c, (int, float)) and not isinstance(c, bool) for c in dom):
            raise ValueError("distribution functions need real-valued categories")
        return math.fsum(v for (c,), v in base.mass.items() if c <= t)
    if base.cdf is None:
        raise ValueError("this continuous base declares no distribution function")
    return float(base.cdf(t))


def bayes_cdf(params, data, t):
    """Posterior-expected distribution function at threshold ``t``.

    Equals the convex blend of the base distribution function and the
    empirical one, with data weight n / (nu + n); algebraically this is
    (nu * G((-inf, t]) + #{x <= t}) / (nu + n).
    """
    if not math.isfinite(t):
        raise ValueError(f"threshold t must be finite, got {t!r}")
    prior = _base_cdf(params.base, t)
    n = len(data)
    if n == 0:
        return prior
    for x in data:
        if not isinstance(x, (int, float)) or isinstance(x, bool) or not math.isfinite(x):
            raise ValueError(f"observations must be finite real numbers, got {x!r}")
    w = n / (params.nu + n)
    empirical = sum(1 for x in data if x <= t) / n
    return (1.0 - w) * prior + w * empirical
