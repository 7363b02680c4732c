"""Dirichlet process engine: parameters, conjugate posteriors, weighted draws.

Base measures are either exact discrete measures or opaque continuous
sampling oracles; every exactness claim applies to the discrete case
only.  The stick-breaking sampler is in ``stick``.
"""

from __future__ import annotations

import bisect
import itertools
import math
from collections.abc import Callable

from ._record import record
from .errors import OutsideDomain
from .measures import DiscreteMeasure


@record
class ContinuousBase:
    """Opaque atom sampler for a nonatomic base measure.

    ``sampler`` maps a generator to one draw; ``cdf`` (optional) maps a
    real threshold to cumulative mass and is required only for posterior
    distribution-function estimates.  ``atoms_distinct`` declares that
    two draws never coincide, which degeneracy checks may rely on.
    """

    sampler: Callable
    cdf: Callable | None = None
    atoms_distinct: bool = True
    label: str = "continuous"


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


@record
class SamplerConfig:
    """Seed and truncation policy for stick-breaking draws."""

    seed: int
    eps: float = 1e-10
    max_atoms: int = 10_000

    def __post_init__(self):
        from .rng import _as_index  # here and in sample_dp, so exact commands skip rng

        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie strictly between 0 and 1")
        if _as_index("max_atoms", self.max_atoms) < 1:
            raise ValueError("max_atoms must be at least 1")


def _lookup_table(keys, weights):
    """``keys`` with the last one listed twice, and the running sums ``cum``
    of ``weights``: ``keys[bisect_right(cum, u * cum[-1])]`` is the key of
    the first sum above ``u`` times the total, and a ``u`` of 1 or more
    lands on the last key."""
    keys = list(keys)
    keys.append(keys[-1])
    return keys, list(itertools.accumulate(weights))


def _weighted_draw(keys, weights):
    """Sampler of ``keys`` with chances proportional to ``weights``:
    ``draw(rng)`` looks ``rng.random()`` up in ``_lookup_table``."""
    keys, cum = _lookup_table(keys, weights)
    total = cum[-1]
    bisect_right = bisect.bisect_right

    def draw(rng):
        return keys[bisect_right(cum, rng.random() * total)]

    return draw


def _coerce_data(space, data):
    out = []
    for obs in data:
        try:
            out.append(space.as_tuple(obs))
        except (ValueError, KeyError) as exc:
            raise OutsideDomain(f"observation {obs!r} is outside the base's space: {exc}") from None
    return out


def dp_posterior(params, data):
    """Exact conjugate update: add one unit of mass per observation.

    The posterior precision grows by the sample size and the base
    becomes the normalized blend of the prior base and the empirical
    point masses.
    """
    if not isinstance(params.base, DiscreteMeasure):
        raise TypeError("exact posterior updates require a discrete base")
    return _posterior(params, _coerce_data(params.base.space, data))


def _posterior(params, obs):
    """``dp_posterior`` of rows already checked against the base's space."""
    n = len(obs)
    if n == 0:
        return params
    scale = params.nu + n
    mass = {x: params.nu * v for x, v in params.base.mass.items()}
    for x in obs:
        mass[x] = mass.get(x, 0.0) + 1.0
    posterior = DiscreteMeasure(params.base.space, {x: v / scale for x, v in mass.items()})
    return DPParams(scale, posterior)


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
