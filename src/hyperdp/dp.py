"""Dirichlet process engine: parameters, stick-breaking draws, posteriors.

Base measures are either exact discrete measures or opaque continuous
sampling oracles; every exactness claim applies to the discrete case
only.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from collections.abc import Callable

from ._record import record
from .errors import OutsideDomain
from .measures import DiscreteMeasure, ProductSpace, marginalize
from .rng import _as_index, scalars, stream


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
        if not (0.0 < self.eps < 1.0):
            raise ValueError("eps must lie strictly between 0 and 1")
        if _as_index("max_atoms", self.max_atoms) < 1:
            raise ValueError("max_atoms must be at least 1")


@record
class WeightedAtoms:
    """One sampled measure: atoms, their weights, and the folded residual.

    ``space`` is set for draws from a discrete base (atoms are full
    assignments) and ``None`` for opaque continuous draws.
    """

    atoms: tuple
    weights: tuple
    truncation_residual: float
    space: ProductSpace | None = None

    def __post_init__(self):
        if len(self.atoms) != len(self.weights):
            raise ValueError("atoms and weights must have equal length")
        if not self.atoms:
            raise ValueError("a sampled measure needs at least one atom")
        if not all(w > 0.0 for w in self.weights):
            raise ValueError("weights must be strictly positive")
        if abs(math.fsum(self.weights) - 1.0) > 1e-12:
            raise ValueError("weights must sum to one")


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


def _discrete_sampler(measure):
    return _weighted_draw(measure.mass, measure.mass.values())


def sample_dp(params, cfg, replicate=0):
    """One stick-breaking draw, truncated by leftover mass or atom budget.

    Sticks are broken with Beta(1, nu) fractions x / (x + y), x ~ Gamma(1)
    and y ~ Gamma(nu); a fraction that leaves no weight is drawn again.
    When the leftover drops below ``cfg.eps`` (or one slot remains), the
    whole leftover is folded into a final fresh atom so weights always
    sum to one.  For nu > 1 numpy's ``beta(1, nu)`` makes each fraction
    in one call from the same two gamma draws (its Gamma(1) is a standard
    exponential), so it takes the same bits as the two calls that nu <= 1
    still needs, for there numpy's ``beta`` uses another algorithm.  The
    shapes go to numpy as 0-d arrays (``rng.scalars``), made once per draw.

    A continuous base's sampler gets the generator once per atom.  For a
    discrete base each atom takes one raw word ``w`` instead, looked up
    after the loop as ``(w >> 11) * 2**-53``: numpy's ``random()`` makes
    that double of the same word, so the atoms are ``_weighted_draw``'s.
    """
    rng = stream(cfg.seed, replicate)
    base = params.base
    if isinstance(base, DiscreteMeasure):
        draw, space = rng.bit_generator.random_raw, base.space
    else:
        draw, space = functools.partial(base.sampler, rng), None
    nu, eps, slots = params.nu, cfg.eps, cfg.max_atoms - 1
    if nu > 1.0:
        fraction = functools.partial(rng.beta, *scalars(1.0, nu))
    else:
        exponential, gamma = rng.standard_exponential, rng.standard_gamma
        (shape,) = scalars(nu)

        def fraction():
            x, y = exponential(), gamma(shape)
            return x / (x + y) if x else 0.0  # x = 0 gives 0; the test spares a 0/0

    atoms, weights = [], []
    add_atom, add_weight = atoms.append, weights.append
    n, remaining = 0, 1.0
    while n < slots and remaining >= eps:
        # a zero fraction, or numpy's 0/0 = NaN when both gamma draws are
        # zero, fails the test below and the loop draws again
        w = fraction() * remaining
        if w > 0.0:
            add_atom(draw())
            add_weight(w)
            remaining -= w
            n += 1
    if remaining > 0.0:
        add_atom(draw())
        add_weight(remaining)
        residual = remaining
    else:
        residual = 0.0
    if space is not None:
        keys, cum = _lookup_table(base.mass, base.mass.values())
        # (word >> 11) * scale rounds once, as random() * total does: 2**-53 * total is exact
        scale, bisect_right = 2.0**-53 * cum[-1], bisect.bisect_right
        atoms = [keys[bisect_right(cum, (word >> 11) * scale)] for word in atoms]
    return WeightedAtoms(tuple(atoms), tuple(weights), residual, space)


def atoms_to_measure(theta):
    """Aggregate equal atoms into one discrete probability measure."""
    if theta.space is None:
        raise TypeError("only draws from a discrete base aggregate to a measure")
    agg = {}
    for a, w in zip(theta.atoms, theta.weights):
        agg[a] = agg.get(a, 0.0) + w
    return DiscreteMeasure(theta.space, agg)


def marginal_atoms(theta, keep):
    """Project every atom onto the variables in ``keep``; weights carry over."""
    if theta.space is None:
        raise TypeError("only draws from a discrete base can be projected")
    sub = theta.space.subspace(keep)
    idx = tuple(theta.space.index(v) for v in sub.variables)
    atoms = tuple(tuple(a[i] for i in idx) for a in theta.atoms)
    return WeightedAtoms(atoms, theta.weights, theta.truncation_residual, sub)


def sample_from_atoms(theta, rng, size):
    """Independent draws from a sampled measure."""
    draw = _weighted_draw(theta.atoms, theta.weights)
    return [draw(rng) for _ in range(size)]


def finite_partition_law(params, partition):
    """Scaled base masses over a finite partition of the whole space.

    Under the prior, the vector of measures of these events is jointly
    Dirichlet with exactly these numbers as its parameters.
    """
    if not isinstance(params.base, DiscreteMeasure):
        raise TypeError("finite partition laws require a discrete base")
    space = params.base.space
    events = []
    seen = {}
    for k, event in enumerate(partition):
        cell = set()
        for assignment in event:
            x = space.as_tuple(assignment)
            if x in seen:
                raise ValueError(
                    f"assignment {x!r} appears in events {seen[x] + 1} and {k + 1}"
                )
            seen[x] = k
            cell.add(x)
        events.append(cell)
    if len(seen) != space.size():
        raise ValueError("events must cover the whole space")
    return tuple(
        params.nu * math.fsum(params.base.mass.get(x, 0.0) for x in sorted(cell, key=space.sort_key))
        for cell in events
    )


def dp_marginal(params, keep):
    """Prior for the projection onto a variable subset: same precision,
    marginalized base."""
    if not isinstance(params.base, DiscreteMeasure):
        raise TypeError("marginal priors require a discrete base")
    return DPParams(params.nu, marginalize(params.base, keep))


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
