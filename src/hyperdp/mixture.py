"""Latent-class machinery: urn predictives, partitions, collapsed Gibbs.

The latent values are draws from a Dirichlet process, so a new
observation either repeats an existing value or picks a fresh one from
the base; classes are the equality classes of those values.

``gibbs_chain`` is the one collapsed Pólya-urn sampler.  It keeps a
running count per latent value, and each step weighs the candidates
with ``_urn_weights`` and draws one with ``_draw_candidate``.  It needs
only uniform draws, so it takes them from ``rng.uniforms``, the
plain-Python copy of the Philox stream: the chain's draws are those of
``rng.stream`` bit for bit, and the ``mixture`` command never imports
numpy.  ``sample_partition`` also needs integer draws and keeps
``rng.stream``.
"""

from __future__ import annotations

import math

from ._record import record
from .dp import ContinuousBase, DPParams, _discrete_sampler, dp_posterior
from .errors import ZeroMass
from .measures import DiscreteMeasure
from .rng import stream, uniforms


def _check_precision(a):
    if not (a > 0.0 and math.isfinite(a)):
        raise ValueError("precision a must be finite and positive")


@record
class UrnState:
    """Values drawn so far, the precision, and the base measure."""

    drawn: tuple
    a: float
    base: object

    def __post_init__(self):
        _check_precision(self.a)
        if isinstance(self.base, DiscreteMeasure):
            if not self.base.is_probability():
                raise ValueError("a discrete base must be a probability measure")
            for x in self.drawn:
                self.base.space.as_tuple(x)
        elif not isinstance(self.base, ContinuousBase):
            raise TypeError("base must be a DiscreteMeasure or a ContinuousBase")


def urn_predictive(state):
    """Law of the next value: base shrunk by a/(a+n) plus one unit per draw."""
    if not isinstance(state.base, DiscreteMeasure):
        raise TypeError("an explicit predictive law requires a discrete base")
    return dp_posterior(DPParams(state.a, state.base), state.drawn).base


def sample_partition(a, base, n, cfg, replicate=0):
    """Labels of ``n`` sequential draws, canonicalized by first appearance.

    Each draw is fresh from the base with probability a/(a+i) given i
    previous draws, otherwise a uniformly chosen earlier value; labels
    identify equality classes of the drawn values.
    """
    _check_precision(a)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    rng = stream(cfg.seed, replicate)
    draw = _discrete_sampler(base) if isinstance(base, DiscreteMeasure) else base.sampler
    values = []
    for i in range(n):
        if rng.random() * (a + i) < a:
            values.append(draw(rng))
        else:
            values.append(values[int(rng.integers(i))])
    labels = {}
    return [labels.setdefault(v, len(labels)) for v in values]


def expected_clusters(a, n):
    """Mean number of distinct values when the base never repeats atoms."""
    _check_precision(a)
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n!r}")
    return math.fsum(a / (a + i) for i in range(n))


def _urn_weights(x, counts, likelihood, a, base):
    """Candidate values and their unnormalized weights for observation ``x``.

    ``counts`` maps each value held by the other observations to how
    many hold it.  Candidates are the base's support in its order, then
    the counted values off the support.
    """
    candidates = list(base.mass)
    for key in counts:
        if key not in base.mass:
            candidates.append(key)
    weights = []
    for cand in candidates:
        predictive = a * base.mass.get(cand, 0.0) + counts.get(cand, 0.0)
        weights.append(predictive * float(likelihood(x, cand)))
    return candidates, weights


def _draw_candidate(candidates, weights, rng):
    for cand, w in zip(candidates, weights):
        if not 0.0 <= w < math.inf:
            raise ValueError(
                f"candidate value {cand!r} has weight {w!r}; the likelihood must "
                "give finite nonnegative values"
            )
    total = math.fsum(weights)
    if total <= 0.0:
        raise ZeroMass(
            "every candidate value has zero reweighted mass; the likelihood "
            "table does not cover the data"
        )
    u = rng.random() * total
    acc = 0.0
    for cand, w in zip(candidates, weights):
        acc += w
        if u < acc:
            return cand
    return candidates[-1]


def gibbs_chain(data, likelihood, a, base, sweeps, cfg, replicate=0):
    """Run index-order sweeps from the all-in-one-class start.

    Every observation begins at one shared value drawn from the base;
    each sweep reassigns observations in index order.  The chain keeps
    one running count per latent value: before observation ``i`` is
    redrawn its old value loses one unit (and is dropped at zero), and
    the new value gains one afterwards, so each step costs one pass over
    the candidates rather than a recount of the other n-1 values.
    Returns the final values and the per-sweep label lists.
    """
    _check_precision(a)
    if sweeps < 0:
        raise ValueError(f"sweeps must be nonnegative, got {sweeps!r}")
    if not isinstance(base, DiscreteMeasure):
        raise TypeError("collapsed reassignment requires a discrete base")
    rng = uniforms(cfg.seed, replicate)
    start = _discrete_sampler(base)(rng)
    assignments = [start] * len(data)
    counts = {start: float(len(data))} if len(data) else {}
    history = []
    for _ in range(sweeps):
        for i, x in enumerate(data):
            old = assignments[i]
            counts[old] -= 1.0
            if counts[old] == 0.0:
                del counts[old]
            candidates, weights = _urn_weights(x, counts, likelihood, a, base)
            new = _draw_candidate(candidates, weights, rng)
            assignments[i] = new
            counts[new] = counts.get(new, 0.0) + 1.0
        labels = {}
        history.append([labels.setdefault(v, len(labels)) for v in assignments])
    return assignments, history


def identity_likelihood(x, pi):
    """Observation equals the latent value outright."""
    return 1.0 if tuple(x) == tuple(pi) else 0.0
