"""Latent-class machinery: urn predictives, partitions, collapsed Gibbs.

The latent values are draws from a Dirichlet process, so a new
observation either repeats an existing value or picks a fresh one from
the base; classes are the equality classes of those values.

``gibbs_chain`` is the one collapsed Pólya-urn sampler.  Counts only
ever hold values of the base's support, so it works on support
positions: each step multiplies the predictive vector by the
observation's likelihood row and draws one position with
``_draw_candidate``; values are looked up only at the end.  It needs
only uniform draws, so it takes them from ``rng.uniforms``, the
plain-Python copy of the Philox stream: the chain's draws are those of
``rng.stream`` bit for bit, and the ``mixture`` command never imports
numpy.  ``sample_partition`` also needs integer draws and keeps
``rng.stream``.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator

from ._record import record
from .dp import DPParams, dp_posterior
from .errors import ZeroMass
from .measures import DiscreteMeasure
from .rng import _weighted_draw, stream, uniforms


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
        DPParams(self.a, self.base)  # a probability measure or a continuous base
        if isinstance(self.base, DiscreteMeasure):
            for x in self.drawn:
                self.base.space.as_tuple(x)


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
    DPParams(a, base)  # a probability measure or a continuous base
    rng = stream(cfg.seed, replicate)
    if isinstance(base, DiscreteMeasure):
        draw = _weighted_draw(base.mass, base.mass.values())
    else:
        draw = base.sampler
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


def _draw_candidate(weights, rng, support):
    """Position of the first running sum of ``weights`` above ``u`` times
    their ``fsum``, or the last position of positive weight: the partial
    sums of an ``acc += w`` walk.  Weights are checked by their sum and minimum; only
    a failing check scans them, so the first one that is not finite and
    nonnegative is named by its ``support`` value."""
    try:
        total = math.fsum(weights)
        bad = not total < math.inf or min(weights) < 0.0
    except (OverflowError, ValueError):  # an fsum overflow, or inf + -inf
        bad = True
    if bad:
        for cand, w in zip(support, weights):
            if not 0.0 <= w < math.inf:
                raise ValueError(
                    f"candidate value {cand!r} has weight {w!r}; the likelihood must "
                    "give finite nonnegative values"
                )
        total = math.fsum(weights)  # finite weights whose sum overflows raise here
    if total <= 0.0:
        raise ZeroMass(
            "every candidate value has zero reweighted mass; the likelihood "
            "table does not cover the data"
        )
    cum = list(itertools.accumulate(weights))
    j = bisect.bisect_right(cum, rng.random() * total, 0, len(cum) - 1)
    while not weights[j]:  # the clamp took a trailing zero weight: the last positive one
        j -= 1
    return j


def gibbs_chain(data, likelihood, a, base, sweeps, cfg, replicate=0):
    """Run index-order sweeps from the all-in-one-class start.

    Every observation begins at one shared value drawn from the base;
    each sweep reassigns observations in index order.  The chain works on
    positions in the base's support: a running count and predictive
    weight ``a * g + count`` per position, of which a step recomputes the
    two whose count changed.  The likelihood is called once per
    observation and support cell, in support order, at that
    observation's first reassignment; its row is reused after that.
    Returns the final values and the per-sweep label lists.
    """
    _check_precision(a)
    if sweeps < 0:
        raise ValueError(f"sweeps must be nonnegative, got {sweeps!r}")
    if not isinstance(base, DiscreteMeasure):
        raise TypeError("collapsed reassignment requires a discrete base")
    DPParams(a, base)  # a probability measure
    rng = uniforms(cfg.seed, replicate)
    support = list(base.mass)
    start = _weighted_draw(range(len(support)), base.mass.values())(rng)
    at = [start] * len(data)
    count = [0.0] * len(support)
    count[start] = float(len(data))
    prior = [a * g for g in base.mass.values()]
    pred = list(map(operator.add, prior, count))
    rows = [None] * len(data)
    history = []
    for _ in range(sweeps):
        for i, x in enumerate(data):
            j = at[i]
            count[j] -= 1.0
            pred[j] = prior[j] + count[j]
            row = rows[i]
            if row is None:
                row = rows[i] = [float(likelihood(x, c)) for c in support]
            j = at[i] = _draw_candidate(list(map(operator.mul, pred, row)), rng, support)
            count[j] += 1.0
            pred[j] = prior[j] + count[j]
        labels = {}
        history.append([labels.setdefault(j, len(labels)) for j in at])
    return [support[j] for j in at], history


def identity_likelihood(x, pi):
    """Observation equals the latent value outright."""
    return 1.0 if tuple(x) == tuple(pi) else 0.0
