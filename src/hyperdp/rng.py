"""Deterministic random streams.

Streams come from a counter-based generator keyed by the pair
``(seed, replicate)``, so replicate-level parallelism never shares
state and a given pair reproduces the same draws on any platform.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1


def stream(seed, replicate=0):
    """Independent generator for one (seed, replicate) pair."""
    import numpy as np  # loaded here so that commands drawing no random numbers skip it

    key = (int(seed) & _MASK64) | ((int(replicate) & _MASK64) << 64)
    return np.random.Generator(np.random.Philox(key=key))


def beta_variate(rng, a, b):
    """Beta draw built from two gamma draws.

    The ratio construction keeps the draw well defined for any positive
    shape pair; the loop guards the measure-zero event of both gamma
    draws underflowing to zero.
    """
    while True:
        x = rng.standard_gamma(a)
        y = rng.standard_gamma(b)
        if x + y > 0.0:
            return x / (x + y)
