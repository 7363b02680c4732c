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

