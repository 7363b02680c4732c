"""Deterministic random streams.

Streams come from a counter-based generator keyed by the pair
``(seed, replicate)``, so replicate-level parallelism never shares
state and a given pair reproduces the same draws on any platform.

``stream`` is numpy's Philox4x64-10 generator, for samplers that need
numpy's Gamma, exponential or integer draws.  ``uniforms`` computes the
same Philox blocks in plain Python for callers that only need
``random()``: its draws equal ``stream(seed, replicate).random()`` bit
for bit, without importing numpy.

Seeds and replicates are integers in [0, 2**64); anything else is a
``ValueError``, so no two pairs share a key.  ``SamplerConfig`` holds a
sampler's seed and truncation policy, and ``_weighted_draw`` looks a
uniform up in the running sums of ``_lookup_table``.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import operator
import struct
import types

from ._record import record

_MASK64 = (1 << 64) - 1

# Philox4x64 multipliers and key increments (Salmon et al. 2011, SC'11)
_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B
_ROUNDS = 10

# ``uniforms`` computes _LANES blocks at once.  Each of the four counter
# words is one int whose lane i (bits 256i to 256i+255) holds block i's
# word, so a round costs a few big-int operations for the whole batch.  A
# 64x64-bit product fills only 128 of a lane's bits, so lanes never spill.
_LANES = 64
_ONES = int.from_bytes((b"\1" + bytes(31)) * _LANES, "little")  # 1 in every lane
_RAMP = int.from_bytes(b"".join(i.to_bytes(32, "little") for i in range(_LANES)), "little")
_LOW64 = _MASK64 * _ONES  # the low 64 bits of every lane
_TOP53 = int.from_bytes(((1 << 53) - 1).to_bytes(8, "little") * (4 * _LANES), "little")
_WORDS = struct.Struct(f"<{4 * _LANES}Q").unpack
_SCALE = (2.0**-53).__mul__


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


def _key(seed, replicate):
    """The Philox key of a (seed, replicate) pair, the seed in its low word."""
    seed, replicate = _as_index("seed", seed), _as_index("replicate", replicate)
    for name, value in (("seed", seed), ("replicate", replicate)):
        if not 0 <= value <= _MASK64:
            raise ValueError(f"{name} must lie in [0, 2**64), got {value!r}")
    return seed | replicate << 64


def _as_index(name, value):
    """An integer (numpy's too) as an int; 2.5 is a ValueError, not 2."""
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


@functools.cache
def _numpy():
    """numpy, and a seed sequence that hands Philox a key's two words.

    ``Philox(key=k)`` spends half its time seeding a ``SeedSequence`` from
    OS entropy that it then discards; this gives the same generator
    without it.  It cannot spawn, so ``Generator.spawn`` raises numpy's
    ``TypeError``, as with ``key=``.
    """
    import numpy as np  # loaded here so that commands drawing no random numbers skip it
    from numpy.random.bit_generator import ISeedSequence

    class KeyWords(ISeedSequence):
        def __init__(self, key):
            self.key = key

        def generate_state(self, n_words, dtype=None):
            return np.array((self.key & _MASK64, self.key >> 64), np.uint64)

    return np, KeyWords


def stream(seed, replicate=0):
    """Independent generator for one (seed, replicate) pair: it draws what
    ``Generator(Philox(key=_key(seed, replicate)))`` draws."""
    np, key_words = _numpy()
    return np.random.Generator(np.random.Philox(key_words(_key(seed, replicate))))


def scalars(*values):
    """``values`` as 0-d float arrays, which numpy's samplers take without
    converting them on every call; the draws keep their bits."""
    return [_numpy()[0].array(float(v)) for v in values]


def _round_keys(key):
    """The ten Philox round keys (k0, k1) of a 128-bit key, each copied into every lane."""
    k0, k1, keys = key & _MASK64, key >> 64, []
    for _ in range(_ROUNDS):
        keys.append((k0 * _ONES, k1 * _ONES))
        k0, k1 = (k0 + _W0) & _MASK64, (k1 + _W1) & _MASK64
    return keys


def _blocks(first, keys):
    """Philox4x64-10 of the _LANES counters ``first``, ``first + 1``, ...

    The last counter must stay below 2**256 (``uniforms`` would need
    2**256 blocks to get there).  Returns the blocks' 64-bit words in
    order, as the 64-bit fields of one int from the lowest up.
    """
    packed = first * _ONES + _RAMP
    c0, c1 = packed & _LOW64, (packed >> 64) & _LOW64
    c2, c3 = (packed >> 128) & _LOW64, (packed >> 192) & _LOW64
    for k0, k1 in keys:
        p0, p1 = _M0 * c0, _M1 * c2
        c0, c1 = ((p1 >> 64) & _LOW64) ^ c1 ^ k0, p1 & _LOW64
        c2, c3 = ((p0 >> 64) & _LOW64) ^ c3 ^ k1, p0 & _LOW64
    return c0 | c1 << 64 | c2 << 128 | c3 << 192


def uniforms(seed, replicate=0):
    """``stream(seed, replicate)`` reduced to ``random()``, computed without numpy."""
    keys = _round_keys(_key(seed, replicate))

    def batch(first):
        # a draw keeps a word's top 53 bits over 2**53, as numpy's random() does
        top = (_blocks(first, keys) >> 11) & _TOP53
        return map(_SCALE, _WORDS(top.to_bytes(32 * _LANES, "little")))

    # numpy's Philox bumps its counter before each block, so the first block is counter 1
    draws = itertools.chain.from_iterable(map(batch, itertools.count(1, _LANES)))
    return types.SimpleNamespace(random=draws.__next__)


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
