"""Counter-based uniform random streams (SplitMix64).

All simulation in this package draws from explicit counter-based streams so
that every experiment is reproducible bit-for-bit from a single 64-bit master
seed, independently of evaluation order or parallel schedule.  The generator
is part of the package contract (a re-implementation in another language must
produce the same bits), hence it is spelled out here rather than delegated to
a library:

SplitMix64 finalizer (Steele, Lea & Flood 2014; constants from the reference
implementation)::

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

with the Weyl increment GAMMA = 0x9E3779B97F4A7C15 (2^64 / golden ratio).

Stream layout
-------------
* ``stream_seed(master, index, channel=0)`` derives the seed of substream
  ``(index, channel)`` as ``mix64(mix64(master + (index+1)*GAMMA)
  + (channel+1)*GAMMA)`` -- replicates are independent and order-insensitive.
* ``uniforms(seed, n)`` returns ``u_j = ((mix64(seed + (j+1)*GAMMA) >> 11)
  + 0.5) * 2**-53`` for ``j = 0..n-1``, all values strictly inside (0, 1).

Both take a block of streams at once: an array of indices gives an array of
seeds, and an array of R seeds gives R rows of n uniforms.  The arithmetic
is the same integer arithmetic per element, so row r holds the bits of the
r-th stream drawn on its own.
"""

from __future__ import annotations

import numpy as np

GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_MASK = 0xFFFFFFFFFFFFFFFF


def mix64(z: np.ndarray | int) -> np.ndarray:
    """SplitMix64 finalizer, vectorized over uint64 arrays."""
    z = np.asarray(z, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * _MIX1
        z = (z ^ (z >> np.uint64(27))) * _MIX2
        return z ^ (z >> np.uint64(31))


def _u64(v):
    """An integer, or an array of integers, modulo 2**64 as uint64."""
    if np.ndim(v) == 0:
        return np.uint64(int(v) & _MASK)
    return np.asarray(v).astype(np.uint64)


def stream_seed(master_seed: int, index, channel: int = 0):
    """Seed of substream (index, channel) derived from the master seed: an
    int, or a uint64 array with one seed per entry of an array ``index``."""
    with np.errstate(over="ignore"):
        s = mix64(_u64(master_seed) + (_u64(index) + np.uint64(1)) * GAMMA)
        s = mix64(s + _u64(channel + 1) * GAMMA)
    return int(s) if s.ndim == 0 else s


def uniforms(seed, n: int) -> np.ndarray:
    """n uniforms in the open interval (0, 1) from the given stream seed;
    an array of R seeds gives an (R, n) array, one stream per row.

    Deterministic in (seed, n); u_j depends only on the counter j, so any
    prefix of a stream is stable under extension.
    """
    counters = np.arange(1, n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        bits = mix64(_u64(seed)[..., None] + counters * GAMMA)
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
