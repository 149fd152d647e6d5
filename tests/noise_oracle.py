"""Scalar oracle for the pinned noise stream.

Steps xoshiro256++ one word at a time on Python integers, seeded by four
successive SplitMix64 outputs of the seed, exactly as the generator's
definition in ``fetv.metrics`` reads.  It shares no code with the package,
so the vectorized generator is checked against the definition itself.
"""

import numpy as np

_MASK = (1 << 64) - 1


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def oracle_words(n, seed):
    """First n outputs of xoshiro256++ seeded via SplitMix64."""
    state = int(seed) & _MASK
    s = []
    for _ in range(4):
        state, z = _splitmix64(state)
        s.append(z)
    s0, s1, s2, s3 = s
    out = np.empty(n, dtype=np.uint64)
    for i in range(n):
        out[i] = (_rotl((s0 + s3) & _MASK, 23) + s0) & _MASK
        t = (s1 << 17) & _MASK
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
    return out
