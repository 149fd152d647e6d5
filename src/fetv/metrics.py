"""Quality metrics and reproducible noise generation.

The noise generator is fully pinned down so that golden noise fields can be
reproduced bit-for-bit in any language:

* stream: xoshiro256++ over 64-bit words, state seeded by four successive
  outputs of SplitMix64 applied to the user seed;
* each output word x maps to the open unit interval via
  u = ((x >> 11) + 0.5) * 2^-53;
* consecutive pairs (u1, u2) feed the Box-Muller transform,
  z0 = sqrt(-2 ln u1) * cos(2 pi u2), z1 = sqrt(-2 ln u1) * sin(2 pi u2),
  and the normals are consumed in order z0, z1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NoiseSpec",
    "random_words",
    "standard_normals",
    "add_noise",
    "psnr",
]

_MASK = (1 << 64) - 1


def _rotl(x, k):
    return ((x << k) | (x >> (64 - k))) & _MASK


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def random_words(n, seed):
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


def standard_normals(n, seed):
    """n standard normal draws by Box-Muller over the pinned word stream."""
    if n == 0:
        return np.zeros(0)
    pairs = (n + 1) // 2
    words = random_words(2 * pairs, seed)
    u = ((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    u1 = u[0::2]
    u2 = u[1::2]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * math.pi * u2
    z = np.empty(2 * pairs)
    z[0::2] = radius * np.cos(angle)
    z[1::2] = radius * np.sin(angle)
    return z[:n]


@dataclass(frozen=True)
class NoiseSpec:
    """Gaussian per-dof noise: standard deviation and stream seed."""

    sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if self.sigma < 0:
            raise ValueError("sigma must be nonnegative")


def add_noise(u, spec: NoiseSpec):
    """Add sigma * N(0, 1) draws to every coefficient; deterministic per
    seed.  Accepts a DgFunction (returning one) or a plain array."""
    if hasattr(u, "coeffs"):
        noisy = u.copy()
        if spec.sigma > 0:
            noisy.coeffs += spec.sigma * standard_normals(noisy.coeffs.size,
                                                          spec.seed)
        return noisy
    values = np.array(u, dtype=float)
    if spec.sigma > 0:
        values += spec.sigma * standard_normals(values.size, spec.seed) \
            .reshape(values.shape)
    return values


def psnr(u, u_ref, peak=1.0):
    """Peak signal-to-noise ratio in dB with the exact DG mass-matrix norm;
    identical inputs yield the infinity sentinel."""
    space = u.space
    if u_ref.space is not space and u_ref.space.dim_dg != space.dim_dg:
        raise ValueError("functions live in different spaces")
    err = space.l2_norm_sq(u.coeffs - u_ref.coeffs)
    if err == 0.0:
        return math.inf
    domain_area = float(space.mesh.cell_areas.sum())
    return 10.0 * math.log10(peak * peak * domain_area / err)
