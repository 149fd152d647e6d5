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

``random_words`` computes that stream in numpy lanes rather than one word
at a time; the words are the same.  n words are cut into L = isqrt(n) lanes
of m = ceil(n / L) consecutive words, and all lanes step together.  The
xoshiro256 state update T is linear over GF(2), so T^m is fixed by the
images of the 256 unit states, which m steps on 256 lanes at once give as
columns of a jump table.  Lane 0 starts at the seeded state and lane j + 1
at T^m of lane j's start: the XOR of the columns that the set bits of that
start pick out (Haramoto et al., "Efficient jump ahead for F2-linear random
number generators", 2008).  Every operand is a numpy uint64, so the result
does not depend on how a numpy version casts Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .operators import _check_int, _check_real

__all__ = [
    "NoiseSpec",
    "random_words",
    "standard_normals",
    "add_noise",
    "psnr",
]

_MASK = (1 << 64) - 1


_U64 = np.uint64
_STATE_BITS = 256


def _rotl(x, k, tmp):
    """x = rotl(x, k) in place on a uint64 array; tmp is scratch of its
    shape."""
    np.left_shift(x, _U64(k), out=tmp)
    x >>= _U64(64 - k)
    x |= tmp


def _step(s, tmp):
    """One xoshiro256 state update, in place on the rows s0, s1, s2, s3 of
    the (4, lanes) uint64 array s; tmp is scratch of one row's shape."""
    s0, s1, s2, s3 = s
    np.left_shift(s1, _U64(17), out=tmp)
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= tmp
    _rotl(s3, 45, tmp)


def _splitmix64(state):
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


def random_words(n, seed):
    """First n outputs of xoshiro256++ seeded via SplitMix64, computed in
    jump-ahead lanes (module docstring)."""
    lanes = max(1, math.isqrt(n))
    m = -(-n // lanes)
    # little-endian words, so a start's bytes unpack to its 256 bits in the
    # order of the table columns on any host
    starts = np.empty((lanes, 4), dtype="<u8")
    state = int(seed) & _MASK
    for i in range(4):
        state, starts[0, i] = _splitmix64(state)
    if lanes > 1:
        bit = np.arange(_STATE_BITS)
        table = np.zeros((4, _STATE_BITS), dtype=np.uint64)
        table[bit // 64, bit] = _U64(1) << (bit % 64).astype(np.uint64)
        tmp = np.empty(_STATE_BITS, dtype=np.uint64)
        for _ in range(m):
            _step(table, tmp)
        columns = table.T.copy()
        for j in range(1, lanes):
            picked = np.unpackbits(starts[j - 1].view(np.uint8),
                                   bitorder="little").view(bool)
            np.bitwise_xor.reduce(columns[picked], axis=0, out=starts[j])
    s = np.ascontiguousarray(starts.T, dtype=np.uint64)
    s0, s3 = s[0], s[3]
    tmp = np.empty(lanes, dtype=np.uint64)
    out = np.empty((m, lanes), dtype=np.uint64)
    for row in out:
        np.add(s0, s3, out=row)
        _rotl(row, 23, tmp)
        row += s0
        _step(s, tmp)
    return out.T.reshape(-1)[:n]


def standard_normals(n, seed):
    """n standard normal draws by Box-Muller over the pinned word stream."""
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
    """Gaussian per-dof noise: standard deviation and 64-bit stream seed."""

    sigma: float = 0.1
    seed: int = 0

    def __post_init__(self):
        _check_real("sigma", self.sigma, closed=True)
        _check_int("seed", self.seed, 0, _MASK)


def add_noise(u, spec: NoiseSpec):
    """Add sigma * N(0, 1) draws to every coefficient; deterministic per
    seed.  Accepts a DgFunction (returning one) or a plain array."""
    if hasattr(u, "coeffs"):
        return type(u)(u.space, add_noise(u.coeffs, spec))
    values = np.array(u, dtype=float)
    if spec.sigma > 0:
        values += spec.sigma * standard_normals(values.size, spec.seed) \
            .reshape(values.shape)
    return values


def psnr(u, u_ref):
    """Peak signal-to-noise ratio in dB for peak 1 with the exact DG
    mass-matrix norm; identical inputs yield the infinity sentinel."""
    space = u.space
    if u_ref.space is not space and u_ref.space.dim_dg != space.dim_dg:
        raise ValueError("functions live in different spaces")
    err = space.l2_norm_sq(u.coeffs - u_ref.coeffs)
    if err == 0.0:
        return math.inf
    domain_area = float(space.mesh.cell_areas.sum())
    return 10.0 * math.log10(domain_area / err)
