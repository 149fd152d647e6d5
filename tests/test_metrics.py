import math

import numpy as np
import pytest

from fetv.mesh import build_crossed_mesh
from fetv.metrics import (
    NoiseSpec,
    _splitmix64,
    add_noise,
    psnr,
    random_words,
    standard_normals,
)
from fetv.operators import DgFunction
from fetv.spaces import FeSpace


def test_splitmix64_reference_vectors():
    # published outputs of the reference implementation for seed 1234567
    state = 1234567
    outs = []
    for _ in range(3):
        state, z = _splitmix64(state)
        outs.append(z)
    assert outs == [6457827717110365317, 3203168211198807973,
                    9817491932198370423]


def test_word_stream_golden():
    assert [hex(int(w)) for w in random_words(3, 0)] == [
        "0x53175d61490b23df", "0x61da6f3dc380d507", "0x5c0fdf91ec9a7bfc"]
    assert [hex(int(w)) for w in random_words(3, 42)] == [
        "0xd0764d4f4476689f", "0x519e4174576f3791", "0xfbe07cfb0c24ed8c"]


def test_normals_golden():
    z = standard_normals(4, 0)
    assert z == pytest.approx(
        [-1.107908598633832, 1.0114416320093491,
         1.4264823081293445, 0.10285171497850024], abs=1e-15)


def test_normals_statistics():
    z = standard_normals(100000, 123)
    assert abs(z.mean()) <= 3.0 / math.sqrt(100000)
    assert z.var() == pytest.approx(1.0, rel=0.02)


def test_add_noise_deterministic(spaces_2x2):
    space = spaces_2x2[1]
    u = DgFunction(space, np.linspace(0, 1, space.dim_dg))
    spec = NoiseSpec(sigma=0.1, seed=7)
    a = add_noise(u, spec)
    b = add_noise(u, spec)
    assert (a.coeffs == b.coeffs).all()
    c = add_noise(u, NoiseSpec(sigma=0.1, seed=8))
    assert (a.coeffs != c.coeffs).any()


def test_add_noise_sigma_zero_identity(spaces_2x2):
    space = spaces_2x2[0]
    u = DgFunction(space, np.arange(space.dim_dg, dtype=float))
    out = add_noise(u, NoiseSpec(sigma=0.0, seed=3))
    assert (out.coeffs == u.coeffs).all()
    vals = np.array([0.25, 0.5])
    assert (add_noise(vals, NoiseSpec(sigma=0.0, seed=3)) == vals).all()


def test_noise_spec_validation():
    for sigma in (-0.1, -math.inf, math.inf, math.nan):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            NoiseSpec(sigma=sigma)
    assert NoiseSpec(sigma=0.0).sigma == 0.0


def test_noise_spec_takes_64_bit_seeds_only():
    """The seed is the SplitMix64 seed itself: an integer in [0, 2^64);
    anything else is an error, not reduced mod 2^64 or truncated."""
    for seed in (-1, 2**64, 2**65 + 7, 1.0, 7.5, "7", None):
        with pytest.raises(ValueError, match=r"seed must be an integer in "
                                             r"\[0, 2\^64\)"):
            NoiseSpec(seed=seed)
    for seed in (0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(3)):
        assert NoiseSpec(seed=seed).seed == seed
    assert (add_noise(np.zeros(4), NoiseSpec(1.0, 2**64 - 1))
            == add_noise(np.zeros(4), NoiseSpec(1.0, np.uint64(2**64 - 1)))
            ).all()


def test_psnr_formula_examples():
    mesh = build_crossed_mesh(2, 2, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    ref = DgFunction(space, np.zeros(space.dim_dg))
    # constant error of M on a unit-area domain gives 0 dB
    assert psnr(DgFunction(space, np.ones(space.dim_dg)), ref) \
        == pytest.approx(0.0, abs=1e-12)
    # constant error of 0.1 gives 20 dB
    assert psnr(DgFunction(space, np.full(space.dim_dg, 0.1)), ref) \
        == pytest.approx(20.0, abs=1e-12)
    assert psnr(ref, ref) == math.inf


def test_psnr_monotone(spaces_2x2):
    space = spaces_2x2[0]
    ref = DgFunction(space, np.zeros(space.dim_dg))
    small = DgFunction(space, np.full(space.dim_dg, 0.05))
    large = DgFunction(space, np.full(space.dim_dg, 0.2))
    assert psnr(small, ref) > psnr(large, ref)


def test_noisy_input_psnr_near_20db():
    """sigma = 0.1 noise on the 256x256 DG_0 space lands at the expected
    10*log10(1/sigma^2) = 20 dB within a tenth of a dB."""
    mesh = build_crossed_mesh(256, 256, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    clean = DgFunction(space, np.full(space.dim_dg, 0.5))
    noisy = add_noise(clean, NoiseSpec(sigma=0.1, seed=2024))
    assert psnr(noisy, clean) == pytest.approx(20.0, abs=0.1)


def test_golden_noise_field_file():
    """The seed-99 golden field regenerates bit for bit, and a longer field
    of the same seed starts with it."""
    field = standard_normals(64, 99)
    assert np.array_equal(standard_normals(64, 99), field)
    assert np.array_equal(standard_normals(65, 99)[:64], field)
    assert field[0] == pytest.approx(0.5767249246755365, abs=1e-16)
