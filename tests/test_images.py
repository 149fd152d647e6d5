import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fetv.dtv import dtv
from fetv.images import (
    PgmError,
    dg_to_raster,
    load_mask,
    load_pgm,
    raster_to_dg,
    save_pgm,
)
from fetv.mesh import build_crossed_mesh
from fetv.operators import DgFunction
from fetv.spaces import FeSpace


def test_load_p2_basic(tmp_path):
    path = tmp_path / "img.pgm"
    path.write_text("P2\n2 2\n255\n0 255\n255 0\n")
    raster = load_pgm(path)
    assert raster.shape == (2, 2)
    assert np.allclose(raster, [[0.0, 1.0], [1.0, 0.0]])
    # an image is a float ndarray of shape (height, width)
    path.write_text("P2\n3 1\n255\n0 51 255\n")
    raster = load_pgm(path)
    assert type(raster) is np.ndarray and raster.dtype == float
    assert raster.shape == (1, 3)
    assert np.array_equal(raster, [[0.0, 0.2, 1.0]])


def test_load_p2_with_comments(tmp_path):
    path = tmp_path / "img.pgm"
    # the second file glues a comment to the last token
    for last in ("10\n", "10#c\n"):
        path.write_text(f"P2 # magic\n# a comment line\n2 1 # dims\n10\n5 {last}")
        raster = load_pgm(path)
        assert np.allclose(raster, [[0.5, 1.0]])


def test_p5_roundtrip_byte_identical(tmp_path):
    rng = np.random.default_rng(4)
    raster = rng.random((3, 5))
    path = tmp_path / "out.pgm"
    save_pgm(raster, path, maxval=255)
    data1 = path.read_bytes()
    again = load_pgm(path)
    save_pgm(again, path, maxval=255)
    assert path.read_bytes() == data1

    # 16-bit payloads use big-endian samples
    path16 = tmp_path / "out16.pgm"
    save_pgm(raster, path16, maxval=65535)
    deep = load_pgm(path16)
    assert np.abs(deep - np.clip(raster, 0, 1)).max() \
        <= 0.5 / 65535


def test_p2_save_load(tmp_path):
    raster = np.linspace(0, 1, 6).reshape(2, 3)
    path = tmp_path / "ascii.pgm"
    save_pgm(raster, path, maxval=100, binary=False)
    again = load_pgm(path)
    assert np.abs(again - raster).max() <= 0.5 / 100
    # any 2-D array-like is an image; a 1-D or 3-D array is refused
    nested = tmp_path / "nested.pgm"
    save_pgm(raster.tolist(), nested, maxval=100, binary=False)
    assert nested.read_bytes() == path.read_bytes()
    for bad in (raster.ravel(), raster[..., None]):
        with pytest.raises(ValueError):
            save_pgm(bad, tmp_path / "bad.pgm")
        assert not (tmp_path / "bad.pgm").exists()


def test_save_pgm_refuses_bad_maxval(tmp_path):
    """maxval is an integer in [1, 65535]; anything else, a float or a bool
    too, would write a header load_pgm refuses, so nothing is written."""
    raster = np.full((2, 2), 0.5)
    path = tmp_path / "bad.pgm"
    for maxval in (0, 65536, -1, 2.5, 255.0, True, np.True_, "255", None):
        with pytest.raises(ValueError, match=r"maxval must be an integer in "
                                             r"\[1, 65535\]"):
            save_pgm(raster, path, maxval=maxval)
        assert not path.exists()
    save_pgm(raster, path, maxval=np.int64(100), binary=False)
    assert path.read_text().split()[3] == "100"
    assert np.abs(load_pgm(path) - 0.5).max() <= 0.5 / 100


def test_pgm_header_errors(tmp_path):
    bad = tmp_path / "bad.pgm"
    bad.write_text("P3\n2 2\n255\n")
    with pytest.raises(PgmError):
        load_pgm(bad)
    zero = tmp_path / "zero.pgm"
    zero.write_text("P2\n2 2\n0\n0 0 0 0\n")
    with pytest.raises(PgmError):
        load_pgm(zero)
    trunc = tmp_path / "trunc.pgm"
    trunc.write_bytes(b"P5\n2 2\n255\n\x00\x01")
    with pytest.raises(PgmError):
        load_pgm(trunc)
    short = tmp_path / "short.pgm"
    # a sample missing from the payload is not read from a closing comment
    for text in ("P2\n2 2\n255\n1 2 3\n", "P2\n2 2\n255\n1 2 3 # 4"):
        short.write_text(text)
        with pytest.raises(PgmError, match="truncated P2 payload"):
            load_pgm(short)


def test_raster_to_dg_constant():
    raster = np.full((3, 3), 0.25)
    mesh, u = raster_to_dg(raster, 1)
    assert (u.coeffs == 0.25).all()
    assert dtv(u, 2) == 0.0
    # any 2-D array-like is an image; a 1-D or 3-D array is refused
    _, v = raster_to_dg(raster.tolist(), 1)
    assert np.array_equal(v.coeffs, u.coeffs)
    for bad in (raster.ravel(), raster[..., None]):
        with pytest.raises(ValueError):
            raster_to_dg(bad, 1)


def test_raster_to_dg_two_pixels():
    """Black/white 2x1 raster: the only jump runs along the shared pixel
    edge, whose length equals the pixel height (unit-width domain)."""
    raster = np.array([[0.0, 1.0]])
    mesh, u = raster_to_dg(raster, 0)
    assert mesh.num_cells == 8
    assert dtv(u, 2) == pytest.approx(0.5, rel=1e-12)


def test_raster_to_dg_paper_dimension():
    rng = np.random.default_rng(0)
    raster = rng.random((256, 256))
    mesh, u = raster_to_dg(raster, 1)
    assert u.coeffs.size == 786432


def test_raster_orientation():
    """Row 0 is the top scanline: the bright pixel is the top-left square
    of the mesh (small x, large y), square 2 counting rows from the bottom,
    so it owns cells 8-11, and rasterizing returns it to row 0."""
    raster = np.array([[1.0, 0.0], [0.0, 0.0]])
    mesh, u = raster_to_dg(raster, 0)
    assert np.array_equal(np.flatnonzero(u.coeffs), np.arange(8, 12))
    assert (u.coeffs[8:12] == 1.0).all()
    assert mesh.vertices[mesh.cells[8:12]].mean(axis=(0, 1)) \
        == pytest.approx([0.25, 0.75])
    assert np.array_equal(dg_to_raster(u, 2, 2), raster)


def test_dg_roundtrip_r0_identity():
    rng = np.random.default_rng(9)
    raster = rng.random((4, 6))
    mesh, u = raster_to_dg(raster, 0)
    back = dg_to_raster(u, 6, 4)
    assert np.abs(back - raster).max() == 0.0


def test_dg_to_raster_linear_ramp():
    mesh = build_crossed_mesh(4, 4, 1.0, 1.0)
    space = FeSpace(mesh, 1)
    u = DgFunction(space, space.interpolate(lambda p: p[:, 0]))
    raster = dg_to_raster(u, 4, 4)
    assert np.allclose(raster, np.tile([0.125, 0.375, 0.625, 0.875],
                                       (4, 1)), atol=1e-12)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(1, 9), st.integers(1, 9), st.sampled_from((0, 1, 2)),
       st.integers(0, 2**32 - 1))
def test_dg_to_raster_undoes_raster_to_dg(width, height, r, seed):
    """The pixel means of an ingested image return it (exactly at r = 0); the
    pixel means integrate the function; any other mesh size is refused."""
    rng = np.random.default_rng(seed)
    raster = rng.random((height, width))
    mesh, u = raster_to_dg(raster, r)
    back = dg_to_raster(u, width, height)
    if r == 0:
        assert np.array_equal(back, raster)
    else:
        assert np.abs(back - raster).max() <= 1e-15

    # values in [0, 1] have means in [0, 1], so the clamp changes nothing
    v = DgFunction(u.space, rng.random(u.space.dim_dg))
    means = dg_to_raster(v, width, height)
    integral = float(v.space.lumped_weights @ v.coeffs)
    assert math.isclose(means.sum() / width ** 2, integral, rel_tol=1e-13)

    with pytest.raises(ValueError, match="cells"):
        dg_to_raster(u, width + 1, height)
    if width != height:
        with pytest.raises(ValueError, match="crossed mesh"):
            dg_to_raster(u, height, width)


def test_load_mask_text(tmp_path, crossed_2x2):
    path = tmp_path / "mask.txt"
    path.write_text("0\n5\n7\n")
    masked = load_mask(path, crossed_2x2)
    assert masked.sum() == 3
    assert masked[[0, 5, 7]].all()

    empty = tmp_path / "empty.txt"
    empty.write_text("")
    assert load_mask(empty, crossed_2x2).sum() == 0

    bad = tmp_path / "bad.txt"
    bad.write_text(f"{crossed_2x2.num_cells}\n")
    with pytest.raises(ValueError):
        load_mask(bad, crossed_2x2)


def test_load_mask_names_a_line_that_is_not_utf8(tmp_path, crossed_2x2):
    path = tmp_path / "mask.txt"
    path.write_bytes(b"0\n5\xff\n")
    with pytest.raises(ValueError, match="mask line 2: bytes that are not "
                                         "UTF-8"):
        load_mask(path, crossed_2x2)


def test_load_mask_raster(tmp_path):
    mesh = build_crossed_mesh(3, 2, 1.0, 2.0 / 3.0)
    vals = np.ones((2, 3))
    vals[0, 1] = 0.0          # top middle pixel masked
    path = tmp_path / "mask.pgm"
    save_pgm(vals, path)
    masked = load_mask(path, mesh)
    assert masked.sum() == 4
    # top row has iy = 1, so square index = 1 * 3 + 1 = 4, cells 16..19
    assert masked[16:20].all()

    wrong = build_crossed_mesh(2, 2, 1.0, 1.0)
    with pytest.raises(ValueError):
        load_mask(path, wrong)


def test_load_mask_raster_with_swapped_dimensions(tmp_path):
    """A 2-wide, 4-high mask has the pixel count of a 4 x 2 image but not
    its shape: its dark top row would land on pixels 6-7, not 0-1."""
    mesh = build_crossed_mesh(4, 2, 1.0, 0.5)
    vals = np.ones((4, 2))
    vals[0] = 0.0
    path = tmp_path / "mask.pgm"
    save_pgm(vals, path)
    with pytest.raises(ValueError, match="not the crossed mesh of a 2x4"):
        load_mask(path, mesh)
