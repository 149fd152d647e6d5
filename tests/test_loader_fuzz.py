"""Fuzzing of the three file loaders with truncated and mutated bytes: each
either reads the file or raises its typed error, never an IndexError, a
UnicodeDecodeError or another untyped exception."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fetv.images import PgmError, Raster, load_mask, load_pgm, save_pgm
from fetv.mesh import (MeshFormatError, MeshTopologyError, build_crossed_mesh,
                       load_mesh, save_mesh)

# derandomized: the same examples on every run, so the suite is repeatable
SETTINGS = settings(max_examples=50, deadline=None, derandomize=True)

MESH = build_crossed_mesh(2, 2, 1.0, 1.0)   # 16 cells, a 2 x 2 pixel mask


@st.composite
def corrupted(draw, data):
    """``data`` cut short, or with one to three bytes replaced, inserted or
    deleted."""
    if draw(st.booleans()):
        return data[:draw(st.integers(0, len(data) - 1))]
    out = bytearray(data)
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(out)))
        byte = draw(st.integers(0, 255))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "insert" or at == len(out):
            out.insert(at, byte)
        elif edit == "replace":
            out[at] = byte
        else:
            del out[at]
    return bytes(out)


def _written(tmp_path_factory, write):
    """The bytes ``write(path)`` puts in a file."""
    path = tmp_path_factory.mktemp("seed") / "file"
    write(path)
    return path.read_bytes()


@pytest.fixture(scope="module")
def seeds(tmp_path_factory):
    values = np.array([[0.2, 0.9], [0.6, 0.1]])

    def pgm(maxval, binary):
        return _written(tmp_path_factory, lambda path: save_pgm(
            Raster(2, 2, values), path, maxval=maxval, binary=binary))

    return {
        "mesh": _written(tmp_path_factory, lambda path: save_mesh(MESH, path)),
        "p2": pgm(255, False),
        "p5": pgm(255, True),
        "p5-16": pgm(65535, True),
        "mask": b"# masked cells\n0\n5\n11\n15\n",
    }


@SETTINGS
@given(st.data())
def test_load_mesh_fuzz(seeds, tmp_path_factory, data):
    raw = data.draw(corrupted(seeds["mesh"]))
    path = tmp_path_factory.getbasetemp() / "fuzz.mesh"
    path.write_bytes(raw)
    try:
        load_mesh(path)
    except MeshFormatError as exc:
        assert exc.line is not None
        return
    except MeshTopologyError:
        pass
    raw.decode("utf-8")   # bytes that are not UTF-8 never get this far


@SETTINGS
@given(st.data())
def test_load_mesh_not_utf8_names_the_line(seeds, tmp_path_factory, data):
    """A byte that is not UTF-8 is a MeshFormatError at its line."""
    mesh = seeds["mesh"]
    at = data.draw(st.integers(0, len(mesh) - 1))
    bad = mesh[:at] + data.draw(st.sampled_from((b"\xff", b"\xc3", b"\x80")))\
        + mesh[at + 1:]
    path = tmp_path_factory.getbasetemp() / "fuzz.mesh"
    path.write_bytes(bad)
    with pytest.raises(MeshFormatError) as info:
        load_mesh(path)
    assert info.value.line == mesh[:at].count(b"\n") + 1


@SETTINGS
@given(st.data())
def test_load_pgm_fuzz(seeds, tmp_path_factory, data):
    kind = data.draw(st.sampled_from(("p2", "p5", "p5-16")))
    path = tmp_path_factory.getbasetemp() / "fuzz.pgm"
    path.write_bytes(data.draw(corrupted(seeds[kind])))
    try:
        raster = load_pgm(path)
    except PgmError:
        return
    assert raster.values.shape == (raster.height, raster.width)
    assert np.all((raster.values >= 0.0) & (raster.values <= 1.0))


@SETTINGS
@given(st.data())
def test_load_mask_fuzz(seeds, tmp_path_factory, data):
    kind = data.draw(st.sampled_from(("mask", "p2", "p5")))
    path = tmp_path_factory.getbasetemp() / "fuzz_mask"
    path.write_bytes(data.draw(corrupted(seeds[kind])))
    try:
        masked = load_mask(path, MESH)
    except ValueError:
        return
    assert masked.shape == (MESH.num_cells,) and masked.dtype == bool
