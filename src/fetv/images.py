"""PGM raster ingestion/export and the image <-> DG_r bridge.

Rasters ingest onto a crossed-diagonal mesh with one square per pixel and a
unit-width domain (pixel side 1/nx), so regularization parameters keep the
same meaning across resolutions.  Row 0 of a raster is the top scanline;
square (ix, iy) of the mesh counts iy upward from the bottom.  A DG_r
function on that mesh rasterizes to its pixel means, the L2 projection onto
pixel-constant functions, which undoes ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mesh import _text_lines, build_crossed_mesh
from .operators import DgFunction, _check_int
from .spaces import FeSpace

__all__ = [
    "Raster",
    "PgmError",
    "load_pgm",
    "save_pgm",
    "raster_to_dg",
    "dg_to_raster",
    "load_mask",
]


class PgmError(ValueError):
    """Malformed PGM header or truncated payload."""


@dataclass
class Raster:
    """Grayscale image with row-major intensities in [0, 1] (row 0 on top)."""

    width: int
    height: int
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(
            self.height, self.width)


_WS = b" \t\r\n\x0b\x0c"


def _tokens(data, start, count):
    """Read ``count`` whitespace-separated tokens from ``data`` beginning at
    ``start``, honoring '#' comments; returns the tokens and the absolute
    offset one past the last token."""
    tokens = []
    pos = start
    n = len(data)
    while len(tokens) < count:
        while pos < n and data[pos] in _WS:
            pos += 1
        if pos < n and data[pos:pos + 1] == b"#":
            nl = data.find(b"\n", pos)
            pos = n if nl < 0 else nl + 1
            continue
        begin = pos
        while pos < n and data[pos] not in _WS and data[pos:pos + 1] != b"#":
            pos += 1
        if begin == pos:
            raise PgmError("unexpected end of file in header or payload")
        tokens.append(data[begin:pos])
    return tokens, pos


def load_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) PGM with maxval <= 65535; samples
    are scaled by maxval and clamped to [0, 1]."""
    with open(path, "rb") as fh:
        data = fh.read()
    (magic,), pos = _tokens(data, 0, 1)
    if magic not in (b"P2", b"P5"):
        raise PgmError(f"unsupported magic {magic!r} (expected P2 or P5)")
    tokens, pos = _tokens(data, pos, 3)
    try:
        width, height, maxval = (int(t) for t in tokens)
    except ValueError:
        raise PgmError("non-numeric header field") from None
    if width <= 0 or height <= 0:
        raise PgmError("image dimensions must be positive")
    if not 1 <= maxval <= 65535:
        raise PgmError(f"maxval {maxval} out of range [1, 65535]")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the payload
        payload = data[pos + 1:]
        dtype = ">u2" if maxval > 255 else np.uint8
        itemsize = 2 if maxval > 255 else 1
        if len(payload) < count * itemsize:
            raise PgmError("truncated P5 payload")
        samples = np.frombuffer(payload[: count * itemsize], dtype=dtype)
        samples = samples.astype(float)
    else:
        try:
            body, _ = _tokens(data, pos, count)
        except PgmError:
            raise PgmError("truncated P2 payload") from None
        try:
            samples = np.array([int(v) for v in body], dtype=float)
        except ValueError:
            raise PgmError("non-numeric P2 sample") from None
    values = np.clip(samples / maxval, 0.0, 1.0).reshape(height, width)
    return Raster(width=width, height=height, values=values)


def save_pgm(raster: Raster, path, maxval=255, binary=True):
    """Write a canonical PGM; values are quantized to round(v * maxval)."""
    maxval = _check_int("maxval", maxval, 1, 65535)
    q = np.clip(np.rint(np.clip(raster.values, 0.0, 1.0) * maxval),
                0, maxval).astype(np.uint16)
    header = f"{'P5' if binary else 'P2'}\n{raster.width} {raster.height}\n" \
             f"{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(q.astype(">u2" if maxval > 255 else np.uint8).tobytes())
        else:
            for row in q:
                fh.write((" ".join(str(int(v)) for v in row) + "\n")
                         .encode("ascii"))


def raster_to_dg(raster: Raster, r):
    """Ingest a raster as a DG_r function on the crossed-diagonal mesh with
    one square per pixel: every Lagrange node of a pixel's four triangles
    takes that pixel's value, so the function equals the image exactly."""
    nx, ny = raster.width, raster.height
    mesh = build_crossed_mesh(nx, ny, 1.0, ny / nx)
    space = FeSpace(mesh, r)
    square_vals = np.flipud(raster.values).ravel()      # (iy, ix) bottom-up
    coeffs = np.repeat(square_vals, 4 * space.dofs.n_cell_basis)
    return mesh, DgFunction(space, coeffs)


def _check_pixel_mesh(mesh, width, height):
    """Raise ValueError unless ``mesh`` is the crossed mesh that
    ``raster_to_dg`` builds for a width x height raster."""
    if mesh.num_cells != 4 * width * height:
        raise ValueError(f"mesh has {mesh.num_cells} cells, not the "
                         f"{4 * width * height} of a {width}x{height} raster")
    # each pixel's four cells, 12 corners in all, average to its center on
    # the domain [0, 1] x [0, height/width]
    centers = mesh.vertices[mesh.cells].reshape(height, width, 12, 2)
    ix, iy = np.meshgrid(np.arange(width), np.arange(height), indexing="xy")
    expected = np.stack([ix + 0.5, iy + 0.5], axis=-1) / width
    if not np.allclose(centers.mean(axis=2), expected, rtol=0.0, atol=1e-12):
        raise ValueError(f"mesh is not the crossed mesh of a {width}x{height} "
                         "raster")


def dg_to_raster(u: DgFunction, width, height):
    """The pixel means of a function on the mesh ``raster_to_dg`` builds
    for a width x height raster, clamped to [0, 1].  A cell's mean comes
    from the exact integrals of its nodal basis; the four cells of a pixel
    have equal area, so the pixel value is the plain mean of theirs.
    Raises ValueError on any other mesh."""
    _check_pixel_mesh(u.space.mesh, width, height)
    means = u.space.cell_matrix(u.coeffs) @ u.space.layout.cell_full
    # summed in pairs, so four equal cell means give that value exactly
    pixels = 0.25 * means.reshape(height, width, 2, 2).sum(axis=3).sum(axis=2)
    return Raster(width=width, height=height,
                  values=np.clip(np.flipud(pixels), 0.0, 1.0))


def load_mask(path, mesh):
    """Read an inpainting mask: either a text file with one 0-based cell
    index per line, or a PGM whose dark pixels (< 0.5) mark masked squares
    (all four sub-triangles of the pixel) and whose width and height are
    those of ``mesh``'s raster.  Returns a boolean per-cell array with True
    on masked cells; the complement carries the data."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    masked = np.zeros(mesh.num_cells, dtype=bool)
    if head in (b"P2", b"P5"):
        raster = load_pgm(path)
        _check_pixel_mesh(mesh, raster.width, raster.height)
        dark = np.flipud(raster.values).ravel() < 0.5
        masked[:] = np.repeat(dark, 4)
        return masked
    lines, _ = _text_lines(
        path, lambda msg, line: ValueError(f"mask line {line}: {msg}"))
    for no, text in lines:
        try:
            idx = int(text)
        except ValueError:
            raise ValueError(f"mask line {no}: not a cell index: {text!r}") \
                from None
        if not 0 <= idx < mesh.num_cells:
            raise ValueError(
                f"mask line {no}: cell index {idx} out of range "
                f"[0, {mesh.num_cells})"
            )
        masked[idx] = True
    return masked
