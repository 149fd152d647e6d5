"""PGM raster ingestion/export and the image <-> DG_r bridge.

An image is a float array of shape (height, width) with values in [0, 1]
and row 0 the top scanline.  It ingests onto a crossed-diagonal mesh with
one square per pixel and a unit-width domain (pixel side 1/width), so
regularization parameters keep the same meaning across resolutions; square
(ix, iy) of the mesh counts iy upward from the bottom.  A DG_r function on
that mesh rasterizes to its pixel means, the L2 projection onto
pixel-constant functions, which undoes ingestion.
"""

from __future__ import annotations

import re

import numpy as np

from .mesh import _line_values, build_crossed_mesh
from .operators import DgFunction, _check_int
from .spaces import FeSpace

__all__ = [
    "PgmError",
    "load_pgm",
    "save_pgm",
    "raster_to_dg",
    "dg_to_raster",
    "load_mask",
]


class PgmError(ValueError):
    """Malformed PGM header or truncated payload."""


# a token after whitespace (\s of a bytes pattern is PGM's set) and '#'
# comments, which the lookahead keeps whole when no token follows them
_TOKEN = re.compile(rb"(?:\s|#[^\n]*(?![^\n]))*([^\s#]+)")
_MAXVAL = 65535


def _sample_dtype(maxval):     # big-endian 2-byte samples above 255
    return np.dtype(">u2" if maxval > 255 else np.uint8)


def _tokens(data, start, count, short="unexpected end of file in header"):
    """``count`` tokens of ``_TOKEN`` from offset ``start`` of ``data`` and
    the offset one past the last; PgmError(``short``) if there are fewer."""
    tokens = []
    for _ in range(count):
        if not (match := _TOKEN.match(data, start)):
            raise PgmError(short)
        tokens.append(match[1])
        start = match.end()
    return tokens, start


def load_pgm(path):
    """Read a P2 (ASCII) or P5 (binary) PGM with maxval <= 65535 as an
    image; samples are scaled by maxval and clamped to [0, 1]."""
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
    if not 1 <= maxval <= _MAXVAL:
        raise PgmError(f"maxval {maxval} out of range [1, {_MAXVAL}]")

    count = width * height
    if magic == b"P5":
        # exactly one whitespace byte separates maxval from the payload
        payload = data[pos + 1:]
        dtype = _sample_dtype(maxval)
        if len(payload) < count * dtype.itemsize:
            raise PgmError("truncated P5 payload")
        samples = np.frombuffer(payload, dtype, count).astype(float)
    else:
        body, _ = _tokens(data, pos, count, "truncated P2 payload")
        try:
            samples = np.array([int(v) for v in body], dtype=float)
        except ValueError:
            raise PgmError("non-numeric P2 sample") from None
    return np.clip(samples / maxval, 0.0, 1.0).reshape(height, width)


def save_pgm(image, path, maxval=255, binary=True):
    """Write a 2-D array-like as a canonical PGM; values are clamped to
    [0, 1] and quantized to round(v * maxval)."""
    maxval = _check_int("maxval", maxval, 1, _MAXVAL)
    image = np.asarray(image, dtype=float)
    height, width = image.shape
    q = np.rint(np.clip(image, 0.0, 1.0) * maxval).astype(np.uint16)
    header = f"{'P5' if binary else 'P2'}\n{width} {height}\n{maxval}\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        if binary:
            fh.write(q.astype(_sample_dtype(maxval)).tobytes())
        else:
            for row in q:
                fh.write((" ".join(str(int(v)) for v in row) + "\n")
                         .encode("ascii"))


def raster_to_dg(image, r):
    """Ingest an image (any 2-D array-like) as a DG_r function on the crossed
    mesh with one square per pixel: every Lagrange node of a pixel's four
    triangles takes that pixel's value, so the function equals the image."""
    image = np.asarray(image, dtype=float)
    height, width = image.shape
    mesh = build_crossed_mesh(width, height, 1.0, height / width)
    space = FeSpace(mesh, r)
    square_vals = np.flipud(image).ravel()      # (iy, ix) bottom-up
    coeffs = np.repeat(square_vals, 4 * space.dofs.n_cell_basis)
    return mesh, DgFunction(space, coeffs)


def _check_pixel_mesh(mesh, width, height):
    """Raise ValueError unless ``mesh`` is the crossed mesh that
    ``raster_to_dg`` builds for a width x height image."""
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
    """The image of pixel means of a function on the mesh ``raster_to_dg``
    builds for a width x height image, clamped to [0, 1].  A cell's mean
    comes from the exact integrals of its nodal basis; the four cells of a
    pixel have equal area, so the pixel value is the plain mean of theirs.
    Raises ValueError on any other mesh."""
    _check_pixel_mesh(u.space.mesh, width, height)
    means = u.space.cell_matrix(u.coeffs) @ u.space.layout.cell_full
    # summed in pairs, so four equal cell means give that value exactly
    pixels = 0.25 * means.reshape(height, width, 2, 2).sum(axis=3).sum(axis=2)
    return np.clip(np.flipud(pixels), 0.0, 1.0)


def load_mask(path, mesh):
    """Read an inpainting mask: either a text file with one 0-based cell
    index per line, or a PGM whose dark pixels (< 0.5) mark masked squares
    (all four sub-triangles of the pixel) and whose width and height are
    those of ``mesh``'s image.  Returns a boolean per-cell array with True
    on masked cells; the complement carries the data."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    masked = np.zeros(mesh.num_cells, dtype=bool)
    if head in (b"P2", b"P5"):
        image = load_pgm(path)
        _check_pixel_mesh(mesh, *image.shape[::-1])
        dark = np.flipud(image).ravel() < 0.5
        masked[:] = np.repeat(dark, 4)
        return masked
    for no, idx in _line_values(path, "mask", int, "a cell index"):
        if not 0 <= idx < mesh.num_cells:
            raise ValueError(
                f"mask line {no}: cell index {idx} out of range "
                f"[0, {mesh.num_cells})"
            )
        masked[idx] = True
    return masked
