"""Conforming triangular meshes with interior-edge connectivity.

Cells are stored counterclockwise (positive Jacobian determinant); cells
supplied with negative orientation are rewound on construction.  Interior
edges carry a deterministic orientation: the unit normal always points from
the lower-indexed adjacent cell (``cell_plus``) into the higher-indexed one
(``cell_minus``), so jump signs are reproducible across runs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Mesh",
    "MeshFormatError",
    "MeshTopologyError",
    "build_crossed_mesh",
    "build_diagonal_square",
    "load_mesh",
    "save_mesh",
]

MESH_MAGIC = "fetv-mesh 1"


class MeshFormatError(ValueError):
    """Raised when a mesh file cannot be parsed; carries the line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class MeshTopologyError(ValueError):
    """Raised for degenerate cells, hanging nodes or non-manifold edges."""


class Mesh:
    """Immutable triangular mesh with derived geometry and edge connectivity.

    Parameters
    ----------
    vertices : (N_V, 2) array of vertex coordinates
    cells : (N_T, 3) array of vertex indices

    Raises
    ------
    MeshTopologyError
        for degenerate cells, edges shared by more than two cells, or
        hanging nodes (a vertex lying in the interior of another cell's
        facet).
    """

    def __init__(self, vertices, cells):
        vertices = np.ascontiguousarray(vertices, dtype=float)
        cells = np.ascontiguousarray(cells, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise ValueError("vertices must be an (N_V, 2) array")
        if cells.ndim != 2 or cells.shape[1] != 3:
            raise ValueError("cells must be an (N_T, 3) array")
        if cells.size and (cells.min() < 0 or cells.max() >= len(vertices)):
            raise MeshTopologyError("cell references a vertex index out of range")

        repeated = (
            (cells[:, 0] == cells[:, 1])
            | (cells[:, 1] == cells[:, 2])
            | (cells[:, 0] == cells[:, 2])
        )
        if repeated.any():
            raise MeshTopologyError(
                f"cell {int(np.argmax(repeated))} repeats a vertex index"
            )

        self.vertices = vertices
        self.cells = cells.copy()
        self._build_geometry()
        self._build_edges()
        self.vertices.setflags(write=False)
        self.cells.setflags(write=False)

    # -- geometry ---------------------------------------------------------

    def _build_geometry(self):
        v0 = self.vertices[self.cells[:, 0]]
        v1 = self.vertices[self.cells[:, 1]]
        v2 = self.vertices[self.cells[:, 2]]
        det = np.linalg.det(np.stack([v1 - v0, v2 - v0], axis=-1))

        # rewind negatively oriented cells so det B_T > 0 everywhere
        flip = det < 0
        if flip.any():
            self.cells[flip, 1], self.cells[flip, 2] = (
                self.cells[flip, 2].copy(),
                self.cells[flip, 1].copy(),
            )
            v1 = self.vertices[self.cells[:, 1]]
            v2 = self.vertices[self.cells[:, 2]]
            det = np.abs(det)

        scale = np.maximum(
            np.abs(v1 - v0).max(axis=1), np.abs(v2 - v0).max(axis=1)
        )
        degenerate = det <= 1e-14 * np.maximum(scale, 1.0) ** 2
        if degenerate.any():
            raise MeshTopologyError(
                f"cell {int(np.argmax(degenerate))} is degenerate (zero area)"
            )

        jac = np.empty((len(self.cells), 2, 2))
        jac[:, :, 0] = v1 - v0
        jac[:, :, 1] = v2 - v0
        self.jacobian = jac                         # B_T, columns are edge vectors
        self.shift = v0.copy()                      # b_T
        self.det_jacobian = det
        inv = np.empty_like(jac)
        inv[:, 0, 0] = jac[:, 1, 1]
        inv[:, 0, 1] = -jac[:, 0, 1]
        inv[:, 1, 0] = -jac[:, 1, 0]
        inv[:, 1, 1] = jac[:, 0, 0]
        inv /= det[:, None, None]
        self.inv_jacobian = inv                     # B_T^{-1}
        self.inv_jacobian_t = np.swapaxes(inv, 1, 2)
        self.cell_areas = det / 2.0
        for a in (self.jacobian, self.shift, self.det_jacobian,
                  self.inv_jacobian, self.inv_jacobian_t, self.cell_areas):
            a.setflags(write=False)

    # -- connectivity ------------------------------------------------------

    def _build_edges(self):
        n_t = len(self.cells)
        # facet k of a cell runs from local vertex k to k+1 (mod 3)
        va = self.cells.ravel()
        vb = self.cells[:, [1, 2, 0]].ravel()
        owner = np.repeat(np.arange(n_t), 3)
        facet = np.tile(np.arange(3), n_t)
        lo = np.minimum(va, vb)
        hi = np.maximum(va, vb)
        forward = (va == lo).astype(np.int8)  # local direction matches (lo, hi)

        order = np.lexsort((hi, lo))
        lo, hi, owner, facet, forward = (
            lo[order], hi[order], owner[order], facet[order], forward[order]
        )
        new_group = np.ones(len(lo), dtype=bool)
        new_group[1:] = (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
        group_start = np.flatnonzero(new_group)
        counts = np.diff(np.append(group_start, len(lo)))
        if (counts > 2).any():
            g = group_start[np.argmax(counts > 2)]
            raise MeshTopologyError(
                f"edge ({lo[g]}, {hi[g]}) is shared by {counts[counts > 2][0]} cells"
            )

        interior = group_start[counts == 2]
        boundary = group_start[counts == 1]

        s0, s1 = interior, interior + 1
        swap = owner[s0] > owner[s1]
        first = np.where(swap, s1, s0)
        second = np.where(swap, s0, s1)

        self.edge_vertices = np.column_stack([lo[first], hi[first]])
        self.edge_cells = np.column_stack([owner[first], owner[second]])
        self.edge_facets = np.column_stack([facet[first], facet[second]])
        ori = np.column_stack([forward[first], forward[second]]).astype(np.int8)
        self.edge_orientations = np.where(ori == 1, 1, -1).astype(np.int8)

        p0 = self.vertices[self.edge_vertices[:, 0]]
        p1 = self.vertices[self.edge_vertices[:, 1]]
        tang = p1 - p0
        length = np.hypot(tang[:, 0], tang[:, 1])
        # outward normal of cell_plus across a CCW facet a->b is (t_y, -t_x);
        # the facet runs g0->g1 iff orient_plus == +1
        normal = np.column_stack([tang[:, 1], -tang[:, 0]])
        normal *= (self.edge_orientations[:, 0] / length)[:, None]
        self.edge_normals = normal
        self.edge_lengths = length

        self.boundary_edge_vertices = np.column_stack([lo[boundary], hi[boundary]])
        self.boundary_edge_cells = owner[boundary].copy()
        self.boundary_edge_facets = facet[boundary].copy()

        self._check_hanging_nodes()
        for a in (self.edge_vertices, self.edge_cells, self.edge_facets,
                  self.edge_orientations, self.edge_normals, self.edge_lengths,
                  self.boundary_edge_vertices, self.boundary_edge_cells,
                  self.boundary_edge_facets):
            a.setflags(write=False)

    def _check_hanging_nodes(self):
        """A hanging node shows up as a vertex strictly inside a facet that
        was classified as boundary (its twin is split into sub-facets)."""
        if not len(self.boundary_edge_vertices):
            return
        from scipy.spatial import cKDTree

        tree = cKDTree(self.vertices)
        p0 = self.vertices[self.boundary_edge_vertices[:, 0]]
        p1 = self.vertices[self.boundary_edge_vertices[:, 1]]
        mid = 0.5 * (p0 + p1)
        half = 0.5 * np.hypot(*(p1 - p0).T)
        for e, cand in enumerate(tree.query_ball_point(mid, half * (1 + 1e-9))):
            a, b = self.boundary_edge_vertices[e]
            t = p1[e] - p0[e]
            lsq = t @ t
            for v in cand:
                if v == a or v == b:
                    continue
                d = self.vertices[v] - p0[e]
                s = (d @ t) / lsq
                off = abs(d[0] * t[1] - d[1] * t[0]) / math.sqrt(lsq)
                if 1e-12 < s < 1 - 1e-12 and off <= 1e-12 * math.sqrt(lsq):
                    raise MeshTopologyError(
                        f"hanging node: vertex {v} lies inside facet "
                        f"{self.boundary_edge_facets[e]} of cell "
                        f"{self.boundary_edge_cells[e]}"
                    )

    # -- queries -----------------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_cells(self):
        return len(self.cells)

    @property
    def num_interior_edges(self):
        return len(self.edge_vertices)


# -- generators -------------------------------------------------------------


def build_crossed_mesh(nx, ny, width, height):
    """Pixel grid of nx x ny squares, each split into 4 triangles meeting at
    the square's center.

    Squares are numbered row-major from the bottom-left (square (ix, iy) has
    index iy*nx + ix) and own cells 4*s .. 4*s+3 in the order bottom, right,
    top, left triangle.
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise ValueError("grid dimensions must be at least 1x1")
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise ValueError("width and height must be positive and finite")

    dx = width / nx
    dy = height / ny
    gi, gj = np.meshgrid(np.arange(nx + 1), np.arange(ny + 1), indexing="xy")
    grid = np.column_stack([(gi * dx).ravel(), (gj * dy).ravel()])
    ci, cj = np.meshgrid(np.arange(nx), np.arange(ny), indexing="xy")
    centers = np.column_stack(
        [((ci + 0.5) * dx).ravel(), ((cj + 0.5) * dy).ravel()]
    )
    vertices = np.vstack([grid, centers])

    sq_i = ci.ravel()
    sq_j = cj.ravel()
    bl = sq_j * (nx + 1) + sq_i
    br = bl + 1
    tl = bl + (nx + 1)
    tr = tl + 1
    c = (nx + 1) * (ny + 1) + sq_j * nx + sq_i

    cells = np.empty((nx * ny, 4, 3), dtype=np.int64)
    cells[:, 0] = np.column_stack([bl, br, c])
    cells[:, 1] = np.column_stack([br, tr, c])
    cells[:, 2] = np.column_stack([tr, tl, c])
    cells[:, 3] = np.column_stack([tl, bl, c])
    return Mesh(vertices, cells.reshape(-1, 3))


def build_diagonal_square(angle=0.0):
    """Unit square split by one diagonal into two triangles, rotated by
    ``angle`` about its center.  The single interior edge has length sqrt(2)
    and normal (1, 1)/sqrt(2) at angle 0."""
    corners = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    c, s = math.cos(angle), math.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    center = np.array([0.5, 0.5])
    vertices = (corners - center) @ rot.T + center
    cells = np.array([[0, 1, 3], [1, 2, 3]])
    return Mesh(vertices, cells)


# -- text format --------------------------------------------------------------


def save_mesh(mesh, path):
    """Write the plain text mesh format (coordinates at full precision)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(MESH_MAGIC + "\n")
        fh.write(f"vertices {mesh.num_vertices}\n")
        for x, y in mesh.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"cells {mesh.num_cells}\n")
        for a, b, c in mesh.cells:
            fh.write(f"{a} {b} {c}\n")


def _text_lines(path, error):
    """The (number, text) pairs of a UTF-8 text file's lines that hold more
    than a '#' comment, the comment cut, and the number of lines.  A line
    of bytes that are not UTF-8 raises ``error(message, line=number)``."""
    # bytes that are not UTF-8 become lone surrogates, found line by line
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        raw = fh.readlines()
    lines = []
    for no, text in enumerate(raw, start=1):
        try:
            text.encode("utf-8")
        except UnicodeEncodeError:
            raise error("bytes that are not UTF-8 text", line=no) from None
        text = text.split("#", 1)[0].strip()
        if text:
            lines.append((no, text))
    return lines, len(raw)


def load_mesh(path):
    """Read the plain text mesh format; interior edges are rebuilt."""
    lines, n_lines = _text_lines(path, MeshFormatError)
    pos = 0

    def take(what):
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError(f"unexpected end of file, expected {what}",
                                  line=n_lines)
        item = lines[pos]
        pos += 1
        return item

    def count(keyword):
        """The count of a '<keyword> <n>' line, checked against the lines
        left so that a bad header cannot ask for a huge array."""
        no, text = take(f"{keyword} count")
        parts = text.split()
        if len(parts) != 2 or parts[0] != keyword:
            raise MeshFormatError(f"expected '{keyword} <count>'", line=no)
        try:
            n = int(parts[1])
        except ValueError:
            raise MeshFormatError(f"bad {keyword} count {parts[1]!r}",
                                  line=no) from None
        if not 0 <= n <= len(lines) - pos:
            raise MeshFormatError(f"{keyword} count {n} is negative or exceeds "
                                  f"the {len(lines) - pos} lines left", line=no)
        return n

    no, text = take("header")
    if text != MESH_MAGIC:
        raise MeshFormatError(f"bad header {text!r}", line=no)

    vertices = np.empty((count("vertices"), 2))
    for i in range(len(vertices)):
        no, text = take("vertex")
        parts = text.split()
        if len(parts) != 2:
            raise MeshFormatError("expected two coordinates", line=no)
        try:
            vertices[i] = [float(parts[0]), float(parts[1])]
        except ValueError:
            raise MeshFormatError(f"bad coordinate in {text!r}", line=no) from None
        if not np.isfinite(vertices[i]).all():
            raise MeshFormatError(f"non-finite coordinate in {text!r}", line=no)

    cells = np.empty((count("cells"), 3), dtype=np.int64)
    for i in range(len(cells)):
        no, text = take("cell")
        parts = text.split()
        if len(parts) != 3:
            raise MeshFormatError("expected three vertex indices", line=no)
        try:
            cells[i] = [int(p) for p in parts]
        except (ValueError, OverflowError):
            raise MeshFormatError(f"bad vertex index in {text!r}", line=no) from None

    if pos != len(lines):
        raise MeshFormatError("trailing content after cell list", line=lines[pos][0])
    return Mesh(vertices, cells)
