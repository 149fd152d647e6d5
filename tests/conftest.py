import hashlib
import json
import math

import numpy as np
import pytest

from fetv.dtv import vector_norm
from fetv.mesh import Mesh, build_crossed_mesh
from fetv.operators import DgFunction
from fetv.solvers import prox_vector, shrink
from fetv.spaces import FeSpace


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


def smooth_disc(pts, center=(0.5, 0.5), radius=0.3, band=0.15):
    """Disc with a smoothstep edge; the stand-in for the non-discrete
    ball test image."""
    d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    t = np.clip((radius + band / 2 - d) / band, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def sharp_disc(pts, center=(0.5, 0.5), radius=0.3):
    d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    return (d <= radius).astype(float)


def array_digest(*arrays):
    """sha256 over the dtype, shape and bytes of each array in turn: a pin
    that any change of type, layout or a single bit breaks."""
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(f"{a.dtype.str}{a.shape}".encode())
        h.update(a.tobytes())
    return h.hexdigest()


def strict_json(text):
    """Parse RFC 8259 JSON: the Infinity and NaN tokens that Python's json
    writes and reads by default are errors."""
    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")
    return json.loads(text, parse_constant=refuse)


def random_dg(space, rng, scale=1.0):
    return DgFunction(space, scale * rng.standard_normal(space.dim_dg))


def bregman_shrink(space, beta, s, scale, gb, lam):
    """The textbook split Bregman update d = shrink(gb) of gb = Lambda u + b:
    edge jumps shrunk by beta |n_E|_s / lam, cell gradient pairs through the
    prox of |.|_s by beta / (lam * scale).  The new multiplier is gb - d."""
    d = space.new_y()
    edge_norms = vector_norm(space.mesh.edge_normals, s)
    space.y_edge_view(d)[:] = shrink(space.y_edge_view(gb),
                                     beta * edge_norms[:, None] / lam)
    space.y_cell_view(d)[:] = prox_vector(space.y_cell_view(gb),
                                          beta / (lam * scale), s)
    return d


@pytest.fixture(scope="session")
def unit_crossed():
    return build_crossed_mesh(1, 1, 1.0, 1.0)


@pytest.fixture(scope="session")
def crossed_2x2():
    return build_crossed_mesh(2, 2, 1.0, 1.0)


@pytest.fixture(scope="session")
def diag_square():
    return build_diagonal_square(0.0)


@pytest.fixture(scope="session")
def spaces_unit(unit_crossed):
    return {r: FeSpace(unit_crossed, r) for r in (0, 1, 2)}


@pytest.fixture(scope="session")
def spaces_2x2(crossed_2x2):
    return {r: FeSpace(crossed_2x2, r) for r in (0, 1, 2)}


@pytest.fixture(scope="session")
def spaces_rotated():
    """r = 0, 1, 2 on two-cell squares at rotations whose Jacobians are not
    exact in floating point."""
    return [FeSpace(build_diagonal_square(a), r)
            for a in (0.3, 0.7, 1.1, 2.9) for r in (0, 1, 2)]
