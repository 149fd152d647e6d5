import numpy as np
import pytest

from fetv.dtv import vector_norm
from fetv.mesh import build_crossed_mesh, build_diagonal_square
from fetv.operators import DgFunction
from fetv.solvers import prox_vector, shrink
from fetv.spaces import FeSpace


def smooth_disc(pts, center=(0.5, 0.5), radius=0.3, band=0.15):
    """Disc with a smoothstep edge; the stand-in for the non-discrete
    ball test image."""
    d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    t = np.clip((radius + band / 2 - d) / band, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def sharp_disc(pts, center=(0.5, 0.5), radius=0.3):
    d = np.hypot(pts[:, 0] - center[0], pts[:, 1] - center[1])
    return (d <= radius).astype(float)


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
