"""Property tests for the per-iteration kernels: the masked DG mass, its
inverse, the feasible-set projection and the infeasibility measure, on
jittered crossed meshes with drawn masks, degrees and inputs."""

import math
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from fetv.dtv import (ConstraintSetSpec, _duffy_rule, infeasibility,
                      project_feasible, vector_norm)
from fetv.mesh import Mesh, build_crossed_mesh
from fetv.spaces import FeSpace

# derandomized: the same examples on every run, so the suite is repeatable
SETTINGS = settings(max_examples=20, deadline=None, derandomize=True)


@lru_cache(maxsize=None)
def _space(n, jitter_seed, r):
    """DG_r on an n x n crossed mesh of the unit square whose vertices are
    moved by up to an eighth of a square side (cells stay positive)."""
    base = build_crossed_mesh(n, n, 1.0, 1.0)
    rng = np.random.default_rng(jitter_seed)
    vertices = base.vertices + rng.uniform(-1.0, 1.0, base.vertices.shape) \
        / (8.0 * n)
    return FeSpace(Mesh(vertices, base.cells), r)


@st.composite
def instances(draw):
    """A space, a cell mask (kept cells True, possibly none) and a seed for
    the input vectors."""
    n = draw(st.integers(1, 3))
    r = draw(st.sampled_from((0, 1, 2)))
    space = _space(n, draw(st.integers(0, 3)), r)
    mask = np.array(draw(st.lists(st.booleans(), min_size=space.mesh.num_cells,
                                  max_size=space.mesh.num_cells)))
    return space, mask, draw(st.integers(0, 2**32 - 1))


def _dense_mass(space, mask):
    """Block-diagonal mass of the kept cells from a degree-10 quadrature of
    the basis products on the reference cell, independent of the exact
    rational tables the space holds."""
    pts, wts = _duffy_rule(6)
    phi = space.layout.eval_cell(pts)
    ref = (phi * wts[:, None]).T @ phi
    det = np.where(mask, space.mesh.det_jacobian, 0.0)
    n_k = space.dofs.n_cell_basis
    dense = np.zeros((space.dim_dg, space.dim_dg))
    for t, d in enumerate(det):
        dense[t * n_k:(t + 1) * n_k, t * n_k:(t + 1) * n_k] = d * ref
    return dense


@SETTINGS
@given(instances())
def test_masked_mass_matches_dense_reference(instance):
    space, mask, seed = instance
    u = np.random.default_rng(seed).standard_normal(space.dim_dg)
    dense = _dense_mass(space, mask)
    ref = dense @ u
    got = space.apply_mass(u, mask=mask)
    assert np.abs(got - ref).max() <= 1e-13 * np.abs(dense).sum(axis=1).max() \
        * np.abs(u).max()
    assert math.isclose(space.l2_norm_sq(u, mask=mask), u @ ref,
                        rel_tol=1e-12, abs_tol=1e-14 * (u @ u))
    # scaling by det on kept cells and 0 elsewhere is zeroing the masked
    # rows of the plain product, value for value
    zeroed = space.apply_mass(u)
    zeroed[~np.repeat(mask, space.dofs.n_cell_basis)] = 0.0
    assert np.array_equal(got, zeroed)


@SETTINGS
@given(instances())
def test_mass_inverse_inverts_mass(instance):
    space, _, seed = instance
    u = np.random.default_rng(seed).standard_normal(space.dim_dg)
    back = space.apply_mass_inverse(space.apply_mass(u))
    assert np.abs(back - u).max() <= 1e-12 * np.abs(u).max()


def _hinge_reference(p, spec):
    """The infeasibility measure written out of place."""
    space = spec.space
    viol = np.maximum(np.abs(space.y_edge_view(p)) - spec.edge_bounds, 0.0)
    total = float((viol ** 2 / space.edge_weights).sum())
    cell = space.y_cell_view(p)
    w = spec.scale * space.cell_weights
    if spec.s == 2:
        hinge = np.maximum(vector_norm(cell, 2) - spec.cell_bounds, 0.0)
        return total + float((hinge ** 2 / w).sum())
    hinge = np.maximum(np.abs(cell) - spec.cell_bounds[..., None], 0.0)
    return total + float(((hinge ** 2).sum(axis=-1) / w).sum())


def _projection_reference(p, spec):
    """The projection onto beta*P written out of place."""
    space = spec.space
    out = p.copy()
    edge = space.y_edge_view(out)
    edge[:] = np.clip(edge, -spec.edge_bounds, spec.edge_bounds)
    cell = space.y_cell_view(out)
    radius = spec.cell_bounds
    if spec.s == 2:
        factor = radius / np.maximum(vector_norm(cell, 2), radius)
        cell[:] = cell * factor[..., None]
    elif spec.s == 1:
        cell[:] = np.clip(cell, -radius[..., None], radius[..., None])
    return out


@SETTINGS
@given(instances(), st.sampled_from((1, 2, math.inf)),
       st.floats(1e-3, 1.0), st.floats(1e-2, 1.0), st.floats(1e-2, 1e2))
def test_projection_properties(instance, s, beta, scale, spread):
    """project_feasible leaves its input alone and is idempotent; for
    s in {1, 2} its image has zero infeasibility up to squared rounding
    (relative to the scale of the measure),
    and projection and infeasibility equal their out-of-place forms bit
    for bit."""
    space, _, seed = instance
    spec = ConstraintSetSpec(space, beta=beta, s=s, scale=scale)
    # dofs of the size of their bounds times spread: in and out of the set
    bounds = np.concatenate([np.repeat(spec.cell_bounds.ravel(), 2),
                             spec.edge_bounds.ravel()])
    p = np.random.default_rng(seed).standard_normal(space.dim_y) \
        * bounds * spread
    before = p.copy()
    proj = project_feasible(p, spec)
    assert np.array_equal(p, before)
    again = project_feasible(proj, spec)
    # idempotent up to rounding of the radial (s = 2) and l1 (s = inf)
    # thresholds
    assert np.abs(again - proj).max() <= 1e-13 * bounds.max()
    if s != math.inf:
        # against the measure of a point one bound outside on every dof:
        # hinges of a few ulps of the bounds, squared
        unit = float((spec.edge_bounds ** 2 / space.edge_weights).sum()
                     + (spec.cell_bounds ** 2
                        / (scale * space.cell_weights)).sum())
        assert infeasibility(proj, spec) <= 1e-30 * unit
        assert np.array_equal(proj, _projection_reference(p, spec))
        assert infeasibility(p, spec) == _hinge_reference(p, spec)
