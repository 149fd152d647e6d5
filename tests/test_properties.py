"""Property tests for the per-iteration kernels: the masked DG mass, its
inverse, the adjoint identity, the feasible-set projection, the
infeasibility measure, the radial prox, the split Bregman dual step and the
gap monitor; and for the seminorms: their invariance under cell
renumbering, the dual witness that attains dtv, and dtv against the exact
TV; on jittered crossed meshes and rotated two-cell squares with drawn
masks, degrees and inputs."""

import math
from functools import lru_cache

import numpy as np
from hypothesis import given, settings, strategies as st

from fetv.dtv import (ConstraintSetSpec, _duffy_rule, dtv, infeasibility,
                      project_feasible, support, tv_exact, vector_norm)
from fetv.mesh import Mesh, build_crossed_mesh
from fetv.operators import DgFunction, divergence
from fetv.solvers import (ProblemSpec, SolverParams, _Context, _cp_dual_step,
                          prox_vector)
from fetv.spaces import FeSpace

from conftest import bregman_shrink, build_diagonal_square
from rt_oracle import dual_witness

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


@lru_cache(maxsize=None)
def _square_space(angle, r):
    """DG_r on the two-cell unit square rotated by ``angle``."""
    return FeSpace(build_diagonal_square(angle), r)


@st.composite
def instances(draw, degrees=(0, 1, 2)):
    """A space on a jittered crossed mesh or a rotated two-cell square, a
    cell mask (kept cells True, possibly none) and a seed for the input
    vectors."""
    n = draw(st.integers(1, 3))
    r = draw(st.sampled_from(degrees))
    if draw(st.booleans()):
        space = _square_space(draw(st.floats(0.0, 2.0 * math.pi)), r)
    else:
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


@SETTINGS
@given(instances())
def test_mass_scales_like_the_cell_broadcast(instance):
    """The flat per-dof det scale gives the values of the (cells, n_k)
    product scaled by a det[:, None] broadcast, bit for bit."""
    space, mask, seed = instance
    u = np.random.default_rng(seed).standard_normal(space.dim_dg)
    cells = space.cell_matrix(u)
    det = space.mesh.det_jacobian
    mass = cells @ space.mass_ref.T * det[:, None]
    assert np.array_equal(space.apply_mass(u), mass.ravel())
    masked = cells @ space.mass_ref.T * np.where(mask, det, 0.0)[:, None]
    assert np.array_equal(space.apply_mass(u, mask=mask), masked.ravel())
    inverse = cells @ np.linalg.inv(space.mass_ref).T / det[:, None]
    assert np.array_equal(space.apply_mass_inverse(u), inverse.ravel())


@settings(SETTINGS, max_examples=10)
@given(instances())
def test_adjoint_identity(instance):
    """<p, Lambda u> = -(u, div p)_M for any u and p."""
    space, _, seed = instance
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(space.dim_dg)
    p = rng.standard_normal(space.dim_y)
    op = space.grad_jump()
    lhs = float(p @ op.apply(u))
    rhs = -space.l2_inner(u, divergence(op, p))
    assert math.isclose(lhs, rhs, rel_tol=1e-12,
                        abs_tol=1e-13 * np.linalg.norm(u) * np.linalg.norm(p))


@settings(SETTINGS, max_examples=10)
@given(instances())
def test_seminorms_ignore_cell_numbering(instance):
    """dtv and tv_exact (s = 1, 2) are unchanged when the mesh's cells are
    renumbered and the coefficient blocks follow them."""
    space, _, seed = instance
    rng = np.random.default_rng(seed)
    u = DgFunction(space, rng.standard_normal(space.dim_dg))
    perm = rng.permutation(space.mesh.num_cells)
    mesh = Mesh(space.mesh.vertices, space.mesh.cells[perm])
    v = DgFunction(FeSpace(mesh, space.degree),
                   space.cell_matrix(u.coeffs)[perm])
    for s in (1, 2):
        for seminorm in (dtv, tv_exact):
            assert math.isclose(seminorm(v, s), seminorm(u, s),
                                rel_tol=1e-13)


@SETTINGS
@given(instances(), st.booleans())
def test_monitor_gap_is_the_textbook_gap(instance, masked):
    """The monitor's gap and objective, whose mass norms are one BLAS
    product and one weighted dot each, equal the textbook forms through
    ``apply_mass`` (0.5 ||u - f||^2_M + 0.5 ||div p + f||^2_M
    - 0.5 ||f||^2_M + beta G(Lambda u), masses over the data cells), and
    so does the masked-off residual 0.5 ||div p||^2_M of the stop test."""
    space, mask, seed = instance
    omega0 = mask if masked and mask.any() else None
    rng = np.random.default_rng(seed)
    f = rng.standard_normal(space.dim_dg)
    prob = ProblemSpec(mesh=space.mesh, degree=space.degree, f=f,
                       omega0=omega0, beta=0.1)
    ctx = _Context(prob, SolverParams(scale=0.5), space=space)
    u = rng.standard_normal(space.dim_dg)
    p = project_feasible(rng.standard_normal(space.dim_y), ctx.cs)
    y = ctx.op.apply(u)
    divp = divergence(ctx.op, p)

    def half_norm_sq(v, cells):
        return 0.5 * float(v @ space.apply_mass(v, mask=cells))

    kept = ctx.mask
    fid = half_norm_sq(u - ctx.f, kept)
    reg = support(ctx.cs, y)
    gap = fid + half_norm_sq(divp + ctx.f, kept) \
        - half_norm_sq(ctx.f, kept) + reg
    got_gap, got_objective = ctx.eta(u, p, y, divp)
    scale = fid + half_norm_sq(divp + ctx.f, kept) + reg
    assert math.isclose(got_gap, gap, rel_tol=1e-12, abs_tol=1e-14 * scale)
    assert math.isclose(got_objective, fid + reg, rel_tol=1e-12)
    off = half_norm_sq(divp, ~kept)
    got_off = 0.5 * space.l2_norm_sq(divp, mask=~kept)
    assert math.isclose(got_off, off, rel_tol=1e-12,
                        abs_tol=1e-14 * half_norm_sq(divp, None))
    # ||f||^2_M and the dual term at p = 0 are one computation, so the
    # gap at u = f, p = 0 is the regularizer at u = f exactly, which is
    # how the first gap is computed
    zero = space.new_y()
    first = ctx.eta(ctx.f, zero, ctx.op.apply(ctx.f),
                    divergence(ctx.op, zero))[0]
    assert first == ctx.regularizer(ctx.op.apply(ctx.f)) == ctx.eta0


@SETTINGS
@given(instances(), st.floats(0.0, 3.0))
def test_radial_prox_is_the_broadcast_scale(instance, gamma):
    """prox_vector at s = 2 scales each component by the factor the radial
    shrink gives, bit for bit as ``xi * factor[..., None]``, with the zero
    vectors sent to zero."""
    space, _, seed = instance
    cells = space.y_cell_view(
        np.random.default_rng(seed).standard_normal(space.dim_y))
    cells[..., :1, :] = 0.0          # zero vectors, where no factor exists
    norms = vector_norm(cells, 2)
    factor = np.zeros_like(norms)
    pos = norms > 0
    factor[pos] = np.maximum(norms[pos] - gamma, 0.0) / norms[pos]
    assert np.array_equal(prox_vector(cells, gamma, 2),
                          cells * factor[..., None])


@SETTINGS
@given(instances(), st.floats(1e-2, 1e2), st.floats(1e-2, 1.0),
       st.floats(1e-3, 1.0))
def test_dual_step_is_the_bregman_multiplier(instance, lam, scale, beta):
    """Moreau's identity at the kernel: the Chambolle-Pock dual step with
    tau = lam from p = lam W b is lam W (gb - d), the split Bregman
    multiplier update from the textbook shrink d of gb = y + b (s = 1, 2),
    for dofs inside and outside their thresholds."""
    space, _, seed = instance
    rng = np.random.default_rng(seed)
    for s in (1, 2):
        prob = ProblemSpec(mesh=space.mesh, degree=space.degree,
                           f=np.zeros(space.dim_dg), beta=beta, s=s)
        ctx = _Context(prob, SolverParams(scale=scale), space=space)
        bounds = np.concatenate([np.repeat(ctx.cs.cell_bounds.ravel(), 2),
                                 ctx.cs.edge_bounds.ravel()])
        # y and b of the size of the shrink thresholds bounds / (lam W), so
        # gb = y + b falls on both sides of them
        thr = bounds / (lam * ctx.yw)
        y = rng.standard_normal(space.dim_y) * thr
        b = rng.standard_normal(space.dim_y) * thr
        gb = y + b
        want = lam * ctx.yw * (gb - bregman_shrink(space, beta, s, scale, gb,
                                                   lam))
        got = _cp_dual_step(ctx, lam * ctx.yw * b, y, lam)
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


@settings(SETTINGS, max_examples=10)
@given(instances(), st.floats(1e-2, 1e2))
def test_dual_witness_attains_dtv(instance, beta):
    """dtv(u) = <dual_witness(u), Lambda u> with the witness in P, and the
    support function over beta*P at Lambda u is beta * dtv(u) (s = 1, 2)."""
    space, _, seed = instance
    u = DgFunction(space,
                   np.random.default_rng(seed).standard_normal(space.dim_dg))
    y = space.grad_jump().apply(u.coeffs)
    for s in (1, 2):
        value = dtv(u, s)
        witness = dual_witness(u, s)
        assert math.isclose(float(witness @ y), value, rel_tol=1e-12)
        assert math.isclose(support(ConstraintSetSpec(space, beta, s), y),
                            beta * value, rel_tol=1e-12)
        spec = ConstraintSetSpec(space, 1.0, s)
        assert infeasibility(witness, spec) <= 1e-30 * _unit_measure(spec)


@settings(SETTINGS, max_examples=10)
@given(instances(degrees=(0, 1)))
def test_dtv_against_exact_tv(instance):
    """dtv is the exact TV at r = 0 and bounds it from above at r = 1,
    where the nodal rule overestimates the integral of |affine jump|
    (s = 1, 2)."""
    space, _, seed = instance
    u = DgFunction(space,
                   np.random.default_rng(seed).standard_normal(space.dim_dg))
    for s in (1, 2):
        value, exact = dtv(u, s), tv_exact(u, s)
        if space.degree == 0:
            assert abs(value - exact) <= 1e-12 * (1 + value)
        else:
            assert exact <= value + 1e-12 * (1 + value)


@SETTINGS
@given(instances(), st.integers(-2, 2), st.integers(-3, 0))
def test_projection_is_nonexpansive_in_y_star(instance, spread, step):
    """||P p - P q||_{Y*} <= ||p - q||_{Y*} for s = 1, 2, inf, the Y* norm
    weighting each dof by the inverse of its lumped Y weight, for points
    inside, across and outside the set (dofs of 10^spread times their
    bounds), q a relative step of 10^step away from p."""
    space, _, seed = instance
    weights = space.y_weight_vector(0.5)

    def y_star_sq(v):
        return float((v * v / weights).sum())

    for s in (1, 2, math.inf):
        spec = ConstraintSetSpec(space, beta=0.1, s=s, scale=0.5)
        bounds = np.concatenate([np.repeat(spec.cell_bounds.ravel(), 2),
                                 spec.edge_bounds.ravel()])
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(space.dim_y) * bounds * 10.0 ** spread
        q = p + rng.standard_normal(space.dim_y) * bounds \
            * 10.0 ** (spread + step)
        moved = project_feasible(p, spec) - project_feasible(q, spec)
        assert y_star_sq(moved) <= y_star_sq(p - q) * (1 + 1e-12)


def _unit_measure(spec):
    """The infeasibility of a point one bound outside on every dof."""
    space = spec.space
    return float((spec.edge_bounds ** 2 / space.edge_weights).sum()
                 + (spec.cell_bounds ** 2
                    / (spec.scale * space.cell_weights)).sum())


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
@given(instances(), st.floats(1e-3, 1.0), st.floats(1e-2, 1.0),
       st.floats(1e-2, 1e2))
def test_projection_properties(instance, beta, scale, spread):
    """project_feasible leaves its input alone and is idempotent; for
    s in {1, 2} its image has zero infeasibility up to squared rounding
    (relative to the scale of the measure),
    and projection and infeasibility equal their out-of-place forms bit
    for bit (s = 1, 2, inf in every example)."""
    space, _, seed = instance
    for s in (1, 2, math.inf):
        spec = ConstraintSetSpec(space, beta=beta, s=s, scale=scale)
        # dofs of the size of their bounds times spread: in and out of the
        # set
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
            # against the measure of a point one bound outside on every
            # dof: hinges of a few ulps of the bounds, squared
            assert infeasibility(proj, spec) <= 1e-30 * _unit_measure(spec)
            assert np.array_equal(proj, _projection_reference(p, spec))
            assert infeasibility(p, spec) == _hinge_reference(p, spec)


@SETTINGS
@given(instances(), st.floats(1e-2, 1e2))
def test_infeasibility_inside_outside_and_nan(instance, spread):
    """The infeasibility measure equals its out-of-place form bit for bit
    on vectors inside the set (exactly 0.0), outside it and across it, and
    a NaN on any one dof makes it NaN rather than a part skipped as
    feasible (s = 1, 2 in every example)."""
    space, _, seed = instance
    for s in (1, 2):
        spec = ConstraintSetSpec(space, beta=0.1, s=s, scale=0.5)
        rng = np.random.default_rng(seed)
        p = rng.standard_normal(space.dim_y) * spread
        inside = project_feasible(p, spec) * 0.5
        outside = project_feasible(p, spec) * 2.0 + np.sign(p) * 1e-3
        for q in (inside, outside, p):
            assert infeasibility(q, spec) == _hinge_reference(q, spec)
        assert infeasibility(inside, spec) == 0.0
        for at in (0, space.dim_y - 1):  # a cell dof (r > 0), an edge dof
            bad = inside.copy()
            bad[at] = np.nan
            assert math.isnan(infeasibility(bad, spec))
