import math
import sys

import numpy as np
import pytest

from fetv.dtv import (
    ConstraintSetSpec,
    dtv,
    dual_max_bruteforce,
    dual_witness,
    infeasibility,
    project_feasible,
    support,
    tv_exact,
    vector_norm,
    _project_l1_ball,
    _project_l2_ball,
)
from fetv.mesh import build_crossed_mesh, build_diagonal_square
from fetv.operators import DgFunction, pairing
from fetv.solvers import huber_regularizer
from fetv.spaces import FeSpace

from conftest import random_dg

ALL_S = (1, 2, math.inf)


def test_dtv_of_constant_is_zero(spaces_2x2, spaces_rotated):
    for space in list(spaces_2x2.values()) + spaces_rotated:
        for value in (0.8, 3.7, -1e3):
            u = DgFunction(space, np.full(space.dim_dg, value))
            for s in ALL_S:
                assert dtv(u, s) == 0.0
                assert tv_exact(u, s) == 0.0


def test_step_function_values():
    """Unit jump across the rotated anti-diagonal: sqrt(2)*|n(theta)|_s."""
    angles = [k * math.pi / 8 for k in range(16)]
    iso = []
    for angle in angles:
        mesh = build_diagonal_square(angle)
        space = FeSpace(mesh, 0)
        u = DgFunction(space, np.array([0.0, 1.0]))
        iso.append(dtv(u, 2))
        n = mesh.edge_normals[0]
        assert dtv(u, 1) == pytest.approx(
            math.sqrt(2.0) * np.abs(n).sum(), rel=1e-12)
    assert max(iso) - min(iso) <= 1e-12
    assert iso[0] == pytest.approx(math.sqrt(2.0), rel=1e-12)
    # s = 1 at angle 0: sqrt(2) * |n|_1 = 2
    mesh = build_diagonal_square(0.0)
    u = DgFunction(FeSpace(mesh, 0), np.array([0.0, 1.0]))
    assert dtv(u, 1) == pytest.approx(2.0, rel=1e-12)


def test_perimeter_of_triangle_union():
    """Characteristic functions of cell unions measure the boundary length
    of the union inside the domain."""
    mesh = build_crossed_mesh(2, 2, 2.0, 2.0)
    space = FeSpace(mesh, 0)
    # all four triangles of the bottom-left pixel: interior perimeter is
    # its right plus top side, each of unit length
    u = np.zeros(space.dim_dg)
    u[0:4] = 1.0
    assert dtv(DgFunction(space, u), 2) == pytest.approx(2.0, rel=1e-12)
    assert tv_exact(DgFunction(space, u), 2) == pytest.approx(2.0, rel=1e-12)

    # a single triangle of the unit 1x1 mesh: two crossed half-diagonals
    unit = build_crossed_mesh(1, 1, 1.0, 1.0)
    sp = FeSpace(unit, 0)
    chi = np.zeros(sp.dim_dg)
    chi[0] = 1.0
    assert dtv(DgFunction(sp, chi), 2) == pytest.approx(
        math.sqrt(2.0), rel=1e-12)


def test_seminorm_properties(spaces_2x2):
    rng = np.random.default_rng(9)
    for space in spaces_2x2.values():
        for s in ALL_S:
            u = random_dg(space, rng)
            v = random_dg(space, rng)
            assert dtv(u, s) >= 0
            for alpha in (-2.5, 0.0, 0.3):
                scaled = DgFunction(space, alpha * u.coeffs)
                assert dtv(scaled, s) == pytest.approx(
                    abs(alpha) * dtv(u, s), rel=1e-12, abs=1e-13)
            both = DgFunction(space, u.coeffs + v.coeffs)
            assert dtv(both, s) <= dtv(u, s) + dtv(v, s) + 1e-12


def test_cor1a_r0_exact_equality(spaces_2x2):
    rng = np.random.default_rng(12)
    space = spaces_2x2[0]
    for _ in range(100):
        u = random_dg(space, rng)
        for s in (1, 2):
            a, b = dtv(u, s), tv_exact(u, s)
            assert abs(a - b) <= 1e-12 * (1 + a)


def test_cor1b_r1_inequality(spaces_2x2):
    rng = np.random.default_rng(13)
    space = spaces_2x2[1]
    for _ in range(100):
        u = random_dg(space, rng)
        assert tv_exact(u, 2) <= dtv(u, 2) + 1e-12


def test_cor1b_strict_witness():
    """Sign-changing affine jump: the interpolated jump magnitude doubles
    the exact edge integral (1 vs 1/2 per unit edge length), so the
    seminorms differ by exactly half the edge length."""
    mesh = build_diagonal_square(0.0)
    space = FeSpace(mesh, 1)
    u = np.zeros(space.dim_dg)
    # second cell stays 0; the first cell (nodes v0, v1, v3) carries
    # u = x - y, whose trace flips sign along the interior edge v1 -> v3
    u[:3] = [0.0, 1.0, -1.0]
    f = DgFunction(space, u)
    length = math.sqrt(2.0)
    # cell parts agree for r = 1, the gap is purely the edge interpolation
    assert dtv(f, 2) == pytest.approx(1.5 * length, rel=1e-12)
    assert tv_exact(f, 2) == pytest.approx(length, rel=1e-12)
    assert dtv(f, 2) - tv_exact(f, 2) == pytest.approx(0.5 * length,
                                                       rel=1e-12)


def test_r2_edge_splitting_exact():
    """Quadratic jump with interior roots: compare with dense numerical
    integration of |jump| along the edge."""
    mesh = build_diagonal_square(0.0)
    space = FeSpace(mesh, 2)
    rng = np.random.default_rng(21)
    op = space.grad_jump()
    for _ in range(25):
        u = DgFunction(space, rng.standard_normal(space.dim_dg))
        jumps = space.y_edge_view(op.apply(u.coeffs))[0]
        t = np.linspace(0.0, 1.0, 200001)
        vals = (jumps[0] * (2 * t - 1) * (t - 1)
                + jumps[1] * 4 * t * (1 - t)
                + jumps[2] * t * (2 * t - 1))
        dense = np.trapezoid(np.abs(vals), t) * math.sqrt(2.0)
        # compare only the edge contribution
        edge_part = tv_exact(u, 2) - _cell_part_only(space, u)
        assert edge_part == pytest.approx(dense, abs=1e-8)


def _cell_part_only(space, u, s=2):
    """The r = 2 cell integral of tv_exact from the reference gradients of
    the P2 basis at the quadrature points, mapped by the Jacobian."""
    from fetv.dtv import _triangle_quadrature

    pts, wts = _triangle_quadrature()
    gq = space.layout.eval_cell_grad(pts)
    cu = space.cell_matrix(u.coeffs)
    gref = np.einsum("qkd,tk->tqd", gq, cu)
    gphys = np.einsum("tcd,tqd->tqc", space.mesh.inv_jacobian_t, gref)
    vals = vector_norm(gphys, s) @ wts
    return float((vals * space.mesh.det_jacobian).sum())


def _edge_part_only(space, u, s):
    """The r = 2 edge integral of tv_exact."""
    from fetv.dtv import _edge_abs_integral_quadratic

    jumps = space.y_edge_view(space.grad_jump().apply(u.coeffs))
    integral = _edge_abs_integral_quadratic(jumps[:, 0], jumps[:, 1],
                                            jumps[:, 2])
    return float((integral * vector_norm(space.mesh.edge_normals, s)
                  * space.mesh.edge_lengths).sum())


@pytest.mark.parametrize("s", ALL_S)
def test_tv_exact_r2_cell_integral(s):
    rng = np.random.default_rng(31)
    for mesh in (build_diagonal_square(0.7), build_crossed_mesh(4, 4, 1.0, 1.0)):
        space = FeSpace(mesh, 2)
        for _ in range(5):
            u = random_dg(space, rng)
            cell = tv_exact(u, s) - _edge_part_only(space, u, s)
            assert cell == pytest.approx(_cell_part_only(space, u, s), rel=1e-12)


@pytest.mark.parametrize("s", ALL_S)
def test_tv_exact_r2_cell_blocks(s, monkeypatch):
    """The r = 2 cell integral summed block by block (a block size that
    leaves a ragged last block) equals the one-block sum."""
    space = FeSpace(build_crossed_mesh(5, 5, 1.0, 1.0), 2)
    u = random_dg(space, np.random.default_rng(33))
    whole = tv_exact(u, s)
    # the package's dtv function shadows the module of the same name
    monkeypatch.setattr(sys.modules["fetv.dtv"], "_CELL_BLOCK", 7)
    assert tv_exact(u, s) == pytest.approx(whole, rel=1e-14)


def test_error_decay_rate_dg2():
    """Interpolate a smooth function into DG_2 on refined meshes: the gap
    between the seminorm and the exact TV decays at first order."""
    errs = []
    for n in (8, 16, 32):
        mesh = build_crossed_mesh(n, n, 1.0, 1.0)
        space = FeSpace(mesh, 2)
        u = DgFunction(space, space.interpolate(
            lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])))
        errs.append(abs(dtv(u, 2) - tv_exact(u, 2)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.8


def test_projection_kernels():
    r = np.array([1.0])
    assert np.allclose(_project_l2_ball(np.array([[3.0, 4.0]]), r),
                       [[0.6, 0.8]])
    assert np.allclose(_project_l2_ball(np.array([[0.3, 0.4]]), r),
                       [[0.3, 0.4]])
    assert np.allclose(_project_l1_ball(np.array([[3.0, -4.0]]), r),
                       [[0.0, -1.0]])
    assert np.allclose(_project_l1_ball(np.array([[0.8, -0.7]]), r),
                       [[0.55, -0.45]])
    assert np.allclose(_project_l1_ball(np.array([[0.3, -0.4]]), r),
                       [[0.3, -0.4]])


def test_vector_norm_l2_within_an_ulp_of_hypot():
    """sqrt(x*x + y*y) against np.hypot over the documented component range
    [1e-150, 1e150], mixed scales and signs included."""
    rng = np.random.default_rng(31)
    mags = 10.0 ** rng.uniform(-150, 150, size=(20000, 2))
    vecs = mags * rng.choice([-1.0, 1.0], size=mags.shape)
    vecs[:50, 1] = 0.0
    vecs[50:100] = [1e-150, 1e150]
    ref = np.hypot(vecs[:, 0], vecs[:, 1])
    got = vector_norm(vecs, 2)
    assert (np.abs(got - ref) <= 2.3e-16 * ref).all()
    assert (np.abs(got - ref) <= np.spacing(ref)).all()
    assert np.array_equal(got[:50], np.abs(vecs[:50, 0]))


def test_l2_ball_projection_matches_masked_assignment():
    """The branch-free factor radius / max(|v|, radius) equals the masked
    assignment of radius / |v| where |v| > radius, bit for bit, on zero
    vectors, vectors exactly at the radius, inside and outside."""
    rng = np.random.default_rng(32)
    vecs = rng.standard_normal((40, 6, 2)) * 10.0 ** rng.uniform(
        -3, 3, size=(40, 6, 1))
    norms = vector_norm(vecs, 2)
    radius = norms * rng.uniform(0.5, 1.5, size=norms.shape)
    radius[:10] = norms[:10]                    # exactly on the sphere
    vecs[10:15] = 0.0                           # zero vectors
    norms = vector_norm(vecs, 2)
    factor = np.ones_like(norms)
    over = norms > radius
    factor[over] = radius[over] / norms[over]
    assert over.any() and (~over).any()
    expected = vecs * factor[..., None]
    # the kernel projects in place and returns its argument
    assert _project_l2_ball(vecs, radius) is vecs
    assert np.array_equal(vecs, expected)


def test_l1_ball_projection_is_nearest_point():
    rng = np.random.default_rng(30)
    x = rng.standard_normal((200, 2)) * 2.0
    radius = np.abs(rng.standard_normal(200)) + 0.1
    y = _project_l1_ball(x.copy(), radius)
    assert (np.abs(y).sum(axis=1) <= radius + 1e-12).all()
    for _ in range(200):
        z = rng.standard_normal((200, 2))
        z *= (radius / np.maximum(np.abs(z).sum(axis=1), radius))[:, None]
        assert (np.hypot(*(x - y).T) <= np.hypot(*(x - z).T) + 1e-12).all()


def test_project_feasible_idempotent_and_bounds(spaces_2x2):
    rng = np.random.default_rng(14)
    for space in spaces_2x2.values():
        for s in ALL_S:
            spec = ConstraintSetSpec(space, beta=0.7, s=s)
            p = rng.standard_normal(space.dim_y) * 0.1
            proj = project_feasible(p, spec)
            again = project_feasible(proj, spec)
            assert np.abs(proj - again).max() <= 1e-14
            edge = space.y_edge_view(proj)
            assert (np.abs(edge) <= spec.edge_bounds + 1e-14).all()
            if s in (1, 2):
                # zero up to squared-ulp wobble of the radial scaling
                assert infeasibility(proj, spec) <= 1e-25
            feasible = project_feasible(rng.standard_normal(space.dim_y) * 1e-9,
                                        spec)
            assert np.abs(
                project_feasible(feasible, spec) - feasible).max() == 0.0


def test_infeasibility_single_edge_violation(spaces_unit):
    space = spaces_unit[0]
    spec = ConstraintSetSpec(space, beta=0.5, s=2)
    p = space.new_y()
    delta = 0.3
    space.y_edge_view(p)[1, 0] = spec.edge_bounds[1, 0] + delta
    expected = delta ** 2 / space.edge_weights[1, 0]
    assert infeasibility(p, spec) == pytest.approx(expected, rel=1e-12)
    assert infeasibility(space.new_y(), spec) == 0.0


@pytest.mark.parametrize("s", ALL_S)
@pytest.mark.parametrize("r", [0, 1, 2])
def test_dual_witness_attains_dtv(r, s, spaces_unit, spaces_2x2):
    rng = np.random.default_rng(100 * r + 7)
    for spaces in (spaces_unit, spaces_2x2):
        space = spaces[r]
        op = space.grad_jump()
        for _ in range(25):
            u = random_dg(space, rng)
            p = dual_witness(u, s)
            y = op.apply(u.coeffs)
            value = pairing(p, y)
            target = dtv(u, s)
            assert value == pytest.approx(target, rel=1e-10, abs=1e-12)
            # one weighted sum: the seminorm is the support function of P
            assert support(ConstraintSetSpec(space, 1.0, s), y) == target
            if s == 2:
                assert huber_regularizer(space, y, 0.0) == target
            if s in (1, 2):
                assert infeasibility(p, ConstraintSetSpec(space, 1.0, s=s)) \
                    <= 1e-20


def test_dual_witness_constant_returns_zero(spaces_unit):
    space = spaces_unit[1]
    u = DgFunction(space, np.ones(space.dim_dg))
    assert np.abs(dual_witness(u, 2)).max() == 0.0


def test_bruteforce_bounded_by_dtv(spaces_unit):
    rng = np.random.default_rng(3)
    for r, space in spaces_unit.items():
        for s in ALL_S:
            u = random_dg(space, rng)
            best = dual_max_bruteforce(u, s, n_samples=2000, seed=5)
            assert best <= dtv(u, s) + 1e-12
            with_witness = dual_max_bruteforce(u, s, n_samples=100, seed=5,
                                               include_witness=True)
            assert with_witness == pytest.approx(dtv(u, s), rel=1e-10)
            # no samples leaves the witness alone, at every degree
            assert dual_max_bruteforce(u, s, n_samples=0,
                                       include_witness=True) \
                == pytest.approx(dtv(u, s), rel=1e-10)


def test_bruteforce_two_cell_near_optimal(diag_square):
    """10k feasible samples on the 2-cell mesh reach the r = 0 maximum up
    to a 1e-3 relative margin (single edge dof, uniform sampling)."""
    space = FeSpace(diag_square, 0)
    u = DgFunction(space, np.array([0.2, 1.0]))
    best = dual_max_bruteforce(u, 2, n_samples=10000, seed=11)
    assert best >= 0.999 * dtv(u, 2)


def test_bruteforce_rejects_large_mesh():
    mesh = build_crossed_mesh(3, 3, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    with pytest.raises(ValueError):
        dual_max_bruteforce(DgFunction(space), 2, n_samples=10)
