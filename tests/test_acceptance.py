"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
(run with `pytest tests/test_acceptance.py -s -v` to see them live)."""

import functools
import math
import time

import numpy as np
import pytest

from fetv.dtv import ConstraintSetSpec, dtv, support, tv_exact
from fetv.mesh import build_crossed_mesh
from fetv.metrics import NoiseSpec, add_noise, psnr
from fetv.operators import DgFunction, divergence
from fetv.solvers import (
    ProblemSpec,
    SolverParams,
    admm_l1,
    chambolle_pock_l1,
    chambolle_pock_l2,
    chambolle_projection_l2,
    estimate_operator_norm_sq,
    split_bregman_l2,
)
from fetv.spaces import FeSpace

from conftest import build_diagonal_square, random_dg, smooth_disc, sharp_disc
from rt_oracle import dual_max_bruteforce, dual_witness

ALL_S = (1, 2, math.inf)


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\n[criterion {number:2d}] FAIL  {label}")
                raise
            print(f"\n[criterion {number:2d}] PASS  {label}")
        return wrapper
    return decorate


@pytest.fixture(scope="module")
def denoise32():
    """The shared 32x32 TV-L2 instance (data on every cell, r = 0, s = 2,
    beta = 1e-3) with all three solvers driven to a gap ratio <= 1e-6
    (which in particular satisfies the <= 1e-4 requirement)."""
    mesh = build_crossed_mesh(32, 32, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    clean = DgFunction(space, space.interpolate(smooth_disc))
    noisy = add_noise(clean, NoiseSpec(sigma=0.1, seed=42))
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3)
    start = time.perf_counter()
    runs = {
        "split-bregman": split_bregman_l2(
            prob, SolverParams(lam=1e-3, eps_rel=1e-6, max_iter=40000),
            space=space),
        "chambolle-pock": chambolle_pock_l2(
            prob, SolverParams(sigma=0.016, tau=0.1, eps_rel=1e-6,
                               max_iter=40000), space=space),
        "chambolle-projection": chambolle_projection_l2(
            prob, SolverParams(eps_rel=1e-6, max_iter=80000), space=space),
    }
    elapsed = time.perf_counter() - start
    return mesh, space, noisy, prob, runs, elapsed


@criterion(1, "duality oracle (witness attains dtv; samples never exceed it)")
def test_criterion_1_duality_oracle():
    start = time.perf_counter()
    meshes = [build_crossed_mesh(1, 1, 1.0, 1.0),
              build_crossed_mesh(2, 2, 1.0, 1.0)]
    rng = np.random.default_rng(1)
    for mesh in meshes:
        for r in (0, 1, 2):
            space = FeSpace(mesh, r)
            op = space.grad_jump()
            for s in ALL_S:
                for _ in range(25):
                    u = random_dg(space, rng)
                    target = dtv(u, s)
                    value = float(dual_witness(u, s) @ op.apply(u.coeffs))
                    assert abs(value - target) <= 1e-10 * (1 + target)
                u = random_dg(space, rng)
                best = dual_max_bruteforce(u, s, n_samples=10000, seed=3)
                assert best <= dtv(u, s) + 1e-12
    assert time.perf_counter() - start < 10.0


@criterion(2, "adjoint identity between the pairing and the divergence")
def test_criterion_2_adjoint_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    meshes = [build_crossed_mesh(2, 2, 1.0, 1.0),
              build_crossed_mesh(8, 8, 1.0, 1.0),
              build_crossed_mesh(16, 8, 2.0, 1.0)]      # up to 512 cells
    for r in (0, 1, 2):
        for mesh in meshes:
            space = FeSpace(mesh, r)
            op = space.grad_jump()
            for _ in range(100 // len(meshes) + 1):
                u = rng.standard_normal(space.dim_dg)
                p = rng.standard_normal(space.dim_y)
                residual = abs(float(p @ op.apply(u))
                               + space.l2_inner(u, divergence(op, p)))
                assert residual <= 1e-10 * (
                    1 + np.linalg.norm(u) * np.linalg.norm(p))
    assert time.perf_counter() - start < 5.0


@criterion(3, "low-degree exact relations between dtv and the exact TV")
def test_criterion_3_low_order_relations():
    mesh = build_crossed_mesh(2, 2, 1.0, 1.0)
    rng = np.random.default_rng(3)
    space0 = FeSpace(mesh, 0)
    for _ in range(100):
        u = random_dg(space0, rng)
        a = dtv(u, 2)
        assert abs(a - tv_exact(u, 2)) <= 1e-12 * (1 + a)
    space1 = FeSpace(mesh, 1)
    for _ in range(100):
        u = random_dg(space1, rng)
        assert tv_exact(u, 2) <= dtv(u, 2) + 1e-12
    # strict witness: sign-changing affine jump on the two-triangle square
    strict = FeSpace(build_diagonal_square(0.0), 1)
    u = DgFunction(strict, np.array([0.0, 1.0, -1.0, 0.0, 0.0, 0.0]))
    assert tv_exact(u, 2) < dtv(u, 2) - 0.5


@criterion(4, "first-order decay of the seminorm error under refinement")
def test_criterion_4_error_decay_rate():
    errs = []
    for n in (8, 16, 32):
        mesh = build_crossed_mesh(n, n, 1.0, 1.0)
        space = FeSpace(mesh, 2)
        u = DgFunction(space, space.interpolate(
            lambda p: np.sin(np.pi * p[:, 0]) * np.sin(np.pi * p[:, 1])))
        errs.append(abs(dtv(u, 2) - tv_exact(u, 2)))
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 0.8


@criterion(5, "primal recovery u = div p + f at the stopping criterion")
def test_criterion_5_primal_recovery(denoise32):
    mesh, space, noisy, prob, runs, elapsed = denoise32
    assert elapsed < 30.0
    fnorm = math.sqrt(space.l2_norm_sq(noisy.coeffs))
    op = space.grad_jump()
    for name in ("split-bregman", "chambolle-pock"):
        u, p, rep = runs[name]
        assert rep.converged
        recovered = divergence(op, p) + noisy.coeffs
        assert math.sqrt(space.l2_norm_sq(u.coeffs - recovered)) \
            <= 1e-3 * fnorm
        assert rep.infeasibility <= 1e-11


@criterion(6, "all three TV-L2 solvers agree on the unique minimizer")
def test_criterion_6_solver_agreement(denoise32):
    mesh, space, noisy, prob, runs, _ = denoise32
    fnorm = math.sqrt(space.l2_norm_sq(noisy.coeffs))
    eta0 = prob.beta * dtv(DgFunction(space, noisy.coeffs), 2)
    u_ref = runs["split-bregman"][0]
    for name, (u, p, rep) in runs.items():
        assert rep.converged
        assert abs(rep.gap) <= 1e-4 * eta0            # gap ratio <= 1e-4
        assert math.sqrt(space.l2_norm_sq(u.coeffs - u_ref.coeffs)) \
            <= 1e-3 * fnorm


@criterion(7, "paper-protocol denoising and inpainting quality")
def test_criterion_7_protocol_quality():
    start = time.perf_counter()
    n = 64
    mesh = build_crossed_mesh(n, n, 1.0, 1.0)

    # (a) ball denoising, sigma = 0.1, beta = 1e-3: PSNR gain >= 8 dB
    for r in (0, 1, 2):
        space = FeSpace(mesh, r)
        clean = DgFunction(space, space.interpolate(smooth_disc))
        noisy = add_noise(clean, NoiseSpec(sigma=0.1, seed=100 + r))
        base = psnr(noisy, clean)
        prob = ProblemSpec(mesh=mesh, degree=r, f=noisy.coeffs, beta=1e-3)
        u, p, rep = split_bregman_l2(
            prob, SolverParams(lam=1e-3, max_iter=2000), space=space,
            reference=clean)
        assert rep.converged
        assert rep.psnr >= base + 8.0

    # (b) inpainting with two thirds of the cells erased, theta = 1,
    #     S = 1e-2; dual steps kept below the stability bound
    rng = np.random.default_rng(77)
    masked = rng.random(mesh.num_cells) < 2.0 / 3.0
    omega0 = ~masked
    results = {}
    for r, sigma in ((0, 0.70), (1, 0.50)):
        space = FeSpace(mesh, r)
        clean = DgFunction(space, space.interpolate(smooth_disc))
        noisy = add_noise(clean, NoiseSpec(sigma=0.1, seed=200 + r))
        f = np.where(np.repeat(omega0, space.dofs.n_cell_basis),
                     noisy.coeffs, 0.0)
        base = psnr(DgFunction(space, f), clean)
        tau = 0.9 / (sigma * estimate_operator_norm_sq(space, scale=1e-2))
        prob = ProblemSpec(mesh=mesh, degree=r, f=f, omega0=omega0,
                           beta=1e-3)
        u, p, rep = chambolle_pock_l2(
            prob, SolverParams(sigma=sigma, tau=tau, theta=1.0, scale=1e-2,
                               max_iter=12000),
            space=space, reference=clean)
        assert rep.converged
        assert rep.psnr >= base + 5.0
        results[r] = rep.psnr
    assert results[1] >= results[0] + 1.0
    assert time.perf_counter() - start < 300.0


@criterion(8, "TV-L1 dual certificate and cross-solver objective agreement")
def test_criterion_8_l1_certificate():
    n = 32
    mesh = build_crossed_mesh(n, n, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    clean = DgFunction(space, space.interpolate(sharp_disc))
    rng = np.random.default_rng(7)
    f = clean.coeffs.copy()
    flips = rng.random(space.dim_dg) < 0.10
    f[flips] = 1.0 - f[flips]
    prob = ProblemSpec(mesh=mesh, degree=0, f=f, beta=1e-3)
    u_admm, p_admm, rep_admm = admm_l1(
        prob, SolverParams(lam=1.0, max_iter=20000), space=space)
    assert rep_admm.converged
    assert rep_admm.extras["multiplier_bound"] <= 1.01
    ksq = estimate_operator_norm_sq(space)
    u_cp, p_cp, rep_cp = chambolle_pock_l1(
        prob, SolverParams(sigma=0.5, tau=1.8 / ksq, max_iter=20000),
        space=space)
    assert rep_cp.converged
    assert abs(rep_admm.objective - rep_cp.objective) \
        <= 1e-3 * abs(rep_cp.objective)


@criterion(9, "Huber regularizer consistency and small-eps solver limit")
def test_criterion_9_huber_consistency():
    mesh = build_crossed_mesh(16, 16, 1.0, 1.0)
    space = FeSpace(mesh, 1)
    rng = np.random.default_rng(9)
    op = space.grad_jump()
    unit = ConstraintSetSpec(space, 1.0, 2)
    for _ in range(20):
        u = random_dg(space, rng)
        y = op.apply(u.coeffs)
        plain = support(unit, y, 0.0)
        values = [support(unit, y, eps) for eps in (1e-1, 1e-2, 1e-3)]
        assert all(v <= plain + 1e-12 for v in values)
        assert values[0] <= values[1] <= values[2] <= plain + 1e-12

    mesh32 = build_crossed_mesh(32, 32, 1.0, 1.0)
    space32 = FeSpace(mesh32, 0)
    clean = DgFunction(space32, space32.interpolate(smooth_disc))
    noisy = add_noise(clean, NoiseSpec(sigma=0.1, seed=91))
    params = SolverParams(sigma=0.016, tau=0.1, eps_rel=1e-5,
                          max_iter=40000)
    plain_prob = ProblemSpec(mesh=mesh32, degree=0, f=noisy.coeffs,
                             beta=1e-3)
    huber_prob = ProblemSpec(mesh=mesh32, degree=0, f=noisy.coeffs,
                             beta=1e-3, huber_eps=1e-4)
    u0, _, rep0 = chambolle_pock_l2(plain_prob, params, space=space32)
    u1, _, rep1 = chambolle_pock_l2(huber_prob, params, space=space32)
    assert rep0.converged and rep1.converged
    fnorm = math.sqrt(space32.l2_norm_sq(noisy.coeffs))
    assert math.sqrt(space32.l2_norm_sq(u0.coeffs - u1.coeffs)) \
        <= 2e-3 * fnorm


@criterion(10, "weight tables equal symbolic integration (rational equality)")
def test_criterion_10_weight_tables():
    from fractions import Fraction

    from symbolic_weights import assert_weights_match_symbolic

    from fetv.spaces import lagrange_layout

    for r in (0, 1, 2):
        assert_weights_match_symbolic(r)
    w2 = lagrange_layout(2)
    assert w2.cell_full_exact[:3] == (Fraction(0), Fraction(0), Fraction(0))
    assert all(c > 0 for c in w2.cell_full_exact[3:])


@criterion(11, "isotropy of the rotated step at s = 2; exact s = 1 profile")
def test_criterion_11_isotropy():
    values = []
    for k in range(16):
        angle = k * math.pi / 8.0
        mesh = build_diagonal_square(angle)
        space = FeSpace(mesh, 0)
        u = DgFunction(space, np.array([0.0, 1.0]))
        values.append(dtv(u, 2))
        n = mesh.edge_normals[0]
        expected = math.sqrt(2.0) * float(np.abs(n).sum())
        assert dtv(u, 1) == pytest.approx(expected, abs=1e-12)
    assert max(values) - min(values) <= 1e-12
