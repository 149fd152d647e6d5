import dataclasses
import json
import math
import pathlib

import numpy as np
import pytest

from fetv.dtv import (ConstraintSetSpec, dtv, infeasibility,
                      project_feasible, support, vector_norm)
from fetv.mesh import build_crossed_mesh
from fetv.metrics import NoiseSpec, add_noise, psnr
from fetv import solvers
from fetv.operators import DgFunction, QuadraticSolver, divergence
from fetv.solvers import (
    ALGORITHMS,
    ProblemSpec,
    SolverParams,
    SolverReport,
    admm_l1,
    chambolle_pock_l1,
    chambolle_pock_l2,
    chambolle_projection_l2,
    estimate_operator_norm_sq,
    gap,
    prox_vector,
    shrink,
    solve,
    split_bregman_l2,
)
from fetv.spaces import FeSpace

from conftest import bregman_shrink, sharp_disc, smooth_disc


def _denoise_instance(n=16, r=0, sigma=0.1, seed=42):
    mesh = build_crossed_mesh(n, n, 1.0, 1.0)
    space = FeSpace(mesh, r)
    clean = DgFunction(space, space.interpolate(smooth_disc))
    noisy = add_noise(clean, NoiseSpec(sigma=sigma, seed=seed))
    return mesh, space, clean, noisy


def test_shrink_examples():
    assert shrink(3.0, 1.0) == 2.0
    assert shrink(-0.5, 1.0) == 0.0
    assert shrink(-3.0, 1.0) == -2.0
    assert (shrink(np.array([0.2, -0.2]), 0.5) == 0.0).all()


def test_prox_vector_examples():
    assert np.allclose(prox_vector(np.array([[3.0, 4.0]]), 5.0, s=2), 0.0)
    assert np.allclose(prox_vector(np.array([[6.0, 8.0]]), 5.0, s=2),
                       [[3.0, 4.0]])
    assert np.allclose(prox_vector(np.array([[3.0, -0.5]]), 1.0, s=1),
                       [[2.0, 0.0]])
    x = np.array([[0.3, -0.8]])
    assert (prox_vector(x, 0.0, s=2) == x).all()


def test_problem_spec_validation(unit_crossed):
    f = np.zeros(4)
    with pytest.raises(ValueError):
        ProblemSpec(mesh=unit_crossed, degree=0, f=f, beta=0.0)
    with pytest.raises(ValueError):
        ProblemSpec(mesh=unit_crossed, degree=0, f=f, beta=1.0, s=1,
                    huber_eps=0.1)
    with pytest.raises(ValueError):
        ProblemSpec(mesh=unit_crossed, degree=0, f=f, beta=1.0,
                    omega0=np.zeros(4, dtype=bool))
    with pytest.raises(ValueError):
        solve(ProblemSpec(mesh=unit_crossed, degree=0, f=f, beta=1.0),
              "unknown-algorithm")


def test_split_bregman_constant_one_iteration(spaces_2x2):
    space = spaces_2x2[0]
    f = np.full(space.dim_dg, 0.4)
    prob = ProblemSpec(mesh=space.mesh, degree=0, f=f, beta=1e-2)
    u, p, rep = split_bregman_l2(prob, SolverParams(lam=1e-3), space=space)
    assert rep.converged and rep.iterations == 1
    assert np.abs(u.coeffs - f).max() <= 1e-12
    assert np.abs(p).max() <= 1e-14


def test_chambolle_pock_constant(spaces_2x2):
    space = spaces_2x2[0]
    f = np.full(space.dim_dg, 0.4)
    prob = ProblemSpec(mesh=space.mesh, degree=0, f=f, beta=1e-2)
    u, p, rep = chambolle_pock_l2(prob, SolverParams(sigma=0.5, tau=1e-2),
                                  space=space)
    assert rep.converged and rep.iterations == 1
    assert np.abs(u.coeffs - f).max() <= 1e-12
    assert np.abs(p).max() == 0.0


def test_chambolle_projection_constant(spaces_2x2):
    space = spaces_2x2[0]
    f = np.full(space.dim_dg, -0.3)
    prob = ProblemSpec(mesh=space.mesh, degree=0, f=f, beta=1e-2)
    u, p, rep = chambolle_projection_l2(prob, SolverParams(tau=1e-3),
                                        space=space)
    assert rep.converged
    assert np.abs(u.coeffs - f).max() <= 1e-12
    assert np.abs(p).max() == 0.0


def test_projection_default_tau_uses_the_operator_norm():
    """The default dual steps are 0.9 / (sigma L) with L the operator norm
    estimate, and they keep sigma * tau below 1 / L_true, computed densely
    on an 8x8 mesh: the estimate reads under L_true, by at most 2 %.  The
    projection method (sigma = 1, scale 1) steps in Y*, where ||div||^2
    from Y* to L2 equals ||Lambda||^2 from L2 to Y.  cp-l1 takes the L of
    the lumped operator C^-1 Lambda^T W Lambda it iterates (r <= 1),
    estimated the same way, so its sigma * tau * L_true is 0.9 within the
    estimate's 1.5 %."""
    import scipy.linalg

    mesh = build_crossed_mesh(8, 8, 1.0, 1.0)
    for r in (0, 1, 2):
        space = FeSpace(mesh, r)
        f = space.interpolate(smooth_disc)
        op = space.grad_jump()
        mass = np.column_stack([space.apply_mass(e)
                                for e in np.eye(space.dim_dg)])
        lam = op.matrix.toarray()

        def true_norm_sq(scale):
            w = space.y_weight_vector(scale)
            return w, scipy.linalg.eigh(lam.T @ (w[:, None] * lam), mass,
                                        eigvals_only=True).max()

        w, lambda_sq = true_norm_sq(1.0)
        # ||div p||^2 / ||p||^2_{Y*}, a plain Rayleigh quotient in
        # q = p / sqrt(w)
        div = np.column_stack([divergence(op, e)
                               for e in np.eye(space.dim_y)]) * np.sqrt(w)
        div_sq = np.linalg.eigvalsh(div.T @ mass @ div).max()
        assert div_sq == pytest.approx(lambda_sq, rel=1e-10)
        norm_sq = estimate_operator_norm_sq(space, scale=1.0)
        assert 0.98 * lambda_sq <= norm_sq <= lambda_sq * (1 + 1e-12)
        _, _, rep = chambolle_projection_l2(
            ProblemSpec(mesh=mesh, degree=r, f=f, beta=1e-2),
            SolverParams(max_iter=1), space=space)
        assert rep.params["tau"] == 0.9 / norm_sq
        assert rep.params["tau"] * div_sq < 1.0

        scale = solvers.DEFAULT_SCALE[r]
        w, lambda_sq = true_norm_sq(scale)
        norm_sq = estimate_operator_norm_sq(space, scale)
        assert 0.98 * lambda_sq <= norm_sq <= lambda_sq * (1 + 1e-12)
        _, _, rep = chambolle_pock_l2(
            ProblemSpec(mesh=mesh, degree=r, f=f, beta=1e-2),
            SolverParams(max_iter=1), space=space)
        steps = rep.params["sigma"] * rep.params["tau"]
        assert steps * norm_sq == pytest.approx(0.9, rel=1e-12)
        assert steps * lambda_sq < 1.0
        if r == 2:
            continue
        c = space.lumped_weights ** -0.5
        lumped_sq = np.linalg.eigvalsh(
            c[:, None] * (lam.T @ (w[:, None] * lam)) * c).max()
        assert lumped_sq <= lambda_sq
        lumped_est = estimate_operator_norm_sq(space, scale, lumped=True)
        assert 0.98 * lumped_sq <= lumped_est <= lumped_sq * (1 + 1e-12)
        _, _, rep = chambolle_pock_l1(
            ProblemSpec(mesh=mesh, degree=r, f=f, beta=1e-2),
            SolverParams(max_iter=1), space=space)
        steps = rep.params["sigma"] * rep.params["tau"]
        assert steps * lumped_est == pytest.approx(0.9, rel=1e-12)
        assert steps * lumped_sq == pytest.approx(0.9, rel=0.015)
        assert steps * lumped_sq < 1.0


def test_operator_norm_estimate_is_kept_per_scale(monkeypatch):
    """The estimate is made once per space and scale: a repeat call does no
    power step and returns the value a fresh space gives, exactly."""
    mesh = build_crossed_mesh(4, 4, 1.0, 1.0)
    space = FeSpace(mesh, 1)
    first = estimate_operator_norm_sq(space, 1e-2)
    steps = []
    op = space.grad_jump()
    apply = op.apply
    monkeypatch.setattr(op, "apply", lambda v: steps.append(1) or apply(v))
    assert estimate_operator_norm_sq(space, 1e-2) == first
    assert not steps
    assert estimate_operator_norm_sq(FeSpace(mesh, 1), 1e-2) == first
    # another scale is another operator
    assert estimate_operator_norm_sq(space, 1.0) != first
    assert len(steps) == 60


def test_split_bregman_large_beta_gives_mean():
    mesh, space, clean, noisy = _denoise_instance(n=8)
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e3)
    u, p, rep = split_bregman_l2(
        prob, SolverParams(lam=10.0, eps_rel=1e-9, max_iter=4000),
        space=space)
    mean = space.l2_inner(noisy.coeffs, np.ones(space.dim_dg)) \
        / space.mesh.cell_areas.sum()
    assert dtv(u, 2) <= 1e-6
    assert np.abs(u.coeffs - mean).max() <= 1e-4


def test_l2_solvers_agree_and_recover():
    """Unique TV-L2 minimizer: all three solvers land on the same u, and
    u = div p + f holds at tight tolerance (strong convexity + Lemma-style
    recovery)."""
    mesh, space, clean, noisy = _denoise_instance(n=16)
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3)
    tight = dict(eps_rel=1e-6, max_iter=60000)
    u_sb, p_sb, rep_sb = split_bregman_l2(
        prob, SolverParams(lam=1e-3, **tight), space=space)
    u_cp, p_cp, rep_cp = chambolle_pock_l2(
        prob, SolverParams(sigma=0.016, tau=0.1, **tight), space=space)
    u_pj, p_pj, rep_pj = chambolle_projection_l2(
        prob, SolverParams(**tight), space=space)
    assert rep_sb.converged and rep_cp.converged and rep_pj.converged
    fnorm = math.sqrt(space.l2_norm_sq(noisy.coeffs))
    for u in (u_cp, u_pj):
        assert math.sqrt(space.l2_norm_sq(u.coeffs - u_sb.coeffs)) \
            <= 1e-3 * fnorm
    op = space.grad_jump()
    for u, p in ((u_sb, p_sb), (u_cp, p_cp), (u_pj, p_pj)):
        recovered = divergence(op, p) + noisy.coeffs
        assert math.sqrt(space.l2_norm_sq(u.coeffs - recovered)) \
            <= 1e-3 * fnorm
    assert rep_sb.infeasibility <= 1e-11
    assert rep_cp.infeasibility <= 1e-11


def test_split_bregman_objective_monotone_tail():
    mesh, space, clean, noisy = _denoise_instance(n=16)
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3)
    _, _, rep = split_bregman_l2(prob, SolverParams(lam=1e-3, eps_rel=1e-5,
                                                    max_iter=3000),
                                 space=space)
    objs = [t["objective"] for t in rep.trace][5:]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))


def test_gap_examples_and_weak_duality():
    mesh, space, clean, noisy = _denoise_instance(n=8)
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3)
    f_fun = DgFunction(space, noisy.coeffs)
    zero_p = space.new_y()
    assert gap(f_fun, zero_p, prob) == pytest.approx(
        prob.beta * dtv(f_fun, 2), rel=1e-12)
    # the dual objective 0.5 ||div p + f||^2_M at p = 0
    divp = divergence(space.grad_jump(), zero_p)
    assert 0.5 * space.l2_norm_sq(divp + noisy.coeffs) == pytest.approx(
        0.5 * space.l2_norm_sq(noisy.coeffs), rel=1e-12)

    zero_prob = ProblemSpec(mesh=mesh, degree=0,
                            f=np.zeros(space.dim_dg), beta=1e-3)
    zf = DgFunction(space, np.zeros(space.dim_dg))
    assert gap(zf, zero_p, zero_prob) == 0.0

    rng = np.random.default_rng(3)
    spec = ConstraintSetSpec(space, beta=prob.beta, s=2)
    for _ in range(25):
        u = DgFunction(space, rng.standard_normal(space.dim_dg))
        p = project_feasible(rng.standard_normal(space.dim_y) * 0.01, spec)
        assert gap(u, p, prob) >= -1e-10


def test_cp_l1_constant_and_dead_zone(spaces_2x2):
    space = spaces_2x2[0]
    f = np.full(space.dim_dg, 0.6)
    prob = ProblemSpec(mesh=space.mesh, degree=0, f=f, beta=1e-2)
    u, p, rep = chambolle_pock_l1(prob, SolverParams(sigma=0.5, tau=1e-2),
                                  space=space)
    assert rep.converged
    assert np.abs(u.coeffs - f).max() == 0.0
    # Eq.-style dead zone: residuals below sigma leave the data untouched
    assert shrink(0.3, 0.5) == 0.0


def test_admm_constant(spaces_2x2):
    space = spaces_2x2[1]
    f = np.full(space.dim_dg, 0.2)
    prob = ProblemSpec(mesh=space.mesh, degree=1, f=f, beta=1e-2)
    u, p, rep = admm_l1(prob, SolverParams(lam=1.0), space=space)
    assert rep.converged
    assert np.abs(u.coeffs - f).max() <= 1e-12
    assert rep.extras["multiplier_bound"] <= 1e-10


def test_l1_solvers_certificate_and_agreement():
    n = 16
    mesh = build_crossed_mesh(n, n, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    clean = DgFunction(space, space.interpolate(sharp_disc))
    rng = np.random.default_rng(7)
    f = clean.coeffs.copy()
    flips = rng.random(space.dim_dg) < 0.1
    f[flips] = 1.0 - f[flips]
    prob = ProblemSpec(mesh=mesh, degree=0, f=f, beta=1e-3)
    ksq = estimate_operator_norm_sq(space)
    u1, p1, rep1 = chambolle_pock_l1(
        prob, SolverParams(sigma=0.5, tau=1.8 / ksq, max_iter=20000),
        space=space)
    u2, p2, rep2 = admm_l1(prob, SolverParams(lam=1.0, max_iter=20000),
                           space=space)
    assert rep1.converged and rep2.converged
    assert rep1.extras["multiplier_bound"] <= 1.01
    assert rep2.extras["multiplier_bound"] <= 1.01
    assert abs(rep1.objective - rep2.objective) \
        <= 1e-3 * abs(rep2.objective)
    assert rep1.infeasibility <= 1e-11 and rep2.infeasibility <= 1e-11
    assert rep2.to_dict()["inner_iterations"] \
        == rep2.extras["inner_iterations"] > 0


@pytest.mark.parametrize("r", [0, 1])
@pytest.mark.parametrize("solver", [chambolle_pock_l1, admm_l1])
def test_l1_certificate_is_the_lumped_divergence(solver, r):
    """Both TV-L1 solvers report as their certificate max |div p| over the
    data dofs, div p lumped, of the p they return.  On the 16x16 sharp
    disc, 10 % of the dofs flipped and beta = 1e-2, it reads <= 1.01 after
    at most 3000 iterations (ADMM at lam = 1 reaches max_iter at r = 1)."""
    mesh = build_crossed_mesh(16, 16, 1.0, 1.0)
    space = FeSpace(mesh, r)
    f = space.interpolate(sharp_disc)
    flips = np.random.default_rng(0).random(space.dim_dg) < 0.10
    f[flips] = 1.0 - f[flips]
    prob = ProblemSpec(mesh=mesh, degree=r, f=f, beta=1e-2)
    _, p, rep = solver(prob, SolverParams(max_iter=3000), space=space)
    div = divergence(space.grad_jump(), p, lumped=True)
    assert rep.extras["multiplier_bound"] == np.abs(div).max()
    assert rep.extras["multiplier_bound"] <= 1.01


def test_cp_l1_salt_pepper_restoration():
    """At a resolution where single-cell impulses are more expensive than
    their fidelity cost, the l1 model restores almost every dof exactly."""
    n = 128
    mesh = build_crossed_mesh(n, n, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    clean = DgFunction(space, space.interpolate(sharp_disc))
    rng = np.random.default_rng(3)
    f = clean.coeffs.copy()
    flips = rng.random(space.dim_dg) < 0.1
    f[flips] = 1.0 - f[flips]
    prob = ProblemSpec(mesh=mesh, degree=0, f=f, beta=1e-3)
    ksq = estimate_operator_norm_sq(space)
    u, p, rep = chambolle_pock_l1(
        prob, SolverParams(sigma=0.5, tau=1.8 / ksq, max_iter=30000),
        space=space)
    assert rep.converged
    match = np.abs(u.coeffs - clean.coeffs) <= 1e-2
    assert match.mean() >= 0.95


def test_huber_values_monotone(spaces_2x2):
    space = spaces_2x2[1]
    rng = np.random.default_rng(12)
    unit = ConstraintSetSpec(space, 1.0, 2)
    for _ in range(20):
        d = rng.standard_normal(space.dim_y)
        plain = support(unit, d, 0.0)
        values = [support(unit, d, eps) for eps in (1e-1, 1e-2, 1e-3)]
        assert all(v <= plain + 1e-14 for v in values)
        assert values[0] <= values[1] <= values[2] <= plain + 1e-14


def test_huber_quadratic_branch(spaces_unit):
    space = spaces_unit[0]
    d = space.new_y()
    space.y_edge_view(d)[0, 0] = 0.05
    eps = 0.2
    expected = space.edge_weights[0, 0] * 0.05 ** 2 / (2 * eps)
    assert support(ConstraintSetSpec(space, 1.0, 2), d, eps) \
        == pytest.approx(expected, rel=1e-13)


def test_huberized_cp_matches_plain():
    mesh, space, clean, noisy = _denoise_instance(n=16)
    params = SolverParams(sigma=0.016, tau=0.1, eps_rel=1e-5, max_iter=20000)
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3)
    hub = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3,
                      huber_eps=1e-4)
    u0, _, rep0 = chambolle_pock_l2(prob, params, space=space)
    u1, _, rep1 = chambolle_pock_l2(hub, params, space=space)
    assert rep0.converged and rep1.converged
    fnorm = math.sqrt(space.l2_norm_sq(noisy.coeffs))
    assert math.sqrt(space.l2_norm_sq(u0.coeffs - u1.coeffs)) \
        <= 2e-3 * fnorm


def test_inpainting_improves_psnr():
    n = 32
    mesh = build_crossed_mesh(n, n, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    clean = DgFunction(space, space.interpolate(smooth_disc))
    rng = np.random.default_rng(11)
    masked = rng.random(mesh.num_cells) < 2.0 / 3.0
    omega0 = ~masked
    noisy = add_noise(clean, NoiseSpec(sigma=0.1, seed=5))
    f = np.where(np.repeat(omega0, 1), noisy.coeffs, 0.0)
    prob = ProblemSpec(mesh=mesh, degree=0, f=f, omega0=omega0, beta=1e-3)
    u, p, rep = chambolle_pock_l2(
        prob, SolverParams(sigma=0.7, tau=1.25e-4, scale=1e-2,
                           eps_rel=1e-3, max_iter=30000),
        space=space, reference=clean)
    assert rep.converged
    baseline = psnr(DgFunction(space, f), clean)
    assert rep.psnr >= baseline + 5.0


def test_cp_inpainting_r0_does_not_stop_early():
    """At r = 0 the signed gap of an inpainting run can cross zero inside
    its tolerance long before the solution is reached (this instance did
    so at iteration 11, at 22.7 dB).  The run must go on until div p also
    vanishes on the masked cells."""
    mesh = build_crossed_mesh(64, 64, 1.0, 1.0)
    space = FeSpace(mesh, 0)
    clean = DgFunction(space, space.interpolate(smooth_disc))
    omega0 = ~(np.random.default_rng(3).random(mesh.num_cells) < 2.0 / 3.0)
    noisy = add_noise(clean, NoiseSpec(sigma=0.1, seed=3))
    f = np.where(omega0, noisy.coeffs, 0.0)
    prob = ProblemSpec(mesh=mesh, degree=0, f=f, omega0=omega0, beta=1e-3)
    ksq = estimate_operator_norm_sq(space, scale=1e-2)
    u, p, rep = chambolle_pock_l2(
        prob, SolverParams(sigma=0.7, tau=0.9 / (0.7 * ksq), scale=1e-2,
                           max_iter=12000),
        space=space, reference=clean)
    assert rep.converged
    assert rep.iterations > 100
    assert rep.psnr >= 30.0
    divp = divergence(space.grad_jump(), p)
    assert 0.5 * space.l2_norm_sq(divp, mask=~omega0) <= 1e-3 * abs(
        gap(DgFunction(space, f), space.new_y(), prob))


def _primal_objective(u, prob, lumped):
    """The fidelity over the data cells, 0.5 ||u - f||^2_M or the lumped
    sum of C |u - f| (``lumped``), plus beta * dtv(u)."""
    space = u.space
    f = np.asarray(prob.f, dtype=float)
    if lumped:
        data = (np.ones(space.dim_dg, dtype=bool) if prob.omega0 is None
                else np.repeat(prob.omega0, space.dofs.n_cell_basis))
        fidelity = float((np.abs(u.coeffs - f) * space.lumped_weights)[data]
                         .sum())
    else:
        fidelity = 0.5 * space.l2_norm_sq(u.coeffs - f, mask=prob.omega0)
    return fidelity + prob.beta * dtv(u, prob.s)


def test_trace_objective_is_primal_objective():
    """The monitor's shared fidelity/regularizer evaluation gives the
    context's primal objective bit for bit, and fidelity plus beta * dtv
    to rounding, in all five algorithms; cp-l1 also reports the
    multiplier bound on the masked dofs."""
    mesh, space, clean, noisy = _denoise_instance(n=8, r=1)
    omega0 = np.random.default_rng(6).random(mesh.num_cells) < 0.7
    ksq = estimate_operator_norm_sq(space, scale=1e-2)
    for mask in (None, omega0):
        prob = ProblemSpec(mesh=mesh, degree=1, f=noisy.coeffs, omega0=mask,
                           beta=1e-3)
        cp_l1 = chambolle_pock_l1(prob, SolverParams(sigma=0.5,
                                                     tau=0.9 / (0.5 * ksq),
                                                     scale=1e-2, max_iter=300),
                                  space=space)
        runs = [
            split_bregman_l2(prob, SolverParams(lam=1e-3, scale=1e-2),
                             space=space),
            chambolle_pock_l2(prob, SolverParams(sigma=0.5,
                                                 tau=0.9 / (0.5 * ksq),
                                                 scale=1e-2),
                              space=space),
            cp_l1,
            admm_l1(prob, SolverParams(scale=1e-2, max_iter=300),
                    space=space),
        ]
        if mask is None:
            runs.append(chambolle_projection_l2(
                prob, SolverParams(max_iter=300), space=space))
        for u, p, rep in runs:
            fidelity = rep.params["fidelity"]
            ctx = solvers._Context(prob, SolverParams(), space=space,
                                   fidelity=fidelity)
            assert rep.trace[-1]["objective"] \
                == ctx.objective(u.coeffs, ctx.op.apply(u.coeffs))
            # to rounding: beta * dtv scales the weighted sum once, where
            # the monitor's support function of beta*P scales each weight
            assert rep.trace[-1]["objective"] == pytest.approx(
                _primal_objective(u, prob, fidelity == "l1"), rel=1e-13,
                abs=0.0)
            assert rep.objective == rep.trace[-1]["objective"]
            assert len(rep.trace) == rep.iterations
        if mask is not None:
            _, p, rep = cp_l1
            off = ~np.repeat(mask, space.dofs.n_cell_basis)
            div = np.abs(divergence(space.grad_jump(), p, lumped=True))
            assert rep.extras["multiplier_bound_masked"] == div[off].max()
            assert rep.extras["multiplier_bound"] \
                == rep.trace[-1]["multiplier_bound"]


def test_non_finite_data_rejected():
    """NaN or inf on a data cell is refused before any iteration; NaN on a
    masked cell is ignored like any other value there."""
    mesh, space, clean, noisy = _denoise_instance(n=8, r=1)
    omega0 = np.ones(mesh.num_cells, dtype=bool)
    omega0[5] = False
    params = SolverParams(max_iter=20)
    for bad in (np.nan, np.inf, -np.inf):
        f = noisy.coeffs.copy()
        f[0] = bad
        for algorithm in ALGORITHMS:
            prob = ProblemSpec(mesh=mesh, degree=1, f=f, beta=1e-3)
            with pytest.raises(ValueError, match="NaN or infinite"):
                solve(prob, algorithm, params, space=space)
    f = noisy.coeffs.copy()
    f[5 * space.dofs.n_cell_basis] = np.nan
    prob = ProblemSpec(mesh=mesh, degree=1, f=f, omega0=omega0, beta=1e-3)
    u, p, rep = split_bregman_l2(prob, params, space=space)
    assert np.isfinite(u.coeffs).all() and np.isfinite(rep.gap)


def test_solver_input_validation(spaces_2x2):
    space = spaces_2x2[0]
    f = np.zeros(space.dim_dg)
    # the l1 fidelity needs positive lumped weights: degree 0 or 1
    quadratic = FeSpace(space.mesh, 2)
    r2 = ProblemSpec(mesh=space.mesh, degree=2, f=np.zeros(quadratic.dim_dg),
                     beta=1.0)
    for solver in (chambolle_pock_l1, admm_l1):
        with pytest.raises(ValueError, match="restricts the degree to 0 or 1"):
            solver(r2, space=quadratic)
    with pytest.raises(ValueError, match="vanish at degree 2"):
        estimate_operator_norm_sq(quadratic, lumped=True)
    s1 = ProblemSpec(mesh=space.mesh, degree=0, f=f, beta=1.0, s=1)
    with pytest.raises(ValueError):
        chambolle_projection_l2(s1, space=space)
    masked = ProblemSpec(mesh=space.mesh, degree=0, f=f, beta=1.0,
                         omega0=np.arange(space.mesh.num_cells) < 10)
    with pytest.raises(ValueError):
        chambolle_projection_l2(masked, space=space)
    with pytest.raises(ValueError):
        SolverParams(theta=1.5)
    with pytest.raises(ValueError):
        SolverParams(lam=-1.0)
    for max_iter in (2.5, 0, "10", None):
        with pytest.raises(ValueError, match="max_iter must be an integer"):
            SolverParams(max_iter=max_iter)
    assert SolverParams(max_iter=np.int64(3)).max_iter == 3


def test_anisotropic_s1_solvers_agree():
    """s = 1 uses box constraints and componentwise shrinks throughout;
    split Bregman and Chambolle-Pock still meet on the unique minimizer."""
    mesh = build_crossed_mesh(8, 8, 1.0, 1.0)
    space1 = FeSpace(mesh, 1)
    clean1 = DgFunction(space1, space1.interpolate(smooth_disc))
    noisy1 = add_noise(clean1, NoiseSpec(sigma=0.1, seed=2))
    prob = ProblemSpec(mesh=mesh, degree=1, f=noisy1.coeffs, beta=1e-3, s=1)
    tight = dict(eps_rel=1e-6, max_iter=60000)
    u_sb, p_sb, rep_sb = split_bregman_l2(
        prob, SolverParams(lam=1e-3, scale=1e-2, **tight), space=space1)
    ksq = estimate_operator_norm_sq(space1, scale=1e-2)
    u_cp, p_cp, rep_cp = chambolle_pock_l2(
        prob, SolverParams(sigma=0.2, tau=0.9 / (0.2 * ksq), scale=1e-2,
                           **tight), space=space1)
    assert rep_sb.converged and rep_cp.converged
    fnorm = math.sqrt(space1.l2_norm_sq(noisy1.coeffs))
    assert math.sqrt(space1.l2_norm_sq(u_sb.coeffs - u_cp.coeffs)) \
        <= 1e-3 * fnorm
    assert rep_sb.infeasibility <= 1e-11
    assert rep_cp.infeasibility <= 1e-11


def test_report_json_roundtrip():
    import json

    mesh, space, clean, noisy = _denoise_instance(n=8)
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3)
    _, _, rep = split_bregman_l2(prob, SolverParams(lam=1e-3, max_iter=50),
                                 space=space, reference=clean)
    data = json.loads(rep.to_json())
    assert data["algorithm"] == "split-bregman"
    assert data["iterations"] == rep.iterations
    assert len(data["trace"]) == rep.iterations
    assert isinstance(data["psnr"], float)
    assert data["lam_final"] == rep.extras["lam_final"]
    assert data["penalty_changes"] == rep.extras["penalty_changes"]
    assert data["inner_iterations"] == rep.extras["inner_iterations"] > 0
    assert data["stop_reason"] == rep.stop_reason == "gap"
    assert data["step_s"] == rep.extras["step_s"]
    assert data["monitor_s"] == rep.extras["monitor_s"]


def _inexact_cases():
    """(r, data, lam): full data, and two thirds and one third of the cells
    carrying data, at two penalties.  One masked case moves its stop."""
    move = pytest.mark.xfail(strict=True, reason=(
        "the masked TV-L2 stop test is no certificate: its signed gap "
        "crosses zero.  Solves to _TOL stop at 14 iterations, 4.9x the gap "
        "tolerance above the optimum; inexact ones at 36, 0.45x above it"))
    for data in (1.0, 2.0 / 3.0, 1.0 / 3.0):
        for lam in (1e-3, 1e-2):
            for r in (0, 1, 2):
                marks = move if (r, data, lam) == (0, 1.0 / 3.0, 1e-2) else ()
                yield pytest.param(r, data, lam, marks=marks,
                                   id=f"r{r}-data{data:.2f}-lam{lam:g}")


@pytest.mark.parametrize("r, data, lam", _inexact_cases())
def test_inexact_inner_solves_keep_the_outer_iteration(r, data, lam,
                                                       monkeypatch):
    """Warm-started inner solves that stop at _REDUCTION of their starting
    residual leave split Bregman's outer iteration count as with solves to
    _TOL, and its objective within the gap tolerance eps_rel |eta0|, with
    fewer CG iterations."""
    mesh, space, clean, noisy = _denoise_instance(n=16, r=r)
    omega0 = None
    if data < 1.0:
        omega0 = np.random.default_rng(12).random(mesh.num_cells) < data
    prob = ProblemSpec(mesh=mesh, degree=r, f=noisy.coeffs, omega0=omega0,
                       beta=1e-3)
    params = SolverParams(lam=lam, max_iter=500)
    _, _, inexact = split_bregman_l2(prob, params, space=space)
    monkeypatch.setattr(QuadraticSolver, "_REDUCTION", 0.0)
    _, _, exact = split_bregman_l2(prob, params, space=space)
    tol = params.eps_rel * abs(solvers._Context(prob, params, space).eta0)
    assert inexact.converged and exact.converged
    assert inexact.iterations == exact.iterations
    assert abs(inexact.objective - exact.objective) < tol
    assert inexact.extras["inner_iterations"] \
        < exact.extras["inner_iterations"]


def _fixed_penalty_reference(prob, params, space):
    """The paper's fixed-lam split Bregman step with its multiplier b and
    the shrink of d written out, run through the shared loop: the
    reference the fixed-penalty path must reproduce."""
    ctx = solvers._Context(prob, params, space=space)
    lam = params.lam
    qs = QuadraticSolver(space, ctx.op, lam, ctx.scale, fidelity=(
        np.where(ctx.mask, space.mesh.det_jacobian, 0.0), space.mass_ref))
    state = {"d": space.new_y(), "b": space.new_y()}
    mf = space.apply_mass(ctx.f, mask=ctx.mask)

    def step(u, p):
        rhs = mf + lam * ctx.op.transpose.dot(
            ctx.yw * (state["d"] - state["b"]))
        u = qs.solve(rhs, x0=u)
        y = ctx.op.apply(u)
        gb = y + state["b"]
        state["d"] = bregman_shrink(space, prob.beta, prob.s, ctx.scale, gb,
                                    lam)
        state["b"] = gb - state["d"]
        return u, lam * ctx.yw * state["b"], y, None

    return solvers._iterate(ctx, SolverReport(algorithm="reference"), step,
                            None)


@pytest.mark.parametrize("r", [0, 1, 2])
def test_fixed_penalty_is_the_paper_iteration(r, monkeypatch):
    """At a fixed penalty the dual-form step (p projected, d recovered from
    it) is the textbook (d, b) iteration: the same stop, and iterates and
    trace equal up to the rounding in which projection and shrink differ."""
    monkeypatch.setattr(solvers, "_PENALTY_CHANGES", 0)
    mesh, space, clean, noisy = _denoise_instance(n=16, r=r)
    omega0 = np.arange(mesh.num_cells) % 4 > 0 if r == 1 else None
    prob = ProblemSpec(mesh=mesh, degree=r, f=noisy.coeffs, omega0=omega0,
                       beta=1e-3)
    params = SolverParams(lam=1e-3, max_iter=2000)
    u, p, rep = split_bregman_l2(prob, params, space=space)
    u_ref, p_ref, rep_ref = _fixed_penalty_reference(prob, params, space)
    assert rep.converged
    assert rep.iterations == rep_ref.iterations
    for got, ref in ((u.coeffs, u_ref.coeffs), (p, p_ref)):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    first_gap = abs(rep_ref.trace[0]["gap"])
    for got, ref in zip(rep.trace, rep_ref.trace):
        assert math.isclose(got["objective"], ref["objective"], rel_tol=1e-13)
        assert abs(got["gap"] - ref["gap"]) <= 1e-13 * first_gap
    assert rep.extras["lam_final"] == 1e-3
    assert rep.extras["penalty_changes"] == 0


@pytest.mark.parametrize("r", [0, 1, 2])
def test_adaptive_penalty_converges_where_fixed_stalls(r, monkeypatch):
    """From lam = 1e-4 the fixed-penalty iteration is still short of the gap
    tolerance after 300 steps; residual balancing converges within 100
    steps to an image at least as good."""
    mesh, space, clean, noisy = _denoise_instance(n=32, r=r)
    prob = ProblemSpec(mesh=mesh, degree=r, f=noisy.coeffs, beta=1e-3)
    params = SolverParams(lam=1e-4, max_iter=300)
    _, _, adapted = split_bregman_l2(prob, params, space=space,
                                     reference=clean)
    monkeypatch.setattr(solvers, "_PENALTY_CHANGES", 0)
    _, _, fixed = split_bregman_l2(prob, params, space=space,
                                   reference=clean)
    assert not fixed.converged and fixed.iterations == 300
    assert adapted.converged and adapted.iterations <= 100
    assert adapted.psnr >= fixed.psnr
    assert 1 <= adapted.extras["penalty_changes"] <= 10
    assert adapted.extras["lam_final"] != 1e-4


@pytest.mark.parametrize("r", [0, 1, 2])
def test_adaptive_penalty_inpainting(r):
    mesh = build_crossed_mesh(32, 32, 1.0, 1.0)
    space = FeSpace(mesh, r)
    clean = DgFunction(space, space.interpolate(smooth_disc))
    omega0 = ~(np.random.default_rng(11).random(mesh.num_cells) < 2.0 / 3.0)
    noisy = add_noise(clean, NoiseSpec(sigma=0.1, seed=5))
    f = np.where(np.repeat(omega0, space.dofs.n_cell_basis), noisy.coeffs,
                 0.0)
    prob = ProblemSpec(mesh=mesh, degree=r, f=f, omega0=omega0, beta=1e-3)
    _, _, rep = split_bregman_l2(prob, SolverParams(lam=1e-3, max_iter=2000),
                                 space=space, reference=clean)
    assert rep.converged and rep.iterations <= 100
    assert rep.psnr >= psnr(DgFunction(space, f), clean) + 5.0


def _cp_p_bar_reference(prob, params, space, lumped):
    """The Chambolle-Pock step with the extrapolated dual iterate p_bar kept
    as state and div p_bar formed directly (two divergences per step), run
    through the shared loop: the reference for the one-divergence step;
    ``lumped`` selects the TV-L1 step."""
    ctx = solvers._Context(prob, params, space=space,
                           fidelity="l1" if lumped else "l2")
    sigma, tau, theta = params.sigma, params.tau, params.theta
    sigma_dof = np.where(ctx.mask_dof, sigma, 0.0)
    state = {"p_bar": space.new_y()}

    def step(u, p):
        v = divergence(ctx.op, state["p_bar"], lumped=lumped)
        if lumped:
            u_bar = u + sigma * v
            u = np.where(ctx.mask_dof, ctx.f + shrink(u_bar - ctx.f, sigma),
                         u_bar)
        else:
            u = (u + sigma * v + sigma_dof * ctx.f) / (1.0 + sigma_dof)
        y = ctx.op.apply(u)
        p_new = solvers._cp_dual_step(ctx, p, y, tau)
        state["p_bar"] = p_new + theta * (p_new - p)
        return u, p_new, y, None

    return solvers._iterate(ctx, SolverReport(algorithm="reference"), step,
                            None)


def _relative(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


@pytest.mark.parametrize("case, r", [
    (case, r) for case in ("plain", "mask", "huber", "l1")
    for r in (0, 1, 2) if not (case == "l1" and r == 2)])
def test_cp_shared_divergence_matches_p_bar_step(case, r):
    """div p_bar = d_k + theta (d_k - d_{k-1}) is exact up to rounding:
    after 200 steps the iterates agree to 1e-12, and a converging run stops
    at the same iteration."""
    mesh, space, clean, noisy = _denoise_instance(n=16, r=r)
    # l1 runs masked: with data everywhere u = f is optimal here, every
    # step lands in the shrink's dead zone and div p never reaches u
    masked = case in ("mask", "l1")
    prob = ProblemSpec(
        mesh=mesh, degree=r, f=noisy.coeffs, beta=1e-3,
        omega0=np.arange(mesh.num_cells) % 4 > 0 if masked else None,
        huber_eps=1e-4 if case == "huber" else 0.0)
    solver = chambolle_pock_l1 if case == "l1" else chambolle_pock_l2
    sigma = solvers.CP_STEP_DEFAULTS[r]
    tau = 0.9 / (sigma * estimate_operator_norm_sq(
        space, solvers.DEFAULT_SCALE[r]))
    capped = SolverParams(sigma=sigma, tau=tau, eps_rel=0.0, max_iter=200)
    u, p, rep = solver(prob, capped, space=space)
    u_ref, p_ref, rep_ref = _cp_p_bar_reference(prob, capped, space,
                                                case == "l1")
    assert rep.iterations == rep_ref.iterations == 200
    assert _relative(u.coeffs, u_ref.coeffs) <= 1e-12
    assert _relative(p, p_ref) <= 1e-12

    params = SolverParams(sigma=sigma, tau=tau, max_iter=10000)
    _, _, rep = solver(prob, params, space=space)
    _, _, rep_ref = _cp_p_bar_reference(prob, params, space, case == "l1")
    assert rep.converged and rep_ref.converged
    assert rep.iterations == rep_ref.iterations


def _cp_out_of_place_reference(prob, params, space, lumped):
    """The Chambolle-Pock steps written out of place, one new array per
    operation: the primal update, the dual candidate p + tau W y with its
    Huber factor, and its projection onto beta*P; run through the shared
    loop, the reference the in-place steps must reproduce bit for bit;
    ``lumped`` selects the TV-L1 steps."""
    ctx = solvers._Context(prob, params, space=space,
                           fidelity="l1" if lumped else "l2")
    sigma, tau, theta = params.sigma, params.tau, params.theta
    sigma_dof = np.where(ctx.mask_dof, sigma, 0.0)
    cs = ctx.cs
    state = {"divp": np.zeros(space.dim_dg)}
    state["divp_prev"] = state["divp"]

    def project(candidate):
        out = candidate.copy()
        edge = space.y_edge_view(out)
        edge[:] = np.clip(edge, -cs.edge_bounds, cs.edge_bounds)
        cell = space.y_cell_view(out)
        factor = cs.cell_bounds / np.maximum(vector_norm(cell, 2),
                                             cs.cell_bounds)
        cell[:] = cell * factor[..., None]
        return out

    def step(u, p):
        divp, divp_prev = state["divp"], state["divp_prev"]
        if lumped:
            u_bar = u + sigma * (divp + theta * (divp - divp_prev))
            u = np.where(ctx.mask_dof, ctx.f + shrink(u_bar - ctx.f, sigma),
                         u_bar)
        else:
            v = divp + theta * (divp - divp_prev)
            u = (u + sigma * v + sigma_dof * ctx.f) / (1.0 + sigma_dof)
        y = ctx.op.apply(u)
        candidate = p + tau * (ctx.yw * y)
        if prob.huber_eps > 0:
            candidate = candidate * (1.0 / (1.0 + tau * prob.huber_eps
                                            / prob.beta))
        p = project(candidate)
        state["divp_prev"] = divp
        state["divp"] = divergence(ctx.op, p, lumped=lumped)
        return u, p, y, state["divp"]

    return solvers._iterate(ctx, SolverReport(algorithm="reference"), step,
                            None)


@pytest.mark.parametrize("case, r", [
    (case, r) for case in ("plain", "mask", "huber", "huber-mask", "l1",
                           "l1-mask", "l1-huber")
    for r in (0, 1, 2) if not (case.startswith("l1") and r == 2)])
def test_cp_in_place_steps_are_bit_identical(case, r):
    """The in-place primal update, dual candidate and projection of
    chambolle_pock_l2/l1 give the iterates and the trace of the same steps
    written out of place, bit for bit, over 300 steps."""
    mesh, space, clean, noisy = _denoise_instance(n=16, r=r)
    l1 = case.startswith("l1")
    prob = ProblemSpec(
        mesh=mesh, degree=r, f=noisy.coeffs, beta=1e-3,
        omega0=np.arange(mesh.num_cells) % 4 > 0 if "mask" in case else None,
        huber_eps=1e-4 if "huber" in case else 0.0)
    sigma = solvers.CP_STEP_DEFAULTS[r]
    tau = 0.9 / (sigma * estimate_operator_norm_sq(
        space, solvers.DEFAULT_SCALE[r]))
    params = SolverParams(sigma=sigma, tau=tau, eps_rel=0.0, max_iter=300)
    solver = chambolle_pock_l1 if l1 else chambolle_pock_l2
    u, p, rep = solver(prob, params, space=space)
    u_ref, p_ref, rep_ref = _cp_out_of_place_reference(prob, params, space,
                                                       l1)
    assert rep.iterations == rep_ref.iterations
    assert l1 or rep.iterations == 300
    assert np.array_equal(u.coeffs, u_ref.coeffs)
    assert np.array_equal(p, p_ref)
    assert rep.trace == rep_ref.trace


@pytest.mark.parametrize("r", [0, 1, 2])
def test_projection_hands_its_divergence_to_the_monitor(r, monkeypatch):
    """The div p that u = div p + f is built from is the one the gap
    monitor would compute: dropping it changes nothing, bit for bit, after
    200 steps and (r <= 1; r = 2 needs over 12000 steps here) to
    convergence."""
    mesh, space, clean, noisy = _denoise_instance(n=16, r=r)
    prob = ProblemSpec(mesh=mesh, degree=r, f=noisy.coeffs, beta=1e-3)
    settings = [SolverParams(eps_rel=0.0, max_iter=200)]
    if r < 2:
        settings.append(SolverParams(eps_rel=1e-2, max_iter=2000))
    runs = [chambolle_projection_l2(prob, params, space=space)
            for params in settings]
    assert runs[0][2].iterations == 200
    assert all(rep.converged for _, _, rep in runs[1:])
    iterate = solvers._iterate

    def monitor_divergence(ctx, report, step, reference):
        def own(u, p):
            u, p, y, _ = step(u, p)
            return u, p, y, None
        return iterate(ctx, report, own, reference)

    monkeypatch.setattr(solvers, "_iterate", monitor_divergence)
    for params, (u, p, rep) in zip(settings, runs):
        u_ref, p_ref, rep_ref = chambolle_projection_l2(prob, params,
                                                        space=space)
        assert np.array_equal(u.coeffs, u_ref.coeffs)
        assert np.array_equal(p, p_ref)
        assert rep.trace == rep_ref.trace


PRESETS = pathlib.Path(__file__).resolve().parents[1] / "presets"


@pytest.mark.parametrize("path", sorted(PRESETS.glob("*_cp_*.json")),
                         ids=lambda p: p.stem)
def test_cp_presets_within_step_bound(path):
    """sigma * tau * L <= 0.95 on the 64x64 protocol mesh, L being the
    operator norm estimate at the preset's scale."""
    preset = json.loads(path.read_text())
    r = preset["degree"]
    space = FeSpace(build_crossed_mesh(64, 64, 1.0, 1.0), r)
    norm_sq = estimate_operator_norm_sq(
        space, preset.get("scale", solvers.DEFAULT_SCALE[r]))
    assert preset["sigma-step"] * preset["tau"] * norm_sq <= 0.95


def test_cp_default_steps_are_the_denoising_presets():
    """The denoising presets hold the default sigma and the default scale,
    and their tau is the derived default on the 64x64 protocol mesh,
    rounded down to three significant digits."""
    mesh = build_crossed_mesh(64, 64, 1.0, 1.0)
    for r, sigma in solvers.CP_STEP_DEFAULTS.items():
        preset = json.loads(
            (PRESETS / f"denoise_ball_cp_dg{r}.json").read_text())
        assert preset["sigma-step"] == sigma
        assert preset.get("scale", solvers.DEFAULT_SCALE[r]) \
            == solvers.DEFAULT_SCALE[r]
        space = FeSpace(mesh, r)
        prob = ProblemSpec(mesh=mesh, degree=r,
                           f=space.interpolate(smooth_disc), beta=1e-3)
        _, _, rep = chambolle_pock_l2(prob, SolverParams(max_iter=1),
                                      space=space)
        tau = preset["tau"]
        unit = 10.0 ** (math.floor(math.log10(tau)) - 2)
        assert tau <= rep.params["tau"] < tau + unit


@pytest.mark.parametrize("r", [0, 1, 2])
def test_cp_default_steps_follow_the_mesh(r):
    """On a 128x128 mesh, where the 64x64 steps are about 3x over the
    bound, the default steps of both Chambolle-Pock solvers give
    sigma * tau * L = 0.9, L the estimate for the operator each iterates
    (the lumped one for TV-L1)."""
    mesh = build_crossed_mesh(128, 128, 1.0, 1.0)
    space = FeSpace(mesh, r)
    f = space.interpolate(smooth_disc)
    prob = ProblemSpec(mesh=mesh, degree=r, f=f, beta=1e-3)
    runs = [(chambolle_pock_l2, False)] + ([(chambolle_pock_l1, True)]
                                           if r < 2 else [])
    for solver, lumped in runs:
        norm_sq = estimate_operator_norm_sq(space, solvers.DEFAULT_SCALE[r],
                                            lumped=lumped)
        _, _, rep = solver(prob, SolverParams(max_iter=1), space=space)
        assert rep.params["sigma"] * rep.params["tau"] * norm_sq \
            == pytest.approx(0.9, rel=1e-12)
        assert rep.params["sigma"] == solvers.CP_STEP_DEFAULTS[r]


def test_cp_default_steps_converge_on_a_finer_mesh():
    """Chambolle-Pock denoising with the default steps converges at
    128x128, r = 0 (the fixed 64x64 steps ran to 3000 iterations there)."""
    mesh, space, clean, noisy = _denoise_instance(n=128, r=0, seed=3)
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3)
    _, _, rep = chambolle_pock_l2(prob, SolverParams(), space=space,
                                  reference=clean)
    assert rep.converged
    assert rep.psnr >= psnr(noisy, clean) + 8.0


def test_cp_default_steps_converge_at_protocol_size():
    """Chambolle-Pock denoising on the 64x64 protocol mesh at r = 1 with the
    default steps converges (steps over the bound used to stall the gap)."""
    mesh, space, clean, noisy = _denoise_instance(n=64, r=1, seed=3)
    prob = ProblemSpec(mesh=mesh, degree=1, f=noisy.coeffs, beta=1e-3)
    _, _, rep = chambolle_pock_l2(prob, SolverParams(max_iter=2000),
                                  space=space, reference=clean)
    assert rep.converged
    assert rep.psnr >= psnr(noisy, clean) + 8.0


# -- the stop test: its reason, its timing and its lazy infeasibility -----------


def _stop_case(algorithm):
    """(problem, params, space): a small r = 0 instance each solver stops
    on after many steps: 8x8, or 4x4 for ADMM, which stops there after
    1127 steps (2201 at 8x8)."""
    n = 4 if algorithm == "admm-l1" else 8
    mesh, space, clean, noisy = _denoise_instance(n=n)
    prob = ProblemSpec(mesh=mesh, degree=0, f=noisy.coeffs, beta=1e-3)
    params = {"split-bregman": SolverParams(lam=1e-3),
              "cp-l1": SolverParams(sigma=0.5),
              "admm-l1": SolverParams(lam=1.0)}.get(algorithm,
                                                     SolverParams())
    return prob, params, space


def _l1_candidate_stops(trace):
    """Steps at which the TV-L1 stop test holds up to its infeasibility
    cap: 5 stagnant steps in a row and a data multiplier bound <= 1.01."""
    run = count = 0
    for entry in trace:
        run = run + 1 if entry["change"] <= solvers._CHANGE_TOL else 0
        count += run >= 5 and entry["multiplier_bound"] <= 1.01
    return count


def test_stop_reason_and_loop_time_split():
    """A TV-L2 solve stops on its gap, a TV-L1 run on stagnation and a run
    cut at max_iter says so; each report splits its loop time into step
    and monitor time, which never exceed the run's total."""
    runs = [("split-bregman", None, "gap"), ("cp-l1", None, "stagnation"),
            ("chambolle-pock", 1, "max_iter"), ("admm-l1", 1, "max_iter")]
    for algorithm, max_iter, reason in runs:
        prob, params, space = _stop_case(algorithm)
        if max_iter is not None:
            params = dataclasses.replace(params, max_iter=max_iter)
        _, _, rep = solve(prob, algorithm, params, space=space)
        assert rep.stop_reason == reason
        assert rep.converged == (reason != "max_iter")
        if max_iter is not None:
            assert rep.iterations == max_iter
        data = rep.to_dict()
        assert data["stop_reason"] == reason
        step_s, monitor_s = data["step_s"], data["monitor_s"]
        assert step_s >= 0 and monitor_s >= 0
        assert step_s + monitor_s <= rep.seconds
        # the per-step trace carries no infeasibility
        assert "infeasibility" not in rep.trace[-1]


@pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
def test_infeasibility_only_at_candidate_stops(algorithm, monkeypatch):
    """The stop test computes the infeasibility of p only when the rest of
    it holds (the gap for TV-L2, stagnation and the multiplier bound for
    TV-L1), and once more at the end of a run that took no stop; the
    reported value is that of the returned p, bit for bit."""
    prob, params, space = _stop_case(algorithm)
    calls = []
    gap_passes = []

    def counted(p, cs):
        calls.append(cs)
        return infeasibility(p, cs)

    def counted_gap(self, eta_val, divp):
        gap_passes.append(l2_converged(self, eta_val, divp))
        return gap_passes[-1]

    l2_converged = solvers._Context.l2_converged
    monkeypatch.setattr(solvers, "infeasibility", counted)
    monkeypatch.setattr(solvers._Context, "l2_converged", counted_gap)

    def run(params):
        calls.clear()
        gap_passes.clear()
        _, p, rep = solve(prob, algorithm, params, space=space)
        candidates = (_l1_candidate_stops(rep.trace) if "l1" in algorithm
                      else sum(gap_passes))
        cs = ConstraintSetSpec(space, beta=prob.beta, s=prob.s,
                               scale=rep.params["scale"])
        assert rep.infeasibility == infeasibility(p, cs)
        return rep, candidates

    rep, candidates = run(params)
    assert rep.converged and rep.iterations > 5
    assert 1 <= len(calls) == candidates < rep.iterations
    # cut one step short: the candidates met so far, plus the returned p
    rep, candidates = run(dataclasses.replace(params,
                                              max_iter=rep.iterations - 1))
    assert not rep.converged
    assert len(calls) == candidates + 1 < rep.iterations


@pytest.mark.parametrize("algorithm", ["split-bregman", "chambolle-pock",
                                       "chambolle-projection"])
def test_infeasibility_cap_still_gates_the_stop(algorithm, monkeypatch):
    """With the infeasibility read as 1.0, no TV-L2 solve converges: each
    runs to max_iter past the step its gap stopped it at."""
    prob, params, space = _stop_case(algorithm)
    _, _, free = solve(prob, algorithm, params, space=space)
    assert free.converged and free.stop_reason == "gap"
    monkeypatch.setattr(solvers, "infeasibility", lambda p, cs: 1.0)
    capped = dataclasses.replace(params, max_iter=free.iterations + 5)
    _, _, rep = solve(prob, algorithm, capped, space=space)
    assert not rep.converged and rep.stop_reason == "max_iter"
    assert rep.iterations == capped.max_iter
    assert rep.infeasibility == 1.0
