"""Primal/dual solvers for DTV-regularized denoising and inpainting.

All five algorithms share the same discrete ingredients: the gradient/jump
operator, the diagonal Riesz map between gradient samples and RT dofs, and
one nonlinear kernel, the projection onto beta*P: by Moreau's identity the
split Bregman / ADMM multiplier update is the Chambolle-Pock dual step with
tau = lam (Esser, Zhang & Chan, SIAM J. Imaging Sci. 3, 2010).  Each solver
fixes its fidelity in its context and sets up a ``step(u, p) -> (u, p, y,
divp)`` closure with y = Lambda u and divp = div p in the model's metric
(lumped for l1), or None for the loop to compute; the one loop
``_iterate`` runs it from u = f, p = 0 and owns the timer, the monitor, the
trace and the stop test, whose rule follows from the fidelity.  TV-L2 stops
on the primal-dual gap plus a feasibility cap; TV-L1 on iterate stagnation
plus the certificate max |div p| <= 1 on the data dofs.  The feasibility
cap is tested last, so the infeasibility of p is computed only when the
rest of the stop test holds, and once more for the returned p.

Each Chambolle-Pock iteration computes one divergence (Lambda^T, then
M^-1 or the lumped weights), of the new dual iterate: the next primal
step forms div p_bar from it by linearity, and the monitor reads it.

The TV-L2 monitor applies no operator: the regularizer is ``dtv.support``
at the step's y, and each mass norm is the space's Cholesky form of the
squared L2 norm, with the data cells' per-dof weights built once.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .dtv import (ConstraintSetSpec, _check_s, _project_in_place,
                  infeasibility, support, vector_norm)
# project_feasible stays bound here for the benchmark tracer
# (bench/spans.py), which hooks each module's binding
from .dtv import project_feasible  # noqa: F401
from .metrics import psnr
from .operators import (DgFunction, InnerSolveError, QuadraticSolver,
                        _check_int, _check_real, divergence)
from .spaces import FeSpace, _check_degree

__all__ = [
    "ProblemSpec",
    "SolverParams",
    "SolverReport",
    "shrink",
    "prox_vector",
    "split_bregman_l2",
    "chambolle_pock_l2",
    "chambolle_projection_l2",
    "chambolle_pock_l1",
    "admm_l1",
    "solve",
    "gap",
    "estimate_operator_norm_sq",
    "ALGORITHMS",
]

DEFAULT_SCALE = {0: 1.0, 1: 1e-2, 2: 1e-2}
# the Chambolle-Pock primal step sigma per degree, the shipped denoising
# presets' value; the default dual step is derived from it (_default_tau)
CP_STEP_DEFAULTS = {0: 0.016, 1: 0.025, 2: 0.03}
# stop rules: TV-L1 stagnation tolerance; the dual infeasibility cap of both
_CHANGE_TOL = 1e-6
_INFEAS_CAP = 1e-11
# split Bregman residual balancing: lam moves by a factor 2 when one
# residual exceeds the other this many times, at most this many times
_BALANCE_RATIO = 10.0
_PENALTY_CHANGES = 10


def shrink(xi, gamma):
    """Soft thresholding max(|xi| - gamma, 0) * sgn(xi)."""
    xi = np.asarray(xi, dtype=float)
    return np.sign(xi) * np.maximum(np.abs(xi) - gamma, 0.0)


def prox_vector(xi, gamma, s=2):
    """Prox of gamma*|.|_s on (..., 2) vectors: componentwise shrink for
    s = 1, radial shrink for s = 2; gamma = 0 is the identity."""
    xi = np.asarray(xi, dtype=float)
    if gamma == 0:
        return xi.copy()
    if s == 1:
        return shrink(xi, gamma)
    if s == 2:
        norms = vector_norm(xi, 2)
        factor = np.zeros_like(norms)
        np.divide(np.maximum(norms - gamma, 0.0), norms, out=factor,
                  where=norms > 0)
        out = np.empty_like(xi)     # no factor[..., None] broadcast
        np.multiply(xi[..., 0], factor, out=out[..., 0])
        np.multiply(xi[..., 1], factor, out=out[..., 1])
        return out
    raise ValueError(f"unsupported anisotropy s={s!r}")


@dataclass
class ProblemSpec:
    """One denoising/inpainting instance.

    ``f`` holds the data coefficients (a DgFunction or flat array); values
    on masked cells are ignored and treated as zero.  ``omega0`` flags the
    cells carrying data (None means all of them); its complement is the
    inpainting region.  The fidelity, l2 or l1, is the solver's.
    """

    mesh: object
    degree: int
    f: object
    omega0: object = None
    beta: float = 1e-3
    s: float = 2
    huber_eps: float = 0.0

    def __post_init__(self):
        self.degree = _check_degree(self.degree)
        # beta = 0 reduces to u = f on the data region, undefined elsewhere
        _check_real("beta", self.beta)
        _check_s(self.s, (1, 2))
        _check_real("huber_eps", self.huber_eps, closed=True)
        if self.huber_eps > 0 and self.s != 2:
            raise ValueError("the Huber variant is defined for s = 2 only")
        if self.omega0 is not None:
            self.omega0 = np.asarray(self.omega0, dtype=bool)
            if self.omega0.shape != (self.mesh.num_cells,):
                raise ValueError("omega0 must be a per-cell boolean mask")
            if not self.omega0.any():
                raise ValueError("omega0 is empty: nothing pins the solution")


@dataclass
class SolverParams:
    """Algorithm parameters; unset entries fall back to per-degree defaults."""

    lam: float = None
    sigma: float = None
    tau: float = None
    theta: float = 1.0
    scale: float = None
    eps_rel: float = 1e-3
    max_iter: int = 5000

    def __post_init__(self):
        for name in ("lam", "sigma", "tau", "scale"):
            if getattr(self, name) is not None:     # unset: the default
                _check_real(name, getattr(self, name))
        _check_real("eps_rel", self.eps_rel, closed=True)
        _check_real("theta", self.theta, high=1.0, closed=True)
        self.max_iter = _check_int("max_iter", self.max_iter, 1)


@dataclass
class SolverReport:
    # the field order is the key order of to_dict, which adds extras last
    algorithm: str
    params: dict = field(default_factory=dict)
    iterations: int = 0
    seconds: float = 0.0
    objective: float = None
    gap: float = None
    infeasibility: float = None
    psnr: float = None
    converged: bool = False
    stop_reason: str = None
    trace: list = field(default_factory=list)
    extras: dict = field(default_factory=dict)

    def to_dict(self):
        out = {f.name: getattr(self, f.name) for f in fields(self)
               if f.name != "extras"}
        out.update(self.extras)
        return out

    def to_json(self):
        """The report as RFC 8259 JSON: non-finite floats (the psnr of an
        exact reconstruction is inf) are written as null."""
        # with Infinity / NaN tokens, and numpy scalars as Python numbers
        text = json.dumps(self.to_dict(), default=lambda v: v.item())
        return json.dumps(json.loads(text, parse_constant=lambda _: None),
                          indent=2)


class _Context:
    """Shared per-solve state: space, operator, masks and stopping data;
    ``fidelity`` is the solver's, "l2" or "l1" (r <= 1), and a solver
    without the Huber variant passes ``huber=False``."""

    def __init__(self, prob: ProblemSpec, params: SolverParams = None,
                 space=None, fidelity="l2", huber=True):
        if fidelity == "l1" and prob.degree not in (0, 1):
            raise ValueError(
                "l1 fidelity needs strictly positive lumped weights, which "
                "restricts the degree to 0 or 1"
            )
        if prob.huber_eps > 0 and not huber:
            raise ValueError("the Huber variant is implemented for the "
                             "Chambolle-Pock solvers")
        self.prob = prob
        self.params = params = params or SolverParams()
        self.fidelity = fidelity
        self.space = space if space is not None else FeSpace(prob.mesh,
                                                             prob.degree)
        if self.space.mesh is not prob.mesh or self.space.degree != prob.degree:
            raise ValueError("space does not match the problem spec")
        self.op = self.space.grad_jump()
        # every solver applies Lambda^T: assemble it at set-up, not in the
        # first step, where the iterates are already allocated
        self.op.transpose

        self.mask = (np.ones(prob.mesh.num_cells, dtype=bool)
                     if prob.omega0 is None else prob.omega0)
        n_k = self.space.dofs.n_cell_basis
        self.mask_dof = np.repeat(self.mask, n_k)

        f = prob.f.coeffs if isinstance(prob.f, DgFunction) else prob.f
        f = np.asarray(f, dtype=float).ravel()
        if f.size != self.space.dim_dg:
            raise ValueError("data vector does not match the DG space")
        self.f = np.where(self.mask_dof, f, 0.0)
        if not np.isfinite(self.f).all():
            raise ValueError("data holds NaN or infinite values on data cells")

        self.scale = (params.scale if params.scale is not None
                      else DEFAULT_SCALE[prob.degree])
        self.cs = ConstraintSetSpec(self.space, beta=prob.beta, s=prob.s,
                                    scale=self.scale)
        self.yw = self.cs.y_weights
        # the per-dof weights of the mass norms over the data cells
        self._mass_w = self.space._det_weights(
            None if self.mask.all() else self.mask)
        self.f_norm_sq = self.data_norm_sq(self.f)
        self.gap_floor = 1e-13 * (1.0 + self.f_norm_sq)

        # the gap at u = f, p = 0 is the regularizer at f alone
        self.eta0 = (self.regularizer(self.op.apply(self.f))
                     if fidelity == "l2" else None)

    # -- objective pieces --------------------------------------------------

    def data_norm_sq(self, v):
        """||v||^2_M over the data cells."""
        return self.space._mass_norm_sq(v, self._mass_w)

    def regularizer(self, y):
        """beta * G(Lambda u) (Huberized when requested) from y = Lambda u:
        the support function of beta*P, whose bounds carry beta."""
        return support(self.cs, y, self.prob.huber_eps)

    def fidelity_value(self, u):
        if self.fidelity == "l2":
            return 0.5 * self.data_norm_sq(u - self.f)
        res = np.abs(u - self.f) * self.space.lumped_weights
        return float(res[self.mask_dof].sum())

    def objective(self, u, y):
        return self.fidelity_value(u) + self.regularizer(y)

    def eta(self, u, p, y, divp):
        """(gap, objective): the primal-dual gap used for stopping
        (Huber-adjusted if needed) and the primal objective, sharing one
        evaluation of the fidelity and the regularizer; y = Lambda u and
        divp = div p."""
        fid = self.fidelity_value(u)
        reg = self.regularizer(y)
        dual = 0.5 * self.data_norm_sq(divp + self.f)
        val = ((fid + dual) - 0.5 * self.f_norm_sq) + reg
        if self.prob.huber_eps > 0:
            w = np.asarray(p).ravel()
            val += self.prob.huber_eps / (2.0 * self.prob.beta) \
                * float(w @ (w / self.yw))
        return val, fid + reg

    def l2_converged(self, eta_val, divp):
        """The gap within tolerance: the TV-L2 stop test before its
        infeasibility cap, which ``_iterate`` checks only when this holds.
        With an inpainting region, the dual is finite only where div p
        vanishes off the data cells, so the signed gap may cross zero early;
        there the residual 0.5 ||div p||^2 over the masked cells must meet
        the gap tolerance too."""
        tol = max(self.params.eps_rel * abs(self.eta0), self.gap_floor)
        if not abs(eta_val) <= tol:
            return False
        if self.mask.all():
            return True
        return 0.5 * self.space.l2_norm_sq(divp, mask=~self.mask) <= tol

    def multiplier_bounds(self, divp):
        """The TV-L1 certificate max |div p| over the data dofs (and over
        the masked dofs), from the lumped divergence of p."""
        v = np.abs(divp)
        on = float(v[self.mask_dof].max()) if self.mask_dof.any() else 0.0
        off = float(v[~self.mask_dof].max()) if (~self.mask_dof).any() else 0.0
        return on, off

    def ystar_norm(self, p):
        p = np.asarray(p).ravel()
        return math.sqrt(p @ (p / self.yw))


def estimate_operator_norm_sq(space, scale=1.0, lumped=False):
    """Power-iteration estimate of L = sup ||Lambda u||_Y^2 / ||u||_{L2}^2,
    the Rayleigh quotient of M^-1 Lambda^T W Lambda after 60 steps from a
    seeded random start; ``lumped`` puts the lumped weights C in place of
    M (r <= 1), the operator of the TV-L1 divergence.  The Chambolle-Pock
    steps are stable when sigma * tau stays below 1/L; the projection
    iteration is stable for steps below 1/L at its scale, since ||div||^2
    from Y* to L2 is the squared norm of the adjoint.  A Rayleigh quotient
    approaches L from below (0.7-2 % under it on 8x8 to 64x64 crossed
    meshes), so the default steps 0.9 / L sit at about 0.91 of the bound,
    and the check of given steps (``_default_tau``) passes a true ratio up
    to about 1.02.  The estimate is kept on the space, one per scale and
    mass, so later solves on it reuse it."""
    _check_real("scale", scale)
    key = (scale, lumped)
    if key in space._norm_sq:
        return space._norm_sq[key]
    if lumped:
        if space.degree > 1:
            raise ValueError("the lumped weights vanish at degree 2")
        c = space.lumped_weights
        inner = lambda a, b: float((a * c) @ b)  # noqa: E731
    else:
        inner = space.l2_inner
    op = space.grad_jump()
    w = space.y_weight_vector(scale)
    v = np.random.default_rng(1).standard_normal(space.dim_dg)
    lam = 0.0
    for _ in range(60):
        kv = -divergence(op, w * op.apply(v), lumped=lumped)
        lam = inner(v, kv) / inner(v, v)
        kv_norm = math.sqrt(inner(kv, kv))
        if kv_norm == 0.0:
            return 0.0
        v = kv / kv_norm
    space._norm_sq[key] = lam = float(lam)
    return lam


def _default_tau(ctx, sigma):
    """(tau, L), L the norm estimate, at ``ctx.scale``, of the operator the
    solver iterates (lumped for the l1 fidelity).  ``params.tau`` is refused
    by a ValueError over the bound sigma * tau * L <= 1 of Chambolle & Pock
    (J. Math. Imaging Vis. 40, 2011); unset, it is 0.9 / (sigma * L), or 1
    where L = 0 (no interior edge at r = 0), as every step meets it."""
    norm_sq = estimate_operator_norm_sq(ctx.space, ctx.scale,
                                        lumped=ctx.fidelity == "l1")
    tau = ctx.params.tau
    if tau is None:
        return (0.9 / (sigma * norm_sq) if norm_sq else 1.0), norm_sq
    if sigma * tau * norm_sq > 1:
        raise ValueError(f"sigma * tau * L = {sigma * tau * norm_sq:.4g} is "
                         f"over the stability bound 1 (L = {norm_sq:.6g})")
    return tau, norm_sq


def gap(u: DgFunction, p, prob: ProblemSpec, context=None):
    """Primal-dual gap for the TV-L2 problem (sum of both objectives minus
    the constant data term); nonnegative for feasible p."""
    ctx = context if context is not None else _Context(prob, space=u.space)
    y = ctx.op.apply(u.coeffs)
    return ctx.eta(u.coeffs, p, y, divergence(ctx.op, p))[0]


# -- the shared dual and splitting steps --------------------------------------


def _cp_dual_step(ctx, p, y, tau):
    """Chambolle-Pock dual step from y = Lambda u: the projection of
    p + tau W y onto beta*P (after the prox of tau*(beta*G_eps)^*, whose
    quadratic weight transports to tau*eps/beta ahead of the projection).
    The candidate is built and projected in one new array."""
    candidate = ctx.yw * y
    candidate *= tau
    candidate += p
    if ctx.prob.huber_eps > 0:
        candidate *= 1.0 / (1.0 + tau * ctx.prob.huber_eps / ctx.prob.beta)
    return _project_in_place(candidate, ctx.cs)


def _split_step(ctx, qs, fid_rhs, lam, u, p, d):
    """The step split Bregman and ADMM share on the splitting d = Lambda u:
    u solves the u-system for fid_rhs + Lambda^T (lam W d - p), a CG solve
    warm-started at the last u (stop rule in :class:`QuadraticSolver`); p
    takes the dual step with tau = lam, and d = y + (p - p_new) / (lam W),
    y = Lambda u.  Returns (u, y, p_new, d)."""
    u = qs.solve(fid_rhs + ctx.op.transpose.dot(lam * ctx.yw * d - p), x0=u)
    y = ctx.op.apply(u)
    p_new = _cp_dual_step(ctx, p, y, lam)
    return u, y, p_new, y + (p - p_new) / (lam * ctx.yw)


# -- split Bregman ---------------------------------------------------------------


def split_bregman_l2(prob: ProblemSpec, params: SolverParams = None,
                     space=None, reference=None):
    """Split Bregman iteration for the TV-L2 problem (any mask, s in {1,2}):
    ``_split_step`` with p = lam W b and the fidelity's right-hand side M f.

    ``params.lam`` is the starting penalty, balanced on the residuals (He,
    Yang & Wang, JOTA 106, 2000; Boyd et al., ADMM, 2011, sec. 3.4.1):
    when the primal residual ||Lambda u - d||_W or the dual residual
    lam ||Lambda^T W (d - d_prev)||_{M^-1} exceeds ``_BALANCE_RATIO`` (10)
    times the other, lam is doubled or halved (p is kept) and the u-system
    is evaluated at the new lam.  After ``_PENALTY_CHANGES`` (10) changes
    lam is frozen, so the fixed-penalty convergence argument holds from
    then on; a budget of 0 gives the paper's fixed-lam iteration."""
    ctx = _Context(prob, params, space, huber=False)
    params, space = ctx.params, ctx.space
    lam = params.lam if params.lam is not None else 1e-3
    qs = QuadraticSolver(space, ctx.op, lam, ctx.scale, fidelity=(
        np.where(ctx.mask, prob.mesh.det_jacobian, 0.0), space.mass_ref))
    d = space.new_y()
    mf = space.apply_mass(ctx.f, mask=ctx.mask)
    report = SolverReport(algorithm="split-bregman",
                          params=_echo_params(ctx, lam=lam),
                          extras={"lam_final": lam, "penalty_changes": 0})

    def step(u, p):
        nonlocal d, lam
        d_prev = d
        u, y, p_new, d = _split_step(ctx, qs, mf, lam, u, p, d)
        if report.extras["penalty_changes"] < _PENALTY_CHANGES:
            factor = _balance_factor(ctx, y - d, d - d_prev, lam)
            if factor != 1:
                lam *= factor
                qs.set_lam(lam)
                report.extras["lam_final"] = lam
                report.extras["penalty_changes"] += 1
        return u, p_new, y, None

    try:
        return _iterate(ctx, report, step, reference)
    finally:    # the CG iterations of every u-solve, a stalled one's too
        report.extras["inner_iterations"] = qs.iterations


def _balance_factor(ctx, primal, dual_step, lam):
    """2 when the primal residual ||primal||_W exceeds ``_BALANCE_RATIO``
    times the dual residual lam ||Lambda^T W dual_step||_{M^-1}, 1/2 in the
    opposite case, else 1."""
    r_primal = math.sqrt(primal @ (ctx.yw * primal))
    v = ctx.op.transpose.dot(ctx.yw * dual_step)
    r_dual = lam * math.sqrt(v @ ctx.space.apply_mass_inverse(v))
    if r_primal > _BALANCE_RATIO * r_dual:
        return 2.0
    if r_dual > _BALANCE_RATIO * r_primal:
        return 0.5
    return 1.0


# -- Chambolle-Pock (TV-L2) -------------------------------------------------------


def chambolle_pock_l2(prob: ProblemSpec, params: SolverParams = None,
                      space=None, reference=None):
    """Primal-dual extragradient iteration for TV-L2 (supports masks and the
    Huber variant through `huber_eps`).  One divergence per iteration: with
    d_k = div p_k, div p_bar = d_k + theta (d_k - d_{k-1})."""
    ctx = _Context(prob, params, space)
    params = ctx.params
    sigma = params.sigma or CP_STEP_DEFAULTS[prob.degree]
    tau, norm_sq = _default_tau(ctx, sigma)
    denom = np.where(ctx.mask_dof, sigma, 0.0)
    sigma_f = denom * ctx.f
    denom += 1.0                # 1 + sigma on the data dofs, 1 elsewhere
    divp = divp_prev = np.zeros(ctx.space.dim_dg)

    def step(u, p):
        nonlocal divp, divp_prev
        # u = (u + sigma (d_k + theta (d_k - d_{k-1})) + sigma_dof f)
        #     / (1 + sigma_dof), in one new array and the same rounding
        u_new = divp - divp_prev
        u_new *= params.theta
        u_new += divp
        u_new *= sigma
        u_new += u
        u_new += sigma_f
        u_new /= denom
        u = u_new
        y = ctx.op.apply(u)
        p = _cp_dual_step(ctx, p, y, tau)
        divp_prev, divp = divp, divergence(ctx.op, p)
        return u, p, y, divp

    report = SolverReport(algorithm="chambolle-pock", params=_echo_params(
        ctx, sigma=sigma, tau=tau, norm_sq=norm_sq))
    return _iterate(ctx, report, step, reference)


# -- Chambolle projection (TV-L2, s = 2, full data) ---------------------------------


def chambolle_projection_l2(prob: ProblemSpec, params: SolverParams = None,
                            space=None, reference=None):
    """Semi-implicit dual projection iteration; requires s = 2 and data on
    every cell, and recovers u = div p + f at each step.

    It steps in the Y* metric of the run's scale.  On a 16x16 smooth disc
    (eps_rel = 1e-3) it stops after 96 iterations at r = 0, 1355 at r = 1
    and 2829 at r = 2, where ``chambolle_pock_l2`` takes 125 to 157, so
    that solver is the faster one at r >= 1."""
    if prob.s != 2:
        raise ValueError("the projection algorithm is defined for s = 2")
    if prob.omega0 is not None and not prob.omega0.all():
        raise ValueError("the projection algorithm requires data on every cell")
    ctx = _Context(prob, params, space, huber=False)
    space = ctx.space
    # a unit primal step in the Y* metric of ctx.scale, whose cell weights
    # carry the scale: the cell dofs step by tau * scale
    tau, norm_sq = _default_tau(ctx, 1.0)
    tau_cell = tau * ctx.scale
    y = ctx.op.apply(ctx.f)                # Lambda u at u = div p + f, p = 0

    def step(u, p):
        nonlocal y
        jumps = space.y_edge_view(y)
        gamma_e = np.abs(jumps) / prob.beta
        pe = space.y_edge_view(p)
        pe[:] = (pe + tau * space.edge_weights * jumps) / (1.0 + tau * gamma_e)
        grads = space.y_cell_view(y)
        gamma_t = vector_norm(grads, 2) / prob.beta
        pc = space.y_cell_view(p)
        pc[:] = ((pc + tau_cell * space.cell_weights[..., None] * grads)
                 / (1.0 + tau_cell * gamma_t)[..., None])
        divp = divergence(ctx.op, p)
        u = divp + ctx.f
        y = ctx.op.apply(u)
        return u, p, y, divp

    report = SolverReport(algorithm="chambolle-projection",
                          params=_echo_params(ctx, tau=tau, norm_sq=norm_sq))
    return _iterate(ctx, report, step, reference)


# -- Chambolle-Pock (TV-L1) ----------------------------------------------------------


def chambolle_pock_l1(prob: ProblemSpec, params: SolverParams = None,
                      space=None, reference=None):
    """Primal-dual iteration for TV-L1: DG_r is identified with its dual via
    the lumped inner product, so the divergence step is lumped and the data
    prox is a per-dof shrink toward f.  The lumped div p of each new dual
    iterate serves both the certificate and the next primal step."""
    ctx = _Context(prob, params, space, "l1")
    params = ctx.params
    sigma = params.sigma or CP_STEP_DEFAULTS[prob.degree]
    tau, norm_sq = _default_tau(ctx, sigma)
    divp = divp_prev = np.zeros(ctx.space.dim_dg)

    def step(u, p):
        nonlocal divp, divp_prev
        u_bar = u + sigma * (divp + params.theta * (divp - divp_prev))
        u = np.where(ctx.mask_dof, ctx.f + shrink(u_bar - ctx.f, sigma), u_bar)
        y = ctx.op.apply(u)
        p = _cp_dual_step(ctx, p, y, tau)
        divp_prev, divp = divp, divergence(ctx.op, p, lumped=True)
        return u, p, y, divp

    report = SolverReport(algorithm="cp-l1", params=_echo_params(
        ctx, sigma=sigma, tau=tau, norm_sq=norm_sq))
    return _iterate(ctx, report, step, reference)


# -- ADMM (TV-L1) ----------------------------------------------------------------------


def admm_l1(prob: ProblemSpec, params: SolverParams = None, space=None,
            reference=None):
    """ADMM for TV-L1 with the double splitting d = Lambda u, e = u - f:
    ``_split_step``, then the shrink of e; the u-system's fidelity block is
    lam * scale * C, C the lumped weights on every cell."""
    ctx = _Context(prob, params, space, "l1", huber=False)
    params, space = ctx.params, ctx.space
    lam = params.lam if params.lam is not None else 1.0
    qs = QuadraticSolver(space, ctx.op, lam, ctx.scale, fidelity=(
        lam * ctx.scale * prob.mesh.cell_areas,
        np.diag(space.layout.cell_full)))
    d = space.new_y()
    e = np.zeros(space.dim_dg)
    g = np.zeros(space.dim_dg)
    e_thr = 1.0 / (lam * ctx.scale)

    def step(u, p):
        nonlocal d, e, g
        u, y, p_new, d = _split_step(
            ctx, qs, lam * ctx.scale * space.lumped_weights * (e + ctx.f - g),
            lam, u, p, d)
        z = u - ctx.f + g
        e = np.where(ctx.mask_dof, shrink(z, e_thr), z)
        g = g + u - ctx.f - e
        return u, p_new, y, None

    report = SolverReport(algorithm="admm-l1",
                          params=_echo_params(ctx, lam=lam))
    try:
        return _iterate(ctx, report, step, reference)
    finally:    # the CG iterations of every u-solve, a stalled one's too
        report.extras["inner_iterations"] = qs.iterations


ALGORITHMS = {
    "split-bregman": split_bregman_l2,
    "chambolle-pock": chambolle_pock_l2,
    "chambolle-projection": chambolle_projection_l2,
    "cp-l1": chambolle_pock_l1,
    "admm-l1": admm_l1,
}


def solve(prob: ProblemSpec, algorithm, params: SolverParams = None,
          space=None, reference=None):
    """Dispatch to one of the five algorithms by name."""
    try:
        fn = ALGORITHMS[algorithm]
    except KeyError:
        raise ValueError(f"unknown algorithm {algorithm!r}") from None
    return fn(prob, params=params, space=space, reference=reference)


# -- the shared loop and its bookkeeping ---------------------------------------------


def _iterate(ctx, report, step, reference):
    """Run ``step(u, p) -> (u, p, y, divp)`` from u = f, p = 0 until the
    stop rule of ``ctx.fidelity`` holds or ``max_iter`` steps are made;
    returns (DgFunction u, p, report).  A step that returns divp = None
    leaves div p to the loop, in the model's metric (lumped for l1).
    TV-L2 stops when ``_Context.l2_converged`` holds; TV-L1 after 5
    consecutive relative changes of u (in L2) and p (in Y*) of at most
    ``_CHANGE_TOL`` with the certificate ``_Context.multiplier_bounds``
    of div p at most 1.01 on the data dofs.  Either stop also needs
    the infeasibility of p under ``_INFEAS_CAP``.  That conjunct is tested
    last, so ``infeasibility`` runs once per candidate stop, not once per
    step.  Four of the five steps return p projected onto beta*P.  Its
    infeasibility, the squared Y*-distance to its own projection, is at
    squared rounding (``test_projection_properties`` in
    tests/test_properties.py checks <= 1e-30 of the measure at s = 1, 2
    and <= 1e-26 at s = inf), so their first candidate stops; the
    projection method's unprojected p meets the same cap.
    ``report.infeasibility`` is the value at the returned p, computed once
    more when the run stops at ``max_iter``.

    ``report.stop_reason`` is ``gap``, ``stagnation`` or ``max_iter``.  A
    step that raises InnerSolveError ends the run with the exception,
    which carries the report so far as ``exc.report``, its stop reason
    ``inner_stall``.
    ``extras["step_s"]`` is the time spent in ``step`` and
    ``extras["monitor_s"]`` the time spent on the objective, the gap and
    the stop test; together they are at most ``report.seconds``."""
    params, space = ctx.params, ctx.space
    l1 = ctx.fidelity == "l1"
    # the clock starts before the allocations: that interval, which the
    # split leaves out, keeps step_s + monitor_s <= seconds under rounding
    start = time.perf_counter()
    u = ctx.f.copy()
    p = space.new_y()
    stagnant = 0
    step_s = monitor_s = 0.0
    tick = time.perf_counter()
    for _ in range(params.max_iter):
        u_prev, p_prev = u, p
        try:
            u, p, y, divp = step(u, p)
        except InnerSolveError as exc:
            report.stop_reason = "inner_stall"
            report.seconds = time.perf_counter() - start
            exc.report = report
            raise
        stepped = time.perf_counter()
        step_s += stepped - tick
        if divp is None:
            divp = divergence(ctx.op, p, lumped=l1)
        if not l1:
            eta_val, objective = ctx.eta(u, p, y, divp)
            _record(report, objective, eta_val)
            candidate = ctx.l2_converged(eta_val, divp)
        else:
            bounds = ctx.multiplier_bounds(divp)
            change = max(math.sqrt(space.l2_norm_sq(u - u_prev))
                         / (math.sqrt(ctx.f_norm_sq) + 1e-300),
                         ctx.ystar_norm(p - p_prev)
                         / max(ctx.ystar_norm(p), 1e-30))
            stagnant = stagnant + 1 if change <= _CHANGE_TOL else 0
            _record(report, ctx.objective(u, y), None,
                    extras={"change": change, "multiplier_bound": bounds[0]})
            candidate = stagnant >= 5 and bounds[0] <= 1.01
        if candidate:
            rho = infeasibility(p, ctx.cs)
            report.converged = rho <= _INFEAS_CAP
        tick = time.perf_counter()
        monitor_s += tick - stepped
        if report.converged:
            report.stop_reason = "stagnation" if l1 else "gap"
            break
    if not report.converged:
        report.stop_reason = "max_iter"
        rho = infeasibility(p, ctx.cs)
    end = time.perf_counter()
    monitor_s += end - tick
    report.infeasibility = rho
    report.seconds = end - start
    report.extras["step_s"] = step_s
    report.extras["monitor_s"] = monitor_s
    if l1:
        report.extras["multiplier_bound"] = bounds[0]
        report.extras["multiplier_bound_masked"] = bounds[1]
    if reference is not None:
        ref = reference.coeffs if isinstance(reference, DgFunction) else reference
        report.psnr = psnr(DgFunction(space, u),
                           DgFunction(space, np.asarray(ref, dtype=float)))
    return DgFunction(space, u), p, report


def _record(report, objective, eta_val, extras=None):
    entry = {"objective": objective, "gap": eta_val}
    if extras:
        entry.update(extras)
    report.trace.append(entry)
    report.iterations += 1
    report.objective = objective
    if eta_val is not None:
        report.gap = eta_val


def _echo_params(ctx, **resolved):
    prob, params = ctx.prob, ctx.params
    out = {
        "beta": prob.beta,
        "s": prob.s,
        "degree": prob.degree,
        "fidelity": ctx.fidelity,
        "huber_eps": prob.huber_eps,
        "theta": params.theta,
        "eps_rel": params.eps_rel,
        "infeas_cap": _INFEAS_CAP,
        "max_iter": params.max_iter,
    }
    out.update(resolved, scale=ctx.scale)
    return out
