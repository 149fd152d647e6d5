"""Microsecond timings of the kernels every solver iteration is made of, on
the protocol's crossed mesh for r = 0, 1, 2."""

from __future__ import annotations

import statistics
import time

import numpy as np

KERNELS = ("lambda_apply", "lambda_t", "apply_mass", "apply_mass_inverse",
           "divergence", "project_feasible", "prox_vector", "pcg_cold",
           "pcg_warm", "gap")
DEGREES = (0, 1, 2)
LAM = 1e-3
BATCH_S = 0.02
BATCHES = 5


def time_call(fn):
    """Median over batches of the mean call time, in microseconds; a batch
    repeats the call for about BATCH_S seconds."""
    t0 = time.perf_counter()
    fn()
    once = time.perf_counter() - t0
    number = max(1, int(BATCH_S / max(once, 1e-9)))
    per_call = []
    for _ in range(BATCHES):
        t0 = time.perf_counter()
        for _ in range(number):
            fn()
        per_call.append((time.perf_counter() - t0) / number)
    return 1e6 * statistics.median(per_call)


def kernel_calls(fv, space, seed, missing):
    """The kernels of one space as zero-argument callables, on seeded
    inputs: a noisy disc u, y = Lambda u and a feasible dual vector p."""
    r = space.degree
    scale = 1.0 if r == 0 else 1e-2
    op = space.grad_jump()
    rng = np.random.default_rng([seed, 7, r])
    pts = space.cell_node_coords().reshape(-1, 2)
    u = (np.hypot(pts[:, 0] - 0.5, pts[:, 1] - 0.5) <= 0.3).astype(float)
    u += 0.1 * rng.standard_normal(u.size)
    y = op.apply(u)
    yw = space.y_weight_vector(scale)
    cs = fv.dtv.ConstraintSetSpec(space, beta=1e-3, s=2, scale=scale)
    candidate = yw * y
    p = fv.dtv.project_feasible(candidate, cs)
    thr = 1e-3 / (LAM * scale)
    cell = space.y_cell_view(y)
    qs = fv.operators.QuadraticSolver(space, op, LAM, scale)
    rhs = space.apply_mass(u)
    x_cold = qs.solve(rhs)
    # a right-hand side 1 % away, solved from the previous solution, as
    # consecutive outer iterations do
    rhs_warm = rhs + 1e-2 * space.apply_mass(rng.standard_normal(u.size))
    calls = {
        "lambda_apply": lambda: op.apply(u),
        "lambda_t": lambda: op.matrix.T.dot(y),
        "apply_mass": lambda: space.apply_mass(u),
        "apply_mass_inverse": lambda: space.apply_mass_inverse(u),
        "divergence": lambda: fv.operators.divergence(op, p),
        "project_feasible": lambda: fv.dtv.project_feasible(candidate, cs),
        "prox_vector": lambda: fv.solvers.prox_vector(cell, thr, 2),
        "pcg_cold": lambda: qs.solve(rhs),
        "pcg_warm": lambda: qs.solve(rhs_warm, x0=x_cold),
    }
    context = getattr(fv.solvers, "_Context", None)
    if context is None:
        missing.append("fetv.solvers._Context")
    else:
        prob = fv.solvers.ProblemSpec(mesh=space.mesh, degree=r, f=u,
                                      beta=1e-3)
        ctx = context(prob, fv.solvers.SolverParams(scale=scale), space=space)
        fu = fv.operators.DgFunction(space, u)
        calls["gap"] = lambda: fv.solvers.gap(fu, p, prob, context=ctx)
    return calls


def time_kernels(fv, seed, n, missing):
    """``kernel.<name>.r<k>.us`` for every kernel and degree; a kernel that
    cannot be built reads 0 and is listed in ``missing``."""
    mesh = fv.mesh.build_crossed_mesh(n, n, 1.0, 1.0)
    out = {}
    for r in DEGREES:
        calls = kernel_calls(fv, fv.spaces.FeSpace(mesh, r), seed, missing)
        for name in KERNELS:
            fn = calls.get(name)
            out[f"kernel.{name}.r{r}.us"] = time_call(fn) if fn else 0.0
    return out
