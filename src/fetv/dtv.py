"""The discrete TV seminorm, the exact TV of a DG function, the dual
constraint set with its projection, and duality witness/oracle machinery.

The seminorm interpolates |grad u|_s at the P_{r-1} cell nodes and the jump
magnitude at the edge Lagrange nodes and integrates the interpolants with
the positive Newton-Cotes weights.  That sum is the maximum of <p, Lambda u>
over RT dof vectors p in the constraint set P (unit box/ball bounds per
dof), so it is computed in one place, ``support``: the support function of
P at y = Lambda u, whose bounds ``ConstraintSetSpec`` holds.  The solvers'
regularizer and its Huber variant are the same function of beta*P.

The per-iteration kernels avoid numpy idioms that cost more than their
arithmetic: weighted sums are dots, the edge clip is maximum/minimum, and
cell vectors are scaled component by component, not by a broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .operators import DgFunction

__all__ = [
    "vector_norm",
    "dtv",
    "support",
    "tv_exact",
    "ConstraintSetSpec",
    "project_feasible",
    "dual_witness",
    "dual_max_bruteforce",
    "infeasibility",
]

_PRIMAL_S = (1, 2, math.inf)


def _check_s(s, allowed=_PRIMAL_S):
    if s not in allowed:
        raise ValueError(f"anisotropy s={s!r} not supported here")


def vector_norm(vecs, s):
    """|.|_s of an (..., 2) array of vectors.

    s = 2 is sqrt(x*x + y*y), at most 1 ulp from ``np.hypot`` and several
    times faster, for components of magnitude in [1e-150, 1e150]; beyond
    that range the squares overflow or underflow."""
    vecs = np.asarray(vecs)
    # componentwise, since reductions over a length-2 axis are slow
    if s == 1:
        return np.abs(vecs[..., 0]) + np.abs(vecs[..., 1])
    if s == 2:
        # the bits of sqrt(x*x + y*y), allocating two arrays instead of four
        out = np.square(vecs[..., 0], dtype=float)
        out += np.square(vecs[..., 1])
        return np.sqrt(out, out=out)
    if s == math.inf:
        return np.maximum(np.abs(vecs[..., 0]), np.abs(vecs[..., 1]))
    raise ValueError(f"unsupported anisotropy s={s!r}")


def dtv(u: DgFunction, s=2):
    """Discrete TV seminorm: nodal-quadrature value of the TV integrals."""
    space = u.space
    return support(ConstraintSetSpec(space, 1.0, s),
                   space.grad_jump().apply(u.coeffs))


def support(spec, y, eps=0.0):
    """The support function max <p, y> over p in beta*P, i.e.
    sum_E edge_bounds * h(|y_E|) + sum_T cell_bounds * h(|y_T|_s) with h
    the identity; eps > 0 huberizes it, h being |d|^2/(2 eps) below eps
    and |d| - eps/2 above.  At y = Lambda u it is beta * dtv(u, s)."""
    def h(mag):
        if eps == 0:
            return mag
        return np.where(mag <= eps, mag * mag / (2.0 * eps), mag - 0.5 * eps)

    space = spec.space
    edges = np.abs(space.y_edge_view(y))
    cells = vector_norm(space.y_cell_view(y), spec.s)
    return (float(h(edges).ravel() @ spec.edge_bounds.ravel())
            + float(h(cells).ravel() @ spec.cell_bounds.ravel()))


# -- exact TV ----------------------------------------------------------------


def _duffy_rule(n):
    """Tensor Gauss rule collapsed onto the reference triangle, symmetrized
    over the three rotations; exact for polynomials up to degree 2n - 2."""
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    xi, eta = np.meshgrid(x, x, indexing="ij")
    wts = np.outer(w, w) * (1.0 - xi)
    px = xi.ravel()
    py = (eta * (1.0 - xi)).ravel()
    wq = wts.ravel()
    pts = np.column_stack([px, py])
    rot1 = np.column_stack([py, 1.0 - px - py])
    rot2 = np.column_stack([1.0 - px - py, px])
    return (np.vstack([pts, rot1, rot2]),
            np.concatenate([wq, wq, wq]) / 3.0)


_TRI_QUAD = None
_CELL_BLOCK = 1024      # cells per block of quadrature-point gradients


def _triangle_quadrature():
    global _TRI_QUAD
    if _TRI_QUAD is None:
        _TRI_QUAD = _duffy_rule(6)  # degree 10
    return _TRI_QUAD


def _edge_abs_integral_affine(v0, v1):
    """Exact integral of |v| over [0, 1] for the affine v(t) = v0 + (v1-v0)t."""
    same = v0 * v1 >= 0
    mean = 0.5 * np.abs(v0 + v1)
    denom = np.where(same, 1.0, np.abs(v0 - v1))
    split = 0.5 * (v0 * v0 + v1 * v1) / denom
    return np.where(same, mean, split)


def _edge_abs_integral_quadratic(v0, vm, v1):
    """Exact integral of |v| over [0, 1] for the quadratic with nodal values
    (v0, vm, v1) at t = 0, 1/2, 1, by splitting at the interior roots."""
    a = 2.0 * v0 - 4.0 * vm + 2.0 * v1
    b = -3.0 * v0 + 4.0 * vm - v1
    c = v0

    r1 = np.zeros_like(a)
    r2 = np.zeros_like(a)
    quad = np.abs(a) > 1e-14 * (np.abs(b) + np.abs(c) + np.abs(a))
    with np.errstate(invalid="ignore", divide="ignore"):
        disc = b * b - 4.0 * a * c
        has_roots = quad & (disc > 0.0)
        sqrt_disc = np.sqrt(np.where(has_roots, disc, 0.0))
        q = -0.5 * (b + np.sign(b + (b == 0)) * sqrt_disc)
        ra = np.where(has_roots & (a != 0), q / np.where(a == 0, 1, a), 0.0)
        rb = np.where(has_roots & (q != 0), c / np.where(q == 0, 1, q), 0.0)
        lin = ~quad & (np.abs(b) > 0)
        rl = np.where(lin, -c / np.where(b == 0, 1, b), 0.0)
    r1 = np.where(has_roots, ra, np.where(lin, rl, 0.0))
    r2 = np.where(has_roots, rb, 0.0)
    r1 = np.clip(r1, 0.0, 1.0)
    r2 = np.clip(r2, 0.0, 1.0)

    ts = np.stack([np.zeros_like(a), np.minimum(r1, r2),
                   np.maximum(r1, r2), np.ones_like(a)], axis=-1)
    anti = a[..., None] * ts ** 3 / 3.0 + b[..., None] * ts ** 2 / 2.0 \
        + c[..., None] * ts
    return np.abs(np.diff(anti, axis=-1)).sum(axis=-1)


def tv_exact(u: DgFunction, s=2):
    """TV seminorm of the DG function itself.

    Edge contributions are integrated exactly by splitting |jump| at its
    roots; cell contributions are exact for r <= 1 (piecewise constant
    gradient) and use a degree-10 symmetric quadrature rule for r = 2.
    """
    _check_s(s)
    space = u.space
    r = space.degree
    y = space.grad_jump().apply(u.coeffs)
    j = space.y_edge_view(y)
    norms = vector_norm(space.mesh.edge_normals, s)

    # a constant (r = 0) jump is affine with equal ends: the integral is |j|
    if r <= 1:
        integral = _edge_abs_integral_affine(j[:, 0], j[:, -1])
    else:
        integral = _edge_abs_integral_quadratic(j[:, 0], j[:, 1], j[:, 2])
    edge_total = float((integral * norms * space.mesh.edge_lengths).sum())

    if r <= 1:
        # constant gradient per cell: one P_0 node at r = 1, none at r = 0
        grads = vector_norm(space.y_cell_view(y), s).sum(axis=1)
        cell_total = float((grads * space.mesh.cell_areas).sum())
    else:
        # grad u is P1 on each cell and Lambda u holds it exactly at the P1
        # nodes, so the P1 basis carries it to the quadrature points; in
        # blocks of cells, since the (n_t, nq, 2) samples of a whole mesh
        # and their norm temporaries would set the peak memory
        pts, wts = _triangle_quadrature()
        basis = space.layout.sub.eval_cell(pts)
        grads = space.y_cell_view(y)
        vals = np.concatenate([                          # per cell, ref measure
            vector_norm(basis @ grads[i:i + _CELL_BLOCK], s) @ wts
            for i in range(0, len(grads), _CELL_BLOCK)])
        cell_total = float((vals * space.mesh.det_jacobian).sum())
    return edge_total + cell_total


# -- constraint set -----------------------------------------------------------


@dataclass
class ConstraintSetSpec:
    """The scaled admissible set beta*P for RT dof vectors.

    Edge dofs are bounded by beta*|n_E|_s*c_{E,j}; each cell dof pair is
    bounded in the conjugate norm by beta*c_{T,i}.  ``scale`` is the Y
    scaling parameter entering the Y* metric (used by the infeasibility
    measure, not by the projection).
    """

    space: object
    beta: float
    s: float = 2
    scale: float = 1.0
    edge_bounds: np.ndarray = field(init=False)
    cell_bounds: np.ndarray = field(init=False)

    def __post_init__(self):
        if self.beta <= 0:
            raise ValueError("beta must be positive")
        _check_s(self.s)
        space = self.space
        self.edge_bounds = (self.beta
                            * vector_norm(space.mesh.edge_normals, self.s)[:, None]
                            * space.edge_weights)
        self.cell_bounds = self.beta * space.cell_weights

    @cached_property
    def _edge_floor(self):
        """-edge_bounds for the edge clip, made on the first projection:
        the solvers that never project keep one edge vector less."""
        return -self.edge_bounds


def _project_linf_ball(vecs, radius):
    return np.clip(vecs, -radius[..., None], radius[..., None], out=vecs)


def _project_l2_ball(vecs, radius):
    # the factor is exactly 1 inside the ball (positive radii)
    factor = vector_norm(vecs, 2)
    np.maximum(factor, radius, out=factor)
    np.divide(radius, factor, out=factor)
    vecs[..., 0] *= factor
    vecs[..., 1] *= factor
    return vecs


def _project_l1_ball(vecs, radius):
    """Exact Euclidean projection of 2-vectors onto |.|_1 <= radius."""
    a = np.abs(vecs)
    inside = a.sum(axis=-1) <= radius
    hi = a.max(axis=-1)
    lo = a.min(axis=-1)
    # threshold: either only the larger component survives, or both do
    theta1 = hi - radius
    theta2 = 0.5 * (hi + lo - radius)
    theta = np.where(lo <= theta1, theta1, theta2)
    theta = np.where(inside, 0.0, np.maximum(theta, 0.0))
    shrunk = np.sign(vecs) * np.maximum(a - theta[..., None], 0.0)
    vecs[:] = np.where(inside[..., None], vecs, shrunk)
    return vecs


def _project_cell_ball(cells, radius, s):
    """Euclidean projection, in place, of (..., 2) cell vectors onto the
    conjugate ball of |.|_s with the given radii: the l2 ball for s = 2,
    the box for s = 1 and the l1 ball for s = inf.  Each ball kernel
    overwrites its argument and returns it."""
    if s == 2:
        return _project_l2_ball(cells, radius)
    if s == 1:
        return _project_linf_ball(cells, radius)
    return _project_l1_ball(cells, radius)


def _project_in_place(out, spec: ConstraintSetSpec):
    """Overwrite the RT dof vector ``out`` (a float array) with its
    projection onto beta*P and return it: the body of
    ``project_feasible`` for callers that own a fresh candidate."""
    space = spec.space
    edge = space.y_edge_view(out)
    np.maximum(edge, spec._edge_floor, out=edge)
    np.minimum(edge, spec.edge_bounds, out=edge)
    _project_cell_ball(space.y_cell_view(out), spec.cell_bounds, spec.s)
    return out


def project_feasible(p, spec: ConstraintSetSpec):
    """Project an RT dof vector onto beta*P (componentwise clip on edge
    dofs; conjugate-norm ball projection on each cell dof pair): a copy
    of ``p`` projected by ``_project_in_place``; ``p`` is left as it is."""
    return _project_in_place(np.array(p, dtype=float), spec)


def _squared_hinge(mag, bound):
    """max(mag - bound, 0)^2, computed in the buffer of ``mag``."""
    mag -= bound
    np.maximum(mag, 0.0, out=mag)
    mag *= mag
    return mag


def infeasibility(p, spec: ConstraintSetSpec):
    """Squared Y*-distance-to-feasibility (hinge violations weighted by the
    inverse quadrature weights); zero iff p lies in beta*P.  Edges within
    their bounds (NaN is not) sum to the 0.0 left in place of their hinges;
    the projection keeps the edges of a dual iterate there."""
    if spec.s not in (1, 2):
        raise ValueError("infeasibility is defined for s in {1, 2}")
    space = spec.space
    p = np.asarray(p, dtype=float)
    total = 0.0
    edge = np.abs(space.y_edge_view(p))
    if not (edge <= spec.edge_bounds).all():
        viol = _squared_hinge(edge, spec.edge_bounds)
        viol /= space.edge_weights
        total = float(viol.sum())
    cell = space.y_cell_view(p)
    w = spec.scale * space.cell_weights
    if spec.s == 2:
        hinge = _squared_hinge(vector_norm(cell, 2), spec.cell_bounds)
        hinge /= w
        total += float(hinge.sum())
    else:
        hinge = _squared_hinge(np.abs(cell), spec.cell_bounds[..., None])
        total += float((hinge.sum(axis=-1) / w).sum())
    return total


# -- duality ------------------------------------------------------------------


def dual_witness(u: DgFunction, s=2):
    """The maximizer of <p, Lambda u> over the unit constraint set P:
    pairing it with Lambda u reproduces dtv(u, s) exactly."""
    space = u.space
    spec = ConstraintSetSpec(space, 1.0, s)
    y = space.grad_jump().apply(u.coeffs)
    p = space.new_y()
    space.y_edge_view(p)[:] = np.sign(space.y_edge_view(y)) * spec.edge_bounds

    w = space.y_cell_view(y)
    c = spec.cell_bounds
    cell = space.y_cell_view(p)
    if s == math.inf:
        lead = np.argmax(np.abs(w), axis=-1)
        picked = np.take_along_axis(w, lead[..., None], axis=-1)[..., 0]
        vals = np.sign(picked) * c
        cell[:] = 0.0
        np.put_along_axis(cell, lead[..., None], vals[..., None], axis=-1)
    else:
        norms = vector_norm(w, s)
        safe = np.where(norms > 0, norms, 1.0)
        scale = c / safe ** (s - 1)
        cell[:] = (np.sign(w) * np.abs(w) ** (s - 1)
                   * np.where(norms > 0, scale, 0.0)[..., None])
    return p


def dual_max_bruteforce(u: DgFunction, s=2, n_samples=10000, seed=0,
                        include_witness=False):
    """Maximum of <p, Lambda u> over random feasible p (uniform per-dof on
    the constraint boxes, cell pairs projected onto the conjugate ball).
    Weak duality bounds the result by dtv(u, s); meant for small meshes."""
    _check_s(s)
    space = u.space
    if space.mesh.num_cells > 16:
        raise ValueError("brute-force oracle is restricted to small meshes")
    spec = ConstraintSetSpec(space, beta=1.0, s=s)
    rng = np.random.default_rng(seed)
    y = space.grad_jump().apply(u.coeffs)

    eb = spec.edge_bounds.ravel()
    edges = rng.uniform(-1.0, 1.0, size=(n_samples, eb.size)) * eb
    cb = spec.cell_bounds.reshape(-1)
    cells = rng.uniform(-1.0, 1.0,
                        size=(n_samples, cb.size, 2)) * cb[None, :, None]
    cells = _project_cell_ball(cells, np.broadcast_to(cb, cells.shape[:2]), s)
    samples = np.concatenate([cells.reshape(n_samples, 2 * cb.size), edges],
                             axis=1)
    values = samples @ y
    best = float(values.max()) if n_samples else -math.inf
    if include_witness:
        best = max(best, float(dual_witness(u, s) @ y))
    return best
