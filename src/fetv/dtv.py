"""The discrete TV seminorm, the exact TV of a DG function, and the dual
constraint set with its projection, from which the infeasibility measure
(the squared Y*-distance to the set) is taken.

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
from functools import cache, cached_property

import numpy as np

from .operators import DgFunction, _check_real

__all__ = [
    "vector_norm",
    "dtv",
    "support",
    "tv_exact",
    "ConstraintSetSpec",
    "project_feasible",
    "infeasibility",
]

_PRIMAL_S = (1, 2, math.inf)


def _check_s(s, supported=_PRIMAL_S):
    """ValueError unless ``s`` is one of ``supported``, not a bool."""
    if isinstance(s, (bool, np.bool_)) or s not in supported:
        raise ValueError("anisotropy s must be in {%s}, got %r"
                         % (", ".join(map(str, supported)), s))


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


_CELL_BLOCK = 256       # cells per block of quadrature-point gradients


@cache
def _triangle_quadrature():
    return _duffy_rule(6)  # degree 10


def _edge_abs_integral_affine(v0, v1):
    """Exact integral of |v| over [0, 1] for the affine v(t) = v0 + (v1-v0)t."""
    same = v0 * v1 >= 0
    mean = 0.5 * np.abs(v0 + v1)
    denom = np.where(same, 1.0, np.abs(v0 - v1))
    split = 0.5 * (v0 * v0 + v1 * v1) / denom
    return np.where(same, mean, split)


def _edge_abs_integral_quadratic(v0, vm, v1):
    """Exact integral of |v| over [0, 1] for v = a t^2 + b t + c with nodal
    values (v0, vm, v1) at t = 0, 1/2, 1: the sum of |F| over the pieces
    between two break points, F(t) = ((a/3 t + b/2) t + c) t.  They are the
    stable root pair q/a, c/q, q = -(b + sign(b) sqrt(max(b^2 - 4ac, 0)))/2,
    each moved to 0 unless it lies in (0, 1); one where v keeps its sign
    (a = 0, b = 0, complex roots) leaves the sum as it is."""
    a = 2.0 * v0 - 4.0 * vm + 2.0 * v1
    b = -3.0 * v0 + 4.0 * vm - v1
    c = v0
    with np.errstate(divide="ignore", invalid="ignore"):
        q = -0.5 * (b + np.copysign(
            np.sqrt(np.maximum(b * b - 4.0 * a * c, 0.0)), b))
        # a non-finite break point fails both comparisons
        t1, t2 = (np.where((t > 0.0) & (t < 1.0), t, 0.0)
                  for t in (q / a, c / q))
    a3, b2 = a / 3.0, b / 2.0

    def anti(t):
        return ((a3 * t + b2) * t + c) * t

    lo = anti(np.minimum(t1, t2))
    hi = anti(np.maximum(t1, t2))
    return np.abs(lo) + np.abs(hi - lo) + np.abs(anti(1.0) - hi)


def tv_exact(u: DgFunction, s=2):
    """TV seminorm of the DG function itself.

    Edge contributions are integrated exactly by splitting |jump| at its
    roots; cell contributions are exact for r <= 1 (piecewise constant
    gradient) and use a degree-10 symmetric quadrature rule for r = 2.
    Only the terms with something to integrate are computed: a constant
    jump integrates to |jump|, and an r = 2 cell whose gradient samples
    are all zero contributes an exact 0.  Both keep their place in the
    full-length arrays that are summed, so the sums see the same terms.
    """
    _check_s(s)
    space = u.space
    r = space.degree
    y = space.grad_jump().apply(u.coeffs)
    j = space.y_edge_view(y)
    norms = vector_norm(space.mesh.edge_normals, s)

    # a jump that is the same at every edge node is constant along the edge
    # (column by column: a reduction over the short node axis is slow)
    integral = np.abs(j[:, 0])
    varying = np.zeros(len(j), dtype=bool)
    for k in range(1, j.shape[1]):
        varying |= j[:, k] != j[:, 0]
    if varying.any():
        edge_abs_integral = (_edge_abs_integral_affine if r == 1
                             else _edge_abs_integral_quadratic)
        integral[varying] = edge_abs_integral(*j[varying].T)
    edge_total = float((integral * norms * space.mesh.edge_lengths).sum())

    if r <= 1:
        # constant gradient per cell: one P_0 node at r = 1, none at r = 0
        grads = vector_norm(space.y_cell_view(y), s).sum(axis=1)
        cell_total = float((grads * space.mesh.cell_areas).sum())
    else:
        # grad u is P1 on each cell and Lambda u holds it exactly at the P1
        # nodes, so the P1 basis carries it to the quadrature points; in
        # blocks of the cells with a nonzero sample, since the (n_t, nq, 2)
        # samples of a whole mesh and their norm temporaries would set the
        # peak memory.  The blocks share one sample buffer: a fresh one per
        # block would be mapped and faulted in anew each time
        pts, wts = _triangle_quadrature()
        basis = space.layout.sub.eval_cell(pts)
        grads = space.y_cell_view(y)
        live = np.flatnonzero(grads.reshape(len(grads), -1).any(axis=1))
        vals = np.zeros(len(grads))                     # per cell, ref measure
        samples = np.empty((min(len(live), _CELL_BLOCK), len(pts), 2))
        for i in range(0, len(live), _CELL_BLOCK):
            block = live[i:i + _CELL_BLOCK]
            np.matmul(basis, grads[block], out=samples[:len(block)])
            vals[block] = vector_norm(samples[:len(block)], s) @ wts
        cell_total = float((vals * space.mesh.det_jacobian).sum())
    return edge_total + cell_total


# -- constraint set -----------------------------------------------------------


@dataclass
class ConstraintSetSpec:
    """The scaled admissible set beta*P for RT dof vectors.

    Edge dofs are bounded by beta*|n_E|_s*c_{E,j}; each cell dof pair is
    bounded in the conjugate norm by beta*c_{T,i}.  ``scale`` sets the Y*
    metric in which ``infeasibility`` measures the distance from p to its
    projection; the projection itself does not depend on it.
    """

    space: object
    beta: float
    s: float = 2
    scale: float = 1.0
    edge_bounds: np.ndarray = field(init=False)
    cell_bounds: np.ndarray = field(init=False)

    def __post_init__(self):
        _check_real("beta", self.beta)
        _check_real("scale", self.scale)
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

    @cached_property
    def y_weights(self):
        """The lumped Y weights at ``scale`` (``y_weight_vector``), read-only
        and made once: ``infeasibility`` divides by them, and the solvers
        share them as their Riesz map."""
        w = self.space.y_weight_vector(self.scale)
        w.setflags(write=False)
        return w


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


def infeasibility(p, spec: ConstraintSetSpec):
    """Squared Y*-distance from p to beta*P, taken from the projection that
    defines the set: d = p - proj(p) weighted by the inverse lumped Y
    weights at ``spec.scale``.  Exactly 0.0 for p in beta*P, where the
    projection leaves every dof as it is, and NaN if p holds a NaN."""
    p = np.asarray(p, dtype=float)
    d = p - _project_in_place(p.copy(), spec)
    return float(d @ (d / spec.y_weights))
