"""Independent Raviart-Thomas oracle for the operator tests.

Reconstructs the actual piecewise-polynomial vector field behind an RT dof
vector (local space P_r(T)^2 + x * homogeneous_r(T), determined by matching
the integral dofs), then evaluates the duality pairing

    sum_T int_T p . d_T dx  +  sum_E int_E (p . n_E) d_E ds

by straight quadrature.  Everything here is built from first principles so
it shares no code path with the package's coefficient-level pairing.

The duality section holds the dtv oracles of the seminorm tests: the
witness p in P whose pairing with Lambda u is dtv(u), and the brute-force
maximum of that pairing over random feasible p.
"""

import math

import numpy as np

from fetv.dtv import (ConstraintSetSpec, _check_s, _project_cell_ball,
                      vector_norm)
from fetv.operators import DgFunction
from fetv.spaces import FeSpace


def _gauss_interval(n=16):
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _gauss_triangle(n=12):
    """Collapsed tensor rule on the reference triangle (exact well past the
    degrees appearing here)."""
    x, w = _gauss_interval(n)
    xi, eta = np.meshgrid(x, x, indexing="ij")
    wts = np.outer(w, w) * (1.0 - xi)
    pts = np.column_stack([xi.ravel(), (eta * (1.0 - xi)).ravel()])
    return pts, wts.ravel()


def edge_basis(layout, t):
    """Edge basis values at parameters t, shape (m, r+1): the cell basis on
    facet 0 (y = 0), its nodes in the edge's order."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    pts = np.column_stack([t, np.zeros_like(t)])
    return layout.eval_cell(pts)[:, layout.facet_nodes[0, 1]]


def _monomials_2d(r):
    return [(d - b, b) for d in range(r + 1) for b in range(d + 1)]


class RtLocalBasis:
    """Monomial basis of the local RT space on one physical cell:
    (m, 0), (0, m) for all monomials m of degree <= r, followed by
    (x, y) * m for the homogeneous monomials m of degree r."""

    def __init__(self, r):
        self.r = r
        self.scalar = _monomials_2d(r)
        self.homogeneous = [(r - b, b) for b in range(r + 1)]
        self.dim = 2 * len(self.scalar) + len(self.homogeneous)

    def eval(self, pts):
        """Values of every basis field at the points, (npts, dim, 2)."""
        pts = np.atleast_2d(pts)
        out = np.zeros((len(pts), self.dim, 2))
        for m, (a, b) in enumerate(self.scalar):
            mono = pts[:, 0] ** a * pts[:, 1] ** b
            out[:, 2 * m, 0] = mono
            out[:, 2 * m + 1, 1] = mono
        base = 2 * len(self.scalar)
        for m, (a, b) in enumerate(self.homogeneous):
            mono = pts[:, 0] ** a * pts[:, 1] ** b
            out[:, base + m, 0] = mono * pts[:, 0]
            out[:, base + m, 1] = mono * pts[:, 1]
        return out

    def divergence(self, pts):
        """Divergence of every basis field at the points, (npts, dim)."""
        pts = np.atleast_2d(pts)
        out = np.zeros((len(pts), self.dim))
        for m, (a, b) in enumerate(self.scalar):
            if a > 0:
                out[:, 2 * m] = a * pts[:, 0] ** (a - 1) * pts[:, 1] ** b
            if b > 0:
                out[:, 2 * m + 1] = b * pts[:, 0] ** a * pts[:, 1] ** (b - 1)
        base = 2 * len(self.scalar)
        for m, (a, b) in enumerate(self.homogeneous):
            # div of (x, y) * x^a y^b is (a + b + 2) x^a y^b
            out[:, base + m] = (a + b + 2) * pts[:, 0] ** a * pts[:, 1] ** b
        return out


class RtField:
    """The piecewise-polynomial vector field matching a dof vector."""

    def __init__(self, space: FeSpace, dofs):
        self.space = space
        self.basis = RtLocalBasis(space.degree)
        self.coeffs = self._solve_local_coefficients(np.asarray(dofs, float))

    def _edge_moment_rows(self, mesh, cell, facet, space):
        """Rows of the local system for the facet's edge moments, using the
        global parameterization and normal when the facet is interior."""
        r = space.degree
        tq, wq = _gauss_interval()
        va = mesh.cells[cell][facet]
        vb = mesh.cells[cell][(facet + 1) % 3]
        interior = None
        for e in range(mesh.num_interior_edges):
            g0, g1 = mesh.edge_vertices[e]
            if {va, vb} == {g0, g1}:
                interior = e
                break
        if interior is not None:
            g0, g1 = mesh.edge_vertices[interior]
            p0, p1 = mesh.vertices[g0], mesh.vertices[g1]
            normal = mesh.edge_normals[interior]
            length = mesh.edge_lengths[interior]
        else:
            p0, p1 = mesh.vertices[va], mesh.vertices[vb]
            tang = p1 - p0
            length = np.hypot(*tang)
            # outward normal of the owning CCW cell
            normal = np.array([tang[1], -tang[0]]) / length
        pts = p0[None, :] + tq[:, None] * (p1 - p0)[None, :]
        vals = self.basis.eval(pts)                        # (nq, dim, 2)
        normal_trace = vals @ normal                       # (nq, dim)
        phi = edge_basis(space.layout, tq)                 # (nq, r+1)
        rows = np.einsum("q,qj,qm->jm", wq * length, phi, normal_trace)
        return rows, interior

    def _solve_local_coefficients(self, dofs):
        space = self.space
        mesh = space.mesh
        r = space.degree
        n_i = space.dofs.n_sub_basis
        qp, qw = _gauss_triangle()
        coeffs = np.zeros((mesh.num_cells, self.basis.dim))
        for t in range(mesh.num_cells):
            pts = mesh.shift[t] + qp @ mesh.jacobian[t].T
            weights = qw * mesh.det_jacobian[t]
            rows = []
            rhs = []
            if n_i:
                vals = self.basis.eval(pts)                # (nq, dim, 2)
                phi = space.layout.sub.eval_cell(qp)       # (nq, n_i)
                moments = np.einsum("q,qi,qmc->icm", weights, phi, vals)
                cell_dofs = space.y_cell_view(dofs)[t]     # (n_i, 2)
                for i in range(n_i):
                    rows.append(moments[i, 0])
                    rhs.append(cell_dofs[i, 0])
                    rows.append(moments[i, 1])
                    rhs.append(cell_dofs[i, 1])
            for facet in range(3):
                frows, interior = self._edge_moment_rows(mesh, t, facet, space)
                if interior is not None:
                    g0 = mesh.edge_vertices[interior][0]
                    edge_dofs = space.y_edge_view(dofs)[interior]
                else:
                    edge_dofs = np.zeros(r + 1)            # zero normal trace
                for j in range(r + 1):
                    rows.append(frows[j])
                    rhs.append(edge_dofs[j])
            coeffs[t] = np.linalg.solve(np.array(rows), np.array(rhs))
        return coeffs

    def eval(self, cell, pts):
        return np.einsum("qmc,m->qc", self.basis.eval(pts), self.coeffs[cell])

    def div(self, cell, pts):
        return self.basis.divergence(pts) @ self.coeffs[cell]


def to_field_dofs(space: FeSpace, p):
    """Translate a package dof vector into the dofs of the pointwise field
    whose (projected / quasi-interpolated) divergence the package's
    adjoint-based divergence returns.

    With the package's conventions (n_E out of cell_plus, jump = plus minus
    minus, duality product with a plus sign on the edge block), the edge
    dofs of that field carry the opposite sign while cell dofs agree.
    """
    out = np.array(p, dtype=float)
    ne = space.dofs.num_edges * space.dofs.n_edge_basis
    if ne:
        out[space.dofs.dim_y_cell:] *= -1.0
    return out


def oracle_pairing(space: FeSpace, p_dofs, d):
    """<p, d> evaluated as actual integrals against the reconstructed field."""
    field = RtField(space, p_dofs)
    mesh = space.mesh
    total = 0.0

    if space.dofs.n_sub_basis:
        qp, qw = _gauss_triangle()
        phi = space.layout.sub.eval_cell(qp)               # (nq, n_i)
        d_cell = space.y_cell_view(np.asarray(d, float))   # (N_T, n_i, 2)
        for t in range(mesh.num_cells):
            pts = mesh.shift[t] + qp @ mesh.jacobian[t].T
            pvals = field.eval(t, pts)                     # (nq, 2)
            dvals = np.einsum("qi,ic->qc", phi, d_cell[t])
            total += float(((pvals * dvals).sum(axis=1)
                            * qw * mesh.det_jacobian[t]).sum())

    tq, wq = _gauss_interval()
    d_edge = space.y_edge_view(np.asarray(d, float))
    phi_e = edge_basis(space.layout, tq)
    for e in range(mesh.num_interior_edges):
        g0, g1 = mesh.edge_vertices[e]
        p0, p1 = mesh.vertices[g0], mesh.vertices[g1]
        pts = p0[None, :] + tq[:, None] * (p1 - p0)[None, :]
        cell = mesh.edge_cells[e, 0]
        trace = field.eval(cell, pts) @ mesh.edge_normals[e]
        dvals = phi_e @ d_edge[e]
        total += float((trace * dvals * wq).sum() * mesh.edge_lengths[e])
    return total


def oracle_lumped_divergence(space: FeSpace, p_dofs):
    """Quasi-interpolant (1/C_{T,k}) int_T (div p) phi_k dx, with zero on
    dofs whose lumped weight vanishes."""
    field = RtField(space, p_dofs)
    mesh = space.mesh
    qp, qw = _gauss_triangle()
    phi = space.layout.eval_cell(qp)
    out = np.zeros(space.dim_dg)
    weights = space.full_weights
    for t in range(mesh.num_cells):
        pts = mesh.shift[t] + qp @ mesh.jacobian[t].T
        divvals = field.div(t, pts)
        moments = np.einsum("q,qk->k", qw * mesh.det_jacobian[t] * divvals, phi)
        for k in range(space.dofs.n_cell_basis):
            if weights[t, k] > 0:
                out[t * space.dofs.n_cell_basis + k] = moments[k] / weights[t, k]
    return out


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
