"""Reference-element data and global dof enumeration.

Lagrange nodes live on the uniform lattice of the reference triangle with
vertices (0,0), (1,0), (0,1).  Cell nodes are ordered vertices first, then
edge nodes (edges in the order (0,1), (0,2), (1,2), nodes by increasing
parameter from the lower endpoint), then interior nodes.  Edge nodes on the
unit interval are ordered by increasing parameter.

All reference integrals (Newton-Cotes weights, mass matrices) are computed
as exact rationals and only scaled by cell area / edge length at assembly.
The DG mass and inverse mass are applied as one BLAS product of the
(cells, n_k) coefficient view with the transposed reference matrix, stored
C-contiguous once per space (the F-ordered view ``ref.T`` takes a slower
BLAS path), scaled by det B_T; no global mass matrix is stored.  A cell
mask restricts the mass by scaling with det B_T on the kept cells and 0 on
the others, the same values as zeroing the masked rows afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

import numpy as np

__all__ = [
    "SUPPORTED_DEGREES",
    "LagrangeLayout",
    "ReferenceWeights",
    "DofMap",
    "FeSpace",
    "reference_weights",
]

SUPPORTED_DEGREES = (0, 1, 2)


def _check_degree(r):
    if r not in SUPPORTED_DEGREES:
        raise ValueError(f"polynomial degree {r} not supported (expected 0, 1 or 2)")


def cell_dim(r):
    """Dimension of P_r on a triangle."""
    return (r + 1) * (r + 2) // 2


def _cell_monomials(r):
    return [(d - b, b) for d in range(r + 1) for b in range(d + 1)]


def _cell_lattice(r):
    """Uniform-lattice Lagrange nodes of P_r(T) in reference coordinates."""
    if r == 0:
        return [(Fraction(1, 3), Fraction(1, 3))]
    verts = [(Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)),
             (Fraction(0), Fraction(1))]
    nodes = list(verts)
    for a, b in ((0, 1), (0, 2), (1, 2)):
        for k in range(1, r):
            t = Fraction(k, r)
            nodes.append((verts[a][0] + t * (verts[b][0] - verts[a][0]),
                          verts[a][1] + t * (verts[b][1] - verts[a][1])))
    # interior lattice nodes first appear at r = 3; none for r <= 2
    return nodes


def _edge_lattice(r):
    if r == 0:
        return [Fraction(1, 2)]
    return [Fraction(j, r) for j in range(r + 1)]


def _invert_exact(mat):
    """Inverse of a square Fraction matrix by Gauss-Jordan elimination."""
    n = len(mat)
    a = [list(row) + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(mat)]
    for col in range(n):
        piv = next(i for i in range(col, n) if a[i][col] != 0)
        a[col], a[piv] = a[piv], a[col]
        inv_p = Fraction(1) / a[col][col]
        a[col] = [x * inv_p for x in a[col]]
        for i in range(n):
            if i != col and a[i][col] != 0:
                f = a[i][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[col])]
    return [row[n:] for row in a]


def _basis_coefficients(nodes, monos, on_edge=False):
    """Exact monomial coefficients of the nodal basis: column k holds the
    coefficients of the basis function dual to node k."""
    if on_edge:
        vander = [[t ** a for (a,) in monos] for t in nodes]
    else:
        vander = [[x ** a * y ** b for (a, b) in monos] for x, y in nodes]
    return _invert_exact(vander)


def _cell_monomial_integral(a, b):
    # exact integral of x^a y^b over the unit reference triangle
    return Fraction(factorial(a) * factorial(b), factorial(a + b + 2))


def _to_float(mat):
    return np.array([[float(x) for x in row] for row in mat], dtype=float)


@dataclass(frozen=True)
class ReferenceWeights:
    """Exact nodal-quadrature weights per unit cell area / edge length.

    Physical weights are ``cell_interior * |T|`` (the c_{T,i}),
    ``cell_full * |T|`` (the C_{T,k}) and ``edge * |E|`` (the c_{E,j}).
    """

    degree: int
    cell_interior: tuple
    cell_full: tuple
    edge: tuple


class LagrangeLayout:
    """Nodes, nodal bases and exact reference tables for one degree."""

    def __init__(self, r):
        _check_degree(r)
        self.degree = r
        self.n_cell = cell_dim(r)
        self.n_sub = r * (r + 1) // 2
        self.n_edge = r + 1

        self._cell_exps = _cell_monomials(r)
        self._cell_nodes_exact = _cell_lattice(r)
        self._cell_coeffs_exact = _basis_coefficients(
            self._cell_nodes_exact, self._cell_exps)
        self.cell_nodes = np.array(
            [[float(x), float(y)] for x, y in self._cell_nodes_exact])
        self._cell_coeffs = _to_float(self._cell_coeffs_exact)

        if r >= 1:
            self._sub_exps = _cell_monomials(r - 1)
            self._sub_nodes_exact = _cell_lattice(r - 1)
            self._sub_coeffs_exact = _basis_coefficients(
                self._sub_nodes_exact, self._sub_exps)
            self.sub_nodes = np.array(
                [[float(x), float(y)] for x, y in self._sub_nodes_exact])
            self._sub_coeffs = _to_float(self._sub_coeffs_exact)
        else:
            self._sub_exps = []
            self._sub_nodes_exact = []
            self._sub_coeffs_exact = []
            self.sub_nodes = np.zeros((0, 2))
            self._sub_coeffs = np.zeros((0, 0))

        self._edge_exps = [(a,) for a in range(r + 1)]
        self._edge_nodes_exact = _edge_lattice(r)
        self._edge_coeffs_exact = _basis_coefficients(
            self._edge_nodes_exact, self._edge_exps, on_edge=True)
        self.edge_nodes = np.array([float(t) for t in self._edge_nodes_exact])
        self._edge_coeffs = _to_float(self._edge_coeffs_exact)

        # reference gradients of the P_r cell basis at the P_{r-1} nodes,
        # shape (n_sub, n_cell, 2); exact values, hence exact row sums of 0
        self.grad_at_sub = np.empty((self.n_sub, self.n_cell, 2))
        for i, node in enumerate(self._sub_nodes_exact):
            self.grad_at_sub[i] = self._grad_exact_at(node)

    # -- evaluation ---------------------------------------------------------

    def _monomials(self, points, exps):
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.empty((len(points), len(exps)))
        for m, (a, b) in enumerate(exps):
            out[:, m] = points[:, 0] ** a * points[:, 1] ** b
        return out

    def eval_cell(self, points):
        """P_r cell basis values at reference points, shape (m, n_cell)."""
        return self._monomials(points, self._cell_exps) @ self._cell_coeffs

    def eval_sub(self, points):
        """P_{r-1} cell basis values at reference points, shape (m, n_sub)."""
        if self.degree == 0:
            return np.zeros((len(np.atleast_2d(points)), 0))
        return self._monomials(points, self._sub_exps) @ self._sub_coeffs

    def eval_cell_grad(self, points):
        """Reference gradients of the P_r cell basis, shape (m, n_cell, 2)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        out = np.zeros((len(points), self.n_cell, 2))
        for m, (a, b) in enumerate(self._cell_exps):
            if a > 0:
                dx = a * points[:, 0] ** (a - 1) * points[:, 1] ** b
                out[:, :, 0] += dx[:, None] * self._cell_coeffs[m][None, :]
            if b > 0:
                dy = b * points[:, 0] ** a * points[:, 1] ** (b - 1)
                out[:, :, 1] += dy[:, None] * self._cell_coeffs[m][None, :]
        return out

    def eval_edge(self, t):
        """P_r edge basis values at parameters t, shape (m, n_edge)."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        mono = np.empty((len(t), self.n_edge))
        for m, (a,) in enumerate(self._edge_exps):
            mono[:, m] = t ** a
        return mono @ self._edge_coeffs

    def _grad_exact_at(self, node):
        x, y = node
        grad = [[Fraction(0), Fraction(0)] for _ in range(self.n_cell)]
        for m, (a, b) in enumerate(self._cell_exps):
            gx = a * x ** (a - 1) * y ** b if a > 0 else Fraction(0)
            gy = b * x ** a * y ** (b - 1) if b > 0 else Fraction(0)
            for k in range(self.n_cell):
                c = self._cell_coeffs_exact[m][k]
                grad[k][0] += gx * c
                grad[k][1] += gy * c
        return _to_float(grad)

    # -- facet bookkeeping ---------------------------------------------------

    def facet_node_ids(self, facet, orientation):
        """Cell-node indices sitting on a facet, ordered along the global
        edge direction (orientation -1 reverses the local traversal)."""
        r = self.degree
        if r == 0:
            return [0]
        va, vb = facet, (facet + 1) % 3
        if r == 1:
            ids = [va, vb]
        else:
            mid = {frozenset((0, 1)): 3, frozenset((0, 2)): 4,
                   frozenset((1, 2)): 5}[frozenset((va, vb))]
            ids = [va, mid, vb]
        return ids if orientation == 1 else ids[::-1]


@lru_cache(maxsize=None)
def lagrange_layout(r) -> LagrangeLayout:
    return LagrangeLayout(r)


@lru_cache(maxsize=None)
def reference_weights(r) -> ReferenceWeights:
    """Exact integrals of the nodal bases over the reference elements,
    normalized per unit area (cells) / unit length (edges)."""
    _check_degree(r)
    lay = lagrange_layout(r)
    area = _cell_monomial_integral(0, 0)  # 1/2

    def cell_w(coeffs, exps):
        ws = []
        for k in range(len(coeffs[0]) if coeffs else 0):
            w = sum(coeffs[m][k] * _cell_monomial_integral(a, b)
                    for m, (a, b) in enumerate(exps))
            ws.append(w / area)
        return tuple(ws)

    edge = []
    for k in range(lay.n_edge):
        edge.append(sum(lay._edge_coeffs_exact[m][k] * Fraction(1, a + 1)
                        for m, (a,) in enumerate(lay._edge_exps)))
    return ReferenceWeights(
        degree=r,
        cell_interior=cell_w(lay._sub_coeffs_exact, lay._sub_exps),
        cell_full=cell_w(lay._cell_coeffs_exact, lay._cell_exps),
        edge=tuple(edge),
    )


@lru_cache(maxsize=None)
def _reference_mass_exact(r):
    lay = lagrange_layout(r)
    n = lay.n_cell
    mass = [[Fraction(0)] * n for _ in range(n)]
    for m1, (a1, b1) in enumerate(lay._cell_exps):
        for m2, (a2, b2) in enumerate(lay._cell_exps):
            integral = _cell_monomial_integral(a1 + a2, b1 + b2)
            for k in range(n):
                ck = lay._cell_coeffs_exact[m1][k]
                if ck == 0:
                    continue
                for l in range(n):
                    mass[k][l] += ck * lay._cell_coeffs_exact[m2][l] * integral
    return mass


@dataclass(frozen=True)
class DofMap:
    """Flat index layout for DG_r coefficients and for Y / RT dof vectors.

    A Y (equivalently RT) vector stores the cell block first, cell-major
    with the two components of each P_{r-1} node interleaved, followed by
    the edge block, edge-major with nodes by increasing parameter.
    """

    degree: int
    num_cells: int
    num_edges: int

    @property
    def n_cell_basis(self):
        return cell_dim(self.degree)

    @property
    def n_sub_basis(self):
        return self.degree * (self.degree + 1) // 2

    @property
    def n_edge_basis(self):
        return self.degree + 1

    @property
    def dim_dg(self):
        return self.num_cells * self.n_cell_basis

    @property
    def dim_y_cell(self):
        return self.num_cells * self.n_sub_basis * 2

    @property
    def dim_y_edge(self):
        return self.num_edges * self.n_edge_basis

    @property
    def dim_y(self):
        return self.dim_y_cell + self.dim_y_edge


class FeSpace:
    """DG_r on a mesh together with the Y / RT dof layout and all weight
    tables needed by the seminorm, the constraint set and the solvers."""

    def __init__(self, mesh, r):
        _check_degree(r)
        self.mesh = mesh
        self.degree = r
        self.layout = lagrange_layout(r)
        self.dofs = DofMap(degree=r, num_cells=mesh.num_cells,
                           num_edges=mesh.num_interior_edges)
        ref = reference_weights(r)

        area = mesh.cell_areas
        self.cell_weights = area[:, None] * _to_float([ref.cell_interior])  # c_{T,i}
        self.full_weights = area[:, None] * _to_float([ref.cell_full])      # C_{T,k}
        self.edge_weights = mesh.edge_lengths[:, None] * _to_float([ref.edge])

        mass = _reference_mass_exact(r)
        self.mass_ref = _to_float(mass)              # per unit det B_T
        self.mass_ref_inv = np.linalg.inv(self.mass_ref)
        # right factors of the cell products u_T @ ref^T, C-contiguous
        self._mass_ref_t = np.ascontiguousarray(self.mass_ref.T)
        self._mass_ref_inv_t = np.ascontiguousarray(self.mass_ref_inv.T)
        self._grad_jump = None

    # -- dimensions ----------------------------------------------------------

    @property
    def dim_dg(self):
        return self.dofs.dim_dg

    @property
    def dim_y(self):
        return self.dofs.dim_y

    # -- Y-vector views ------------------------------------------------------

    def new_y(self):
        return np.zeros(self.dim_y)

    def y_cell_view(self, vec):
        d = self.dofs
        return vec[: d.dim_y_cell].reshape(d.num_cells, d.n_sub_basis, 2)

    def y_edge_view(self, vec):
        d = self.dofs
        return vec[d.dim_y_cell:].reshape(d.num_edges, d.n_edge_basis)

    def y_weight_vector(self, scale):
        """Diagonal of the lumped Y inner product: scale * c_{T,i} on both
        components of each cell dof, c_{E,j} on edge dofs."""
        w = np.empty(self.dim_y)
        self.y_cell_view(w)[:] = (scale * self.cell_weights)[:, :, None]
        self.y_edge_view(w)[:] = self.edge_weights
        return w

    # -- DG mass operations ----------------------------------------------------

    def cell_matrix(self, coeffs):
        return np.asarray(coeffs).reshape(self.dofs.num_cells,
                                          self.dofs.n_cell_basis)

    def _cell_product(self, coeffs, ref_t):
        """ref @ u_T for every cell's coefficient block u_T, given ref_t =
        ref^T: one BLAS product on the (n_t, n_k) view, a plain scale when
        n_k = 1."""
        u = self.cell_matrix(coeffs)
        if ref_t.shape[0] == 1:
            return u * ref_t[0, 0]
        return u @ ref_t

    def apply_mass(self, coeffs, mask=None):
        """M u; with a cell mask, the mass of the kept cells only (the rows
        of masked cells are 0)."""
        det = self.mesh.det_jacobian
        if mask is not None:
            det = np.where(mask, det, 0.0)
        out = self._cell_product(coeffs, self._mass_ref_t)
        out *= det[:, None]
        return out.reshape(-1)

    def apply_mass_inverse(self, coeffs):
        out = self._cell_product(coeffs, self._mass_ref_inv_t)
        out /= self.mesh.det_jacobian[:, None]
        return out.reshape(-1)

    def l2_inner(self, u, v, mask=None):
        return float(np.asarray(u).ravel() @ self.apply_mass(v, mask=mask))

    def l2_norm_sq(self, u, mask=None):
        return self.l2_inner(u, u, mask=mask)

    @property
    def lumped_weights(self):
        """Flat vector of the C_{T,k} (lumped DG mass diagonal)."""
        return self.full_weights.reshape(-1)

    def cell_node_coords(self):
        """Physical coordinates of all cell Lagrange nodes, (N_T, n_k, 2)."""
        return self.mesh.shift[:, None, :] + np.einsum(
            "tij,kj->tki", self.mesh.jacobian, self.layout.cell_nodes)

    def interpolate(self, fn):
        """DG_r coefficients of the nodal interpolant of ``fn``; ``fn`` maps
        an (n, 2) array of points to n values."""
        pts = self.cell_node_coords().reshape(-1, 2)
        return np.asarray(fn(pts), dtype=float).ravel()

    # -- operators --------------------------------------------------------------

    def grad_jump(self):
        """The gradient/jump operator for this space (cached)."""
        if self._grad_jump is None:
            from .operators import GradJumpOperator

            self._grad_jump = GradJumpOperator(self)
        return self._grad_jump
