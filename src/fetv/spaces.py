"""Reference-element data and global dof enumeration.

Lagrange nodes live on the uniform lattice of the reference triangle with
vertices (0,0), (1,0), (0,1).  Cell nodes are ordered vertices first, then
edge nodes (edges in the order (0,1), (0,2), (1,2), nodes by increasing
parameter from the lower endpoint), then interior nodes.

Each degree has one reference element, the cached ``LagrangeLayout``: the
nodal P_r cell basis (one exact Vandermonde inverse) and every table
derived from it, built once per degree.  The exact mass is C^T H C, C the
basis coefficients and H the monomial integrals; the C_{T,k} are its row
sums (the basis sums to 1), the c_{T,i} are the C_{T,k} of the degree r-1
layout ``sub``, the P_{r-1} samples are taken at its nodes, the edge basis
is the cell basis on facet 0 (y = 0), and the c_{E,j} integrate it along
y = 0.  All are exact rationals per unit cell area / edge length; their
float forms, with the mass inverse, its Cholesky factor and the facet-node
table, are read-only and shared by every space of the degree, which keeps
only its per-mesh arrays.

The DG mass and inverse mass are applied as one BLAS product of the
(cells, n_k) coefficient view with the transposed reference matrix, stored
C-contiguous once per degree (the F-ordered view ``ref.T`` takes a slower
BLAS path), scaled by a per-dof copy of det B_T in one flat pass; no
global mass matrix is stored.  A cell mask restricts the mass by scaling
with det B_T on the kept cells and 0 on the others, the same values as
zeroing the masked rows afterwards.  The squared L2 norm squares the
product with the Cholesky factor R of M_ref = R R^T and dots it with the
same per-dof weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import factorial

import numpy as np

from .operators import GradJumpOperator, _check_int

__all__ = [
    "SUPPORTED_DEGREES",
    "LagrangeLayout",
    "DofMap",
    "FeSpace",
]

SUPPORTED_DEGREES = (0, 1, 2)


def _check_degree(r):
    """``r`` as an int; ValueError unless it is in SUPPORTED_DEGREES (a
    contiguous range)."""
    return _check_int("degree", r, SUPPORTED_DEGREES[0], SUPPORTED_DEGREES[-1])


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


def _facet_nodes(r):
    """Cell-node indices on each facet f, from vertex f to vertex f+1 at
    [f, 1] and reversed at [f, 0], shape (3, 2, n_j); index 0 is the single
    node at r = 0."""
    # the edge nodes of facets (0,1), (1,2), (2,0) at r = 2
    mid = ([3], [5], [4]) if r == 2 else ([], [], [])
    ids = [[f, *mid[f], (f + 1) % 3] if r else [0] for f in range(3)]
    return [[row[::-1], row] for row in ids]


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


def _cell_monomial_integral(a, b):
    # exact integral of x^a y^b over the unit reference triangle
    return Fraction(factorial(a) * factorial(b), factorial(a + b + 2))


def _frozen(values, dtype=float):
    """A read-only array of ``values``; exact rationals are rounded once."""
    out = np.array(values, dtype=dtype)
    out.setflags(write=False)
    return out


class LagrangeLayout:
    """The reference element of one degree: nodes, the nodal P_r cell basis
    and every table derived from it; ``sub`` is the degree r-1 layout (None
    at r = 0).

    Exact rationals: ``mass_exact`` (per unit det B_T), ``cell_full_exact``
    (the C_{T,k}), ``cell_interior_exact`` (the c_{T,i}) and ``edge_exact``
    (the c_{E,j}), per unit cell area / edge length.  Their read-only float
    forms drop the suffix; ``mass_inv_t`` is the C-contiguous transposed
    inverse of ``mass_ref``, ``mass_chol`` its Cholesky factor, and
    ``facet_nodes`` the (3, 2, n_j) table of ``_facet_nodes``.
    """

    def __init__(self, r):
        _check_degree(r)
        self.sub = lagrange_layout(r - 1) if r else None

        self._cell_exps = exps = _cell_monomials(r)
        self._cell_nodes_exact = _cell_lattice(r)
        # column k holds the monomial coefficients of the basis function
        # dual to node k
        coeffs = np.array(_invert_exact(
            [[x ** a * y ** b for a, b in exps]
             for x, y in self._cell_nodes_exact]), dtype=object)
        self.cell_nodes = _frozen(self._cell_nodes_exact)
        self._cell_coeffs = _frozen(coeffs)
        self.n_cell = len(exps)
        self.n_sub = self.sub.n_cell if self.sub else 0
        self.facet_nodes = _frozen(_facet_nodes(r), dtype=np.int64)
        self.n_edge = self.facet_nodes.shape[2]

        monomial_integrals = np.array(
            [[_cell_monomial_integral(a1 + a2, b1 + b2) for a2, b2 in exps]
             for a1, b1 in exps], dtype=object)
        self.mass_exact = coeffs.T @ monomial_integrals @ coeffs
        # the basis sums to 1, so row k of the mass integrates phi_k; the
        # reference triangle has area 1/2
        self.cell_full_exact = tuple(2 * self.mass_exact.sum(axis=1))
        self.cell_interior_exact = self.sub.cell_full_exact if r else ()
        # on facet 0 (y = 0) only the monomials x^a survive
        self.edge_exact = tuple(
            sum(coeffs[m, k] / (a + 1) for m, (a, b) in enumerate(exps) if b == 0)
            for k in self.facet_nodes[0, 1])

        self.cell_full = _frozen(self.cell_full_exact)
        self.cell_interior = _frozen(self.cell_interior_exact)
        self.edge = _frozen(self.edge_exact)
        self.mass_ref = _frozen(self.mass_exact)
        # right factor of the cell products u_T @ inv(mass_ref)^T; mass_ref
        # is exactly symmetric and serves as its own
        self.mass_inv_t = _frozen(np.ascontiguousarray(
            np.linalg.inv(self.mass_ref).T))
        self.mass_chol = _frozen(np.linalg.cholesky(self.mass_ref))

        # reference gradients of the P_r cell basis at the P_{r-1} nodes,
        # shape (n_sub, n_cell, 2): integer coefficients at nodes 0 and 1
        # (r = 2) or constant gradients (r = 1), so the floats are exact
        # and the row sums exactly 0
        self.grad_at_sub = self.eval_cell_grad(
            self.sub.cell_nodes if self.sub else np.zeros((0, 2)))

    # -- evaluation ---------------------------------------------------------

    def eval_cell(self, points):
        """P_r cell basis values at reference points, shape (m, n_cell)."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        mono = np.column_stack([points[:, 0] ** a * points[:, 1] ** b
                                for a, b in self._cell_exps])
        return mono @ self._cell_coeffs

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


@lru_cache(maxsize=None)
def lagrange_layout(r) -> LagrangeLayout:
    return LagrangeLayout(r)


@dataclass(frozen=True)
class DofMap:
    """Flat index layout for DG_r coefficients and for Y / RT dof vectors.

    A Y (equivalently RT) vector stores the cell block first, cell-major
    with the two components of each P_{r-1} node interleaved, followed by
    the edge block, edge-major with nodes by increasing parameter.
    """

    num_cells: int
    num_edges: int
    n_cell_basis: int
    n_sub_basis: int
    n_edge_basis: int

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
        # a plain int for the layout cache, which keys np.int64(1) apart
        # from 1 and would build a second layout
        self.degree = r = _check_degree(r)
        self.mesh = mesh
        self.layout = lay = lagrange_layout(r)
        self.dofs = DofMap(mesh.num_cells, mesh.num_interior_edges,
                           lay.n_cell, lay.n_sub, lay.n_edge)
        self.cell_weights = mesh.cell_areas[:, None] * lay.cell_interior  # c_{T,i}
        self.edge_weights = mesh.edge_lengths[:, None] * lay.edge
        self._det_dof = np.repeat(mesh.det_jacobian, self.dofs.n_cell_basis)
        self._det_dof.setflags(write=False)
        self._grad_jump = None
        self._norm_sq = {}      # operator norm estimates by (scale, lumped)

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

    def _cell_product(self, coeffs, right):
        """u_T @ right for every cell's coefficient block u_T (ref^T for
        ref @ u_T): one BLAS product on the (n_t, n_k) view, a plain scale
        when n_k = 1."""
        u = self.cell_matrix(coeffs)
        if right.shape[0] == 1:
            return u * right[0, 0]
        return u @ right

    def _det_weights(self, mask=None):
        """det B_T per dof, 0 on the cells off the mask."""
        if mask is None:
            return self._det_dof
        return np.where(np.repeat(mask, self.dofs.n_cell_basis),
                        self._det_dof, 0.0)

    def apply_mass(self, coeffs, mask=None):
        """M u; with a cell mask, the mass of the kept cells only (the rows
        of masked cells are 0)."""
        out = self._cell_product(coeffs, self.layout.mass_ref).reshape(-1)
        out *= self._det_weights(mask)
        return out

    def apply_mass_inverse(self, coeffs):
        out = self._cell_product(coeffs, self.layout.mass_inv_t).reshape(-1)
        out /= self._det_dof
        return out

    def l2_inner(self, u, v):
        return float(np.asarray(u).ravel() @ self.apply_mass(v))

    def l2_norm_sq(self, u, mask=None):
        return self._mass_norm_sq(u, self._det_weights(mask))

    def _mass_norm_sq(self, u, det_weights):
        """||u||^2_M from the per-dof weights of ``_det_weights``: z = U R
        on the (n_t, n_k) view, squared in place, and one dot."""
        z = self._cell_product(u, self.layout.mass_chol)
        z *= z
        return float(z.reshape(-1) @ det_weights)

    @cached_property
    def lumped_weights(self):
        """Flat vector of the C_{T,k} (lumped DG mass diagonal), made on
        first use, since only the lumped (TV-L1) paths read it."""
        return (self.mesh.cell_areas[:, None] * self.layout.cell_full).ravel()

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
            self._grad_jump = GradJumpOperator(self)
        return self._grad_jump
