"""The discrete gradient/jump operator, its adjoints and the quadratic
subproblem solver.

Every per-iteration kernel here is a sparse product on matrices built once:
Lambda is applied in the factored form J * Lambda_ref (see
:class:`GradJumpOperator`), the assembled product is stored once, as the
CSR matrix of Lambda^T, and serves the divergence and the quadratic form
K = Lambda^T W Lambda.  :class:`QuadraticSolver` splits K once into its
dense cell blocks and the sparse couplings between the two cells of each
edge.  At each lam the u-system F + lam * K is rebuilt as the block
diagonal of its cell blocks plus lam times the couplings, and the inverses
of those cell blocks form the block Jacobi preconditioner.

Dual vector fields never appear as pointwise functions here: an RT function
is represented solely by its integral dof vector, laid out exactly like a
Y vector (cell block of per-node 2-vectors, then edge block).  Divergences
are obtained from the adjoint identity (u, div p) = -<p, Lambda u>, so no
reference-to-world vector transform is ever computed.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DgFunction",
    "GradJumpOperator",
    "InnerSolveError",
    "QuadraticSolver",
    "divergence",
]


class DgFunction:
    """A DG_r function: its space and the nodal coefficient vector."""

    def __init__(self, space, coeffs=None):
        if coeffs is None:
            coeffs = np.zeros(space.dim_dg)
        coeffs = np.asarray(coeffs, dtype=float).ravel()
        if coeffs.size != space.dim_dg:
            raise ValueError(
                f"coefficient vector has length {coeffs.size}, "
                f"expected {space.dim_dg}"
            )
        self.space = space
        self.coeffs = coeffs

    @property
    def degree(self):
        return self.space.degree

    @property
    def mesh(self):
        return self.space.mesh

    def copy(self):
        return DgFunction(self.space, self.coeffs.copy())


class InnerSolveError(RuntimeError):
    """Inner linear solve failed to reach its tolerance."""

    def __init__(self, residual, iterations):
        super().__init__(
            f"inner solver stalled at relative residual {residual:.3e} "
            f"after {iterations} iterations"
        )
        self.residual = residual
        self.iterations = iterations


class GradJumpOperator:
    """Maps DG_r coefficients to the Y layout: per-cell gradient samples at
    the P_{r-1} nodes and scalar jumps at the edge Lagrange nodes.

    Lambda is kept factored as J * Lambda_ref, both sparse and built once on
    first use.  Lambda_ref holds the exact reference gradients of the cell
    basis at the P_{r-1} nodes and the +-1 jump gathers (edge lattice nodes
    coincide with cell lattice nodes); its rows sum to exactly zero, so it
    maps constants to exactly zero.  J applies the per-node inverse-transposed
    Jacobian to the cell rows, which keeps that zero.  The assembled product
    does not: its rows sum only to rounding noise.  It is stored once, as the
    CSR matrix of Lambda^T (``transpose``); ``matrix`` is its transposed view.
    """

    def __init__(self, space):
        self.space = space
        self._factors = None
        self._transpose = None

    def apply(self, coeffs):
        """Lambda u as a flat Y vector."""
        jac, ref = self.factors
        y = ref.dot(np.asarray(coeffs).ravel())
        if jac is not None:
            cell = y[:jac.shape[0]]
            cell[:] = jac.dot(cell)
        return y

    @property
    def factors(self):
        """(J, Lambda_ref) as sparse matrices.  J covers only the cell rows,
        the edge rows of Lambda_ref are final; J is None when there are no
        cell rows (r = 0).  Then Lambda is Lambda_ref itself, kept once as
        the CSR ``transpose`` and applied through its view."""
        if self._factors is None:
            jac, ref = self._assemble()
            if jac is None:
                self._transpose = ref.T.tocsr()
                ref = self._transpose.T
            self._factors = jac, ref
        return self._factors

    @property
    def transpose(self):
        """Assembled sparse Lambda^T = (J * Lambda_ref)^T as CSR (dim_dg x
        dim_y), the one stored assembled copy; serves the divergence and the
        right-hand sides Lambda^T W (d - b)."""
        jac, ref = self.factors
        if self._transpose is None:
            edge = sp.identity(ref.shape[0] - jac.shape[0])
            self._transpose = (sp.block_diag([jac, edge]) @ ref).T.tocsr()
        return self._transpose

    @property
    def matrix(self):
        """Assembled sparse Lambda (dim_y x dim_dg), the CSC view of
        ``transpose``; used for the quadratic form Lambda^T W Lambda."""
        return self.transpose.T

    def _assemble(self):
        space = self.space
        mesh = space.mesh
        lay = space.layout
        dofs = space.dofs
        n_k = dofs.n_cell_basis
        n_i = dofs.n_sub_basis
        n_j = dofs.n_edge_basis
        n_t = dofs.num_cells
        n_e = dofs.num_edges

        # (facet, orientation index) -> cell node ids
        table = lay.facet_nodes
        oi_plus = (mesh.edge_orientations[:, 0] + 1) // 2
        oi_minus = (mesh.edge_orientations[:, 1] + 1) // 2
        plus = mesh.edge_cells[:, [0]] * n_k + table[mesh.edge_facets[:, 0], oi_plus]
        minus = mesh.edge_cells[:, [1]] * n_k + table[mesh.edge_facets[:, 1], oi_minus]

        # Lambda_ref: per cell, the nonzero reference gradient entries of row
        # (node i, component d); per edge row, the gather pair (+1, -1)
        n_rows = n_e * n_j
        grad = lay.grad_at_sub.transpose(0, 2, 1).reshape(2 * n_i, n_k)
        grad_row, grad_k = np.nonzero(grad)
        ref = _csr_from_rows(
            np.concatenate([np.tile(grad[grad_row, grad_k], n_t),
                            np.tile([1.0, -1.0], n_rows)]),
            np.concatenate([((np.arange(n_t) * n_k)[:, None] + grad_k).ravel(),
                            np.column_stack([plus.ravel(), minus.ravel()]).ravel()]),
            np.concatenate([np.tile(np.bincount(grad_row, minlength=2 * n_i), n_t),
                            np.full(n_rows, 2)]),
            n_cols=dofs.dim_dg)
        if not n_i:
            return None, ref

        # J: inv_jacobian_t[t] on the row pair of each cell node
        pairs = (np.arange(n_t * n_i) * 2)[:, None, None] + np.arange(2)
        jac = _csr_from_rows(
            np.repeat(mesh.inv_jacobian_t, n_i, axis=0).ravel(),
            np.broadcast_to(pairs, (n_t * n_i, 2, 2)).ravel(),
            np.full(dofs.dim_y_cell, 2),
            n_cols=dofs.dim_y_cell)
        return jac, ref


def _csr_from_rows(data, cols, row_nnz, n_cols):
    """CSR matrix whose row m holds the next row_nnz[m] entries of (data,
    cols), in order."""
    indptr = np.zeros(len(row_nnz) + 1, dtype=np.int64)
    np.cumsum(row_nnz, out=indptr[1:])
    return sp.csr_matrix((data, cols, indptr), shape=(len(row_nnz), n_cols))


def divergence(op, p, lumped=False):
    """div p as a DG_r coefficient vector, defined through the adjoint
    identity (u, div p)_inner = -<p, Lambda u> for all u.

    ``lumped`` selects the lumped DG inner product; entries whose lumped
    weight C_{T,k} vanishes (degree-2 vertex nodes) are set to zero.
    """
    space = op.space
    w = -op.transpose.dot(np.asarray(p).ravel())
    if not lumped:
        return space.apply_mass_inverse(w)
    c = space.lumped_weights
    zero = c == 0.0
    out = np.zeros_like(w)
    np.divide(w, c, out=out, where=~zero)
    return out


def _split_cell_blocks(k, n_k):
    """The (n_t, n_k, n_k) cell blocks of the sparse matrix ``k`` (0 where
    it stores nothing) and the CSR matrix of its entries off those blocks."""
    k = k.tocoo()
    cell, row = np.divmod(k.row, n_k)
    inside = cell == k.col // n_k
    blocks = np.zeros((k.shape[0] // n_k, n_k, n_k))
    blocks[cell[inside], row[inside], k.col[inside] % n_k] = k.data[inside]
    off = ~inside
    return blocks, sp.coo_matrix((k.data[off], (k.row[off], k.col[off])),
                                 shape=k.shape).tocsr()


class QuadraticSolver:
    """Solver for the u-subproblems A(lam) u = rhs, A(lam) = F + lam * K.

    K = Lambda^T W Lambda is split once into its dense (n_t, n_k, n_k) cell
    blocks, the entries whose row and column fall in one cell, and the CSR
    matrix of its couplings, one -w entry per edge node between the edge's
    two cells.  The fidelity block F is block diagonal and the caller's:
    ``fidelity = (w, F_ref)`` means F_T = w_T * F_ref, by default the mass
    (det B_T, mass_ref).  ``set_lam`` forms the cell blocks of A(lam),
    builds ``matrix`` as their block diagonal plus lam times the couplings
    and inverts them into the block Jacobi preconditioner, equal to a fresh
    build bit for bit.  The system is SPD and solved by preconditioned CG.

    A cold solve (no ``x0``) stops at ||r|| <= ``_TOL`` ||b||.  A solve
    warm-started at ``x0`` stops at ||r|| <= max(``_TOL`` ||b||,
    ``_REDUCTION`` ||r0||), r0 = b - A x0: its start already holds the
    accuracy of the previous step, so it only has to cut the residual that
    the change of b brought in, and that bound tightens as the outer
    iteration converges (inexact ADMM with a relative error criterion,
    Eckstein & Yao, Math. Program. 170, 2018).  ``iterations`` counts the
    CG iterations of every solve so far.
    """

    _TOL = 1e-8         # relative residual a cold solve must reach
    _REDUCTION = 3e-3   # residual reduction a warm-started solve must reach
    _MAX_ITER = 2000

    def __init__(self, space, grad_op, lam, scale, fidelity=None):
        if not lam > 0:
            raise ValueError("lam must be positive")
        if fidelity is None:
            fidelity = space.mesh.det_jacobian, space.mass_ref
        self._fid_w, self._fid_ref = fidelity
        if not np.any(self._fid_w):
            raise ValueError(
                "no data cells: the quadratic subproblem is singular on a "
                "fully masked mesh"
            )
        self.space = space
        self.iterations = 0

        n_t = space.mesh.num_cells
        n_k = space.dofs.n_cell_basis
        lmat = grad_op.matrix
        self._k_blocks, self._couplings = _split_cell_blocks(
            lmat.T @ lmat.multiply(space.y_weight_vector(scale)[:, None]),
            n_k)
        # the block-diagonal CSR preconditioner; its data is the row-major
        # (n_t, n_k, n_k) stack of the blocks
        self._block_inv = sp.bsr_matrix(
            (np.zeros((n_t, n_k, n_k)), np.arange(n_t), np.arange(n_t + 1)),
            shape=self._couplings.shape).tocsr()
        self.set_lam(lam)

    def set_lam(self, lam):
        """Change the penalty to ``lam``: ``matrix`` is rebuilt from the
        lam-free parts, and the inverses of its cell blocks are written into
        the preconditioner's storage."""
        if not lam > 0:
            raise ValueError("lam must be positive")
        self.lam = lam
        # the cell blocks of A(lam) are formed in the preconditioner's
        # storage, summed with the couplings, then inverted in place
        block_diag = self._block_inv
        blocks = block_diag.data.reshape(self._k_blocks.shape)
        np.multiply(lam, self._k_blocks, out=blocks)
        blocks += self._fid_w[:, None, None] * self._fid_ref
        self.matrix = None      # free the old system before the new sum
        self.matrix = block_diag + lam * self._couplings
        try:
            blocks[:] = np.linalg.inv(blocks)
        except np.linalg.LinAlgError as exc:  # pragma: no cover
            raise RuntimeError("singular cell block in preconditioner") \
                from exc

    def _precondition(self, r):
        return self._block_inv.dot(r)

    def solve(self, rhs, x0=None):
        """Solve by preconditioned CG to ||r|| <= ``_TOL`` ||b|| from zero,
        or to ||r|| <= max(``_TOL`` ||b||, ``_REDUCTION`` ||b - A x0||) from
        ``x0``; raises InnerSolveError, with the residual relative to ||b||,
        when ``_MAX_ITER`` steps do not get there."""
        b = np.asarray(rhs).ravel()
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        a = self.matrix
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
        r = b - a.dot(x)
        rnorm = np.linalg.norm(r)
        tol = self._TOL * bnorm
        if x0 is not None:
            tol = max(tol, self._REDUCTION * rnorm)
        z = self._precondition(r)
        p = z.copy()
        rz = r @ z
        for it in range(self._MAX_ITER):
            if rnorm <= tol:
                self.iterations += it
                return x
            ap = a.dot(p)
            alpha = rz / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            rnorm = np.linalg.norm(r)
            z = self._precondition(r)
            rz_new = r @ z
            p *= rz_new / rz
            p += z
            rz = rz_new
        self.iterations += self._MAX_ITER
        res = np.linalg.norm(b - a.dot(x))
        if res <= tol:
            return x
        raise InnerSolveError(res / bnorm, self._MAX_ITER)
