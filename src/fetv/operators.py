"""The discrete gradient/jump operator, its adjoints and the quadratic
subproblem solver.

Every per-iteration kernel here is a sparse product on matrices built once:
Lambda is applied in the factored form J * Lambda_ref (see
:class:`GradJumpOperator`), the assembled product is stored once, as the
CSR matrix of Lambda^T, and serves the divergence and the quadratic form
Lambda^T W Lambda, and the PCG preconditioner is the block-diagonal CSR
matrix of the inverted cell blocks.

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
    "pairing",
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

    def eval(self, points, cells=None):
        """Point values of the function; points outside the mesh yield 0.

        ``cells`` may carry precomputed owner cell indices (-1 = outside).
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        if cells is None:
            cells = self.space.mesh.locate_points(points)
        cells = np.asarray(cells)
        inside = cells >= 0
        out = np.zeros(len(points))
        if inside.any():
            cid = cells[inside]
            ref = self.space.mesh.reference_coords(cid, points[inside])
            basis = self.space.layout.eval_cell(ref)
            u = self.space.cell_matrix(self.coeffs)
            out[inside] = np.einsum("nk,nk->n", basis, u[cid])
        return out


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

        # facet-node lookup: (facet, orientation index) -> cell node ids
        table = np.empty((3, 2, n_j), dtype=np.int64)
        for f in range(3):
            table[f, 0] = lay.facet_node_ids(f, -1)
            table[f, 1] = lay.facet_node_ids(f, +1)
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


def pairing(p, d):
    """Duality pairing <p, d> of an RT dof vector with a Y vector; exact at
    the coefficient level because the dofs are dual to the nodal bases."""
    return float(np.asarray(p).ravel() @ np.asarray(d).ravel())


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


class QuadraticSolver:
    """Solver for the u-subproblems (M_fid + lam * Lambda^T W Lambda) u = rhs.

    The fidelity block M_fid is the plain DG mass matrix restricted to the
    data cells, or the fully lumped diagonal lam*scale*C_{T,k} when
    ``lumped_fidelity`` is set.  The system is SPD and solved by
    preconditioned CG; the preconditioner is block Jacobi on the cell blocks,
    stored as the block-diagonal CSR matrix of their inverses.  ``set_lam``
    changes the penalty in place.
    """

    _CHUNK = 2048   # cells per pass over the blocks; bounds the temporaries

    def __init__(self, space, grad_op, lam, scale, mask=None,
                 lumped_fidelity=False, tol=1e-8, max_iter=2000):
        if lam < 0:
            raise ValueError("lam must be nonnegative")
        mesh = space.mesh
        if mask is None:
            mask = np.ones(mesh.num_cells, dtype=bool)
        mask = np.asarray(mask, dtype=bool)
        if not mask.any():
            raise ValueError(
                "no data cells: the quadratic subproblem is singular on a "
                "fully masked mesh"
            )
        if lam == 0 and not mask.all():
            raise ValueError("lam = 0 requires data on every cell")
        self.space = space
        self.mask = mask
        self.lam = lam
        self.tol = tol
        self.max_iter = max_iter
        self._lumped = lumped_fidelity

        n_t = mesh.num_cells
        n_k = space.dofs.n_cell_basis
        if lumped_fidelity:
            fid = sp.diags(lam * scale * space.lumped_weights)
        else:
            fid = sp.bsr_matrix(
                (self._mass_blocks(slice(None)), np.arange(n_t),
                 np.arange(n_t + 1)),
                shape=(space.dim_dg, space.dim_dg),
            )
        self.matrix = fid.tocsr()
        if lam > 0:
            lmat = grad_op.matrix
            w = space.y_weight_vector(scale)
            self.matrix = (self.matrix
                           + lam * (lmat.T @ lmat.multiply(w[:, None]))).tocsr()
            # the CSC view of Lambda leaves the column indices unsorted;
            # sorted rows keep the PCG matvec in a fixed summation order
            self.matrix.sort_indices()

        self._block_pos = self._cell_block_positions()
        self._block_inv = sp.bsr_matrix(
            (np.zeros((n_t, n_k, n_k)), np.arange(n_t), np.arange(n_t + 1)),
            shape=self.matrix.shape).tocsr()
        self._invert_blocks()

    def set_lam(self, lam):
        """Change the penalty to ``lam`` in place: ``matrix.data`` is scaled
        by lam / self.lam, the lam-free mass blocks are put back on the cell
        blocks (the lumped fidelity scales with lam itself), and the block
        inverses are rewritten into the preconditioner's storage."""
        if not lam > 0 or self.lam == 0:
            raise ValueError("set_lam needs a positive penalty before and "
                             "after")
        ratio = lam / self.lam
        data = self.matrix.data
        data *= ratio
        if not self._lumped:
            for cells in self._chunks():
                pos = self._block_pos[cells]
                hit = pos >= 0
                data[pos[hit]] += (1.0 - ratio) * self._mass_blocks(cells)[hit]
        self.lam = lam
        self._invert_blocks()

    def _chunks(self):
        n_t = self.space.mesh.num_cells
        return (slice(t, min(t + self._CHUNK, n_t))
                for t in range(0, n_t, self._CHUNK))

    def _mass_blocks(self, cells):
        """The mass blocks of ``cells`` restricted to the data cells."""
        space = self.space
        return np.where(self.mask[cells, None, None],
                        space.mass_ref[None]
                        * space.mesh.det_jacobian[cells, None, None], 0.0)

    def _cell_block_positions(self):
        """Index in ``matrix.data`` of entry (k, l) of every cell block, at
        (t*n_k + k, t*n_k + l), or -1 where it is not stored: sparse sums
        and products drop exact zeros, so masked cells and the lumped
        fidelity leave holes in the blocks."""
        a = self.matrix
        n = a.shape[1]
        n_k = self.space.dofs.n_cell_basis
        pos = np.empty((self.space.mesh.num_cells, n_k, n_k),
                       dtype=a.indptr.dtype)
        for cells in self._chunks():
            rows = np.arange(cells.start * n_k, cells.stop * n_k,
                             dtype=np.int64)
            ptr = a.indptr[rows[0]:rows[-1] + 2]
            keys = (np.repeat(rows, np.diff(ptr)) * n
                    + a.indices[ptr[0]:ptr[-1]])
            want = ((rows * n + rows // n_k * n_k)[:, None]
                    + np.arange(n_k)).reshape(-1, n_k, n_k)
            at = np.minimum(np.searchsorted(keys, want), keys.size - 1)
            pos[cells] = np.where(keys[at] == want, ptr[0] + at, -1)
        return pos

    def _invert_blocks(self):
        """Write the inverses of the cell blocks of ``matrix`` into the
        block-diagonal CSR preconditioner, whose data is the row-major
        (n_t, n_k, n_k) stack of its blocks."""
        data = self.matrix.data
        n_k = self.space.dofs.n_cell_basis
        out = self._block_inv.data.reshape(-1, n_k, n_k)
        for cells in self._chunks():
            pos = self._block_pos[cells]
            blocks = np.where(pos >= 0, data[pos], 0.0)
            try:
                out[cells] = np.linalg.inv(blocks)
            except np.linalg.LinAlgError as exc:  # pragma: no cover
                raise RuntimeError("singular cell block in preconditioner") \
                    from exc

    def _precondition(self, r):
        return self._block_inv.dot(r)

    def solve(self, rhs, x0=None):
        """Solve to relative residual <= tol by preconditioned CG; raises
        InnerSolveError on stagnation."""
        b = np.asarray(rhs).ravel()
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        a = self.matrix
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
        r = b - a.dot(x)
        z = self._precondition(r)
        p = z.copy()
        rz = r @ z
        for _ in range(self.max_iter):
            res = np.linalg.norm(r) / bnorm
            if res <= self.tol:
                return x
            ap = a.dot(p)
            alpha = rz / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            z = self._precondition(r)
            rz_new = r @ z
            p *= rz_new / rz
            p += z
            rz = rz_new
        res = np.linalg.norm(b - a.dot(x)) / bnorm
        if res <= self.tol:
            return x
        raise InnerSolveError(res, self.max_iter)
