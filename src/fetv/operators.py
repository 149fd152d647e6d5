"""The discrete gradient/jump operator, its adjoints and the quadratic
subproblem solver.

Every per-iteration kernel here is a sparse product on matrices built once:
Lambda is applied in the factored form J * Lambda_ref (see
:class:`GradJumpOperator`), the assembled product is stored once, as the
CSR matrix of Lambda^T, and serves the divergence.  The quadratic form
K = Lambda^T W Lambda is never formed as a sparse product (see
:class:`QuadraticSolver`).

Dual vector fields never appear as pointwise functions here: an RT function
is represented solely by its integral dof vector, laid out exactly like a
Y vector (cell block of per-node 2-vectors, then edge block).  Divergences
are obtained from the adjoint identity (u, div p) = -<p, Lambda u>, so no
reference-to-world vector transform is ever computed.
"""

from __future__ import annotations

import math
import numbers

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DgFunction",
    "GradJumpOperator",
    "InnerSolveError",
    "QuadraticSolver",
    "divergence",
]


def _check_space(space, given, what="a function"):
    """The one space rule: ValueError naming both unless ``given``, a space
    or a ProblemSpec, has ``space``'s mesh object and degree."""
    if not ((same := given.mesh is space.mesh) and given.degree == space.degree):
        _misfit(space, f"{what} of DG_{given.degree} on "
                f"{'' if same else 'another mesh of '}{given.mesh.num_cells} cells")


def _misfit(space, given):
    raise ValueError(f"{given} given for DG_{space.degree} on "
                     f"{space.mesh.num_cells} cells ({space.dim_dg} values)")


class DgFunction:
    """A DG_r function: its space and the nodal coefficient vector.  The one
    check of coefficients on a space: a DgFunction that passes
    ``_check_space``, taken with no copy, or ``space.dim_dg`` values;
    anything else is a ValueError that names both spaces."""

    def __init__(self, space, coeffs=None):
        if coeffs is None:
            coeffs = np.zeros(space.dim_dg)
        if isinstance(coeffs, DgFunction):
            _check_space(space, coeffs.space)
            coeffs = coeffs.coeffs
        else:
            coeffs = np.asarray(coeffs, dtype=float).ravel()
            if coeffs.size != space.dim_dg:
                _misfit(space, f"{coeffs.size} values")
        self.space = space
        self.coeffs = coeffs


def _check_real(name, value, high=math.inf, closed=False):
    """The one rule for a numeric parameter: ValueError naming ``name``
    unless ``value`` is a finite real, not a bool, in (0, high], or in
    [0, high] if ``closed``."""
    if not isinstance(value, (np.bool_, numbers.Real)):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        finite = math.isfinite(value)
    except OverflowError:  # an int beyond the float range
        finite = False
    if isinstance(value, (bool, np.bool_)) or not finite \
            or not (0 <= value <= high if closed else 0 < value <= high):
        rule = (f"be {'nonnegative' if closed else 'positive'} and finite"
                if high == math.inf else
                f"lie in {'[' if closed else '('}0, {high:g}]")
        raise ValueError(f"{name} must {rule}, got {value}")


def _check_int(name, value, low, high=None):
    """The one rule for an integer parameter: ValueError naming ``name``
    unless ``value`` is an integer, not a bool, in [low, high]; returns it
    as an int."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or not low <= int(value) <= (math.inf if high is None else high):
        bound = f"of at least {low}" if high is None else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    return int(value)


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

    Lambda is kept factored as J * Lambda_ref, both sparse and assembled
    at construction (``factors``).  Lambda_ref holds the exact reference
    gradients of the cell basis at the P_{r-1} nodes and the +-1 jump
    gathers of ``edge_pairs``, the (n_E, n_j, 2) table of the cell dofs on
    the plus and minus side of each edge node; its rows sum to exactly
    zero, so it maps constants to exactly zero.  J applies the per-node
    inverse-transposed Jacobian to the cell rows, which keeps that zero; it
    is None at r = 0, where Lambda is Lambda_ref, the view of ``transpose``.
    The rows of the assembled product sum only to rounding noise.  It is
    stored once, as the CSR matrix of Lambda^T (``transpose``, built on
    first read); ``matrix`` is its transposed view.
    """

    def __init__(self, space):
        self.space = space
        jac, ref, self.edge_pairs = self._assemble()
        self.factors = jac, ref
        self._transpose = ref.T if jac is None else None

    def apply(self, coeffs):
        """Lambda u as a flat Y vector."""
        jac, ref = self.factors
        y = ref.dot(np.asarray(coeffs).ravel())
        if jac is not None:
            cell = y[:jac.shape[0]]
            cell[:] = jac.dot(cell)
        return y

    @property
    def transpose(self):
        """Assembled sparse Lambda^T = (J * Lambda_ref)^T as CSR (dim_dg x
        dim_y), the one stored assembled copy; serves the divergence and the
        right-hand sides Lambda^T W (d - b)."""
        if self._transpose is None:
            jac, ref = self.factors
            edge = sp.identity(ref.shape[0] - jac.shape[0])
            self._transpose = (sp.block_diag([jac, edge]) @ ref).T.tocsr()
        return self._transpose

    @property
    def matrix(self):
        """Assembled sparse Lambda (dim_y x dim_dg), the CSC view of
        ``transpose``; read by the bench's Lambda^T kernel and the tests."""
        return self.transpose.T

    def _assemble(self):
        space = self.space
        mesh = space.mesh
        lay = space.layout
        dofs = space.dofs
        n_k = dofs.n_cell_basis
        n_i = dofs.n_sub_basis
        n_t = dofs.num_cells
        n_y_cell = dofs.dim_y_cell
        n_y_edge = dofs.dim_y_edge

        # Lambda_ref: per cell, the nonzero reference gradient entries of row
        # (node i, component d); per edge row, the gather pair (+1, -1).  The
        # data and column arrays are written in place, at full length and in
        # the index type of the matrix, so that no temporary of their size
        # is made
        grad = lay.grad_at_sub.transpose(0, 2, 1).reshape(2 * n_i, n_k)
        grad_row, grad_k = np.nonzero(grad)
        n_cell = n_t * len(grad_k)
        data = np.empty(n_cell + 2 * n_y_edge)
        cols = np.empty(len(data), dtype=_index_dtype(
            len(data), n_y_cell + n_y_edge, dofs.dim_dg))
        data[:n_cell].reshape(n_t, len(grad_k))[:] = grad[grad_row, grad_k]
        np.add.outer(np.arange(0, n_t * n_k, n_k), grad_k,
                     out=cols[:n_cell].reshape(n_t, len(grad_k)),
                     casting="same_kind")
        data[n_cell:].reshape(-1, 2)[:] = (1.0, -1.0)
        # the cell node ids of an edge node on the plus and minus side, from
        # the (facet, orientation index) table
        ends = cols[n_cell:].reshape(dofs.num_edges, dofs.n_edge_basis, 2)
        for side in (0, 1):
            oi = (mesh.edge_orientations[:, side] + 1) // 2
            np.add(mesh.edge_cells[:, [side]] * n_k,
                   lay.facet_nodes[mesh.edge_facets[:, side], oi],
                   out=ends[..., side], casting="same_kind")
        ref = _csr_from_rows(
            data, cols,
            np.concatenate([np.tile(np.bincount(grad_row, minlength=2 * n_i), n_t),
                            np.full(n_y_edge, 2)]),
            n_cols=dofs.dim_dg)
        if not n_i:     # Lambda_ref is Lambda, the CSC view of CSR Lambda^T
            return None, ref.T.tocsr().T, ends

        # J: inv_jacobian_t[t] on the row pair (2m, 2m + 1) of each cell node
        # m, both rows with the columns 2m, 2m + 1
        pairs = np.arange(n_y_cell, dtype=_index_dtype(2 * n_y_cell))
        jac = _csr_from_rows(
            np.repeat(mesh.inv_jacobian_t, n_i, axis=0).ravel(),
            np.tile(pairs.reshape(-1, 2), 2).ravel(),
            np.full(n_y_cell, 2),
            n_cols=n_y_cell)
        return jac, ref, ends


def _index_dtype(*sizes):
    """int32 when every index and count up to ``sizes`` fits in it, else
    int64: the index type scipy gives a sparse matrix of those sizes."""
    return np.int32 if max(sizes) <= np.iinfo(np.int32).max else np.int64


def _csr_from_rows(data, cols, row_nnz, n_cols):
    """CSR matrix whose row m holds the next row_nnz[m] entries of (data,
    cols), in order.  The row pointers take the index type of ``cols``, and
    scipy keeps both arrays without a copy when it is the type it picks."""
    indptr = np.zeros(len(row_nnz) + 1, dtype=cols.dtype)
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


def _k_pieces(space, grad_op, scale):
    """K = Lambda^T W Lambda as its (n_t, n_k, n_k) cell blocks and the CSR
    matrix C of its couplings between cells, built from the per-degree
    tables without a sparse product.

    The cell rows of Lambda at node i of cell T are A_T g_i, with A_T the
    inverse transposed Jacobian and g_i the (2, n_k) reference gradients,
    so they add sum_i w_{T,i} g_i^T (A_T^T A_T) g_i to K_T: one GEMM of the
    (n_t, 4 n_i) products w_{T,i} A_T^T A_T with the (4 n_i, n_k^2) table
    of the g_i[d]^T g_i[e].  Each edge row of Lambda_ref is a +1/-1 pair of
    dofs in the edge's two cells; its weight w adds to the diagonal entry
    of both dofs, and C holds -w at the pair, both ways round."""
    n_t = space.mesh.num_cells
    n_k = space.dofs.n_cell_basis
    n_i = space.dofs.n_sub_basis
    grad = space.layout.grad_at_sub                 # g_i^T, (n_i, n_k, 2)
    table = np.einsum("iad,ibe->ideab", grad, grad)
    a = space.mesh.inv_jacobian_t
    metric = (a[:, 0, :, None] * a[:, 0, None, :]
              + a[:, 1, :, None] * a[:, 1, None, :])     # A_T^T A_T
    weighted = (scale * space.cell_weights)[:, :, None, None] * metric[:, None]
    blocks = (weighted.reshape(n_t, 4 * n_i)
              @ table.reshape(4 * n_i, n_k * n_k)).reshape(n_t, n_k, n_k)

    # the jump pairs follow the edge nodes of the Y layout, weighted by
    # edge_weights
    pairs = grad_op.edge_pairs.reshape(-1, 2)
    w = np.repeat(space.edge_weights.ravel(), 2)
    blocks.reshape(n_t, n_k * n_k)[:, ::n_k + 1] += np.bincount(
        pairs.ravel(), weights=w, minlength=n_t * n_k).reshape(n_t, n_k)
    couplings = sp.coo_matrix((-w, (pairs.ravel(), pairs[:, ::-1].ravel())),
                              shape=(n_t * n_k, n_t * n_k)).tocsr()
    return blocks, couplings


def _invert_spd_blocks(blocks, out):
    """Write the inverses of the SPD (n_t, n, n) ``blocks`` into ``out`` and
    return it: Gauss-Jordan elimination without pivoting, vectorized over
    the cells, which sit on the last axis of the work array.  ``out`` holds
    the pivots and row products until the result is written, so the work
    array is the only temporary.  A pivot that is not > 0 (a block that is
    not SPD, or a NaN) raises RuntimeError."""
    a = np.moveaxis(blocks, 0, -1).copy()
    n = a.shape[0]
    row = out.reshape(-1)[:a[0].size].reshape(a[0].shape)
    for k in range(n):
        pivot = row[0]
        pivot[:] = a[k, k]
        if not (pivot > 0).all():
            raise RuntimeError("singular cell block in preconditioner")
        a[k, k] = 1.0
        a[k] /= pivot
        for i in range(n):
            if i != k:
                # row k times a_ik, then column k of row i is -a_ik / a_kk
                np.multiply(a[i, k], a[k], out=row)
                a[i] -= row
                np.negative(row[k], out=a[i, k])
    out[:] = np.moveaxis(a, -1, 0)
    return out


class QuadraticSolver:
    """Solver for the u-subproblems A(lam) u = rhs, A(lam) = F + lam * K.

    K = Lambda^T W Lambda is built once, by ``_k_pieces``, as its dense
    (n_t, n_k, n_k) cell blocks, the entries whose row and column fall in
    one cell, and the CSR matrix C of its couplings, one -w entry per edge
    node between the edge's two cells.  The cell blocks come from one GEMM
    and a bincount of the edge weights, C from the jump pairs of
    Lambda_ref; no sparse product is formed.  The fidelity block F is block
    diagonal and the caller's: ``fidelity = (w, F_ref)`` means
    F_T = w_T * F_ref, by default the mass (det B_T, mass_ref).  So
    A(lam) = B + lam * C with B the block diagonal of the cell blocks
    B_T = w_T * F_ref + lam * K_T.  ``set_lam`` writes B, lam * C and the
    block Jacobi preconditioner B^-1 into storage of fixed size, equal to a
    fresh build bit for bit; B^-1 comes from Gauss-Jordan elimination
    without pivoting over all cells at once (``_invert_spd_blocks``), which
    refuses a block that is not SPD.  ``matrix``, the assembled A(lam), is
    built only when read.

    The system is SPD and solved by preconditioned CG.  With z = B^-1 r and
    p <- z + beta p, the product B p follows the recurrence q <- r + beta q
    from q = r (Eisenstat, SIAM J. Sci. Stat. Comput. 2, 1981), so a CG
    iteration multiplies only lam * C.  q equals B p up to the rounding of
    the computed inverse.

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
        _check_real("scale", scale)
        if fidelity is None:
            fidelity = space.mesh.det_jacobian, space.layout.mass_ref
        self._fid_w, self._fid_ref = fidelity
        if not np.any(self._fid_w):
            raise ValueError(
                "no data cells: the quadratic subproblem is singular on a "
                "fully masked mesh"
            )
        self.iterations = 0

        n_t = space.mesh.num_cells
        n_k = space.dofs.n_cell_basis
        self._k_blocks, self._couplings = _k_pieces(space, grad_op, scale)
        c = self._couplings
        self._lam_couplings = sp.csr_matrix(
            (np.empty_like(c.data), c.indices, c.indptr), shape=c.shape)
        # B and B^-1 as block-diagonal CSR matrices on one indptr/indices;
        # the data of each is the row-major (n_t, n_k, n_k) stack of blocks
        self._block_inv = sp.bsr_matrix(
            (np.zeros((n_t, n_k, n_k)), np.arange(n_t), np.arange(n_t + 1)),
            shape=c.shape).tocsr()
        inv = self._block_inv
        self._block = sp.csr_matrix(
            (np.empty_like(inv.data), inv.indices, inv.indptr),
            shape=c.shape)
        self.set_lam(lam)

    def set_lam(self, lam):
        """Change the penalty to ``lam``: the cell blocks of A(lam), lam * C
        and the block inverses are rewritten in their storage, and
        ``matrix`` is reassembled on its next read.  A lam whose blocks are
        not SPD is refused, with the old one rebuilt."""
        _check_real("lam", lam)
        blocks = self._block.data.reshape(self._k_blocks.shape)
        np.multiply(lam, self._k_blocks, out=blocks)
        blocks += self._fid_w[:, None, None] * self._fid_ref
        try:
            _invert_spd_blocks(blocks,
                               out=self._block_inv.data.reshape(blocks.shape))
        except RuntimeError:
            if hasattr(self, "lam"):    # not at construction
                self.set_lam(self.lam)
            raise
        self.lam = lam
        self._matrix = None
        np.multiply(lam, self._couplings.data, out=self._lam_couplings.data)

    @property
    def matrix(self):
        """The assembled A(lam) = B + lam * C as CSR, built on first read
        after a change of lam."""
        if self._matrix is None:
            self._matrix = self._block + self._lam_couplings
        return self._matrix

    def _apply(self, x):
        """A(lam) x as B x + lam * C x, without the assembled matrix."""
        ax = self._block.dot(x)
        ax += self._lam_couplings.dot(x)
        return ax

    def _precondition(self, r):
        return self._block_inv.dot(r)

    def solve(self, rhs, x0=None):
        """Solve by preconditioned CG to ||r|| <= ``_TOL`` ||b|| from zero,
        or to ||r|| <= max(``_TOL`` ||b||, ``_REDUCTION`` ||b - A x0||) from
        ``x0``; raises InnerSolveError, with the residual relative to ||b||,
        when ``_MAX_ITER`` steps do not get there.  The stop test reads the
        recurrence residual; the true residual b - A x differs from it by
        the rounding of B B^-1 carried in q."""
        b = np.asarray(rhs).ravel()
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros_like(b)
        x = np.zeros_like(b) if x0 is None else np.array(x0, dtype=float)
        r = b - self._apply(x)
        rnorm = np.linalg.norm(r)
        tol = self._TOL * bnorm
        if x0 is not None:
            tol = max(tol, self._REDUCTION * rnorm)
        lam_c = self._lam_couplings
        z = self._precondition(r)
        p = z.copy()
        q = r.copy()                    # B p
        rz = r @ z
        for it in range(self._MAX_ITER):
            if rnorm <= tol:
                self.iterations += it
                return x
            ap = lam_c.dot(p)
            ap += q
            alpha = rz / (p @ ap)
            x += alpha * p
            r -= alpha * ap
            rnorm = np.linalg.norm(r)
            z = self._precondition(r)
            rz_new = r @ z
            beta = rz_new / rz
            p *= beta
            p += z
            q *= beta
            q += r
            rz = rz_new
        self.iterations += self._MAX_ITER
        res = np.linalg.norm(b - self._apply(x))
        if res <= tol:
            return x
        raise InnerSolveError(res / bnorm, self._MAX_ITER)
