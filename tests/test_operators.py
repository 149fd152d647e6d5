import math

import numpy as np
import pytest
import scipy.sparse as sp

from fetv.mesh import Mesh, build_crossed_mesh
from fetv.operators import InnerSolveError, QuadraticSolver, divergence
from fetv.solvers import ProblemSpec, SolverParams, _Context
from fetv.spaces import FeSpace

from conftest import build_diagonal_square
from rt_oracle import oracle_lumped_divergence, oracle_pairing, to_field_dofs


def test_lambda_annihilates_constants(spaces_2x2, spaces_rotated):
    for space in list(spaces_2x2.values()) + spaces_rotated:
        for value in (3.7, -1e3):
            y = space.grad_jump().apply(np.full(space.dim_dg, value))
            assert np.abs(y).max() == 0.0


def test_lambda_affine_single_cell(spaces_unit):
    """u = x on one cell, 0 elsewhere: the cell gradient row is (1, 0) and
    the jump rows carry the affine trace values at the edge nodes."""
    space = spaces_unit[1]
    mesh = space.mesh
    nodes = space.cell_node_coords()
    u = np.zeros(space.dim_dg)
    u[:3] = nodes[0, :, 0]                   # x-coordinates of cell 0 nodes
    y = space.grad_jump().apply(u)
    grads = space.y_cell_view(y)
    assert np.allclose(grads[0], [[1.0, 0.0]], atol=1e-14)
    assert np.abs(grads[1:]).max() == 0.0

    jumps = space.y_edge_view(y)
    for e in range(mesh.num_interior_edges):
        plus, minus = mesh.edge_cells[e]
        g0, g1 = mesh.edge_vertices[e]
        pts = np.array([mesh.vertices[g0], mesh.vertices[g1]])
        expected = np.zeros(2)
        if plus == 0:
            expected = pts[:, 0]
        elif minus == 0:
            expected = -pts[:, 0]
        assert np.allclose(jumps[e], expected, atol=1e-14)


def test_lambda_step_function_jumps(diag_square):
    for r in (0, 1, 2):
        space = FeSpace(diag_square, r)
        u = np.zeros(space.dim_dg)
        u[space.dofs.n_cell_basis:] = 1.0    # 1 on the second triangle
        y = space.grad_jump().apply(u)
        if space.dofs.n_sub_basis:
            assert np.abs(space.y_cell_view(y)).max() == 0.0
        jumps = space.y_edge_view(y)
        assert np.abs(np.abs(jumps) - 1.0).max() == 0.0


def test_pairing_duality_units(spaces_unit):
    space = spaces_unit[1]
    p = space.new_y()
    d = space.new_y()
    space.y_edge_view(p)[2, 1] = 1.0
    space.y_edge_view(d)[2, 1] = 3.0
    assert float(p @ d) == 3.0
    assert float(space.new_y() @ d) == 0.0


@pytest.mark.parametrize("r", [0, 1, 2])
def test_pairing_against_quadrature_oracle(unit_crossed, r):
    """The coefficient-level pairing equals the actual integrals computed
    against an explicitly reconstructed RT field."""
    space = FeSpace(unit_crossed, r)
    rng = np.random.default_rng(10 + r)
    p = rng.standard_normal(space.dim_y)
    d = rng.standard_normal(space.dim_y)
    direct = float(p @ d)
    reference = oracle_pairing(space, p, d)
    assert direct == pytest.approx(reference, abs=1e-10 * (1 + abs(reference)))


@pytest.mark.parametrize("r", [0, 1, 2])
def test_adjoint_identity(r):
    rng = np.random.default_rng(42)
    for mesh in (build_crossed_mesh(2, 2, 1.0, 1.0),
                 build_crossed_mesh(8, 8, 1.0, 1.0),
                 build_crossed_mesh(11, 3, 2.0, 0.7)):
        space = FeSpace(mesh, r)
        op = space.grad_jump()
        for _ in range(20):
            u = rng.standard_normal(space.dim_dg)
            p = rng.standard_normal(space.dim_y)
            lhs = float(p @ op.apply(u))
            rhs = space.l2_inner(u, divergence(op, p))
            scale = 1.0 + np.linalg.norm(u) * np.linalg.norm(p)
            assert abs(lhs + rhs) <= 1e-10 * scale


def test_divergence_r0_by_hand(diag_square):
    """Piecewise-constant specialization: div p on a cell is the signed sum
    of its edge dofs divided by the area, checked on the 2-triangle mesh."""
    space = FeSpace(diag_square, 0)
    p = space.new_y()
    space.y_edge_view(p)[0, 0] = 1.0
    v = divergence(space.grad_jump(), p)
    # n_E is outward for cell_plus = cell 0 with |T| = 1/2
    assert v[0] == pytest.approx(-2.0, rel=1e-13)
    assert v[1] == pytest.approx(2.0, rel=1e-13)


def test_divergence_zero(spaces_2x2):
    for space in spaces_2x2.values():
        assert np.abs(divergence(space.grad_jump(), space.new_y())).max() == 0.0


@pytest.mark.parametrize("r", [0, 1, 2])
def test_lumped_divergence_is_quasi_interpolant(unit_crossed, r):
    """The lumped divergence equals the quasi-interpolant of the pointwise
    divergence of the reconstructed field (edge dofs reinterpreted per the
    fixed orientation convention, see rt_oracle.to_field_dofs)."""
    space = FeSpace(unit_crossed, r)
    rng = np.random.default_rng(3)
    p = rng.standard_normal(space.dim_y)
    mine = divergence(space.grad_jump(), p, lumped=True)
    ref = oracle_lumped_divergence(space, to_field_dofs(space, p))
    assert np.abs(mine - ref).max() <= 1e-9 * (1 + np.abs(ref).max())
    if r == 2:
        zero = space.lumped_weights == 0.0
        assert zero.any()
        assert np.abs(mine[zero]).max() == 0.0


def test_riesz_examples_and_inverse():
    """The Riesz map Y -> Y* is the diagonal y_weight_vector(scale)."""
    # an interior edge of length 1/2: crossed square of side 1/sqrt(2)
    side = 1.0 / math.sqrt(2.0)
    mesh = build_crossed_mesh(1, 1, side, side)
    space = FeSpace(mesh, 0)
    assert space.edge_weights[0, 0] == pytest.approx(0.5, rel=1e-14)
    d = space.new_y()
    space.y_edge_view(d)[0, 0] = 2.0
    p = space.y_weight_vector(1.0) * d
    assert space.y_edge_view(p)[0, 0] == pytest.approx(1.0, rel=1e-14)

    rng = np.random.default_rng(8)
    for r in (0, 1, 2):
        sp = FeSpace(mesh, r)
        for scale in (1.0, 1e-2):
            w = sp.y_weight_vector(scale)
            assert (w > 0).all()
            d = rng.standard_normal(sp.dim_y)
            assert np.abs((w * d) / w - d).max() <= 1e-14 * np.abs(d).max()
            assert np.abs(w * sp.new_y()).max() == 0.0


def test_inner_products_compatible(spaces_2x2):
    """The solvers' Y* norm of a Riesz image equals the lumped Y norm, and
    the Y* inner product (weights 1/w) of Riesz images equals the Y inner
    product (weights w)."""
    rng = np.random.default_rng(11)
    for space in spaces_2x2.values():
        prob = ProblemSpec(mesh=space.mesh, degree=space.degree,
                           f=np.zeros(space.dim_dg))
        for scale in (1.0, 1e-2):
            ctx = _Context(prob, SolverParams(scale=scale), space=space)
            w = space.y_weight_vector(scale)
            assert (ctx.yw == w).all()
            d = rng.standard_normal(space.dim_y)
            e = rng.standard_normal(space.dim_y)
            left = float((w * d) @ ((w * e) / w))
            right = float(d @ (w * e))
            assert left == pytest.approx(right, rel=1e-13)
            assert float(d @ (w * d)) > 0
            assert ctx.ystar_norm(w * d) ** 2 == pytest.approx(
                float(d @ (w * d)), rel=1e-13)


def test_inner_y_single_edge(diag_square):
    space = FeSpace(diag_square, 0)
    d = space.new_y()
    space.y_edge_view(d)[0, 0] = 1.0
    w = space.y_weight_vector(7.3)
    assert float(d @ (w * d)) == pytest.approx(math.sqrt(2.0), rel=1e-14)


def test_rotation_equivariance():
    """Rotating the two-cell mesh, transporting u by its nodal values and
    rotating the vector-valued cell dofs leaves the pairing invariant
    (scalar edge dofs are rotation-invariant)."""
    rng = np.random.default_rng(4)
    for r in (0, 1, 2):
        base = None
        coeffs = None
        p0 = None
        for angle in (0.0, 0.35, math.pi / 2):
            mesh = build_diagonal_square(angle)
            space = FeSpace(mesh, r)
            if coeffs is None:
                coeffs = rng.standard_normal(space.dim_dg)
                p0 = rng.standard_normal(space.dim_y)
            c, s = math.cos(angle), math.sin(angle)
            rot = np.array([[c, -s], [s, c]])
            p = p0.copy()
            if space.dofs.n_sub_basis:
                cell = space.y_cell_view(p)
                cell[:] = cell @ rot.T
            val = float(p @ space.grad_jump().apply(coeffs))
            if base is None:
                base = val
            assert val == pytest.approx(base, rel=1e-12, abs=1e-12)


def test_transpose_is_the_one_assembled_copy(spaces_2x2, spaces_rotated):
    """Lambda^T is stored once as CSR; ``matrix`` is a view of it, and the
    divergence is exactly M^{-1} of -Lambda^T p through either."""
    rng = np.random.default_rng(4)
    for space in list(spaces_2x2.values()) + spaces_rotated:
        op = space.grad_jump()
        assert op.transpose.format == "csr"
        assert np.shares_memory(op.matrix.data, op.transpose.data)
        jac, ref = op.factors
        if jac is None:
            assert np.shares_memory(ref.data, op.transpose.data)
        p = rng.standard_normal(space.dim_y)
        assert np.array_equal(divergence(op, p),
                              space.apply_mass_inverse(-op.matrix.T.dot(p)))
        u = rng.standard_normal(space.dim_dg)
        assert np.allclose(op.matrix.dot(u), op.apply(u), rtol=0, atol=1e-12)


def _fidelity(space, mask=None, lumped=False, lam=None, scale=None):
    """The (w, F_ref) fidelity pair of the u-systems: the mass on the data
    cells (split Bregman), or ``lumped`` lam * scale * C on every cell
    (ADMM)."""
    if lumped:
        return (lam * scale * space.mesh.cell_areas,
                np.diag(space.layout.cell_full))
    det = space.mesh.det_jacobian
    return (det if mask is None else np.where(mask, det, 0.0)), space.mass_ref


def test_quadratic_solver_sorted_indices(spaces_2x2):
    for space in spaces_2x2.values():
        for mask in (None, np.arange(space.mesh.num_cells) % 3 > 0):
            qs = QuadraticSolver(space, space.grad_jump(), 1e-2, 1e-2,
                                 fidelity=_fidelity(space, mask))
            assert qs.matrix.has_sorted_indices
            # the sum of the block diagonal and the couplings keeps no
            # buffer longer than its two terms' entries together
            n_t, n_k = space.mesh.num_cells, space.dofs.n_cell_basis
            terms = n_t * n_k * n_k + qs._couplings.nnz
            for arr in (qs.matrix.data, qs.matrix.indices):
                root = arr
                while root.base is not None:
                    root = root.base
                assert root.nbytes <= terms * arr.itemsize


def test_quadratic_solver_manufactured(spaces_2x2):
    space = spaces_2x2[1]
    rng = np.random.default_rng(17)
    solver = QuadraticSolver(space, space.grad_jump(), lam=0.5, scale=1e-2)
    target = rng.standard_normal(space.dim_dg)
    rhs = solver.matrix.dot(target)
    x = solver.solve(rhs)
    assert np.linalg.norm(solver.matrix.dot(x) - rhs) \
        <= 1e-7 * np.linalg.norm(rhs)
    assert np.abs(x - target).max() <= 1e-6


def test_quadratic_solver_masked_and_errors(spaces_2x2):
    space = spaces_2x2[0]
    mask = np.zeros(space.mesh.num_cells, dtype=bool)
    with pytest.raises(ValueError):
        QuadraticSolver(space, space.grad_jump(), lam=1.0, scale=1.0,
                        fidelity=_fidelity(space, mask))
    mask[:3] = True
    solver = QuadraticSolver(space, space.grad_jump(), lam=1e-2, scale=1.0,
                             fidelity=_fidelity(space, mask))
    rng = np.random.default_rng(0)
    rhs = rng.standard_normal(space.dim_dg)
    x = solver.solve(rhs)
    assert np.linalg.norm(solver.matrix.dot(x) - rhs) \
        <= 1e-7 * np.linalg.norm(rhs)


def test_quadratic_solver_stall_raises(monkeypatch):
    """A solve that its iteration cap stops short of the tolerance raises
    InnerSolveError with the residual it reached and the cap."""
    monkeypatch.setattr(QuadraticSolver, "_MAX_ITER", 1)
    space = FeSpace(build_crossed_mesh(8, 8, 1.0, 1.0), 1)
    solver = QuadraticSolver(space, space.grad_jump(), lam=1e-2, scale=1e-2)
    rhs = np.random.default_rng(4).standard_normal(space.dim_dg)
    with pytest.raises(InnerSolveError) as info:
        solver.solve(rhs)
    x = np.zeros(space.dim_dg)   # the one CG step from x0 = 0, by hand
    r = rhs.copy()
    z = solver._precondition(r)
    az = solver.matrix.dot(z)
    x += (r @ z) / (z @ az) * z
    residual = np.linalg.norm(rhs - solver.matrix.dot(x)) / np.linalg.norm(rhs)
    assert info.value.iterations == 1
    assert info.value.residual == pytest.approx(residual, rel=1e-10)
    assert info.value.residual > QuadraticSolver._TOL
    assert str(info.value).endswith("after 1 iterations")

    # warm-started, the check after the cap uses the warm bound
    # max(_TOL ||b||, _REDUCTION ||r0||), and the residual it reports stays
    # relative to ||b||
    x0 = np.linalg.solve(solver.matrix.toarray(), rhs) \
        + 1e-3 * np.random.default_rng(5).standard_normal(space.dim_dg)
    r = rhs - solver.matrix.dot(x0)
    z = solver._precondition(r)
    az = solver.matrix.dot(z)
    x = x0 + (r @ z) / (z @ az) * z
    after = np.linalg.norm(rhs - solver.matrix.dot(x))
    assert after > QuadraticSolver._TOL * np.linalg.norm(rhs)
    reduction = after / np.linalg.norm(r)
    monkeypatch.setattr(QuadraticSolver, "_REDUCTION", 0.5 * reduction)
    with pytest.raises(InnerSolveError) as info:
        solver.solve(rhs, x0=x0)
    assert info.value.residual == pytest.approx(
        after / np.linalg.norm(rhs), rel=1e-10)
    monkeypatch.setattr(QuadraticSolver, "_REDUCTION", 2.0 * reduction)
    assert np.allclose(solver.solve(rhs, x0=x0), x, rtol=0, atol=1e-14)


def _warm_starts(spaces_2x2):
    """(solver, rhs, x0) on the 2x2 crossed mesh at r = 0, 1, 2, with and
    without a mask; x0 is the solution for a nearby right-hand side, as in
    an outer iteration."""
    rng = np.random.default_rng(6)
    for space in spaces_2x2.values():
        for mask in (None, np.arange(space.mesh.num_cells) % 3 > 0):
            solver = QuadraticSolver(space, space.grad_jump(), 1e-2,
                                     1e-2 if space.degree else 1.0,
                                     fidelity=_fidelity(space, mask))
            rhs = rng.standard_normal(space.dim_dg)
            x0 = solver.solve(rhs + 1e-2 * rng.standard_normal(space.dim_dg))
            yield solver, rhs, x0


@pytest.mark.parametrize("reduction", [QuadraticSolver._REDUCTION, 0.0])
def test_warm_solve_stops_at_the_reduction_bound(reduction, spaces_2x2,
                                                 monkeypatch):
    """A warm-started solve returns once ||r|| <= max(_TOL ||b||,
    _REDUCTION ||r0||), which is the cold bound _TOL ||b|| at
    _REDUCTION = 0 and above it at the default, and ``iterations`` adds up
    its CG iterations (preconditioner calls but the first)."""
    monkeypatch.setattr(QuadraticSolver, "_REDUCTION", reduction)
    calls = []
    precondition = QuadraticSolver._precondition
    monkeypatch.setattr(QuadraticSolver, "_precondition",
                        lambda self, r: calls.append(1) or precondition(self, r))
    short = 0
    for solver, rhs, x0 in _warm_starts(spaces_2x2):
        bnorm = np.linalg.norm(rhs)
        r0 = np.linalg.norm(rhs - solver.matrix.dot(x0))
        before, calls[:] = solver.iterations, []
        x = solver.solve(rhs, x0=x0)
        res = np.linalg.norm(rhs - solver.matrix.dot(x))
        bound = max(QuadraticSolver._TOL * bnorm, reduction * r0)
        assert res <= bound * (1 + 1e-6)
        assert solver.iterations - before == len(calls) - 1
        short += res > QuadraticSolver._TOL * bnorm
    assert short if reduction else not short


def _solver_variants(spaces_2x2):
    """(space, scale, mask, lumped) over r = 0, 1, 2 on the 2x2 crossed
    mesh, a single triangle (no interior edge, so no couplings) and a
    rotated diagonal square (not a crossed mesh); with and without a mask
    where one keeps a data cell, and the lumped fidelity where its weights
    are positive."""
    triangle = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 1, 2)])
    square = build_diagonal_square(0.7)
    spaces = list(spaces_2x2.values()) + [
        FeSpace(mesh, r) for mesh in (triangle, square) for r in (0, 1, 2)]
    for space in spaces:
        r = space.degree
        scale = 1e-2 if r else 1.0
        keep = np.arange(space.mesh.num_cells) % 3 > 0
        for mask in ((None, keep) if keep.any() else (None,)):
            for lumped in ((False, True) if r < 2 else (False,)):
                yield space, scale, mask, lumped


def test_quadratic_solver_blocks_match_fancy_indexing(spaces_2x2):
    """The preconditioner is the inverse of the cell blocks picked out of
    the matrix, bit for bit, and the masked and lumped systems do have
    unstored block entries, which the read must fill with 0."""
    holes = 0
    for space, scale, mask, lumped in _solver_variants(spaces_2x2):
        qs = QuadraticSolver(space, space.grad_jump(), 1e-3, scale,
                             fidelity=_fidelity(space, mask, lumped, 1e-3,
                                                scale))
        n_t, n_k = space.mesh.num_cells, space.dofs.n_cell_basis
        dof = np.arange(space.dim_dg).reshape(n_t, n_k)
        rows = np.broadcast_to(dof[:, :, None], (n_t, n_k, n_k)).ravel()
        cols = np.broadcast_to(dof[:, None, :], (n_t, n_k, n_k)).ravel()
        blocks = np.asarray(qs.matrix[rows, cols]).reshape(n_t, n_k, n_k)
        expected = np.linalg.inv(blocks)
        assert np.array_equal(qs._block_inv.data,
                              expected.ravel()), (space.degree, mask, lumped)
        stored = qs.matrix.copy()
        stored.data[:] = 1.0
        holes += rows.size - int(np.asarray(stored[rows, cols]).sum())
    assert holes > 0


def test_quadratic_solver_matrix_is_f_plus_lam_k(spaces_2x2):
    """Every stored entry of the u-system is F + lam * K with F built from
    the fidelity pair passed in, F_T = w_T * F_ref (det B_T * mass_ref on
    the data cells' blocks, or lam * scale * |T| times the reference lumped
    weights), and K = Lambda^T W Lambda, bit for bit."""
    lam = 3e-3
    for space, scale, mask, lumped in _solver_variants(spaces_2x2):
        w, f_ref = _fidelity(space, mask, lumped, lam, scale)
        qs = QuadraticSolver(space, space.grad_jump(), lam, scale,
                             fidelity=(w, f_ref))
        lmat = space.grad_jump().matrix
        k = (lmat.T @ lmat.multiply(space.y_weight_vector(scale)[:, None])
             ).toarray()
        fid = sp.block_diag(list(f_ref[None] * w[:, None, None])).toarray()
        coo = qs.matrix.tocoo()
        want = lam * k[coo.row, coo.col] + fid[coo.row, coo.col]
        assert np.array_equal(coo.data, want), (space.degree, mask, lumped)


@pytest.mark.parametrize("factors", [
    (2.0, 2.0, 0.5, 2.0, 2.0, 0.5, 2.0),
    (2.0, 2.0, 0.5, 3.0, 0.7),
    (2.0,) * 10,
    tuple(np.random.default_rng(5).uniform(0.1, 10.0, 10)),
])
def test_set_lam_matches_fresh_build(spaces_2x2, factors):
    """Any sequence of penalty changes up to the budget of ten leaves the
    matrix and the block inverses of a solver built afresh at the final
    lam, bit for bit, in the preconditioner's storage."""
    for space, scale, mask, lumped in _solver_variants(spaces_2x2):
        op = space.grad_jump()
        fidelity = _fidelity(space, mask, lumped, 1e-3, scale)
        qs = QuadraticSolver(space, op, 1e-3, scale, fidelity=fidelity)
        block_inv = qs._block_inv.data
        lam = 1e-3
        for f in factors:
            lam *= f
            qs.set_lam(lam)
        assert qs.lam == lam
        assert qs._block_inv.data is block_inv
        fresh = QuadraticSolver(space, op, lam, scale, fidelity=fidelity)
        case = (space.degree, mask is not None, lumped)
        assert np.array_equal(qs.matrix.indptr, fresh.matrix.indptr), case
        assert np.array_equal(qs.matrix.indices, fresh.matrix.indices), case
        assert np.array_equal(qs.matrix.data, fresh.matrix.data), case
        assert np.array_equal(qs._block_inv.data, fresh._block_inv.data), case


def test_set_lam_rejects_zero(spaces_2x2):
    """The penalty must be positive, at construction and after."""
    space = spaces_2x2[1]
    for lam in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError):
            QuadraticSolver(space, space.grad_jump(), lam, 1e-2)
    qs = QuadraticSolver(space, space.grad_jump(), 1e-3, 1e-2)
    for lam in (0.0, -1e-3, math.nan):
        with pytest.raises(ValueError):
            qs.set_lam(lam)
    assert qs.lam == 1e-3


def test_large_lambda_shrinks_gradient(spaces_2x2):
    """The quadratic solve damps Lambda u monotonically as lam grows."""
    space = spaces_2x2[1]
    f = space.interpolate(lambda p: np.sin(3 * p[:, 0]) + p[:, 1] ** 2)
    mf = space.apply_mass(f)
    op = space.grad_jump()
    norms = []
    for lam in (1e-3, 1e-1, 10.0):
        solver = QuadraticSolver(space, op, lam=lam, scale=1e-2)
        u = solver.solve(mf)
        norms.append(np.linalg.norm(op.apply(u)))
    assert norms[0] > norms[1] > norms[2]
