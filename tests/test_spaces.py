from fractions import Fraction

import numpy as np
import pytest

from fetv.mesh import build_crossed_mesh
from fetv.spaces import FeSpace, lagrange_layout

from rt_oracle import edge_basis

F = Fraction


def test_reference_weights_r0():
    w = lagrange_layout(0)
    assert w.cell_interior_exact == ()
    assert w.edge_exact == (F(1),)
    assert w.cell_full_exact == (F(1),)


def test_reference_weights_r1():
    w = lagrange_layout(1)
    assert w.cell_interior_exact == (F(1),)
    assert w.edge_exact == (F(1, 2), F(1, 2))
    assert w.cell_full_exact == (F(1, 3), F(1, 3), F(1, 3))


def test_reference_weights_r2():
    w = lagrange_layout(2)
    assert w.cell_interior_exact == (F(1, 3), F(1, 3), F(1, 3))
    assert w.edge_exact == (F(1, 6), F(2, 3), F(1, 6))       # Simpson
    assert w.cell_full_exact == (F(0), F(0), F(0), F(1, 3), F(1, 3), F(1, 3))


def test_reference_weights_rejects_degree(unit_crossed):
    with pytest.raises(ValueError):
        lagrange_layout(3)
    # a bool is no degree, and an int of another type shares the one
    # cached layout of its value
    for bad in (True, np.True_, 1.0, "1", 3, None):
        with pytest.raises(ValueError, match="degree must be an integer"):
            FeSpace(unit_crossed, bad)
    assert FeSpace(unit_crossed, np.int64(1)).layout is lagrange_layout(1)


def test_weights_match_symbolic_integration():
    """Independent oracle: rebuild every nodal basis with sympy and compare
    the exact integrals (rational equality)."""
    from symbolic_weights import assert_weights_match_symbolic

    for r in (0, 1, 2):
        assert_weights_match_symbolic(r)


def test_weight_positivity():
    for r in (0, 1, 2):
        w = lagrange_layout(r)
        assert all(c > 0 for c in w.cell_interior_exact)
        assert all(c > 0 for c in w.edge_exact)
        if r < 2:
            assert all(c > 0 for c in w.cell_full_exact)
    w2 = lagrange_layout(2)
    assert [c == 0 for c in w2.cell_full_exact] == [True] * 3 + [False] * 3
    assert sum(w2.cell_full_exact) == 1 and sum(w2.cell_interior_exact) == 1
    assert sum(w2.edge_exact) == 1


def test_nodal_duality():
    for r in (0, 1, 2):
        lay = lagrange_layout(r)
        vals = lay.eval_cell(lay.cell_nodes)
        assert np.abs(vals - np.eye(lay.n_cell)).max() <= 1e-13
        if r >= 1:
            sub = lay.sub.eval_cell(lay.sub.cell_nodes)
            assert np.abs(sub - np.eye(lay.n_sub)).max() <= 1e-13
        edge_nodes = [0.5] if r == 0 else np.arange(r + 1) / r
        edge = edge_basis(lay, edge_nodes)
        assert np.abs(edge - np.eye(lay.n_edge)).max() <= 1e-13


def test_derived_tables_come_from_one_basis_per_degree():
    """The P_{r-1} samples are the degree r-1 layout and the c_{T,i} are
    its C_{T,k}."""
    assert lagrange_layout(0).sub is None
    for r in (1, 2):
        lay = lagrange_layout(r)
        assert lay.sub is lagrange_layout(r - 1)
        assert lay.n_sub == lay.sub.n_cell == r * (r + 1) // 2
        assert lay.cell_interior_exact == lay.sub.cell_full_exact


def test_layout_tables_are_read_only_and_shared(spaces_unit, spaces_2x2):
    """The float tables are built once per degree, cannot be written, and
    every space of the degree references the layout's objects."""
    tables = ("cell_full", "cell_interior", "edge", "mass_ref", "mass_inv_t",
              "mass_chol", "facet_nodes")
    for r in (0, 1, 2):
        lay = lagrange_layout(r)
        for name in tables:
            assert not getattr(lay, name).flags.writeable, (r, name)
        assert lay.mass_inv_t.flags.c_contiguous
        a, b = spaces_unit[r], spaces_2x2[r]
        assert a.layout is b.layout is lay
        assert a.mass_ref is b.mass_ref is lay.mass_ref
        with pytest.raises(ValueError):
            a.mass_ref[0, 0] = 1.0
    assert lagrange_layout(2).facet_nodes[1].tolist() == [[2, 5, 1], [1, 5, 2]]


def test_eval_basis_examples():
    assert np.allclose(lagrange_layout(1).eval_cell([(0.0, 0.0)])[0],
                       [1.0, 0.0, 0.0])
    assert np.allclose(edge_basis(lagrange_layout(2), 0.5)[0], [0.0, 1.0, 0.0])


def test_partition_of_unity_and_gradients():
    rng = np.random.default_rng(5)
    pts = rng.random((40, 2)) * 0.5
    for r in (0, 1, 2):
        lay = lagrange_layout(r)
        assert np.abs(lay.eval_cell(pts).sum(axis=1) - 1.0).max() <= 1e-13
        grads = lay.eval_cell_grad(pts)
        assert np.abs(grads.sum(axis=1)).max() <= 1e-13
        te = rng.random(17)
        assert np.abs(edge_basis(lay, te).sum(axis=1) - 1.0).max() <= 1e-13
    g = lagrange_layout(1).eval_cell_grad([(0.3, 0.3)])[0]
    assert np.allclose(g, [[-1, -1], [1, 0], [0, 1]])


def test_quadrature_exact_on_own_space():
    """Interpolatory quadrature with the C_{T,k} weights integrates every
    monomial of degree <= r exactly (checked in rational arithmetic)."""
    from math import factorial

    for r in (0, 1, 2):
        lay = lagrange_layout(r)
        for a in range(r + 1):
            for b in range(r + 1 - a):
                total = sum(
                    (wk / 2) * xk ** a * yk ** b
                    for wk, (xk, yk) in zip(lay.cell_full_exact,
                                            lay._cell_nodes_exact))
                exact = F(factorial(a) * factorial(b), factorial(a + b + 2))
                assert total == exact


def test_dofmap_dimensions(unit_crossed):
    d0 = FeSpace(unit_crossed, 0).dofs
    assert d0.dim_dg == 4 and d0.dim_y == 4           # N_E * (r+1), N_E = 4
    d1 = FeSpace(unit_crossed, 1).dofs
    assert d1.dim_dg == 12
    assert d1.dim_y == 4 * 2 + 4 * 2                  # N_T r(r+1) + N_E (r+1)
    d2 = FeSpace(unit_crossed, 2).dofs
    assert d2.dim_dg == 24 and d2.dim_y == 4 * 6 + 4 * 3


@pytest.mark.parametrize("r", [0, 1, 2])
def test_dofmap_counts_are_the_layout_counts(unit_crossed, r):
    dofs = FeSpace(unit_crossed, r).dofs
    lay = lagrange_layout(r)
    assert (dofs.num_cells, dofs.num_edges) \
        == (unit_crossed.num_cells, unit_crossed.num_interior_edges)
    assert (dofs.n_cell_basis, dofs.n_sub_basis, dofs.n_edge_basis) \
        == (lay.n_cell, lay.n_sub, lay.n_edge) \
        == ((r + 1) * (r + 2) // 2, r * (r + 1) // 2, r + 1)


def test_dofmap_paper_scale():
    mesh = build_crossed_mesh(256, 256, 256.0, 256.0)
    assert FeSpace(mesh, 1).dofs.dim_dg == 786432


def test_mass_matrix_row_sums(spaces_unit):
    for r, space in spaces_unit.items():
        w = lagrange_layout(r)
        rows = space.mass_ref.sum(axis=1)
        expect = np.array([float(c) for c in w.cell_full_exact]) / 2.0
        assert np.abs(rows - expect).max() <= 1e-15
        # physical mass of the constant 1 is the domain area
        ones = np.ones(space.dim_dg)
        assert space.l2_norm_sq(ones) == pytest.approx(1.0, rel=1e-12)


def test_mass_ref_exactly_symmetric(spaces_unit):
    """apply_mass takes mass_ref as the right factor of u_T @ mass_ref^T,
    which needs it exactly symmetric and C-contiguous."""
    for space in spaces_unit.values():
        assert np.array_equal(space.mass_ref, space.mass_ref.T)
        assert space.mass_ref.flags.c_contiguous


def test_interpolate_and_node_coords(spaces_2x2):
    space = spaces_2x2[2]
    coeffs = space.interpolate(lambda p: 2.0 * p[:, 0] - p[:, 1])
    nodes = space.cell_node_coords().reshape(-1, 2)
    assert np.allclose(coeffs, 2.0 * nodes[:, 0] - nodes[:, 1])
