"""Symbolic-integration oracle for the reference weight tables (shared by
the unit tests and the acceptance suite)."""

import sympy as sym

from fetv.spaces import lagrange_layout


def assert_weights_match_symbolic(r):
    """Rebuild every nodal basis with sympy and compare the exact integrals
    (the mass entries and the weights) and the gradient samples against
    the packaged tables (rational equality)."""
    x, y, t = sym.symbols("x y t")
    lay = lagrange_layout(r)

    def sym_cell_basis(nodes_exact, exps):
        monos = [x ** a * y ** b for a, b in exps]
        vander = sym.Matrix(
            [[m.subs({x: sym.Rational(nx), y: sym.Rational(ny)})
              for m in monos] for nx, ny in nodes_exact])
        coeff = vander.inv()
        return [sum(coeff[m, k] * monos[m] for m in range(len(monos)))
                for k in range(len(nodes_exact))]

    def tri_integral(expr):
        return sym.integrate(sym.integrate(expr, (y, 0, 1 - x)), (x, 0, 1))

    def rational(q):
        return sym.Rational(q.numerator, q.denominator)

    cell_basis = sym_cell_basis(lay._cell_nodes_exact, lay._cell_exps)
    for k, phi in enumerate(cell_basis):
        exact = tri_integral(phi) / sym.Rational(1, 2)
        assert rational(lay.cell_full_exact[k]) == exact
    # every entry of the mass, int phi_k phi_l over the reference triangle
    assert lay.mass_exact.shape == (len(cell_basis),) * 2
    for k, phi_k in enumerate(cell_basis):
        for l, phi_l in enumerate(cell_basis):
            assert rational(lay.mass_exact[k, l]) == tri_integral(phi_k * phi_l)

    if r >= 1:
        sub_nodes = lay.sub._cell_nodes_exact
        for i, phi in enumerate(sym_cell_basis(sub_nodes, lay.sub._cell_exps)):
            exact = tri_integral(phi) / sym.Rational(1, 2)
            assert rational(lay.cell_interior_exact[i]) == exact
        # every gradient sample, the float converted exactly
        assert lay.grad_at_sub.shape == (len(sub_nodes), len(cell_basis), 2)
        for i, (nx, ny) in enumerate(sub_nodes):
            at = {x: sym.Rational(nx), y: sym.Rational(ny)}
            for k, phi in enumerate(cell_basis):
                for d, var in enumerate((x, y)):
                    assert sym.Rational(lay.grad_at_sub[i, k, d]) \
                        == sym.diff(phi, var).subs(at)
    else:
        assert lay.grad_at_sub.shape == (0, 1, 2)

    # the edge basis from its own lattice on [0, 1], independent of the
    # layout's facet tables
    edge_nodes = ([sym.Rational(1, 2)] if r == 0
                  else [sym.Rational(j, r) for j in range(r + 1)])
    monos = [t ** a for a in range(r + 1)]
    vander = sym.Matrix([[m.subs(t, tn) for m in monos] for tn in edge_nodes])
    coeff = vander.inv()
    assert len(lay.edge_exact) == r + 1
    for j in range(r + 1):
        phi = sum(coeff[m, j] * monos[m] for m in range(len(monos)))
        exact = sym.integrate(phi, (t, 0, 1))
        assert rational(lay.edge_exact[j]) == exact
