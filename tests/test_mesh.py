import math

import numpy as np
import pytest

from fetv.mesh import (
    Mesh,
    MeshFormatError,
    MeshTopologyError,
    build_crossed_mesh,
    build_diagonal_square,
    load_mesh,
    save_mesh,
)


def test_crossed_counts_single_square(unit_crossed):
    assert unit_crossed.num_cells == 4
    assert unit_crossed.num_vertices == 5
    assert unit_crossed.num_interior_edges == 4


def test_crossed_counts_2x1():
    # enumerated by hand: 8 corner-to-center edges plus the one shared
    # pixel interface
    m = build_crossed_mesh(2, 1, 2.0, 1.0)
    assert m.num_cells == 8
    assert m.num_vertices == 8
    assert m.num_interior_edges == 9


def test_crossed_counts_paper_scale():
    m = build_crossed_mesh(256, 256, 256.0, 256.0)
    assert m.num_cells == 262144
    assert m.num_vertices == 131585


def test_crossed_rejects_bad_dims():
    with pytest.raises(ValueError):
        build_crossed_mesh(0, 3, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_crossed_mesh(2, 2, 0.0, 1.0)
    for width, height in ((math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0),
                          (1.0, -math.inf)):
        with pytest.raises(ValueError, match="positive and finite"):
            build_crossed_mesh(2, 2, width, height)


def test_cell_areas_sum():
    m = build_crossed_mesh(3, 2, 1.5, 0.8)
    assert m.cell_areas.sum() == pytest.approx(1.5 * 0.8, rel=1e-12)
    assert (m.det_jacobian > 0).all()


def test_edge_normal_points_plus_to_minus():
    for m in (build_crossed_mesh(3, 3, 1.0, 1.0),
              build_diagonal_square(0.7)):
        centroids = m.vertices[m.cells].mean(axis=1)
        delta = centroids[m.edge_cells[:, 1]] - centroids[m.edge_cells[:, 0]]
        assert ((delta * m.edge_normals).sum(axis=1) > 0).all()
        lens = np.hypot(m.edge_normals[:, 0], m.edge_normals[:, 1])
        assert np.abs(lens - 1.0).max() <= 1e-14


def test_closed_surface_identity():
    """Per cell, the outward normals (weighted by edge length) sum to zero;
    interior facets are taken from the stored edge data."""
    m = build_crossed_mesh(2, 3, 1.3, 0.9)
    total = np.zeros((m.num_cells, 2))
    for e in range(m.num_interior_edges):
        n = m.edge_normals[e] * m.edge_lengths[e]
        total[m.edge_cells[e, 0]] += n
        total[m.edge_cells[e, 1]] -= n
    for b in range(len(m.boundary_edge_vertices)):
        cell = m.boundary_edge_cells[b]
        facet = m.boundary_edge_facets[b]
        # the facet direction within a CCW cell gives the outward rotation
        la, lb = m.cells[cell][facet], m.cells[cell][(facet + 1) % 3]
        t = m.vertices[lb] - m.vertices[la]
        total[cell] += np.array([t[1], -t[0]])
    assert np.abs(total).max() <= 1e-12


def test_diagonal_square_geometry():
    m = build_diagonal_square(0.0)
    assert m.num_cells == 2
    assert m.num_interior_edges == 1
    assert m.edge_lengths[0] == pytest.approx(math.sqrt(2.0), rel=1e-14)
    normal = m.edge_normals[0]
    assert abs(abs(normal @ np.array([1.0, 1.0]) / math.sqrt(2)) - 1.0) <= 1e-14

    rot = build_diagonal_square(math.pi / 4)
    assert rot.num_cells == 2 and rot.num_interior_edges == 1

    quarter = build_diagonal_square(math.pi / 2)
    n = quarter.edge_normals[0]
    assert abs(np.abs(n).sum() - math.sqrt(2.0)) <= 1e-12


def test_save_load_roundtrip(tmp_path, unit_crossed):
    path = tmp_path / "unit.mesh"
    save_mesh(unit_crossed, path)
    again = load_mesh(path)
    assert (again.vertices == unit_crossed.vertices).all()
    assert (again.cells == unit_crossed.cells).all()
    assert again.num_interior_edges == unit_crossed.num_interior_edges


def test_load_mesh_parse_errors(tmp_path):
    bad = tmp_path / "bad.mesh"
    bad.write_text("not-a-mesh\n")
    with pytest.raises(MeshFormatError):
        load_mesh(bad)

    truncated = tmp_path / "trunc.mesh"
    truncated.write_text("fetv-mesh 1\nvertices 2\n0 0\n")
    with pytest.raises(MeshFormatError):
        load_mesh(truncated)

    badnum = tmp_path / "badnum.mesh"
    badnum.write_text("fetv-mesh 1\nvertices 1\n0 zero\ncells 0\n")
    with pytest.raises(MeshFormatError) as err:
        load_mesh(badnum)
    assert err.value.line == 3

    # counts are checked against the lines left before any allocation
    counts = tmp_path / "counts.mesh"
    for body, line in (("vertices 100000000000000\n0 0\ncells 0\n", 2),
                       ("vertices -1\ncells 0\n", 2),
                       ("vertices 1\n0 0\ncells -1\n", 4)):
        counts.write_text("fetv-mesh 1\n" + body)
        with pytest.raises(MeshFormatError) as err:
            load_mesh(counts)
        assert err.value.line == line
    for value in ("nan", "inf", "-inf"):
        nonfinite = tmp_path / "nonfinite.mesh"
        nonfinite.write_text(f"fetv-mesh 1\nvertices 3\n0 0\n1 {value}\n0 1\n"
                             "cells 1\n0 1 2\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(nonfinite)
        assert err.value.line == 4


def test_repeated_vertex_is_degenerate(tmp_path):
    path = tmp_path / "degen.mesh"
    path.write_text(
        "fetv-mesh 1\nvertices 3\n0 0\n1 0\n0 1\ncells 1\n0 1 1\n")
    with pytest.raises(MeshTopologyError):
        load_mesh(path)


def test_edge_shared_by_three_cells(tmp_path):
    path = tmp_path / "nonmanifold.mesh"
    path.write_text(
        "fetv-mesh 1\nvertices 5\n0 0\n1 0\n0 1\n1 1\n0.5 -1\n"
        "cells 3\n0 1 2\n1 3 0\n0 1 4\n")
    with pytest.raises(MeshTopologyError):
        load_mesh(path)


def test_hanging_node_rejected():
    vertices = [(0, 0), (2, 0), (0, 2), (1, 0), (1, -1)]
    cells = [(0, 1, 2), (0, 3, 4), (3, 1, 4)]
    with pytest.raises(MeshTopologyError):
        Mesh(vertices, cells)


def test_cell_geometry_maps_reference_vertices():
    m = build_crossed_mesh(2, 1, 2.0, 1.0)
    ref = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for t in (0, 5):
        mapped = ref @ m.jacobian[t].T + m.shift[t]
        assert np.allclose(mapped, m.vertices[m.cells[t]], atol=1e-15)
        assert m.det_jacobian[t] > 0
        assert m.cell_areas[t] == pytest.approx(m.det_jacobian[t] / 2.0)
        assert np.allclose(m.inv_jacobian_t[t] @ m.jacobian[t].T, np.eye(2),
                           atol=1e-14)


def test_negative_orientation_rewound():
    m = Mesh([(0, 0), (1, 0), (0, 1)], [(0, 2, 1)])  # clockwise input
    assert m.det_jacobian[0] > 0
    assert m.cell_areas[0] == pytest.approx(0.5)


def test_degenerate_cell_rejected():
    with pytest.raises(MeshTopologyError):
        Mesh([(0, 0), (1, 0), (2, 0)], [(0, 1, 2)])
