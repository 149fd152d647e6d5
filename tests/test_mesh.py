import math

import numpy as np
import pytest

from fetv.mesh import (
    Mesh,
    MeshFormatError,
    MeshTopologyError,
    build_crossed_mesh,
    load_mesh,
    save_mesh,
)

from conftest import array_digest, build_diagonal_square


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
                          (1.0, -math.inf), (True, 1.0), (1.0, np.True_)):
        with pytest.raises(ValueError, match="positive and finite"):
            build_crossed_mesh(2, 2, width, height)
    # a size that is no real number is refused like the grid dimensions
    for width, height in (("1", 1.0), (None, 1.0), (1.0, "1")):
        with pytest.raises(ValueError, match="(width|height) must be a real"):
            build_crossed_mesh(2, 2, width, height)
    # the sizes are ints, not coerced: 2.7 would build 2 squares, "3" 3
    # and True 1
    for nx, ny in ((2.7, 3), ("3", "3"), (True, True), (3, np.True_),
                   (None, 3)):
        with pytest.raises(ValueError, match="n[xy] must be an integer"):
            build_crossed_mesh(nx, ny, 1.0, 1.0)
    assert build_crossed_mesh(np.int64(2), 3, 1.0, 1.0).num_cells == 24


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


@pytest.mark.parametrize("cells", [[(0, 1, 2), (0, 2, 1)],
                                   [(0, 1, 2), (1, 2, 0)]],
                         ids=["opposite", "same-orientation"])
def test_repeated_cell_rejected(cells):
    """A cell listed twice, in either orientation, would make two cells
    joined by three interior edges; two distinct triangles share at most
    one, so the mesh is refused, naming both cells.  (A repeated cell with
    a neighbour already puts three cells on an edge.)"""
    vertices = [(0, 0), (1, 0), (0, 1), (5, 5), (6, 5), (5, 6)]
    with pytest.raises(MeshTopologyError, match="cells 0 and 1 repeat"):
        Mesh(vertices[:3], cells)
    with pytest.raises(MeshTopologyError, match="cells 1 and 2 repeat"):
        Mesh(vertices, [(3, 4, 5)] + cells)


def test_repeated_cell_line_in_mesh_file(tmp_path):
    path = tmp_path / "repeated.mesh"
    path.write_text(
        "fetv-mesh 1\nvertices 6\n0 0\n1 0\n0 1\n5 5\n6 5\n5 6\n"
        "cells 3\n0 1 2\n3 4 5\n0 1 2\n")
    with pytest.raises(MeshTopologyError, match="cells 0 and 2 repeat"):
        load_mesh(path)


def test_hanging_node_rejected():
    vertices = [(0, 0), (2, 0), (0, 2), (1, 0), (1, -1)]
    cells = [(0, 1, 2), (0, 3, 4), (3, 1, 4)]
    with pytest.raises(MeshTopologyError):
        Mesh(vertices, cells)


@pytest.mark.parametrize("vertices, cells, message", [
    # one hanging node on the big cell's bottom facet, one on its left
    # facet; the bottom facet (0, 1) sorts first
    ([(0, 0), (2, 0), (0, 2), (1, 0), (1, -1), (0, 1), (-1, 1)],
     [(5, 2, 6), (0, 5, 6), (3, 1, 4), (0, 3, 4), (0, 1, 2)],
     "hanging node: vertex 3 lies inside facet 0 of cell 4"),
    # two hanging nodes on one facet: the lower vertex index is reported
    ([(0, 0), (3, 0), (0, 3), (2, 0), (1, 0), (1, -1), (2, -1)],
     [(1, 2, 0), (0, 4, 5), (4, 3, 6), (4, 6, 5), (3, 1, 6)],
     "hanging node: vertex 3 lies inside facet 2 of cell 0"),
])
def test_two_hanging_nodes_report_the_first(vertices, cells, message):
    """Of two hanging nodes the first in (boundary facet, vertex) order is
    reported, in the words the per-facet loop that first checked them
    used."""
    with pytest.raises(MeshTopologyError) as info:
        Mesh(vertices, cells)
    assert str(info.value) == message


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


# sha256 (conftest.array_digest) of every array of two crossed meshes, as
# first built by a lexsort of the facets and a per-facet hanging-node loop
_MESH_DIGESTS = {
    (64, 64, 1, 1): {
        "vertices":
            "0206a3e540bb3be0150d8c9d33f66070f8a40ec8793c737195927da744739dba",
        "cells":
            "e82a09bd82ab3f0d5405314db7301e01d2cbed76829e8f40e918defc1df389ed",
        "jacobian":
            "3526e456f91a46425b0e634c5bbb964b9bfb75aae6d54af2b67646c737bd5ae6",
        "shift":
            "870b43cef484a50cf3cfb5905ea262d16ec3f67c971d79bc8712e15911ab02d1",
        "det_jacobian":
            "540ba09cb156d0f290d9eb46ebd82d134d44e04230813a4cca2cf2446e5228b3",
        "inv_jacobian":
            "eda01da3984936817873f1a709300e1569ffad4a7dc1c28c2460864c0187b3dc",
        "inv_jacobian_t":
            "96d3f750bd31307cf115f02052fb669babde9fdb7d226489237a732954b883d7",
        "cell_areas":
            "279af2d37a7ef889c229fc6bd18296e9d989a44ec0a3336fb063d2a4fc30cabb",
        "edge_vertices":
            "291d320163d473034c5d9132236f5d50cc78ec02bc456c11730a2a02021cb4ce",
        "edge_cells":
            "1524922f008963e7439859864676d887dcd9b1b122833b42259287542a2de9c1",
        "edge_facets":
            "2cf62820956b1e101d5b57c6b638b4a8a1be22a2ce0d762958da1faee5dfb90a",
        "edge_orientations":
            "7888c9c796a8db701e2943be3f893b7cbf3b864d71f7656d538d6d875974e786",
        "edge_normals":
            "6bd89aea51edc38d92680630c44131f893bf34b02be56a38fb5286a0869d616a",
        "edge_lengths":
            "66604121651481195845d5c743c823f2562336d39d0b6d3d7a500cc47e941234",
        "boundary_edge_vertices":
            "8913bac5aba945874df736d0739b8f001452d436e2a92ee422537f949d5a7f61",
        "boundary_edge_cells":
            "d7f6eba4feca62683eb8d2e86a4273ce4f715e4bb3c7923fb34a6eb0189d7a44",
        "boundary_edge_facets":
            "419e7ebeccad1d0cd1aba6c63ba45876e6e1fcbfcf7759c48129a38503cb5fc0",
    },
    (5, 3, 1.0, 0.6): {
        "vertices":
            "17c9153aa06a43a46ac43d167d4a2ff23ee54281a9587714a0502f3acfb9e738",
        "cells":
            "8bf44dfc32d84128fb5009478d979640cf3e9700d11d1bb893e1df5e4db6b296",
        "jacobian":
            "553cb4220ce3c2bf34526ddc4aa5a7962254973fec68f6c0ffe492c324667976",
        "shift":
            "cdd598a72fc23150a50edd0bc30c22fce59611621f23f016826657da7df134eb",
        "det_jacobian":
            "d5ae8990f9becad0cd36c0636a5bd5e24420976d898e0111db8c577c3d1c6173",
        "inv_jacobian":
            "72f90129cf51ed9669c4a6c040fd11b41972fc3cc852ea06a29802bcf1e400a4",
        "inv_jacobian_t":
            "c510e67d68ff41872203c4cf5c5d921c2bf5de595af26ec38fb19c5c50d16db5",
        "cell_areas":
            "b596f0174262fc060f0d8dea0f1cb747395690fb40c1a12ea19c759c942bee17",
        "edge_vertices":
            "7bb4a7f7e0a62825b26c7024f06ad4b96f3950144e26ce9a7e842533e55dbda0",
        "edge_cells":
            "c5c4358e842bad87d61b5afb01303712c754f8823d78bc4b9101e0c44998cd04",
        "edge_facets":
            "63a025495b4d9db1991265cf4d7ceff13b58ec5c81aa0b866d978e149059a0cc",
        "edge_orientations":
            "20a3487843e2d3a7203c626289dc55a6214f212e7ce3e69ece4791d162cf7fae",
        "edge_normals":
            "c55f80e879280b3142abff321e0ed878aa0d0f6daafd62384fccbfce5d9cf6ef",
        "edge_lengths":
            "723fe61afae3130ccbe211e17cab37b208fd5cae56ab0d5d8d457b268ad29040",
        "boundary_edge_vertices":
            "2eb945dcc1fa908f97b41e601c24bca40352dfa85dec596c1a123cf60d7e95c8",
        "boundary_edge_cells":
            "8cf26a5e10771fa93b464b3e2399ce5e65b47c5fe2bd97a4b3441c0a71317a13",
        "boundary_edge_facets":
            "847172c418bb1bee750302fef6c71ece11598be01dbbdb1f8233a2553f16c683",
    },
}


@pytest.mark.parametrize("args", list(_MESH_DIGESTS))
def test_crossed_mesh_arrays_are_pinned(args):
    """Every mesh array keeps its dtype, shape and bits, so the spaces and
    operators built on the mesh, and every solver iterate, keep theirs."""
    mesh = build_crossed_mesh(*args)
    assert {name: array_digest(getattr(mesh, name))
            for name in _MESH_DIGESTS[args]} == _MESH_DIGESTS[args]
