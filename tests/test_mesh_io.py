import numpy as np
import pytest

from maxshape import DeformationField, Mesh, generate_unit_square, parse_msh, write_vtk
from maxshape.errors import (
    DimensionMismatch,
    EmptyMesh,
    MalformedSection,
    NonManifoldEdge,
    UnsupportedVersion,
)

from conftest import (
    SINGLE_TRIANGLE_MSH,
    TWO_TRIANGLE_MSH,
    holed_square,
    l_shape,
    two_squares,
    zero_field,
)


class TestTopology:
    """Components of the vertex graph and holes from the Euler
    characteristic V - E + T = components - holes."""

    @pytest.mark.parametrize("make, components, holes", [
        (lambda: generate_unit_square(4), 1, 0),
        (lambda: l_shape(2), 1, 0),
        (lambda: parse_msh(SINGLE_TRIANGLE_MSH), 1, 0),
        (lambda: holed_square(8), 1, 1),
        (lambda: holed_square(16), 1, 1),
        (lambda: two_squares(3), 2, 0),
    ])
    def test_counts(self, make, components, holes):
        mesh = make()
        assert mesh.n_components == components
        assert mesh.n_holes == holes

    def test_unused_vertex_is_a_component(self):
        square = generate_unit_square(2)
        mesh = Mesh(np.vstack([square.vertices, [[5.0, 5.0]]]),
                    square.triangles)
        assert (mesh.n_components, mesh.n_holes) == (2, 0)


class TestParseMsh:
    def test_single_triangle(self):
        mesh = parse_msh(SINGLE_TRIANGLE_MSH)
        assert mesh.n_vertices == 3
        assert mesh.n_triangles == 1
        assert mesh.n_edges == 3
        assert set(mesh.boundary_edges) == {0, 1, 2}
        assert set(mesh.boundary_vertices) == {0, 1, 2}

    def test_two_triangle_square(self):
        mesh = parse_msh(TWO_TRIANGLE_MSH)
        assert mesh.n_vertices == 4
        assert mesh.n_triangles == 2
        assert mesh.n_edges == 5
        assert len(mesh.boundary_edges) == 4
        interior = set(range(5)) - set(mesh.boundary_edges)
        assert len(interior) == 1
        # the interior edge is the diagonal 0-2
        (e,) = interior
        assert tuple(mesh.edges[e]) == (0, 2)

    def test_unreferenced_nodes_dropped(self):
        text = SINGLE_TRIANGLE_MSH.replace(
            "$Nodes\n3\n", "$Nodes\n4\n").replace(
            "3 0 1 0\n$EndNodes", "3 0 1 0\n17 5 5 0\n$EndNodes")
        mesh = parse_msh(text)
        assert mesh.n_vertices == 3
        assert not np.any(np.all(mesh.vertices == (5.0, 5.0), axis=1))

    def test_deterministic(self):
        a = parse_msh(TWO_TRIANGLE_MSH)
        b = parse_msh(TWO_TRIANGLE_MSH)
        np.testing.assert_array_equal(a.vertices, b.vertices)
        np.testing.assert_array_equal(a.triangles, b.triangles)
        np.testing.assert_array_equal(a.edges, b.edges)
        np.testing.assert_array_equal(a.triangle_edges, b.triangle_edges)
        np.testing.assert_array_equal(a.triangle_edge_signs, b.triangle_edge_signs)

    def test_wrong_version(self):
        with pytest.raises(UnsupportedVersion):
            parse_msh(SINGLE_TRIANGLE_MSH.replace("2.2 0 8", "4.1 0 8"))

    def test_binary_flag_rejected(self):
        with pytest.raises(UnsupportedVersion):
            parse_msh(SINGLE_TRIANGLE_MSH.replace("2.2 0 8", "2.2 1 8"))

    def test_missing_nodes_section(self):
        text = "$MeshFormat\n2.2 0 8\n$EndMeshFormat\n"
        with pytest.raises(MalformedSection):
            parse_msh(text)

    def test_garbled_counts(self):
        with pytest.raises(MalformedSection):
            parse_msh(SINGLE_TRIANGLE_MSH.replace("$Nodes\n3", "$Nodes\n7"))

    def test_empty_mesh(self):
        text = SINGLE_TRIANGLE_MSH.replace(
            "4\n1 1 2 0 1 1 2\n2 1 2 0 1 2 3\n3 1 2 0 1 3 1\n4 2 2 0 1 1 2 3",
            "3\n1 1 2 0 1 1 2\n2 1 2 0 1 2 3\n3 1 2 0 1 3 1")
        with pytest.raises(EmptyMesh):
            parse_msh(text)

    def test_non_manifold_edge(self):
        # three triangles sharing the edge 1-2
        text = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
5
1 0 0 0
2 1 0 0
3 0 1 0
4 1 1 0
5 -1 -1 0
$EndNodes
$Elements
3
1 2 2 0 1 1 2 3
2 2 2 0 1 1 2 4
3 2 2 0 1 1 2 5
$EndElements
"""
        with pytest.raises(NonManifoldEdge):
            parse_msh(text)

    def test_duplicate_node_id(self):
        # without the check the second line for id 2 wins: vertex (2, 0)
        text = TWO_TRIANGLE_MSH.replace("$Nodes\n4\n", "$Nodes\n5\n").replace(
            "4 0 1 0\n", "4 0 1 0\n2 2 0 0\n")
        with pytest.raises(MalformedSection, match="node id 2 listed twice"):
            parse_msh(text)

    def test_degenerate_triangle(self):
        text = SINGLE_TRIANGLE_MSH.replace("3 0 1 0", "3 2 0 0")  # collinear
        with pytest.raises(MalformedSection):
            parse_msh(text)

    @pytest.mark.parametrize("coord", ["nan", "inf", "-inf"])
    def test_non_finite_vertex(self, coord):
        # node 2 is vertex 1
        text = SINGLE_TRIANGLE_MSH.replace("2 1 0 0", f"2 1 {coord} 0")
        with pytest.raises(MalformedSection, match="vertex 1 "):
            parse_msh(text)

    @pytest.mark.parametrize("coord", [np.nan, np.inf])
    def test_non_finite_vertex_in_mesh(self, coord):
        vertices = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        vertices[3][0] = coord
        with pytest.raises(MalformedSection, match="vertex 3 "):
            Mesh(np.array(vertices), np.array([[0, 1, 2], [1, 3, 2]]))


class TestGenerateUnitSquare:
    def test_n1(self):
        mesh = generate_unit_square(1)
        assert mesh.n_vertices == 4
        assert mesh.n_triangles == 2
        assert mesh.n_edges == 5

    def test_n2(self):
        mesh = generate_unit_square(2)
        assert mesh.n_vertices == 9
        assert mesh.n_triangles == 8

    def test_n16(self):
        mesh = generate_unit_square(16)
        assert mesh.n_vertices == 289
        assert mesh.n_triangles == 512

    def test_row_major_vertices(self):
        mesh = generate_unit_square(2)
        np.testing.assert_allclose(mesh.vertices[0], (0.0, 0.0))
        np.testing.assert_allclose(mesh.vertices[1], (0.5, 0.0))
        np.testing.assert_allclose(mesh.vertices[3], (0.0, 0.5))

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            generate_unit_square(0)

    def test_non_integer_n(self):
        with pytest.raises(TypeError):
            generate_unit_square(2.5)

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_numbering_matches_cell_oracle(self, n):
        # Every history depends on this order: vertices row-major, and per
        # cell (row-major) the triangles (v00, v10, v11), (v00, v11, v01).
        side = np.linspace(0.0, 1.0, n + 1)
        vertices = [(side[i], side[j]) for j in range(n + 1)
                    for i in range(n + 1)]
        tris = []
        for j in range(n):
            for i in range(n):
                v00 = j * (n + 1) + i
                v10, v01 = v00 + 1, v00 + n + 1
                v11 = v01 + 1
                tris += [(v00, v10, v11), (v00, v11, v01)]
        mesh = generate_unit_square(n)
        assert np.array_equal(mesh.vertices, np.array(vertices))
        assert np.array_equal(mesh.triangles, np.array(tris))


class TestMeshInvariants:
    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_euler_relation(self, n):
        mesh = generate_unit_square(n)
        assert mesh.n_vertices - mesh.n_edges + mesh.n_triangles == 1

    @pytest.mark.parametrize("n", [2, 4])
    def test_positive_areas(self, n):
        mesh = generate_unit_square(n)
        assert np.all(mesh.areas > 0)
        assert mesh.areas.sum() == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 4])
    def test_interior_edge_signs_opposite(self, n):
        mesh = generate_unit_square(n)
        interior = set(range(mesh.n_edges)) - set(mesh.boundary_edges)
        sign_lists = {e: [] for e in range(mesh.n_edges)}
        for t in range(mesh.n_triangles):
            for k in range(3):
                sign_lists[mesh.triangle_edges[t, k]].append(
                    mesh.triangle_edge_signs[t, k])
        for e in interior:
            assert len(sign_lists[e]) == 2
            assert sign_lists[e][0] == -sign_lists[e][1]
        for e in mesh.boundary_edges:
            assert len(sign_lists[e]) == 1

    def test_sign_matches_traversal(self, square2):
        mesh = square2
        for t in range(mesh.n_triangles):
            tri = mesh.triangles[t]
            for k, (a, b) in enumerate(((0, 1), (1, 2), (2, 0))):
                lo, hi = mesh.edges[mesh.triangle_edges[t, k]]
                if mesh.triangle_edge_signs[t, k] == 1:
                    assert (tri[a], tri[b]) == (lo, hi)
                else:
                    assert (tri[a], tri[b]) == (hi, lo)

    def test_ccw_orientation_enforced(self):
        # clockwise input triangle gets flipped
        mesh = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                    np.array([[0, 2, 1]]))
        assert mesh.areas[0] > 0

    def test_rectangle_from_frozen_triangles(self, square4):
        # the 1 x 0.8 rectangle on another mesh's read-only connectivity
        rect = Mesh(square4.vertices * [1.0, 0.8], square4.triangles)
        np.testing.assert_array_equal(rect.triangles, square4.triangles)
        assert rect.areas.sum() == pytest.approx(0.8, rel=1e-12)

    def test_caller_arrays_unchanged(self):
        vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        triangles = np.array([[0, 2, 1]])        # clockwise
        mesh = Mesh(vertices, triangles)
        np.testing.assert_array_equal(mesh.triangles, [[0, 1, 2]])
        np.testing.assert_array_equal(triangles, [[0, 2, 1]])
        assert triangles.flags.writeable and vertices.flags.writeable
        assert not mesh.triangles.flags.writeable


class TestWriteVtk:
    def test_zero_deformation_points(self, square2):
        text = write_vtk(square2, zero_field(square2))
        points = _read_vtk_points(text)
        np.testing.assert_allclose(points[:, :2], square2.vertices)
        np.testing.assert_allclose(points[:, 2], 0.0)

    def test_constant_shift(self, square2):
        q = DeformationField(square2, np.tile((0.1, 0.0), (square2.n_vertices, 1)))
        text = write_vtk(square2, q)
        points = _read_vtk_points(text)
        np.testing.assert_allclose(points[:, 0], square2.vertices[:, 0] + 0.1)
        np.testing.assert_allclose(points[:, 1], square2.vertices[:, 1])

    def test_round_trip_with_cell_field(self, square4):
        mesh = square4
        cell_field = np.arange(mesh.n_triangles, dtype=float)
        point_field = np.linspace(0.0, 1.0, mesh.n_vertices)
        text = write_vtk(mesh, zero_field(mesh),
                         fields={"magnitude": cell_field, "height": point_field})
        parsed = _parse_vtk(text)
        assert parsed["n_points"] == mesh.n_vertices
        np.testing.assert_array_equal(parsed["cells"], mesh.triangles)
        assert np.all(parsed["cell_types"] == 5)
        np.testing.assert_allclose(parsed["cell_data"]["magnitude"], cell_field)
        np.testing.assert_allclose(parsed["point_data"]["height"], point_field)
        np.testing.assert_allclose(
            parsed["point_vectors"]["deformation"][:, :2], 0.0)

    def test_bytes_match_per_entry_oracle(self, square4, rng):
        # every number as format(x, ".17g"), one line per point or cell,
        # with a point scalar, 2- and 3-vector and a cell scalar
        mesh = square4
        values = 0.01 * rng.standard_normal((mesh.n_vertices, 2))
        fields = {"height": rng.standard_normal(mesh.n_vertices),
                  "flow": rng.standard_normal((mesh.n_vertices, 2)),
                  "e field": 1e5 * rng.standard_normal((mesh.n_vertices, 3)),
                  "magnitude": rng.standard_normal(mesh.n_triangles)}
        text = write_vtk(mesh, DeformationField(mesh, values), fields=fields)

        def g(x):
            return format(float(x), ".17g")

        def rows(arr):
            if arr.ndim == 1:
                return [g(v) for v in arr]
            pad = [] if arr.shape[1] == 3 else ["0"]
            return [" ".join([g(v) for v in row] + pad) for row in arr]

        n_t = mesh.n_triangles
        lines = ["# vtk DataFile Version 3.0", "maxshape output", "ASCII",
                 "DATASET UNSTRUCTURED_GRID",
                 f"POINTS {mesh.n_vertices} double",
                 *rows(mesh.vertices + values),
                 f"CELLS {n_t} {4 * n_t}",
                 *(f"3 {a} {b} {c}" for a, b, c in mesh.triangles),
                 f"CELL_TYPES {n_t}", *["5"] * n_t,
                 f"POINT_DATA {mesh.n_vertices}",
                 "VECTORS deformation double", *rows(values),
                 "SCALARS height double 1", "LOOKUP_TABLE default",
                 *rows(fields["height"]),
                 "VECTORS flow double", *rows(fields["flow"]),
                 "VECTORS e_field double", *rows(fields["e field"]),
                 f"CELL_DATA {n_t}",
                 "SCALARS magnitude double 1", "LOOKUP_TABLE default",
                 *rows(fields["magnitude"])]
        assert text == "\n".join(lines) + "\n"

        # every number round-trips exactly through float(token)
        parsed = _parse_vtk(text)
        vectors = parsed["point_vectors"]
        for got, want in [
                (parsed["points"][:, :2], mesh.vertices + values),
                (vectors["deformation"][:, :2], values),
                (vectors["flow"][:, :2], fields["flow"]),
                (vectors["e_field"], fields["e field"]),
                (parsed["point_data"]["height"], fields["height"]),
                (parsed["cell_data"]["magnitude"], fields["magnitude"])]:
            np.testing.assert_array_equal(got, want)

    def test_dimension_mismatch(self, square2):
        with pytest.raises(DimensionMismatch):
            write_vtk(square2, zero_field(square2),
                      fields={"bad": np.zeros(7)})


# A minimal independent reader for legacy ASCII VTK, used as the oracle.

def _read_vtk_points(text):
    return _parse_vtk(text)["points"]


def _parse_vtk(text):
    lines = text.splitlines()
    assert lines[0].startswith("# vtk DataFile")
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    out = {"point_data": {}, "cell_data": {}, "point_vectors": {}}
    i = 4
    n_points = None

    def grab_floats(start, count, width):
        rows = [
            [float(tok) for tok in lines[k].split()]
            for k in range(start, start + count)
        ]
        arr = np.asarray(rows)
        assert arr.shape[1] == width
        return arr

    section = None
    while i < len(lines):
        parts = lines[i].split()
        if not parts:
            i += 1
            continue
        tag = parts[0]
        if tag == "POINTS":
            n_points = int(parts[1])
            out["n_points"] = n_points
            out["points"] = grab_floats(i + 1, n_points, 3)
            i += 1 + n_points
        elif tag == "CELLS":
            n_cells = int(parts[1])
            rows = grab_floats(i + 1, n_cells, 4).astype(int)
            assert np.all(rows[:, 0] == 3)
            out["cells"] = rows[:, 1:]
            i += 1 + n_cells
        elif tag == "CELL_TYPES":
            n_cells = int(parts[1])
            out["cell_types"] = np.array(
                [int(lines[k]) for k in range(i + 1, i + 1 + n_cells)])
            i += 1 + n_cells
        elif tag == "POINT_DATA":
            section = ("point", int(parts[1]))
            i += 1
        elif tag == "CELL_DATA":
            section = ("cell", int(parts[1]))
            i += 1
        elif tag == "SCALARS":
            name = parts[1]
            kind, count = section
            assert lines[i + 1].startswith("LOOKUP_TABLE")
            vals = np.array([float(lines[k])
                             for k in range(i + 2, i + 2 + count)])
            out[f"{kind}_data"][name] = vals
            i += 2 + count
        elif tag == "VECTORS":
            name = parts[1]
            kind, count = section
            vals = grab_floats(i + 1, count, 3)
            out[f"{kind}_vectors" if kind == "point" else "cell_vectors"] = \
                out.get(f"{kind}_vectors", {})
            out[f"{kind}_vectors"][name] = vals
            i += 1 + count
        else:
            i += 1
    return out
