"""Reference triangulations: MSH 2.2 parsing, structured grids, VTK output.

The mesh is the fixed reference domain of the whole toolkit.  All edges carry
a global orientation from their low-index vertex to their high-index vertex;
element-local tangential degrees of freedom derive their signs from it, which
makes tangential continuity independent of element ordering.  The mesh
holds topology and reference geometry only (areas, hat-function gradients);
the edge basis enters assembly in closed form (fem_assembly).
"""

from __future__ import annotations

import operator
from functools import cached_property
from typing import Mapping

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    DimensionMismatch,
    EmptyMesh,
    MalformedSection,
    NonManifoldEdge,
    UnsupportedVersion,
)

# Local edges of a triangle (v0, v1, v2), traversed counterclockwise.
LOCAL_EDGES = ((0, 1), (1, 2), (2, 0))


class Mesh:
    """Immutable 2D triangulation with global edge table and boundary flags.

    Attributes:
        vertices: (V, 2) float64 coordinates.
        triangles: (T, 3) int vertex indices, counterclockwise.
        areas: (T,) float64 triangle areas, positive.
        edges: (E, 2) int vertex pairs with edges[:, 0] < edges[:, 1],
            sorted lexicographically.
        triangle_edges: (T, 3) int global edge index of each local edge.
        triangle_edge_signs: (T, 3) int, +1 where the triangle traverses the
            edge from its low to its high vertex, -1 otherwise.
        boundary_edges: sorted int indices of edges with one adjacent triangle.
        boundary_vertices: sorted int indices of endpoints of boundary edges.
    """

    def __init__(self, vertices: np.ndarray, triangles: np.ndarray):
        # Private copies: orientation is fixed in place and both are frozen.
        vertices = np.array(vertices, dtype=np.float64)
        triangles = np.array(triangles, dtype=np.int64)
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MalformedSection(f"vertices must be (V, 2), got {vertices.shape}")
        if not np.isfinite(vertices).all():
            bad = int(np.argmin(np.isfinite(vertices).all(axis=1)))
            raise MalformedSection(f"vertex {bad} has a non-finite coordinate")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MalformedSection(f"triangles must be (T, 3), got {triangles.shape}")
        if len(triangles) == 0:
            raise EmptyMesh("mesh contains no triangles")
        if triangles.min() < 0 or triangles.max() >= len(vertices):
            raise MalformedSection("triangle references a vertex out of range")

        # Enforce counterclockwise orientation; reject degenerate triangles.
        p0 = vertices[triangles[:, 0]]
        e1 = vertices[triangles[:, 1]] - p0
        e2 = vertices[triangles[:, 2]] - p0
        twice_area = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        if np.any(twice_area == 0.0):
            bad = int(np.nonzero(twice_area == 0.0)[0][0])
            raise MalformedSection(f"triangle {bad} is degenerate (zero area)")
        flip = twice_area < 0.0
        triangles[flip] = triangles[flip][:, [0, 2, 1]]

        self.vertices = vertices
        self.triangles = triangles
        # flipping swaps e1 and e2, and fl(a - b) = -fl(b - a)
        self.areas = 0.5 * np.abs(twice_area)
        self._build_edges()
        for arr in (self.vertices, self.triangles, self.areas, self.edges,
                    self.triangle_edges, self.triangle_edge_signs,
                    self.boundary_edges, self.boundary_vertices):
            arr.setflags(write=False)

    def _build_edges(self) -> None:
        tris = self.triangles
        pairs = np.concatenate([tris[:, [a, b]] for a, b in LOCAL_EDGES])
        # key lo * V + hi sorts as the pair (lo, hi)
        n = len(self.vertices)
        keys, inverse = np.unique(pairs.min(axis=1) * n + pairs.max(axis=1),
                                  return_inverse=True)
        self.edges = edges = np.stack(np.divmod(keys, n), axis=1)
        # Concatenation order above is (local edge 0 of all tris, local edge 1
        # of all tris, ...), so reshape with the triangle index varying fastest.
        self.triangle_edges = inverse.reshape(3, -1).T.copy()
        signs = np.where(pairs[:, 0] < pairs[:, 1], 1, -1)
        self.triangle_edge_signs = signs.reshape(3, -1).T.astype(np.int64).copy()

        counts = np.bincount(self.triangle_edges.ravel(), minlength=len(edges))
        if counts.max() > 2:
            bad = int(np.argmax(counts))
            raise NonManifoldEdge(
                f"edge {tuple(edges[bad])} is shared by {counts[bad]} triangles"
            )
        self.boundary_edges = np.nonzero(counts == 1)[0]
        self.boundary_vertices = np.unique(edges[self.boundary_edges])

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_triangles(self) -> int:
        return len(self.triangles)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @cached_property
    def n_components(self) -> int:
        """Connected components of the vertex graph (an unused vertex is
        one)."""
        n = self.n_vertices
        graph = sp.coo_matrix((np.ones(self.n_edges), self.edges.T),
                              shape=(n, n))
        return int(connected_components(graph, directed=False)[0])

    @property
    def n_holes(self) -> int:
        """C - (V - E + T): V - E + T = C - holes for a planar
        triangulation with C components (Euler)."""
        return self.n_components - (self.n_vertices - self.n_edges
                                    + self.n_triangles)

    @cached_property
    def barycentric_gradients(self) -> np.ndarray:
        """(T, 3, 2) gradients of the three P1 hat functions per triangle."""
        verts = self.vertices[self.triangles]           # (T, 3, 2)
        e1 = verts[:, 1] - verts[:, 0]
        e2 = verts[:, 2] - verts[:, 0]
        det = 2.0 * self.areas
        grads = np.empty((self.n_triangles, 3, 2))
        # Rows of the inverse of [e1 e2]; lambda_0 completes the partition.
        grads[:, 1, 0] = e2[:, 1] / det
        grads[:, 1, 1] = -e2[:, 0] / det
        grads[:, 2, 0] = -e1[:, 1] / det
        grads[:, 2, 1] = e1[:, 0] / det
        grads[:, 0] = -grads[:, 1] - grads[:, 2]
        grads.setflags(write=False)
        return grads

    def __repr__(self) -> str:
        return (f"Mesh(vertices={self.n_vertices}, triangles={self.n_triangles}, "
                f"edges={self.n_edges}, boundary_edges={len(self.boundary_edges)})")


def parse_msh(text: str) -> Mesh:
    """Parse a Gmsh MSH 2.2 ASCII file into a Mesh.

    2-node lines are accepted but ignored: the boundary is recovered from the
    triangle topology alone.  Vertices not referenced by any triangle are
    dropped and indices are compacted.

    Raises:
        UnsupportedVersion: not MSH 2.2 ASCII.
        MalformedSection: a section cannot be parsed, or $Nodes lists a
            node id twice.
        EmptyMesh: no triangles present.
        NonManifoldEdge: an edge with more than two adjacent triangles.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    sections = _split_sections(lines)

    fmt = sections.get("MeshFormat")
    if fmt is None or not fmt:
        raise UnsupportedVersion("missing $MeshFormat section")
    head = fmt[0].split()
    if len(head) < 2 or head[0] != "2.2" or head[1] != "0":
        raise UnsupportedVersion(f"need MSH 2.2 ASCII, got header {fmt[0]!r}")

    node_lines = sections.get("Nodes")
    if node_lines is None:
        raise MalformedSection("missing $Nodes section")
    try:
        n_nodes = int(node_lines[0])
        id_to_index: dict[int, int] = {}
        coords = np.empty((n_nodes, 2))
        for k, ln in enumerate(node_lines[1:1 + n_nodes]):
            parts = ln.split()
            if id_to_index.setdefault(int(parts[0]), k) != k:
                raise ValueError(f"node id {parts[0]} listed twice")
            coords[k] = (float(parts[1]), float(parts[2]))
        if len(node_lines) - 1 != n_nodes:
            raise ValueError("node count mismatch")
    except (ValueError, IndexError) as exc:
        raise MalformedSection(f"cannot parse $Nodes: {exc}") from exc

    elem_lines = sections.get("Elements")
    if elem_lines is None:
        raise MalformedSection("missing $Elements section")
    triangles = []
    try:
        n_elems = int(elem_lines[0])
        if len(elem_lines) - 1 != n_elems:
            raise ValueError("element count mismatch")
        for ln in elem_lines[1:]:
            parts = [int(tok) for tok in ln.split()]
            etype, n_tags = parts[1], parts[2]
            nodes = parts[3 + n_tags:]
            if etype == 2:  # 3-node triangle
                if len(nodes) != 3:
                    raise ValueError(f"triangle with {len(nodes)} nodes")
                triangles.append([id_to_index[n] for n in nodes])
            # type 1 (boundary line) and anything else: topology only, skip.
    except (ValueError, IndexError, KeyError) as exc:
        raise MalformedSection(f"cannot parse $Elements: {exc}") from exc

    if not triangles:
        raise EmptyMesh("MSH file contains no triangles")
    tri = np.asarray(triangles, dtype=np.int64)

    used = np.unique(tri)
    remap = np.full(len(coords), -1, dtype=np.int64)
    remap[used] = np.arange(len(used))
    return Mesh(coords[used], remap[tri])


def _split_sections(lines: list[str]) -> dict[str, list[str]]:
    sections: dict[str, list[str]] = {}
    name = None
    body: list[str] = []
    for ln in lines:
        if not ln:
            continue
        if ln.startswith("$End"):
            if name is None or ln[4:] != name:
                raise MalformedSection(f"unexpected section end {ln!r}")
            sections[name] = body
            name, body = None, []
        elif ln.startswith("$"):
            if name is not None:
                raise MalformedSection(f"section ${name} not closed before {ln!r}")
            name = ln[1:]
        elif name is not None:
            body.append(ln)
    if name is not None:
        raise MalformedSection(f"section ${name} not closed")
    return sections


def generate_unit_square(n: int) -> Mesh:
    """Structured triangulation of [0,1]^2 with n subdivisions per side.

    Vertices are ordered row-major ((n+1)^2 of them); every cell is split
    along the diagonal from its lower-left to its upper-right corner, so
    doubling n reproduces one uniform (red) refinement.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)      # row-major: y outer, x inner
    vertices = np.stack([xx.ravel(), yy.ravel()], axis=1)

    # lower-left corner of each cell, cells in row-major order
    v00 = ((np.arange(n) * (n + 1))[:, None] + np.arange(n)).ravel()
    v10, v01 = v00 + 1, v00 + (n + 1)
    v11 = v01 + 1
    # each cell gives (v00, v10, v11), then (v00, v11, v01)
    tris = np.stack([v00, v10, v11, v00, v11, v01], axis=1).reshape(-1, 3)
    return Mesh(vertices, tris)


def write_vtk(mesh: Mesh, q, fields: Mapping[str, np.ndarray] | None = None,
              title: str = "maxshape output") -> str:
    """Render the deformed configuration as legacy VTK ASCII text.

    Points are written at the deformed positions (vertex + displacement) and
    the displacement itself is emitted as a point vector field.  Extra arrays
    are attached by length: vertex-length arrays become point data,
    triangle-length arrays become cell data; 2- or 3-column arrays become
    vectors, flat arrays become scalars.

    Raises:
        DimensionMismatch: a field length matches neither count.
    """
    values = np.asarray(q.values, dtype=np.float64)
    if values.shape != (mesh.n_vertices, 2):
        raise DimensionMismatch(
            f"displacement shape {values.shape} does not match mesh "
            f"({mesh.n_vertices} vertices)")
    points = mesh.vertices + values

    point_fields: dict[str, np.ndarray] = {"deformation": values}
    cell_fields: dict[str, np.ndarray] = {}
    for name, arr in (fields or {}).items():
        arr = np.asarray(arr, dtype=np.float64)
        if len(arr) == mesh.n_vertices:
            point_fields[name] = arr
        elif len(arr) == mesh.n_triangles:
            cell_fields[name] = arr
        else:
            raise DimensionMismatch(
                f"field {name!r} has length {len(arr)}, expected "
                f"{mesh.n_vertices} (points) or {mesh.n_triangles} (cells)")

    n_t = mesh.n_triangles
    out = [
        "# vtk DataFile Version 3.0\n",
        f"{title}\n",
        "ASCII\n",
        "DATASET UNSTRUCTURED_GRID\n",
        f"POINTS {mesh.n_vertices} double\n",
        _rows("%.17g %.17g 0\n", points),
        f"CELLS {n_t} {4 * n_t}\n",
        _rows("3 %d %d %d\n", mesh.triangles),
        f"CELL_TYPES {n_t}\n",
        "5\n" * n_t,
        f"POINT_DATA {mesh.n_vertices}\n",
    ]
    out.extend(_field_block(name, arr) for name, arr in point_fields.items())
    if cell_fields:
        out.append(f"CELL_DATA {n_t}\n")
        out.extend(_field_block(name, arr)
                   for name, arr in cell_fields.items())
    return "".join(out)


def _field_block(name: str, arr: np.ndarray) -> str:
    safe = name.replace(" ", "_")
    if arr.ndim == 1:
        return (f"SCALARS {safe} double 1\nLOOKUP_TABLE default\n"
                + _rows("%.17g\n", arr))
    if arr.ndim == 2 and arr.shape[1] == 2:
        return f"VECTORS {safe} double\n" + _rows("%.17g %.17g 0\n", arr)
    if arr.ndim == 2 and arr.shape[1] == 3:
        return f"VECTORS {safe} double\n" + _rows("%.17g %.17g %.17g\n", arr)
    raise DimensionMismatch(f"field {name!r} has unsupported shape {arr.shape}")


def _rows(line: str, arr: np.ndarray) -> str:
    """One line per row of arr, rendered by a single %-format of the whole
    array (%.17g prints a float as format(x, ".17g") does)."""
    return (line * len(arr)) % tuple(arr.ravel().tolist())
