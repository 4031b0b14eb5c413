"""Mixed finite element assembly on the reference mesh.

Spaces: lowest-order Nedelec (edge) elements for the tangentially continuous
field and P1 Lagrange elements for the multiplier.  On each triangle the
edge basis attached to the global edge (lo, hi) is the Whitney function

    N = lam_lo * grad(lam_hi) - lam_hi * grad(lam_lo),

which is exactly the covariant Piola image of the reference-element basis
under the affine element map; orienting every edge from its low to its high
vertex index makes the tangential trace globally single-valued.

The deformation never moves the mesh: it enters the integrands only through
the per-triangle kinematic factors (jacobian, adjugate-pulled gradients).
All integrands are polynomial of degree <= 2 once those factors are frozen,
so the three-point edge-midpoint rule integrates every form exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import UnsupportedTopology
from .mesh_io import LOCAL_EDGES, Mesh
from .reference_transform import DeformationField, sum_to_nodes

# Degree-2 quadrature: the barycentric coordinates of the three edge
# midpoints, in LOCAL_EDGES order, with equal weights.  _gram_map folds it
# into the closed form of the element matrices.
EDGE_MIDPOINTS = np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]])
QP_WEIGHT = 1.0 / 3.0
# Local edge-vertex incidence: row k is e_b - e_a for LOCAL_EDGES[k] = (a, b).
LOCAL_INCIDENCE = np.diff(np.eye(3)[np.array(LOCAL_EDGES)], axis=1)[:, 0]


# j_{0,1}, the first positive zero of the Bessel function J_0.
BESSEL_J01 = 2.404825557695773


def _gram_map() -> tuple[np.ndarray, np.ndarray]:
    """The fixed linear maps between the Gram of the pulled gradients,
    Gamma[v, w] = (DF^-T grad lam_v) . (DF^-T grad lam_w), and the element
    matrices before their weight and edge signs.

    The pulled Whitney function of local edge k = (a, b) is
    s_k (lam_a g_b - lam_b g_a) with g = DF^-T grad lam, so its midpoint-rule
    products are linear in Gamma (Kirby & Logg, ACM TOMS 32, 2006):

        sum_p N_k . g_v = s_k (Gamma[b, v] - Gamma[a, v])  (sum_p lam_a = 1),
        sum_p N_k . N_l = s_k s_l (Q[a,c] Gamma[b,d] - Q[a,d] Gamma[b,c]
                                   - Q[b,c] Gamma[a,d] + Q[b,d] Gamma[a,c])

    for l = (c, d) and Q = EDGE_MIDPOINTS^T EDGE_MIDPOINTS.  local_forms
    reads Gamma through h_v = J DF^-T grad lam_v, v = 1, 2: as
    grad lam_0 = -grad lam_1 - grad lam_2, J^2 Gamma = D H D^T for the
    Gram H of h_1 and h_2 and D = [[-1, -1], [1, 0], [0, 1]].  Returns the
    (3, 18) map from (H[1, 1], H[1, 2], H[2, 2]) to J^2 times the nine m
    entries [k, l] and then the nine b entries [k, v], and the (9, 9) map
    from the products of the mass coefficients [k, l] to the symmetric
    coefficient C[v, w] they put on Gamma.  All entries are exact binary
    fractions, so m[k, l] and m[l, k] are equal columns: a matmul computes
    them alike, and m is exactly symmetric.
    """
    eye = np.eye(3)
    a, b = np.array(LOCAL_EDGES).T
    q = EDGE_MIDPOINTS.T @ EDGE_MIDPOINTS
    e_a, e_b = eye[a], eye[b]            # [k, x] = delta(x, a_k), delta(x, b_k)

    def outer(x, y):                     # [k, l, v, w] = x[k, v] y[l, w]
        return x[:, None, :, None] * y[None, :, None, :]

    def coef(i, j):
        return q[np.ix_(i, j)][:, :, None, None]

    m = (coef(a, a) * outer(e_b, e_b) - coef(a, b) * outer(e_b, e_a)
         - coef(b, a) * outer(e_a, e_b) + coef(b, b) * outer(e_a, e_a))
    bk = outer(LOCAL_INCIDENCE, eye)
    v, w = np.triu_indices(3)            # Gamma's distinct entries

    def fold(c):                         # Gamma[w, v] is Gamma[v, w]
        return c[..., v, w] + (v != w) * c[..., w, v]

    gmap = np.vstack([fold(m).reshape(9, -1), fold(bk).reshape(9, -1)]).T
    d = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    dd = d[v, :, None] * d[w, None, :]   # [(v, w), i, j] = D[v, i] D[w, j]
    fold_h = np.array([dd[:, 0, 0], dd[:, 0, 1] + dd[:, 1, 0], dd[:, 1, 1]])
    return fold_h @ gmap, 0.5 * (m + m.transpose(0, 1, 3, 2)).reshape(9, 9)


_PRODUCT_MAP, _COEF_MAP = _gram_map()


@dataclass
class AssembledForms:
    """The forms of the mixed problem a(u, v) + b(v, psi) = lam m(u, v),
    b(u, phi) = 0 (Kikuchi, CMAME 64, 1987) on layout's DOFs, edges first:
    they pose the saddle pencil K = [[A, B], [B^T, 0]], Mt = [[M, 0], [0, 0]].
    A: curl-curl form (edge x edge), symmetric positive semidefinite.
    M: weighted vector mass (edge x edge), symmetric positive definite on
       free DOFs for admissible deformations.
    BT: B^T (vertex x edge) of the constraint coupling b(u, phi) = u^T B phi.
    Each owns its data; its index arrays are the layout's, read-only and
    shared by every assembly on it, A's and M's the same arrays.
    """

    A: sp.csr_matrix
    M: sp.csr_matrix
    BT: sp.csr_matrix
    layout: "PencilLayout"

    @property
    def B(self) -> sp.csc_matrix:
        return self.BT.T

    def edge_shift(self, sigma: float) -> sp.csc_matrix:
        """A - sigma*M in CSC: both are exactly symmetric, so their CSR
        index arrays are the CSC arrays."""
        a, m = self.A, self.M
        data = m.data * -sigma              # one temporary: a - sigma*m
        data += a.data
        return sp.csc_matrix((data, a.indices, a.indptr), shape=a.shape)


@dataclass(frozen=True)
class PencilLayout:
    """CSR sparsity of the forms on n DOFs, the n_edge edge DOFs first:
    edge_indptr and edge_indices of A and M (edge x edge), bt_indptr and
    bt_indices of B^T (vertex x edge).  edges[e] is the mesh edge of edge
    DOF e."""

    n: int
    n_edge: int
    edge_indptr: np.ndarray
    edge_indices: np.ndarray
    bt_indptr: np.ndarray
    bt_indices: np.ndarray
    edges: np.ndarray

    def __post_init__(self):
        for arr in (self.edge_indptr, self.edge_indices, self.bt_indptr,
                    self.bt_indices, self.edges):
            arr.setflags(write=False)

    def edge_draw(self, seed: int) -> np.ndarray:
        """A standard normal value per edge DOF from seed, drawn in
        ascending mesh-edge order: an edge's value does not depend on the
        DOF numbering."""
        draw = np.empty(self.n_edge)
        draw[np.argsort(self.edges)] = \
            np.random.default_rng(seed).standard_normal(self.n_edge)
        return draw

    @cached_property
    def guard(self) -> np.ndarray:
        """A warm eigensolve's fixed-seed random guard column, drawn once."""
        return self.edge_draw(0)[:, None]

    def forms(self, a_data: np.ndarray, m_data: np.ndarray,
              bt_data: np.ndarray) -> AssembledForms:
        edge, n_e = (self.edge_indices, self.edge_indptr), self.n_edge
        return AssembledForms(
            sp.csr_matrix((a_data, *edge), shape=(n_e, n_e)),
            sp.csr_matrix((m_data, *edge), shape=(n_e, n_e)),
            sp.csr_matrix((bt_data, self.bt_indices, self.bt_indptr),
                          shape=(self.n - n_e, n_e)), self)


def _csr(rows: np.ndarray, cols: np.ndarray,
         n_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """indptr and int32 indices of entries sorted by row."""
    indptr = np.zeros(n_rows + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n_rows), out=indptr[1:])
    return indptr, cols.astype(np.int32)


def minimum_degree_order(indptr: np.ndarray,
                         indices: np.ndarray) -> np.ndarray:
    """The position of each row of a symmetric n x n pattern in SuperLU's
    minimum-degree order of it: the perm_c that splu computes under
    permc_spec="MMD_AT_PLUS_A" in symmetric mode (George & Liu, Computer
    Solution of Large Sparse Positive Definite Systems, 1981).

    The order depends on the pattern alone.  An incomplete factorization
    that drops every computed entry orders the same way at a fraction of a
    complete one's cost, and single-column supernodes halve what is left
    of it; the diagonally dominant values on the pattern keep its pivots
    nonzero.
    """
    n = len(indptr) - 1
    counts = np.diff(indptr)
    rows = np.repeat(np.arange(n), counts)
    values = np.where(rows == indices, counts[rows], -1.0)
    ilu = spla.spilu(sp.csc_matrix((values, indices, indptr), shape=(n, n)),
                     drop_tol=1e10, fill_factor=1, panel_size=1, relax=1,
                     permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                     options=dict(SymmetricMode=True))
    return ilu.perm_c.astype(np.intp)


@dataclass(frozen=True)
class DofMap:
    """Degree-of-freedom bookkeeping for the mixed pair of spaces and the
    fixed sparsity of its forms, full and on free DOFs, in two layouts.

    Tangential edge DOFs and vertex DOFs on the boundary are constrained
    (perfect electric conductor wall / homogeneous Dirichlet multiplier).

    The deformation changes only the entries, so assembly scatters the local
    matrices by precomputed slots (Cuvelier, Japhet & Scarella, BIT 56,
    2016): edge_slots[i] is the slot in the full A.data and M.data of the
    i-th entry of a_loc and of m_loc, bt_slots the slot in the full BT.data
    of the i-th entry of b_loc.  The Dirichlet reduction is a gather: the
    free A.data is the full A.data[edge_free], likewise M, and the free
    BT.data the full BT.data[bt_free].

    The full layout numbers DOFs as the mesh does.  The free layout numbers
    free vertices in mesh order and free edges in the minimum-degree order
    of their edge x edge pattern, the one a sparse factorization of
    A - sigma*M would compute: the pattern never changes, so it is ordered
    once, here, and every factorization keeps that order.
    """

    constrained_vertex: np.ndarray  # (V,) bool
    edge_slots: np.ndarray
    bt_slots: np.ndarray
    full: PencilLayout
    free: PencilLayout
    edge_free: np.ndarray
    bt_free: np.ndarray

    @classmethod
    def from_mesh(cls, mesh: Mesh) -> "DofMap":
        """The DOFs of a connected mesh without holes.

        The sparsity lives as long as the DofMap.  Built here, before any
        solve, its arrays sit below the solves' large temporaries in the
        heap instead of pinning it above them (peak RSS).

        Raises:
            UnsupportedTopology: the mesh has a hole or more than one
                component.
        """
        if mesh.n_components != 1 or mesh.n_holes != 0:
            raise UnsupportedTopology(
                f"mesh has {mesh.n_components} component(s) and "
                f"{mesh.n_holes} hole(s): the eigensolver needs a connected "
                f"mesh without holes, where the gradients alone span the "
                f"kernel of the curl-curl form")
        n_edge, n_vertex = mesh.n_edges, mesh.n_vertices
        ce = np.zeros(n_edge, dtype=bool)
        ce[mesh.boundary_edges] = True
        cv = np.zeros(n_vertex, dtype=bool)
        cv[mesh.boundary_vertices] = True
        edges = mesh.triangle_edges
        # triangle-major local entries (k, l) of an edge x edge form and
        # (k, v) of b_loc as B^T, keyed row * n_edge + col
        rows = np.repeat(edges, 3, axis=1).ravel()
        cols = np.tile(edges, (1, 3)).ravel()
        verts = np.tile(mesh.triangles, (1, 3)).ravel()
        edge_keys, edge_slots = np.unique(rows * n_edge + cols,
                                          return_inverse=True)
        bt_keys, bt_slots = np.unique(verts * n_edge + rows,
                                      return_inverse=True)
        full = PencilLayout(
            n_edge + n_vertex, n_edge,
            *_csr(*np.divmod(edge_keys, n_edge), n_edge),
            *_csr(*np.divmod(bt_keys, n_edge), n_vertex),
            np.arange(n_edge))

        # The free layout is cut out of the full one: each entry's value is
        # its full slot + 1, so the cut's data, less 1, is the gather.
        def slots(indptr, indices):
            return sp.csr_matrix(
                (np.arange(1, len(indices) + 1, dtype=np.int32), indices,
                 indptr), shape=(len(indptr) - 1, n_edge))

        fe, fv = np.flatnonzero(~ce), np.flatnonzero(~cv)
        edge = slots(full.edge_indptr, full.edge_indices)[fe][:, fe]
        order = np.argsort(minimum_degree_order(edge.indptr, edge.indices))
        edge = edge[order][:, order].sorted_indices()
        fe = fe[order]
        bt = slots(full.bt_indptr, full.bt_indices)[fv][:, fe]
        bt = bt.sorted_indices()
        free = PencilLayout(
            len(fe) + len(fv), len(fe), edge.indptr, edge.indices, bt.indptr,
            bt.indices, fe)
        return cls(cv, edge_slots.astype(np.int32),
                   bt_slots.astype(np.int32), full, free, edge.data - 1,
                   bt.data - 1)

    def __post_init__(self):
        for arr in (self.edge_slots, self.bt_slots, self.edge_free,
                    self.bt_free):
            arr.setflags(write=False)

    def expand_edge(self, u_red: np.ndarray) -> np.ndarray:
        full = np.zeros(self.full.n_edge)
        full[self.free.edges] = u_red
        return full


def local_forms(mesh: Mesh, q: DeformationField
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Element matrices a_loc, b_loc and m_loc, each (T, 3, 3), of the
    transformed forms: [t, k, l] couples local edges k and l of triangle t,
    and b_loc[t, k, v] local edge k with local vertex v.

    Raises:
        InadmissibleDeformation: jacobian <= 0 on some triangle.
    """
    (x1, y1), (x2, y2) = q.adjugate_gradients((1, 2))
    products = np.stack([x1 * x1 + y1 * y1, x1 * x2 + y1 * y2,
                         x2 * x2 + y2 * y2], axis=1)
    areas, jac = mesh.areas, q.jacobian
    # (|T| / 3) J Gamma = (|T| / (3 J)) J^2 Gamma, see _gram_map
    unsigned = ((QP_WEIGHT * areas / jac)[:, None] * products) @ _PRODUCT_MAP

    signs = mesh.triangle_edge_signs
    pairs = signs[:, :, None] * signs[:, None, :]
    m_loc = pairs * unsigned[:, :9].reshape(-1, 3, 3)
    b_loc = signs[:, :, None] * unsigned[:, 9:].reshape(-1, 3, 3)
    # the curl of local edge k's Whitney function is s_k / |T|
    a_loc = (1.0 / (areas * jac))[:, None, None] * pairs
    return a_loc, b_loc, m_loc


def assemble_forms(mesh: Mesh, dofs: DofMap, q: DeformationField) -> AssembledForms:
    """Assemble A, M and B^T of the transformed forms.

    Matrices are full-sized (all DOFs) on the full layout of dofs;
    apply_dirichlet reduces them.  mesh must be the mesh of dofs.

    Raises:
        InadmissibleDeformation: jacobian <= 0 on some triangle.
    """
    a_loc, b_loc, m_loc = local_forms(mesh, q)
    # Every entry sums at most two contributions, so no summation order
    # can change its value.
    n_entries = len(dofs.full.edge_indices)
    return dofs.full.forms(
        np.bincount(dofs.edge_slots, a_loc.ravel(), minlength=n_entries),
        np.bincount(dofs.edge_slots, m_loc.ravel(), minlength=n_entries),
        np.bincount(dofs.bt_slots, b_loc.ravel(),
                    minlength=len(dofs.full.bt_indices)))


def apply_dirichlet(forms: AssembledForms, dofs: DofMap) -> AssembledForms:
    """Eliminate constrained rows and columns by symmetric reduction."""
    if forms.layout is not dofs.full:
        raise ValueError("forms were not assembled on this DofMap")
    return dofs.free.forms(forms.A.data[dofs.edge_free],
                           forms.M.data[dofs.edge_free],
                           forms.BT.data[dofs.bt_free])


def assemble_scalar_h1(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """P1 mass and stiffness matrices on the undeformed reference mesh."""
    grads = mesh.barycentric_gradients
    areas = mesh.areas
    # Exact P1 mass: area/6 on the diagonal, area/12 off it.
    base = np.full((3, 3), 1.0 / 12.0) + np.eye(3) / 12.0
    m_loc = areas[:, None, None] * base
    s_loc = areas[:, None, None] * np.einsum("tvi,twi->tvw", grads, grads)

    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    shape = (mesh.n_vertices, mesh.n_vertices)
    mass = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    stiff = sp.coo_matrix((s_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    return mass, stiff


def stiffness_floor(mesh: Mesh, dofs: DofMap) -> float:
    """A lower bound of the smallest eigenvalue of L_0, the P1 stiffness
    matrix of mesh on the free vertices of dofs, in closed form:
    pi j_{0,1}^2 / |Omega| times the smallest free vertex patch area / 12.

    x^T L_0 x is the Dirichlet energy of a P1 function that vanishes on the
    boundary, at least lambda_1(Omega) times its squared L2 norm, as a
    conforming Ritz value is at least the continuum one, and lambda_1 >=
    pi j_{0,1}^2 / |Omega| by the Faber-Krahn inequality (Henrot, Extremum
    Problems for Eigenvalues of Elliptic Operators, 2006).  Each element
    mass (|T| / 12)(1 + delta_vw) is at least (|T| / 12) I, so the squared
    norm is at least patch_area(v) / 12 times x_v^2 summed.  +inf without
    free vertices.  The bound lies 3.5-4.4x below the eigenvalue on unit
    squares (n = 2 to 16) and 6.4x below it on the L-shape (n = 4, 8), a
    margin far beyond its rounding.
    """
    patch = np.bincount(mesh.triangles.ravel(), np.repeat(mesh.areas, 3),
                        minlength=mesh.n_vertices)
    smallest = patch[~dofs.constrained_vertex].min(initial=np.inf)
    return math.pi * BESSEL_J01 ** 2 / mesh.areas.sum() * smallest / 12.0


def assemble_control_gram(mesh: Mesh) -> sp.csr_matrix:
    """Gram matrix H = mass + stiffness (V x V) of the H1 inner product on
    the P1 vector control space.

    Both components of a control carry this same scalar block, so the H1
    product of controls p and q, (V, 2) arrays, is sum(p * (H @ q)).
    """
    mass, stiff = assemble_scalar_h1(mesh)
    return mass + stiff


def assemble_shape_derivative(mesh: Mesh, q: DeformationField, u: np.ndarray,
                              v: np.ndarray, lam: float) -> np.ndarray:
    """The nodal q-derivative of the bilinear form a(u, v) - lam m(u, v).

    Returns the (V, 2) coefficients [v, c] of the functional
    p -> a'(u,v)p - lam m'(u,v)p on the nodal basis function of vertex v,
    component c, of the control space, for full-length edge coefficient
    vectors u and v (zeros on constrained DOFs).  At a mass-normalized
    eigenpair (lam, u), whose multiplier is zero, the functional at v = u
    is lam', the shape derivative of the eigenvalue.

    It is the exact q-derivative of the element form that local_forms
    reads from h = J P (_gram_map): with su, sv the signed local
    coefficients of u and v, w = |T| / 3, P = DF^-T grad(lam) and C the
    symmetric coefficient that lam m(u, v) puts on the Gram
    Gamma = P P^T (_COEF_MAP), triangle t adds
    f = sum(su) sum(sv) / (|T| J) - w J <C, Gamma>.  As dJ = J P[v', c] and
    dP[v] = -P[v, c] P[v'] in the nodal direction (v', c), f' is row v',
    column c of (2 w J Gamma C - alpha I) P with
    alpha = sum(su) sum(sv) / (|T| J) + w J <C, Gamma>.
    """
    p = q.pulled_gradients
    jac = q.jacobian
    areas = mesh.areas
    signs = mesh.triangle_edge_signs
    su = signs * np.asarray(u)[mesh.triangle_edges]
    sv = signs * np.asarray(v)[mesh.triangle_edges]
    products = (lam * su[:, :, None] * sv[:, None, :]).reshape(-1, 9)
    coef = (products @ _COEF_MAP).reshape(-1, 3, 3)          # C
    pcp = p.transpose(0, 2, 1) @ (coef @ p)   # P^T C P, trace <C, Gamma>
    wj = QP_WEIGHT * areas * jac
    alpha = (su.sum(axis=1) * sv.sum(axis=1) / (areas * jac)
             + wj * (pcp[:, 0, 0] + pcp[:, 1, 1]))
    # Gamma C P = P (P^T C P)
    per_node = (2.0 * wj)[:, None, None] * (p @ pcp) - alpha[:, None, None] * p
    return sum_to_nodes(mesh, per_node)
