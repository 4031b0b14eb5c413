import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from maxshape import (
    DeformationField,
    EigenSelection,
    ObjectiveParams,
    OptimizerConfig,
    assemble_control_gram,
    generate_unit_square,
)
from maxshape.fem_assembly import EDGE_MIDPOINTS, QP_WEIGHT
from maxshape.mesh_io import LOCAL_EDGES, Mesh
from maxshape.problem import MaxwellShapeProblem
from maxshape.reference_transform import jacobian_derivative, sum_to_nodes

# Smallest finite eigenvalues of the PEC Maxwell problem on the unit square:
# pi^2 * (m^2 + n^2) for integers m, n >= 0, not both zero.
SQUARE_SPECTRUM = np.pi ** 2 * np.array([1.0, 1.0, 2.0, 4.0, 4.0, 5.0, 5.0])

# Dauge's reference values of the five smallest eigenvalues on the L-shape
# (-1, 1)^2 minus [0, 1] x [-1, 0] ("Benchmark computations for Maxwell
# equations for the approximation of highly singular solutions", 2004).
L_SHAPE_SPECTRUM = np.array([1.47562182408, 3.53403136678, 9.86960440109,
                             9.86960440109, 11.3894793979])

# Reference cavity weighting: regularization weight 100 at target scale 6017.
CAVITY_ALPHA = 100.0
CAVITY_TARGET = 6017.0

TWO_TRIANGLE_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
4
1 0 0 0
2 1 0 0
3 1 1 0
4 0 1 0
$EndNodes
$Elements
6
1 1 2 0 1 1 2
2 1 2 0 1 2 3
3 1 2 0 1 3 4
4 1 2 0 1 4 1
5 2 2 0 1 1 2 3
6 2 2 0 1 1 3 4
$EndElements
"""

SINGLE_TRIANGLE_MSH = """$MeshFormat
2.2 0 8
$EndMeshFormat
$Nodes
3
1 0 0 0
2 1 0 0
3 0 1 0
$EndNodes
$Elements
4
1 1 2 0 1 1 2
2 1 2 0 1 2 3
3 1 2 0 1 3 1
4 2 2 0 1 1 2 3
$EndElements
"""


@pytest.fixture(scope="session")
def square2():
    return generate_unit_square(2)


@pytest.fixture(scope="session")
def square4():
    return generate_unit_square(4)


@pytest.fixture(scope="session")
def square8():
    return generate_unit_square(8)


@pytest.fixture(scope="session")
def square16():
    return generate_unit_square(16)


@pytest.fixture(scope="session")
def shuffled_mesh():
    """The 8x8 square with interior vertices moved by up to h/5 per
    coordinate and all vertices renumbered at random: every local edge-sign
    pattern occurs, and some triangles are obtuse."""
    base = generate_unit_square(8)
    rng = np.random.default_rng(11)
    verts = base.vertices.copy()
    interior = np.setdiff1d(np.arange(base.n_vertices), base.boundary_vertices)
    verts[interior] += rng.uniform(-0.2, 0.2, (len(interior), 2)) / 8
    number = rng.permutation(base.n_vertices)   # new number of each vertex
    shuffled = np.empty_like(verts)
    shuffled[number] = verts
    return Mesh(shuffled, number[base.triangles])


def l_shape(n):
    """The L-shape of L_SHAPE_SPECTRUM with n cells per unit length: the
    2n x 2n grid of (-1, 1)^2 (generate_unit_square's diagonals) without
    the triangles of the cut quadrant, its vertices renumbered."""
    square = generate_unit_square(2 * n)
    vertices = 2.0 * square.vertices - 1.0
    centroids = vertices[square.triangles].mean(axis=1)
    cut = (centroids[:, 0] > 0.0) & (centroids[:, 1] < 0.0)
    used, triangles = np.unique(square.triangles[~cut], return_inverse=True)
    return Mesh(vertices[used], triangles.reshape(-1, 3))


def holed_square(n):
    """The n x n unit-square grid without the cells whose centre lies
    within 0.25 of (0.5, 0.5) in both coordinates, its vertices renumbered:
    a square with one square hole, whose rim is a boundary."""
    square = generate_unit_square(n)
    corners = square.vertices[square.triangles]
    centres = 0.5 * (corners.min(axis=1) + corners.max(axis=1))
    cut = np.all(np.abs(centres - 0.5) < 0.25, axis=1)
    used, triangles = np.unique(square.triangles[~cut], return_inverse=True)
    return Mesh(square.vertices[used], triangles.reshape(-1, 3))


def two_squares(n):
    """Two disjoint n x n unit squares, the second shifted by 2 in x."""
    square = generate_unit_square(n)
    vertices = np.concatenate([square.vertices, square.vertices + [2.0, 0.0]])
    return Mesh(vertices, np.concatenate(
        [square.triangles, square.triangles + square.n_vertices]))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def nan_on_solve(monkeypatch):
    """nan_on_solve(k) makes every factor the eigensolver builds from then
    on put a NaN in the result of its k-th solve."""
    import maxshape.eigensolver as es

    class NanOnSolve:
        def __init__(self, lu, k):
            self.lu, self.k, self.solves = lu, k, 0

        def solve(self, rhs, *args, **kwargs):
            self.solves += 1
            x = self.lu.solve(rhs, *args, **kwargs)
            if self.solves == self.k:
                x.flat[0] = np.nan
            return x

        def __getattr__(self, name):
            return getattr(self.lu, name)

    class NanLinalg:
        def __init__(self, k):
            self.k = k

        def __getattr__(self, name):
            return getattr(spla, name)

        def splu(self, mat, **kwargs):
            return NanOnSolve(spla.splu(mat, **kwargs), self.k)

    def install(k):
        monkeypatch.setattr(es, "spla", NanLinalg(k))
    return install


def random_feasible_control(mesh, rng, q_inf, epsilon=1e-4):
    """Random nodal deformation with given max norm, redrawn until feasible."""
    from maxshape.reference_transform import jacobian_range

    for _ in range(100):
        vals = rng.uniform(-1.0, 1.0, size=(mesh.n_vertices, 2))
        vals *= q_inf / np.abs(vals).max()
        q = DeformationField(mesh, vals)
        if jacobian_range(q)[0] > 2.0 * epsilon:
            return q
    raise AssertionError("could not draw a feasible deformation")


def desk_problem(mesh):
    """The desk configuration on mesh: lambda* = 1.05 lambda0, lambda0
    probed there at shift 9.

    The regularization weight is scaled so that alpha / lambda0^2 keeps the
    reference cavity weighting CAVITY_ALPHA / CAVITY_TARGET^2; with the raw
    weight 100 the eigenvalue-targeting term could never reach J <= 1e-6 at
    this eigenvalue scale.  Returns the problem, lambda0 and the optimizer
    configuration with the default k_max.
    """
    probe_sel = EigenSelection(index=0, nev=8, shift=9.0, tol=1e-8)
    probe = MaxwellShapeProblem(
        mesh, ObjectiveParams(lambda_target=1.0, alpha=0.0), probe_sel, seed=0)
    lam0 = probe.solve_state(probe.zero_control()).lam

    lam_star = 1.05 * lam0
    alpha = CAVITY_ALPHA * (lam0 / CAVITY_TARGET) ** 2
    params = ObjectiveParams(lambda_target=lam_star, alpha=alpha,
                             beta=1e-6, epsilon=1e-4)
    sel = EigenSelection(index=0, nev=8, shift=0.9 * lam_star, tol=1e-8)
    problem = MaxwellShapeProblem(mesh, params, sel, seed=0)
    return problem, lam0, OptimizerConfig(tol=1e-7, b0_scale=1.0 / alpha)


def kron_gram(mesh):
    """Dense interleaved control Gram kron(H, I_2) on flat controls
    (x0, y0, x1, y1, ...): the oracle of applying H to each component of a
    (V, 2) control."""
    return np.kron(assemble_control_gram(mesh).toarray(), np.eye(2))


def oracle_mesh(case, request):
    """The mesh of a kron oracle test: the shuffled 8 x 8 square, whose
    interior vertices are moved, or the L-shape with 4 cells per unit
    length."""
    if case == "shuffled":
        return request.getfixturevalue("shuffled_mesh")
    return l_shape(4)


def saddle_pencil(forms):
    """The whole mixed pencil (K, Mt) of the forms, CSR, edge DOFs first:
    K = [[A, B], [B^T, 0]] and Mt = [[M, 0], [0, 0]]."""
    n_v = forms.BT.shape[0]
    k_mat = sp.bmat([[forms.A, forms.B], [forms.BT, None]], format="csr")
    mt = sp.bmat([[forms.M, None], [None, sp.csr_matrix((n_v, n_v))]],
                 format="csr")
    return k_mat, mt


def gradient_incidence(mesh, dofs, full=False):
    """G, the gradient incidence (edge x vertex) on the free DOFs of dofs,
    or on all of them if full: -1 at each edge's low end, +1 at its high
    end, a constrained vertex of the free layout left out.  B = M G and
    A G = 0 hold on the forms of that layout."""
    layout = dofs.full if full else dofs.free
    kept = np.full(mesh.n_vertices, full) | ~dofs.constrained_vertex
    ends = np.where(kept, np.cumsum(kept) - 1, -1)[mesh.edges[layout.edges]]
    on = ends >= 0
    rows = np.broadcast_to(np.arange(len(ends))[:, None], ends.shape)
    signs = np.broadcast_to([-1.0, 1.0], ends.shape)
    return sp.csr_matrix((signs[on], (rows[on], ends[on])),
                         shape=(len(ends), np.count_nonzero(kept)))


def implied_multiplier(forms, grad, lam, u):
    """psi = lam L^{-1} B^T u, L = B^T G: the multiplier that G^T times
    the first pencil row A u + B psi = lam M u implies for a pair (lam, u)
    of the reduced forms, with grad the gradient incidence on their DOFs."""
    return lam * spla.spsolve((forms.BT @ grad).tocsc(), forms.BT @ u)


def assert_entries_close(got, want, rtol=1e-15):
    """Largest entry difference at most rtol times the largest entry: the
    tolerance of a reordered kernel, which a BLAS build may round apart."""
    assert got.shape == want.shape
    diff = np.abs(got - want).max()
    assert diff <= rtol * np.abs(want).max(), f"largest difference {diff:.3e}"


def dilation_control(mesh, s, center=(0.5, 0.5)):
    """Nodal coefficients of q(x) = s * (x - center)."""
    return DeformationField(mesh, s * (mesh.vertices - np.asarray(center)))


def zero_field(mesh):
    """The undeformed field of mesh."""
    return DeformationField(mesh, np.zeros((mesh.n_vertices, 2)))


# -- quadrature-point oracles ------------------------------------------------
# The element kernels that the Gram closed forms of fem_assembly replaced:
# the Whitney basis tabulated at the edge midpoints, and the shape
# derivative summed over those points through the derivative of DF^-T.

def _whitney_local(mesh, t):
    """Per-triangle Whitney data: (ordered pairs, curls, global edges)."""
    tri = mesh.triangles[t]
    gl = mesh.barycentric_gradients[t]
    pairs, curls = [], []
    for a, b in LOCAL_EDGES:
        i, j = (a, b) if tri[a] < tri[b] else (b, a)
        pairs.append((i, j))
        curls.append(2.0 * (gl[i, 0] * gl[j, 1] - gl[i, 1] * gl[j, 0]))
    return pairs, np.array(curls), mesh.triangle_edges[t]


def whitney_table(mesh):
    """Lowest-order edge basis of every triangle at its edge midpoints.

    Returns values (T, 3, 3, 2) indexed [triangle, local edge, midpoint,
    component] and the constant curls (T, 3).  The function of local edge k
    is lam_i grad(lam_j) - lam_j grad(lam_i), where (i, j) is LOCAL_EDGES[k]
    ordered by ascending global vertex index.
    """
    first, second = np.array(LOCAL_EDGES).T
    forward = mesh.triangle_edge_signs > 0
    lo = np.where(forward, first, second)           # (T, 3) local vertex
    hi = np.where(forward, second, first)
    rows = np.arange(mesh.n_triangles)[:, None]
    g_lo = mesh.barycentric_gradients[rows, lo]     # (T, 3, 2)
    g_hi = mesh.barycentric_gradients[rows, hi]
    curls = 2.0 * (g_lo[..., 0] * g_hi[..., 1] - g_lo[..., 1] * g_hi[..., 0])
    bary = EDGE_MIDPOINTS.T                         # (vertex, midpoint)
    values = (bary[lo][..., None] * g_hi[:, :, None, :]
              - bary[hi][..., None] * g_lo[:, :, None, :])
    return values, curls


def inverse_transpose(q):
    """(T, 2, 2) DF^-T of q by np.linalg.inv: the oracle of the adjugate
    kinematics, which form no inverse."""
    return np.linalg.inv(np.eye(2) + q.gradient).transpose(0, 2, 1)


def inv_t_derivative(q, weight):
    """(T, 3, 2) derivatives of <weight, DF^-T> in the nodal directions.

    The derivative of DF^-T in the direction e_c grad(lam_v)^T is
    -(DF^-T grad lam_v)(DF^-1 e_c)^T, so entry [t, v, c], its pairing with
    the (T, 2, 2) weight, is row v, column c of -(DF^-T grad lam) weight DF^-1.
    """
    df_inv = np.ascontiguousarray(inverse_transpose(q).transpose(0, 2, 1))
    return -(q.pulled_gradients @ (weight @ df_inv))


def _quadrature_shape_derivative(mesh, q, u, psi, z, chi, lam):
    """(V, 2) coefficients of -a'(u,z) - b'(z,psi) - b'(u,chi) + lam m'(u,z)
    by the product rule on the forms summed over the edge midpoints."""
    inv_t, jac = inverse_transpose(q), q.jacobian
    values, curls = whitney_table(mesh)
    areas = mesh.areas
    w = QP_WEIGHT * areas
    edges, tris = mesh.triangle_edges, mesh.triangles

    ue = np.asarray(u)[edges]                        # (T, 3)
    ze = np.asarray(z)[edges]
    uvec = np.einsum("tk,tkpi->tpi", ue, values)     # u_h at the points
    zvec = np.einsum("tk,tkpi->tpi", ze, values)
    gpsi = np.einsum("tv,tvi->ti", np.asarray(psi)[tris],
                     mesh.barycentric_gradients)     # grad psi_h
    gchi = np.einsum("tv,tvi->ti", np.asarray(chi)[tris],
                     mesh.barycentric_gradients)
    df_inv = np.ascontiguousarray(inv_t.transpose(0, 2, 1))
    tu, tz = uvec @ df_inv, zvec @ df_inv            # DF^-T u, DF^-T z
    tgpsi = np.einsum("tij,tj->ti", inv_t, gpsi)
    tgchi = np.einsum("tij,tj->ti", inv_t, gchi)
    u_sum, z_sum, tu_sum, tz_sum = (np.einsum("tpi->ti", x)
                                    for x in (uvec, zvec, tu, tz))

    # Each form carries J or 1/J and DF^-T on both slots, so its derivative
    # in the nodal direction [t, v, c] is factor_jac * J' + <weight, d(DF^-T)>.
    curl_uz = np.einsum("tk,tk->t", ue, curls) * np.einsum("tk,tk->t", ze, curls)
    factor_jac = (areas * curl_uz / jac ** 2
                  - w * (np.einsum("ti,ti->t", tz_sum, tgpsi)
                         + np.einsum("ti,ti->t", tu_sum, tgchi))
                  + lam * w * np.einsum("tpi,tpi->t", tu, tz))
    # the weight is a sum of outer products x y^T: lam tz_p u_p^T and
    # lam tu_p z_p^T at the three points, minus four rank-one terms
    left = np.concatenate([lam * tz, lam * tu,
                           -np.stack([tgpsi, tz_sum, tgchi, tu_sum], axis=1)],
                          axis=1)
    right = np.concatenate([uvec, zvec,
                            np.stack([z_sum, gpsi, u_sum, gchi], axis=1)],
                           axis=1)
    weight = (w * jac)[:, None, None] * (left.transpose(0, 2, 1) @ right)
    per_node = (jacobian_derivative(q) * factor_jac[:, None, None]
                + inv_t_derivative(q, weight))
    return sum_to_nodes(mesh, per_node)
