import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from maxshape import (
    DeformationField,
    DofMap,
    apply_dirichlet,
    assemble_control_gram,
    assemble_forms,
    assemble_shape_derivative,
    generate_unit_square,
    parse_msh,
)
from maxshape.eigensolver import (
    PATTERN_ORDER_LU,
    SYMMETRIC_LU,
    EigenSelection,
    solve_gevp,
)
from maxshape.errors import InadmissibleDeformation, UnsupportedTopology
from maxshape.fem_assembly import (
    QP_WEIGHT,
    assemble_scalar_h1,
    local_forms,
)
from maxshape.mesh_io import Mesh
from maxshape.objective import ObjectiveParams
from maxshape.problem import MaxwellShapeProblem

from conftest import (
    SINGLE_TRIANGLE_MSH,
    TWO_TRIANGLE_MSH,
    _quadrature_shape_derivative,
    _whitney_local,
    assert_entries_close,
    dilation_control,
    gradient_incidence,
    holed_square,
    inverse_transpose,
    l_shape,
    random_feasible_control,
    saddle_pencil,
    two_squares,
    whitney_table,
    zero_field,
)


# Degree-5 triangle quadrature (7 points), used as an independent oracle.
_QW = np.array([0.225] + [0.125939180544827] * 3 + [0.132394152788506] * 3)
_a1, _b1 = 0.797426985353087, 0.101286507323456
_a2, _b2 = 0.059715871789770, 0.470142064105115
_QL = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_a1, _b1, _b1], [_b1, _a1, _b1], [_b1, _b1, _a1],
    [_a2, _b2, _b2], [_b2, _a2, _b2], [_b2, _b2, _a2],
])


def _oracle_forms(mesh, q):
    """Dense A, B, M integrated with the degree-5 rule (independent path)."""
    n_e, n_v = mesh.n_edges, mesh.n_vertices
    a = np.zeros((n_e, n_e))
    b = np.zeros((n_e, n_v))
    m = np.zeros((n_e, n_e))
    for t in range(mesh.n_triangles):
        gl = mesh.barycentric_gradients[t]
        df = np.eye(2) + q.values[mesh.triangles[t]].T @ gl
        jac = np.linalg.det(df)
        inv_t = np.linalg.inv(df).T
        area = mesh.areas[t]
        pairs, curls, glob = _whitney_local(mesh, t)
        tri = mesh.triangles[t]
        for w, lam in zip(_QW, _QL):
            nvals = [inv_t @ (lam[i] * gl[j] - lam[j] * gl[i])
                     for i, j in pairs]
            tg = [inv_t @ gl[v] for v in range(3)]
            for k in range(3):
                for l in range(3):
                    m[glob[k], glob[l]] += w * area * jac * nvals[k] @ nvals[l]
                    b[glob[k], tri[l]] += w * area * jac * nvals[k] @ tg[l]
        for k in range(3):
            for l in range(3):
                a[glob[k], glob[l]] += area / jac * curls[k] * curls[l]
    return a, b, m


class TestHandAssembly:
    def test_two_triangle_curl_matrix(self):
        # Unit square split along the 0-2 diagonal; constant Whitney curls
        # give A entries of (curl_i)(curl_j)*area, computed by hand.
        mesh = parse_msh(TWO_TRIANGLE_MSH)
        dofs = DofMap.from_mesh(mesh)
        forms = assemble_forms(mesh, dofs, zero_field(mesh))
        # edge order (lex): e0=(0,1) e1=(0,2) e2=(0,3) e3=(1,2) e4=(2,3)
        expected = np.array([
            [2.0, -2.0, 0.0, 2.0, 0.0],
            [-2.0, 4.0, -2.0, -2.0, 2.0],
            [0.0, -2.0, 2.0, 0.0, -2.0],
            [2.0, -2.0, 0.0, 2.0, 0.0],
            [0.0, 2.0, -2.0, 0.0, 2.0],
        ])
        np.testing.assert_allclose(forms.A.toarray(), expected, atol=1e-14)


class TestQuadratureExactness:
    @pytest.mark.parametrize("deform", ["zero", "random"])
    def test_forms_match_degree5_oracle(self, square4, rng, deform):
        if deform == "zero":
            q = zero_field(square4)
        else:
            q = random_feasible_control(square4, rng, 0.06)
        dofs = DofMap.from_mesh(square4)
        forms = assemble_forms(square4, dofs, q)
        a, b, m = _oracle_forms(square4, q)
        np.testing.assert_allclose(forms.A.toarray(), a, atol=1e-12)
        np.testing.assert_allclose(forms.B.toarray(), b, atol=1e-13)
        np.testing.assert_allclose(forms.M.toarray(), m, atol=1e-13)


class TestFormInvariants:
    def test_exact_symmetry(self, square4, rng):
        dofs = DofMap.from_mesh(square4)
        q = random_feasible_control(square4, rng, 0.05)
        forms = assemble_forms(square4, dofs, q)
        assert (forms.A != forms.A.T).nnz == 0
        assert (forms.M != forms.M.T).nnz == 0

    @pytest.mark.parametrize("deform", ["zero", "random"])
    def test_de_rham_kernel(self, square4, rng, deform):
        dofs = DofMap.from_mesh(square4)
        q = zero_field(square4) if deform == "zero" \
            else random_feasible_control(square4, rng, 0.05)
        forms = assemble_forms(square4, dofs, q)
        g_inc = gradient_incidence(square4, dofs, full=True)
        a_norm = np.abs(forms.A).max()
        for _ in range(5):
            psi = rng.standard_normal(square4.n_vertices)
            gpsi = g_inc @ psi
            assert np.abs(forms.A @ gpsi).max() <= \
                1e-12 * a_norm * max(np.abs(gpsi).max(), 1.0)
        # gradients of P1 functions lie in the edge space: B equals M G
        np.testing.assert_allclose((forms.B - forms.M @ g_inc).toarray(), 0.0,
                                   atol=1e-13)

    @pytest.mark.parametrize("case", ["square16", "shuffled", "random"])
    def test_elimination_premises_on_free_dofs(self, case, square16,
                                               shuffled_mesh, rng):
        # B = M G and A G = 0 on the reduced pencil, with G the gradient
        # incidence on its DOFs: the identities the shift-invert solve uses.
        mesh = shuffled_mesh if case == "shuffled" else square16
        q = (random_feasible_control(mesh, rng, 0.02) if case == "random"
             else zero_field(mesh))
        dofs = DofMap.from_mesh(mesh)
        red = apply_dirichlet(assemble_forms(mesh, dofs, q), dofs)
        g = gradient_incidence(mesh, dofs)
        free = dofs.free
        assert g.shape == (free.n_edge, free.n - free.n_edge)
        assert np.abs(red.B - red.M @ g).max() <= \
            1e-13 * np.abs(red.B).max()
        assert np.abs(red.A @ g).max() <= 1e-13 * np.abs(red.A).max()

    def test_mass_positive_definite_on_free_dofs(self, square2, rng):
        dofs = DofMap.from_mesh(square2)
        q = random_feasible_control(square2, rng, 0.05)
        red = apply_dirichlet(assemble_forms(square2, dofs, q), dofs)
        eigs = np.linalg.eigvalsh(red.M.toarray())
        assert eigs.min() > 0

    def test_curl_kernel_dimension(self, square2):
        # On free DOFs the kernel of A is exactly the discrete gradients.
        dofs = DofMap.from_mesh(square2)
        red = apply_dirichlet(
            assemble_forms(square2, dofs, zero_field(square2)), dofs)
        eigs = np.linalg.eigvalsh(red.A.toarray())
        n_fv = dofs.free.n - dofs.free.n_edge
        assert np.all(np.abs(eigs[:n_fv]) <= 1e-12)
        assert eigs[n_fv] > 1e-8

    def test_inadmissible_deformation(self, square2):
        # fold along the x axis only: DF = diag(-1, 1), jacobian -1
        vals = np.zeros((square2.n_vertices, 2))
        vals[:, 0] = -2.0 * square2.vertices[:, 0]
        q = DeformationField(square2, vals)
        dofs = DofMap.from_mesh(square2)
        with pytest.raises(InadmissibleDeformation):
            assemble_forms(square2, dofs, q)


class TestDofMapTopology:
    """DofMap.from_mesh takes connected meshes without holes only: on a
    mesh with a hole the kernel of A holds a harmonic field besides the
    gradients, and every solve failed."""

    @pytest.mark.parametrize("make", [lambda: holed_square(8),
                                      lambda: holed_square(16),
                                      lambda: two_squares(4)],
                             ids=["holed8", "holed16", "two squares"])
    def test_rejected(self, make):
        with pytest.raises(UnsupportedTopology,
                           match="component.*hole.*connected mesh without "
                                 "holes"):
            DofMap.from_mesh(make())

    @pytest.mark.parametrize("name", ["square2", "square4", "square8",
                                      "square16", "shuffled_mesh"])
    def test_fixtures_accepted(self, name, request):
        mesh = request.getfixturevalue(name)
        assert DofMap.from_mesh(mesh).full.n_edge == mesh.n_edges

    @pytest.mark.parametrize("make", [
        lambda: l_shape(4),
        lambda: parse_msh(SINGLE_TRIANGLE_MSH),
        lambda: parse_msh(TWO_TRIANGLE_MSH),
        lambda: Mesh(generate_unit_square(4).vertices * [1.0, 0.5],
                     generate_unit_square(4).triangles),
    ], ids=["L-shape", "one triangle", "two triangles", "rectangle"])
    def test_other_meshes_accepted(self, make):
        mesh = make()
        full = DofMap.from_mesh(mesh).full
        assert full.n - full.n_edge == mesh.n_vertices


class TestApplyDirichlet:
    def test_n1_counts(self):
        mesh = generate_unit_square(1)
        dofs = DofMap.from_mesh(mesh)
        assert dofs.free.n - dofs.free.n_edge == 0
        assert dofs.free.n_edge == 1

    def test_n2_counts(self, square2):
        dofs = DofMap.from_mesh(square2)
        assert dofs.free.n - dofs.free.n_edge == 1
        assert dofs.free.n_edge == 8

    def test_reduction_shapes_and_content(self, square2, rng):
        dofs = DofMap.from_mesh(square2)
        forms = assemble_forms(square2, dofs, zero_field(square2))
        red = apply_dirichlet(forms, dofs)
        assert red.A.shape == (8, 8)
        assert red.B.shape == (8, 1)
        fe, fv = dofs.free.edges, np.flatnonzero(~dofs.constrained_vertex)
        np.testing.assert_array_equal(red.A.toarray(),
                                      forms.A.toarray()[np.ix_(fe, fe)])
        np.testing.assert_array_equal(red.B.toarray(),
                                      forms.B.toarray()[np.ix_(fe, fv)])

    def test_rejects_forms_of_another_layout(self, square2):
        dofs = DofMap.from_mesh(square2)
        forms = assemble_forms(square2, dofs, zero_field(square2))
        with pytest.raises(ValueError):
            apply_dirichlet(forms, DofMap.from_mesh(square2))
        with pytest.raises(ValueError):
            apply_dirichlet(apply_dirichlet(forms, dofs), dofs)

    def test_expansion_zero_trace(self, square2, rng):
        dofs = DofMap.from_mesh(square2)
        u = dofs.expand_edge(rng.standard_normal(dofs.free.n_edge))
        assert np.all(u[square2.boundary_edges] == 0.0)


def _largest_angle(mesh):
    corners = mesh.vertices[mesh.triangles]                  # (T, 3, 2)
    u = np.roll(corners, -1, axis=1) - corners
    v = np.roll(corners, 1, axis=1) - corners
    cos = np.einsum("tvi,tvi->tv", u, v) / (
        np.linalg.norm(u, axis=2) * np.linalg.norm(v, axis=2))
    return float(np.arccos(cos.min()))


def _einsum_local_forms(mesh, q):
    """b_loc and m_loc as midpoint sums of DF^-T N: the element einsums that
    the Gram closed form of local_forms replaced."""
    jac, inv_t = q.jacobian, inverse_transpose(q)
    values, _ = whitney_table(mesh)
    tn = np.einsum("tij,tkpj->tkpi", inv_t, values)
    tg = np.einsum("tij,tvj->tvi", inv_t, mesh.barycentric_gradients)
    w = (QP_WEIGHT * mesh.areas * jac)[:, None, None]
    return (w * np.einsum("tkpi,tvi->tkv", tn, tg),
            w * np.einsum("tkpi,tlpi->tkl", tn, tn))


def assert_same_sparse(got, want):
    """Same format, shape and compressed arrays, entry for entry."""
    assert (got.format, got.shape) == (want.format, want.shape)
    np.testing.assert_array_equal(got.indptr, want.indptr)
    np.testing.assert_array_equal(got.indices, want.indices)
    np.testing.assert_array_equal(got.data, want.data)


def _coo_pencil(mesh, dofs, q):
    """Full and reduced K and Mt by COO to CSR conversion and fancy
    slicing, the path the fixed pattern replaced: its oracle.  The reduced
    pair is sliced in the free numbering of dofs, with each row's indices
    sorted."""
    a_loc, b_loc, m_loc = local_forms(mesh, q)
    edges = mesh.triangle_edges
    rows = np.repeat(edges, 3, axis=1).ravel()
    cols = np.tile(edges, (1, 3)).ravel()
    verts = dofs.full.n_edge + np.tile(mesh.triangles, (1, 3)).ravel()
    shape = (dofs.full.n, dofs.full.n)
    b_vals = b_loc.ravel()
    k_mat = sp.coo_matrix(
        (np.concatenate([a_loc.ravel(), b_vals, b_vals]),
         (np.concatenate([rows, rows, verts]),
          np.concatenate([cols, verts, rows]))), shape=shape).tocsr()
    mt = sp.coo_matrix((m_loc.ravel(), (rows, cols)), shape=shape).tocsr()
    free = np.concatenate([dofs.free.edges, dofs.full.n_edge
                           + np.flatnonzero(~dofs.constrained_vertex)])
    return (k_mat, mt, k_mat[np.ix_(free, free)].sorted_indices(),
            mt[np.ix_(free, free)].sorted_indices())


def _pattern_mesh(n, request):
    """The mesh of a pattern test and its cells per unit length: the n x n
    square, the shuffled 8 x 8 square or the L-shape with 4 cells per unit
    length."""
    if n == "shuffled":
        return request.getfixturevalue("shuffled_mesh"), 8
    if n == "L4":
        return l_shape(4), 4
    return generate_unit_square(n), n


class TestFixedPattern:
    @pytest.mark.parametrize("n", [4, 16, "shuffled", "L4"])
    @pytest.mark.parametrize("deformed", [False, True])
    def test_bit_identical_to_coo_path(self, n, deformed, rng, request):
        mesh, n = _pattern_mesh(n, request)
        dofs = DofMap.from_mesh(mesh)
        q = (random_feasible_control(mesh, rng, 0.2 / n) if deformed
             else zero_field(mesh))
        full = assemble_forms(mesh, dofs, q)
        red = apply_dirichlet(full, dofs)
        k_mat, mt, k_red, mt_red = _coo_pencil(mesh, dofs, q)
        for forms, k_want, mt_want in ((full, k_mat, mt),
                                       (red, k_red, mt_red)):
            n_e = forms.layout.n_edge
            assert k_want.shape == (forms.layout.n, forms.layout.n)
            assert_same_sparse(forms.A, k_want[:n_e, :n_e])
            assert_same_sparse(forms.M, mt_want[:n_e, :n_e])
            assert_same_sparse(forms.BT, k_want[n_e:, :n_e])
        for sigma in (9.0, 40.0):
            assert_same_sparse(red.edge_shift(sigma),
                               (red.A - sigma * red.M).tocsc())
        assert_same_sparse(red.BT, red.B.T.tocsr())

    def test_edge_shift_rounds_as_a_minus_sigma_m(self, square16, rng):
        # built as m * -sigma, then += a: each entry is the one rounding
        # of a - sigma * m on a deformed pencil
        dofs = DofMap.from_mesh(square16)
        red = apply_dirichlet(assemble_forms(
            square16, dofs, random_feasible_control(square16, rng, 0.01)),
            dofs)
        for sigma in (9.0, 9.3, 40.0 / 3.0):
            np.testing.assert_array_equal(red.edge_shift(sigma).data,
                                          red.A.data - sigma * red.M.data)

    def test_edge_shift_keeps_the_mass_pattern(self, square4):
        # At q = 0 entries of B cancel exactly and stay explicit zeros of
        # B^T and of the saddle matrix built from it; no entry of
        # A - sigma*M cancels, so its factorization sees M's pattern at
        # every control.
        dofs = DofMap.from_mesh(square4)
        red = apply_dirichlet(
            assemble_forms(square4, dofs, zero_field(square4)), dofs)
        assert np.any(red.BT.data == 0.0)
        shifted = red.edge_shift(9.0)
        assert shifted.nnz == red.M.nnz == 172
        assert saddle_pencil(red)[0].nnz == shifted.nnz + 2 * red.BT.nnz
        assert np.all(shifted.data != 0.0)

    def test_pencils_share_no_writable_array(self, square4, rng):
        dofs = DofMap.from_mesh(square4)
        full = assemble_forms(square4, dofs,
                              random_feasible_control(square4, rng, 0.05))
        one = apply_dirichlet(full, dofs)
        two = apply_dirichlet(assemble_forms(
            square4, dofs, random_feasible_control(square4, rng, 0.05)), dofs)
        zero = apply_dirichlet(assemble_forms(
            square4, dofs, zero_field(square4)), dofs)
        matrices = [full.A, full.M, full.BT, one.A, one.M, one.BT,
                    two.A, two.M, two.BT, one.edge_shift(9.0), zero.A,
                    zero.BT, zero.edge_shift(9.0)]
        snapshot = [(m.data.copy(), m.indices.copy(), m.indptr.copy())
                    for m in matrices]
        for i, m in enumerate(matrices):
            mutable = [m.data]
            if m.indices.flags.writeable:
                mutable += [m.indices, m.indptr]
            else:   # the layout's arrays, shared and read-only
                for arr in (m.indices, m.indptr):
                    with pytest.raises(ValueError):
                        arr[0] = 0
            for arr in mutable:
                arr += 1
            for j, other in enumerate(matrices):
                if j != i:
                    for got, want in zip(
                            (other.data, other.indices, other.indptr),
                            snapshot[j]):
                        np.testing.assert_array_equal(got, want)
            for arr, orig in zip(mutable, snapshot[i]):
                arr[:] = orig

    @pytest.mark.parametrize("n", [4, 16, "shuffled", "L4"])
    def test_free_numbering_is_a_permutation_of_the_free_edges(self, n,
                                                                request):
        mesh, _ = _pattern_mesh(n, request)
        dofs = DofMap.from_mesh(mesh)
        ascending = np.setdiff1d(np.arange(mesh.n_edges), mesh.boundary_edges)
        free = dofs.free.edges
        np.testing.assert_array_equal(np.sort(free), ascending)
        assert np.any(np.diff(free) < 0)

    @pytest.mark.parametrize("n", [16, 32, "shuffled", "L4"])
    def test_numbering_is_the_minimum_degree_order(self, n, rng, request):
        # S = A - sigma*M factored in the free numbering without
        # reordering has the fill, and the order, that MMD_AT_PLUS_A finds
        # on the ascending numbering
        mesh, n = _pattern_mesh(n, request)
        dofs = DofMap.from_mesh(mesh)
        shift = apply_dirichlet(assemble_forms(
            mesh, dofs, random_feasible_control(mesh, rng, 0.1 / n)),
            dofs).edge_shift(9.3)
        position = np.argsort(dofs.free.edges)    # of the k-th lowest edge
        ascending = shift[position][:, position].tocsc().sorted_indices()
        mmd = spla.splu(ascending, **SYMMETRIC_LU)
        natural = spla.splu(shift, **PATTERN_ORDER_LU)
        np.testing.assert_array_equal(mmd.perm_c, position)
        np.testing.assert_array_equal(natural.perm_c, np.arange(len(position)))
        assert (natural.L.nnz + natural.U.nnz
                == mmd.L.nnz + mmd.U.nnz)

    def test_draws_give_each_edge_its_ascending_value(self, square8):
        # the cold start vector and the warm guard column draw one value
        # per free edge in ascending edge order, whatever the numbering
        problem = MaxwellShapeProblem(
            square8, ObjectiveParams(lambda_target=9.0),
            EigenSelection(nev=6, shift=9.0, tol=1e-9), seed=3)
        dofs = problem.dofs
        ascending = np.setdiff1d(np.arange(square8.n_edges),
                                 square8.boundary_edges)
        for drawn, seed in ((problem._v0, 3),
                            (dofs.free.guard[:, 0], 0)):
            np.testing.assert_array_equal(
                dofs.expand_edge(drawn)[ascending],
                np.random.default_rng(seed).standard_normal(len(ascending)))

    def test_built_once_across_solve_state_calls(self, square8, monkeypatch):
        built = []
        real = DofMap.from_mesh

        def spy(mesh):
            built.append(mesh)
            return real(mesh)

        monkeypatch.setattr(DofMap, "from_mesh", spy)
        problem = MaxwellShapeProblem(
            square8, ObjectiveParams(lambda_target=9.0),
            EigenSelection(nev=6, shift=9.0, tol=1e-9))
        q = dilation_control(square8, 0.01).values
        for scale in (0.0, 1.0, 2.0):
            problem.solve_state(scale * q)
        assert built == [square8]

    def test_local_forms_match_einsum_oracle(self, square16, rng):
        q = random_feasible_control(square16, rng, 0.01)
        _, b_loc, m_loc = local_forms(square16, q)
        b_want, m_want = _einsum_local_forms(square16, q)
        assert_entries_close(m_loc, m_want)
        assert_entries_close(b_loc, b_want)

    def test_local_forms_match_einsum_oracle_on_shuffled_mesh(
            self, shuffled_mesh, rng):
        mesh = shuffled_mesh
        assert len({tuple(s) for s in mesh.triangle_edge_signs}) == 6
        assert _largest_angle(mesh) > 0.55 * np.pi
        q = random_feasible_control(mesh, rng, 0.01)
        _, b_loc, m_loc = local_forms(mesh, q)
        b_want, m_want = _einsum_local_forms(mesh, q)
        assert_entries_close(m_loc, m_want)
        assert_entries_close(b_loc, b_want)
        assert np.array_equal(m_loc, m_loc.transpose(0, 2, 1))

    def test_local_forms_match_einsum_oracle_on_a_sheared_field(
            self, square16, rng):
        # DF ~ [[1, 3], [0, 0.01]]: the adjugate-pulled gradients carry no
        # 1 / J, so the forms keep the oracle's accuracy at J ~ 1e-2
        y = square16.vertices[:, 1]
        shear = np.column_stack([3.0 * y, -0.99 * y])
        q = DeformationField(
            square16, shear + rng.uniform(-1e-5, 1e-5, shear.shape))
        assert 5e-3 < q.jacobian.min() < 2e-2
        _, b_loc, m_loc = local_forms(square16, q)
        b_want, m_want = _einsum_local_forms(square16, q)
        assert_entries_close(m_loc, m_want, rtol=1e-12)
        assert_entries_close(b_loc, b_want, rtol=1e-12)


class TestPencilLayout:
    """A, M and B^T on the layout's shared index arrays."""

    @pytest.mark.parametrize("deformed", [False, True])
    @pytest.mark.parametrize("reduced", [False, True])
    def test_blocks(self, square4, rng, deformed, reduced):
        # A and M are exactly symmetric, which edge_shift's reading of
        # their CSR arrays as CSC relies on; B^T has a row per vertex DOF
        dofs = DofMap.from_mesh(square4)
        q = (random_feasible_control(square4, rng, 0.05) if deformed
             else zero_field(square4))
        forms = assemble_forms(square4, dofs, q)
        if reduced:
            forms = apply_dirichlet(forms, dofs)
        layout = dofs.free if reduced else dofs.full
        assert forms.layout is layout
        n_e = layout.n_edge
        for mat in (forms.A, forms.M):
            assert mat.shape == (n_e, n_e)
            assert_same_sparse(mat, mat.T.tocsr())
        assert forms.BT.shape == (layout.n - n_e, n_e)

    @pytest.mark.parametrize("reduced", [False, True])
    def test_edge_blocks_on_the_mass_layout(self, square4, rng, reduced):
        # A and M are built on the layout's edge index arrays, B^T on its
        # vertex-row arrays; no block is sliced from another matrix
        dofs = DofMap.from_mesh(square4)
        forms = assemble_forms(square4, dofs,
                               random_feasible_control(square4, rng, 0.05))
        if reduced:
            forms = apply_dirichlet(forms, dofs)
        lay = forms.layout
        for block in (forms.A, forms.M):
            assert np.shares_memory(block.indices, lay.edge_indices)
            assert np.shares_memory(block.indptr, lay.edge_indptr)
        assert np.shares_memory(forms.BT.indices, lay.bt_indices)
        assert np.shares_memory(forms.BT.indptr, lay.bt_indptr)
        for sigma in (9.3, -2.5):
            shifted = forms.edge_shift(sigma)
            np.testing.assert_array_equal(
                shifted.data, forms.A.data - sigma * forms.M.data)
            np.testing.assert_array_equal(
                shifted.toarray(), (forms.A - sigma * forms.M).toarray())


class TestEigenvalueScaling:
    """Transform correctness stated at the eigenvalue level."""

    @pytest.mark.parametrize("s", [-0.1, 0.1, 0.3])
    def test_dilation_scales_spectrum(self, square4, s):
        dofs = DofMap.from_mesh(square4)
        sel = EigenSelection(nev=6, shift=15.0, tol=1e-9)
        base = solve_gevp(apply_dirichlet(
            assemble_forms(square4, dofs, zero_field(square4)),
            dofs), sel)
        sel_s = EigenSelection(nev=6, shift=15.0 / (1 + s) ** 2, tol=1e-9)
        scaled = solve_gevp(apply_dirichlet(
            assemble_forms(square4, dofs, dilation_control(square4, s)),
            dofs), sel_s)
        lam0 = np.array([p.lam for p in base])
        lam_s = np.array([p.lam for p in scaled])
        np.testing.assert_allclose(lam_s, lam0 / (1 + s) ** 2, rtol=1e-3)

    def test_translation_invariance(self, square4):
        dofs = DofMap.from_mesh(square4)
        sel = EigenSelection(nev=6, shift=15.0, tol=1e-9)
        base = solve_gevp(apply_dirichlet(
            assemble_forms(square4, dofs, zero_field(square4)),
            dofs), sel)
        shift_field = DeformationField(
            square4, np.tile((0.3, -0.2), (square4.n_vertices, 1)))
        moved = solve_gevp(apply_dirichlet(
            assemble_forms(square4, dofs, shift_field), dofs), sel)
        for p0, p1 in zip(base, moved):
            assert abs(p1.lam - p0.lam) <= 1e-8 + 1e-8 * abs(p0.lam)


class TestShapeDerivative:
    def test_zero_state_gives_zero_functional(self, square2):
        zero = np.zeros(square2.n_edges)
        func = assemble_shape_derivative(
            square2, zero_field(square2), zero, zero, 3.0)
        assert func.shape == (square2.n_vertices, 2)
        assert np.all(func == 0.0)

    def test_translation_directions_annihilated(self, square4, rng):
        # The functional depends on p only through its gradient, so pairing
        # with any constant field must vanish identically.
        q = random_feasible_control(square4, rng, 0.05)
        u = rng.standard_normal(square4.n_edges)
        v = rng.standard_normal(square4.n_edges)
        func = assemble_shape_derivative(square4, q, u, v, 2.5)
        scale = np.abs(func).max()
        for c in range(2):
            assert abs(func[:, c].sum()) <= 1e-12 * scale

    @pytest.mark.parametrize("case", ["square16", "shuffled"])
    def test_matches_quadrature_oracle(self, case, square16, shuffled_mesh,
                                       rng):
        # The Gram closed form against the midpoint-rule product-rule kernel
        # it replaced, on every edge-sign pattern.  The oracle is the
        # derivative of -a(u,z) - b(z,psi) - b(u,chi) + lam m(u,z); with
        # psi = chi = 0 it is the negated kernel.
        mesh = shuffled_mesh if case == "shuffled" else square16
        if case == "shuffled":
            assert len({tuple(s) for s in mesh.triangle_edge_signs}) == 6
        q = random_feasible_control(mesh, rng, 0.01)
        u = rng.standard_normal(mesh.n_edges)
        z = rng.standard_normal(mesh.n_edges)
        zero = np.zeros(mesh.n_vertices)
        func = assemble_shape_derivative(mesh, q, u, z, 12.3)
        assert_entries_close(
            func,
            -_quadrature_shape_derivative(mesh, q, u, zero, z, zero, 12.3),
            rtol=1e-14)

    def test_frozen_coefficient_finite_difference(self, square4, shuffled_mesh,
                                                  rng):
        # Central differences of q -> a(u,v) - lam*m(u,v) with frozen
        # coefficient vectors, evaluated through the assembled matrices (a
        # path independent of the derivative assembly), on square4's two
        # edge-sign patterns and the shuffled mesh's six.
        for mesh in (square4, shuffled_mesh):
            dofs = DofMap.from_mesh(mesh)
            qv = random_feasible_control(mesh, rng, 0.04)
            lam = 2.7
            u = rng.standard_normal(mesh.n_edges)
            v = rng.standard_normal(mesh.n_edges)
            func = assemble_shape_derivative(mesh, qv, u, v, lam)

            def frozen_value(qfield):
                forms = assemble_forms(mesh, dofs, qfield)
                return u @ (forms.A @ v) - lam * u @ (forms.M @ v)

            h = 1e-6
            for _ in range(5):
                p = rng.standard_normal((mesh.n_vertices, 2))
                p /= np.abs(p).max()
                plus = frozen_value(DeformationField(mesh, qv.values + h * p))
                minus = frozen_value(DeformationField(mesh, qv.values - h * p))
                fd = (plus - minus) / (2 * h)
                exact = float(func.ravel() @ p.ravel())
                assert abs(exact - fd) <= 1e-4 * max(1.0, abs(fd))


class TestControlGram:
    def test_block_structure(self, square2):
        # The Gram is the scalar H1 block H = mass + stiff that both
        # components of a control carry, not kron(H, I_2).
        mass, stiff = assemble_scalar_h1(square2)
        gram = assemble_control_gram(square2)
        assert gram.shape == (square2.n_vertices, square2.n_vertices)
        np.testing.assert_array_equal(gram.toarray(),
                                      (mass + stiff).toarray())

    def test_h1_norm_of_linear_field(self, square4):
        # q(x) = (x, 0): ||q||^2 = 1/3, ||grad q||^2 = 1 on the unit square.
        gram = assemble_control_gram(square4)
        vals = np.zeros((square4.n_vertices, 2))
        vals[:, 0] = square4.vertices[:, 0]
        assert np.sum(vals * (gram @ vals)) == pytest.approx(1.0 / 3.0 + 1.0,
                                                             rel=1e-12)

    def test_mass_exactness_against_oracle(self, square2):
        mass, _ = assemble_scalar_h1(square2)
        dense = np.zeros((square2.n_vertices, square2.n_vertices))
        for t in range(square2.n_triangles):
            tri = square2.triangles[t]
            for w, lam in zip(_QW, _QL):
                for i in range(3):
                    for j in range(3):
                        dense[tri[i], tri[j]] += \
                            w * square2.areas[t] * lam[i] * lam[j]
        np.testing.assert_allclose(mass.toarray(), dense, atol=1e-14)
