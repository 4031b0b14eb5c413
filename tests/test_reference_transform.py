import numpy as np
import pytest

from maxshape import DeformationField, jacobian_range, parse_msh
from maxshape.errors import InadmissibleDeformation
from maxshape.reference_transform import jacobian_derivative, sum_to_nodes

from conftest import (
    SINGLE_TRIANGLE_MSH,
    assert_entries_close,
    dilation_control,
    inv_t_derivative,
    inverse_transpose,
    random_feasible_control,
    zero_field,
)

# The unit right triangle: the P1 gradient of an affine field is exact on it.
TRIANGLE = parse_msh(SINGLE_TRIANGLE_MSH)


def affine_field(mesh, g):
    """Nodal coefficients of q(x) = g x, whose gradient is g everywhere."""
    return DeformationField(mesh, mesh.vertices @ np.asarray(g).T)


def kinematics_of(grad_q):
    """J and DF^-T for the displacement gradient grad_q, via the batched code:
    on TRIANGLE grad lam_1 and grad lam_2 are e_1 and e_2, so the pulled
    gradients of vertices 1 and 2 are the columns of DF^-T."""
    q = affine_field(TRIANGLE, grad_q)
    return q.jacobian[0], q.pulled_gradients[0, 1:].T


def jacobian_derivative_along(grad_q, grad_p):
    """Derivative of J at grad_q in the direction of the field grad_p x."""
    q = affine_field(TRIANGLE, grad_q)
    d_jac = jacobian_derivative(q)[0]                         # (3, 2)
    return np.einsum("vc,vc->", affine_field(TRIANGLE, grad_p).values, d_jac)


# Weights e_i e_j^T: pairing with them reads DF^-T's derivative entry (i, j).
UNIT_WEIGHTS = np.eye(4).reshape(4, 2, 2)


def nodal_inv_t_derivative(q):
    """(T, 3, 2, 2, 2) derivatives of DF^-T in the nodal directions, entry
    (i, j) of [t, v, c] read from inv_t_derivative with weight e_i e_j^T."""
    entries = [inv_t_derivative(q, np.broadcast_to(e, q.gradient.shape))
               for e in UNIT_WEIGHTS]
    return np.stack(entries, axis=-1).reshape(*entries[0].shape, 2, 2)


def inv_t_derivative_along(grad_q, grad_p):
    """Derivative of DF^-T at grad_q in the direction of the field grad_p x."""
    d_inv_t = nodal_inv_t_derivative(affine_field(TRIANGLE, grad_q))[0]
    return np.einsum("vc,vcij->ij", affine_field(TRIANGLE, grad_p).values,
                     d_inv_t)


class TestKinematicsAt:
    def test_identity(self):
        jac, inv_t = kinematics_of(np.zeros((2, 2)))
        assert jac == 1.0
        np.testing.assert_array_equal(inv_t, np.eye(2))

    @pytest.mark.parametrize("s", [-0.3, 0.1, 0.5])
    def test_uniform_dilation(self, s):
        jac, inv_t = kinematics_of(s * np.eye(2))
        assert jac == pytest.approx((1 + s) ** 2, rel=1e-14)
        np.testing.assert_allclose(inv_t, np.eye(2) / (1 + s), rtol=1e-14)

    def test_shear_example(self):
        jac, _ = kinematics_of(np.array([[0.1, 0.2], [0.0, -0.1]]))
        assert jac == pytest.approx(0.99, rel=1e-14)

    def test_inverse_consistency(self, rng):
        for _ in range(10):
            g = 0.3 * rng.standard_normal((2, 2))
            _, inv_t = kinematics_of(g)
            np.testing.assert_allclose((np.eye(2) + g) @ inv_t.T, np.eye(2),
                                       atol=1e-13)

    def test_singular_raises(self):
        with pytest.raises(InadmissibleDeformation):
            kinematics_of(np.array([[-1.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(InadmissibleDeformation):
            kinematics_of(np.array([[-2.0, 0.0], [0.0, 0.0]]))


class TestDetDerivative:
    def test_at_identity_is_divergence(self, rng):
        for _ in range(5):
            gp = rng.standard_normal((2, 2))
            exact = jacobian_derivative_along(np.zeros((2, 2)), gp)
            assert exact == pytest.approx(np.trace(gp), rel=1e-14)

    @pytest.mark.parametrize("s", [-0.2, 0.15])
    def test_dilation(self, s):
        # d/dt det((1+s+t) I) at t=0 equals 2 (1+s)
        exact = jacobian_derivative_along(s * np.eye(2), np.eye(2))
        assert exact == pytest.approx(2 * (1 + s), rel=1e-14)

    def test_finite_difference(self, rng):
        for _ in range(10):
            gq = 0.3 * rng.standard_normal((2, 2))
            gp = rng.standard_normal((2, 2))
            exact = jacobian_derivative_along(gq, gp)
            errs = []
            for h in (1e-4, 1e-5):
                fd = (np.linalg.det(np.eye(2) + gq + h * gp)
                      - np.linalg.det(np.eye(2) + gq - h * gp)) / (2 * h)
                errs.append(abs(fd - exact))
            assert errs[0] <= 1e-6 * max(1.0, abs(exact))
            # det of a 2x2 is quadratic: central differences are exact
            assert errs[1] <= 1e-9

    def test_nodal_directions_on_mesh(self, square4, rng):
        # Entry [t, v, c] is the derivative of J on triangle t when vertex
        # triangles[t, v] moves along axis c.
        q = DeformationField(square4,
                             0.05 * rng.standard_normal((square4.n_vertices, 2)))
        d_jac = jacobian_derivative(q)
        h = 1e-6
        for t, v, c in ((0, 0, 0), (5, 1, 1), (17, 2, 0)):
            p = np.zeros((square4.n_vertices, 2))
            p[square4.triangles[t, v], c] = 1.0
            plus = DeformationField(square4, q.values + h * p).jacobian
            minus = DeformationField(square4, q.values - h * p).jacobian
            fd = (plus[t] - minus[t]) / (2 * h)
            assert abs(fd - d_jac[t, v, c]) <= 1e-8


class TestInvTDerivative:
    def test_at_identity(self, rng):
        gp = rng.standard_normal((2, 2))
        np.testing.assert_allclose(
            inv_t_derivative_along(np.zeros((2, 2)), gp), -gp.T, rtol=1e-14)

    @pytest.mark.parametrize("s", [-0.2, 0.15])
    def test_dilation(self, s):
        np.testing.assert_allclose(
            inv_t_derivative_along(s * np.eye(2), np.eye(2)),
            -np.eye(2) / (1 + s) ** 2, rtol=1e-13)

    def test_finite_difference(self, rng):
        for _ in range(10):
            gq = 0.3 * rng.standard_normal((2, 2))
            gp = rng.standard_normal((2, 2))
            exact = inv_t_derivative_along(gq, gp)
            h = 1e-6
            plus = np.linalg.inv(np.eye(2) + gq + h * gp).T
            minus = np.linalg.inv(np.eye(2) + gq - h * gp).T
            fd = (plus - minus) / (2 * h)
            assert np.linalg.norm(fd - exact) <= 1e-7 * max(
                1.0, np.linalg.norm(exact))

    def test_fd_order_two(self, rng):
        gq = 0.2 * rng.standard_normal((2, 2))
        gp = rng.standard_normal((2, 2))
        exact = inv_t_derivative_along(gq, gp)
        errs = []
        for h in (1e-2, 1e-3):
            plus = np.linalg.inv(np.eye(2) + gq + h * gp).T
            minus = np.linalg.inv(np.eye(2) + gq - h * gp).T
            errs.append(np.linalg.norm((plus - minus) / (2 * h) - exact))
        assert errs[1] <= errs[0] / 50.0  # O(h^2) decay

    def test_nodal_directions_on_mesh(self, square4, rng):
        q = DeformationField(square4,
                             0.05 * rng.standard_normal((square4.n_vertices, 2)))
        d_inv_t = nodal_inv_t_derivative(q)
        h = 1e-6
        for t, v, c in ((0, 0, 0), (5, 1, 1), (17, 2, 0)):
            p = np.zeros((square4.n_vertices, 2))
            p[square4.triangles[t, v], c] = 1.0
            plus = inverse_transpose(DeformationField(square4,
                                                      q.values + h * p))
            minus = inverse_transpose(DeformationField(square4,
                                                       q.values - h * p))
            fd = (plus[t] - minus[t]) / (2 * h)
            np.testing.assert_allclose(d_inv_t[t, v, c], fd, atol=1e-7)


class TestGradientAt:
    def test_zero_field(self, square2):
        q = zero_field(square2)
        np.testing.assert_array_equal(q.gradient,
                                      np.zeros((square2.n_triangles, 2, 2)))

    def test_affine_reproduction(self, square4, rng):
        a_mat = rng.standard_normal((2, 2))
        q = affine_field(square4, a_mat)
        for grad in q.gradient:
            np.testing.assert_allclose(grad, a_mat, atol=1e-12)

    def test_pointwise_fd_inside_triangle(self, square4, rng):
        q = DeformationField(square4,
                             0.1 * rng.standard_normal((square4.n_vertices, 2)))

        def interpolate(x, t):
            tri = square4.triangles[t]
            verts = square4.vertices[tri]
            mat = np.column_stack([verts[1] - verts[0], verts[2] - verts[0]])
            loc = np.linalg.solve(mat, x - verts[0])
            lam = np.array([1 - loc.sum(), loc[0], loc[1]])
            return lam @ q.values[tri]

        t = 5
        centroid = square4.vertices[square4.triangles[t]].mean(axis=0)
        grad = q.gradient[t]
        h = 1e-7
        for j, e in enumerate(np.eye(2)):
            fd = (interpolate(centroid + h * e, t)
                  - interpolate(centroid - h * e, t)) / (2 * h)
            np.testing.assert_allclose(grad[:, j], fd, atol=1e-6)

    def test_gradient_all_matches(self, square4, rng):
        # Oracle: the edge vectors of the displaced and the reference
        # triangle are related by grad q, so grad q = dQ dX^-1.
        q = DeformationField(square4,
                             0.1 * rng.standard_normal((square4.n_vertices, 2)))
        allg = q.gradient
        for t in (0, 3, 17):
            tri = square4.triangles[t]
            d_x = (square4.vertices[tri[1:]] - square4.vertices[tri[0]]).T
            d_q = (q.values[tri[1:]] - q.values[tri[0]]).T
            np.testing.assert_allclose(allg[t], d_q @ np.linalg.inv(d_x),
                                       atol=1e-14)


class TestMatmulKernels:
    """The batched 2x2 products against the einsum forms they replaced."""

    def test_gradient_all(self, square16, rng):
        q = random_feasible_control(square16, rng, 0.01)
        vals = q.values[square16.triangles]
        assert_entries_close(q.gradient, np.einsum(
            "tvi,tvj->tij", vals, square16.barycentric_gradients))

    def test_pulled_gradients(self, square16, rng):
        q = random_feasible_control(square16, rng, 0.01)
        assert_entries_close(q.pulled_gradients, np.einsum(
            "tij,tvj->tvi", inverse_transpose(q),
            square16.barycentric_gradients))


class TestJacobianRange:
    def test_identity(self, square2):
        assert jacobian_range(zero_field(square2)) == (1.0, 1.0)

    @pytest.mark.parametrize("s", [-0.1, 0.2])
    def test_dilation(self, square2, s):
        jmin, jmax = jacobian_range(dilation_control(square2, s))
        assert jmin == pytest.approx((1 + s) ** 2, rel=1e-13)
        assert jmax == pytest.approx((1 + s) ** 2, rel=1e-13)


class TestDeformationField:
    def test_flat_vector_rejected(self, square2):
        # one layout: the (V, 2) array; its interleaved ravel is refused
        flat = np.zeros(2 * square2.n_vertices)
        with pytest.raises(ValueError, match=r"shape \(18,\)"):
            DeformationField(square2, flat)

    def test_shape_validation(self, square2):
        with pytest.raises(ValueError):
            DeformationField(square2, np.zeros((3, 2)))

    @pytest.mark.parametrize("fortran", [False, True])
    def test_caller_array_changes_nothing(self, square4, rng, fortran):
        # a Fortran-ordered array is what a column solve returns
        vals = 0.01 * rng.standard_normal((square4.n_vertices, 2))
        want = DeformationField(square4, vals.copy())
        if fortran:
            vals = np.asfortranarray(vals)
        q = DeformationField(square4, vals)
        jac = q.jacobian
        vals[:] = 0.3                       # the caller reuses its buffer
        np.testing.assert_array_equal(q.values, want.values)
        np.testing.assert_array_equal(q.jacobian, want.jacobian)
        assert q.jacobian is jac
        assert vals.flags.writeable
        with pytest.raises(ValueError):
            q.values[0, 0] = 1.0

    def test_kinematics_computed_once(self, square4, rng):
        q = random_feasible_control(square4, rng, 0.01)
        for name in ("gradient", "jacobian", "pulled_gradients"):
            assert getattr(q, name) is getattr(q, name)

    def test_folded_field(self, square4):
        # DF = diag(-1, 1) mirrors every triangle: J = -1 everywhere
        q = affine_field(square4, np.diag([-2.0, 0.0]))
        np.testing.assert_allclose(q.jacobian, -1.0, rtol=1e-14)
        assert jacobian_range(q) == pytest.approx((-1.0, -1.0), rel=1e-14)
        for _ in range(2):                  # raises on every access
            with pytest.raises(InadmissibleDeformation):
                q.adjugate_gradients()
            with pytest.raises(InadmissibleDeformation):
                q.pulled_gradients


class TestSumToNodes:
    def test_matches_add_at_bit_for_bit(self, square4, rng):
        # the bincount sums in input order, as np.add.at does
        per_node = rng.standard_normal((square4.n_triangles, 3, 2))
        initial = rng.standard_normal((square4.n_vertices, 2))
        want = np.zeros_like(initial)
        np.add.at(want, square4.triangles, per_node)
        np.testing.assert_array_equal(sum_to_nodes(square4, per_node), want)
        want = initial.copy()
        np.add.at(want, square4.triangles, per_node)
        np.testing.assert_array_equal(
            sum_to_nodes(square4, per_node, initial), want)
