from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from maxshape import (
    DeformationField,
    DofMap,
    EigenSelection,
    ObjectiveParams,
    apply_dirichlet,
    assemble_control_gram,
    assemble_forms,
    assemble_shape_derivative,
    reduced_derivative,
    riesz_gradient,
    select_and_normalize,
    solve_adjoint,
    solve_gevp,
    solve_state,
    state_forms,
)
from maxshape.problem import MaxwellShapeProblem

from conftest import (
    gradient_incidence,
    implied_multiplier,
    random_feasible_control,
    saddle_pencil,
    zero_field,
)


@pytest.fixture(scope="module")
def setup6():
    import maxshape as ms

    mesh = ms.generate_unit_square(6)
    dofs = DofMap.from_mesh(mesh)
    sel = EigenSelection(index=0, nev=6, shift=8.0, tol=1e-9)
    return mesh, dofs, sel


@pytest.fixture(scope="module")
def gram6(setup6):
    return assemble_control_gram(setup6[0])


@pytest.fixture(scope="module")
def gram4(square4):
    """Control Gram H of square4 and a prefactored solver of it."""
    gram = assemble_control_gram(square4)
    return gram, spla.splu(gram.tocsc()).solve


def solve_at(mesh, dofs, q, sel):
    """solve_state of the state forms at deformation q."""
    return solve_state(state_forms(mesh, dofs, q), dofs, sel)


def direct_adjoint_mismatch(mesh, dofs, q, sel, state, adj):
    """Oracle: re-solve the adjoint eigenproblem and compare with adj.

    The adjoint problem equals the state problem, so an independent solve
    at a shifted shift, scaled by adj.scale, must reproduce z.
    Returns (err, ref): the 2-norm mismatch of z and max(|z|, 1).
    """
    forms = apply_dirichlet(assemble_forms(mesh, dofs, q), dofs)
    independent = replace(sel, shift=1.07 * sel.shift if sel.shift else None)
    direct = select_and_normalize(solve_gevp(forms, independent),
                                  independent, forms.M)
    z_dir = dofs.expand_edge(direct.u)
    # Align the arbitrary eigenvector sign with the state before scaling.
    if float(z_dir @ state.u) < 0:
        z_dir = -z_dir
    return (np.linalg.norm(adj.scale * z_dir - adj.z),
            max(np.linalg.norm(adj.z), 1.0))


class TestSolveState:
    def test_unit_square_ground_state(self, setup6):
        mesh, dofs, sel = setup6
        state = solve_at(mesh, dofs, zero_field(mesh), sel)
        assert state.lam == pytest.approx(np.pi ** 2, rel=0.03)
        assert len(state.u) == mesh.n_edges
        assert np.all(state.u[mesh.boundary_edges] == 0.0)
        assert state.divergence <= 1e-6     # the certificate travels along

    def test_translation_invariance(self, setup6):
        mesh, dofs, sel = setup6
        base = solve_at(mesh, dofs, zero_field(mesh), sel)
        shifted = solve_at(
            mesh, dofs,
            DeformationField(mesh, np.tile((0.4, -0.1), (mesh.n_vertices, 1))),
            sel)
        assert shifted.lam == pytest.approx(base.lam, rel=1e-9)


class TestMultiplierIsZero:
    """psi = 0 at every discrete eigenpair, since L psi = 0 (the module
    docstring of adjoint_gradient): the solver returns u alone and the
    reduced derivative drops psi."""

    @staticmethod
    def assert_psi_vanishes(mesh, dofs, q, state):
        # the multiplier the pair implies, with L = B^T G built here
        forms = apply_dirichlet(assemble_forms(mesh, dofs, q), dofs)
        psi = implied_multiplier(forms, gradient_incidence(mesh, dofs),
                                 state.lam, state.u[dofs.free.edges])
        assert np.abs(psi).max() <= 1e-8 * np.abs(state.u).max()
        assert state.divergence <= 1e-10

    def test_shuffled_cold_arpack(self, shuffled_mesh, rng):
        dofs = DofMap.from_mesh(shuffled_mesh)
        sel = EigenSelection(index=0, nev=6, shift=8.0, tol=1e-9)
        q = random_feasible_control(shuffled_mesh, rng, 0.01)
        self.assert_psi_vanishes(shuffled_mesh, dofs, q,
                                 solve_at(shuffled_mesh, dofs, q, sel))

    def test_raw_qz_oracle(self, square8, rng):
        # scipy's QZ on the whole mixed pencil, no solver code in between:
        # the vertex rows of every finite eigenvector are rounding.
        dofs = DofMap.from_mesh(square8)
        q = random_feasible_control(square8, rng, 0.01)
        forms = apply_dirichlet(assemble_forms(square8, dofs, q), dofs)
        k_mat, mt = saddle_pencil(forms)
        (alpha, beta), vr = scipy.linalg.eig(
            k_mat.toarray(), mt.toarray(), homogeneous_eigvals=True)
        finite = np.abs(beta) > 1e-8 * np.abs(beta).max()
        # one finite eigenvalue per edge DOF that is not a gradient, one
        # gradient per free vertex
        free = dofs.free
        assert finite.sum() == free.n_edge - (free.n - free.n_edge)
        assert np.all(np.abs((alpha[finite] / beta[finite]).imag) <= 1e-8)
        x = vr[:, finite].real
        n_e = forms.layout.n_edge
        assert np.all(np.abs(x[n_e:]).max(axis=0)
                      <= 1e-8 * np.abs(x[:n_e]).max(axis=0))

    def test_cold_arpack_and_warm_block(self, square16, rng):
        prob = MaxwellShapeProblem(
            square16, ObjectiveParams(lambda_target=1.05 * np.pi ** 2),
            EigenSelection(index=0, nev=8, tol=1e-8), seed=0)
        # the problem's first solve runs ARPACK, the second starts warm
        # from the first one's block
        for _ in range(2):
            q = random_feasible_control(square16, rng, 0.01)
            self.assert_psi_vanishes(square16, prob.dofs, q,
                                     prob.solve_state(q.values))


class TestEigenvalueDerivative:
    @pytest.mark.parametrize("case", ["square16", "shuffled"])
    def test_matches_central_differences(self, case, square16, shuffled_mesh,
                                         rng):
        # kernel(u, u, lam) is lam': compare it with central differences
        # of the tracked eigenvalue, re-solved at q +- h p.
        mesh = shuffled_mesh if case == "shuffled" else square16
        dofs = DofMap.from_mesh(mesh)
        sel = EigenSelection(index=0, nev=6, shift=8.0, tol=1e-10)
        q = random_feasible_control(mesh, rng, 0.01)
        state = solve_at(mesh, dofs, q, sel)
        lam_prime = assemble_shape_derivative(mesh, q, state.u, state.u,
                                              state.lam)
        h = 1e-5
        for _ in range(3):
            p = rng.standard_normal((mesh.n_vertices, 2))
            p /= np.abs(p).max()
            plus, minus = (solve_at(
                mesh, dofs, DeformationField(mesh, q.values + s * h * p),
                sel).lam for s in (1.0, -1.0))
            fd = (plus - minus) / (2 * h)
            assert abs(float(lam_prime.ravel() @ p.ravel()) - fd) \
                <= 1e-5 * abs(fd)


class TestSolveAdjoint:
    def test_zero_at_target(self, setup6):
        mesh, dofs, sel = setup6
        state = solve_at(mesh, dofs, zero_field(mesh), sel)
        adj = solve_adjoint(state, state.lam)
        assert np.all(adj.z == 0.0)

    def test_normalization_scaling(self, setup6):
        # m(u, z) = lambda_target - lambda for the mass-normalized state
        mesh, dofs, sel = setup6
        q = zero_field(mesh)
        state = solve_at(mesh, dofs, q, sel)
        target = state.lam - 2.0
        adj = solve_adjoint(state, target)
        forms = assemble_forms(mesh, dofs, q)
        m_uz = state.u @ (forms.M @ adj.z)
        assert m_uz == pytest.approx(target - state.lam, abs=1e-8)
        assert adj.scale == pytest.approx(-2.0, abs=1e-10)

    def test_direct_solve_verification(self, setup6):
        mesh, dofs, sel = setup6
        q = zero_field(mesh)
        state = solve_at(mesh, dofs, q, sel)
        adj = solve_adjoint(state, 0.9 * state.lam)
        err, ref = direct_adjoint_mismatch(mesh, dofs, q, sel, state, adj)
        assert err <= 1e-6 * ref
        np.testing.assert_allclose(adj.z, (0.9 * state.lam - state.lam) * state.u,
                                   atol=1e-10)

    def test_verification_catches_corruption(self, setup6):
        mesh, dofs, sel = setup6
        q = zero_field(mesh)
        state = solve_at(mesh, dofs, q, sel)
        corrupted = type(state)(lam=state.lam, u=2.0 * state.u,
                                residual=state.residual)
        adj = solve_adjoint(corrupted, 0.9 * state.lam)
        err, ref = direct_adjoint_mismatch(mesh, dofs, q, sel, corrupted, adj)
        assert err > 1e-6 * ref


class TestRieszGradient:
    def test_zero_functional(self, square4, gram4):
        grad = riesz_gradient(np.zeros((square4.n_vertices, 2)), *gram4)
        assert grad.norm_q == 0.0
        assert grad.vector.shape == (square4.n_vertices, 2)
        assert np.all(grad.vector == 0.0)

    def test_gram_round_trip(self, square4, gram4, rng):
        gram, solve = gram4
        w = rng.standard_normal((square4.n_vertices, 2))
        grad = riesz_gradient(gram @ w, gram, solve)
        np.testing.assert_allclose(grad.vector, w, atol=1e-10)
        # the layout of every control, so products with it copy nothing
        assert grad.vector.flags.c_contiguous

    def test_dual_norm_identity(self, square4, gram4, rng):
        func = rng.standard_normal((square4.n_vertices, 2))
        grad = riesz_gradient(func, *gram4)
        pairing = float(np.vdot(func, grad.vector))
        assert pairing == pytest.approx(grad.norm_q ** 2, rel=1e-10)

    def test_no_boundary_conditions_on_control(self, square4, gram4):
        # a functional supported on a boundary vertex still has a gradient
        coeffs = np.zeros((square4.n_vertices, 2))
        coeffs[square4.boundary_vertices[0], 0] = 1.0
        grad = riesz_gradient(coeffs, *gram4)
        assert grad.norm_q > 0
        vertex = square4.boundary_vertices[0]
        assert np.abs(grad.vector[vertex]).max() > 0


class TestReducedDerivative:
    def test_reduces_to_barrier_term_at_target(self, setup6, gram6):
        # lam = lam_*: the adjoint vanishes and only the cost's own
        # q-derivative survives; at q = 0 that is the barrier part alone.
        mesh, dofs, sel = setup6
        q = zero_field(mesh)
        state = solve_at(mesh, dofs, q, sel)
        params = ObjectiveParams(lambda_target=state.lam, alpha=0.7,
                                 beta=1e-6, epsilon=1e-4)
        adj = solve_adjoint(state, params.lambda_target)
        func = reduced_derivative(mesh, q, state, adj, params, gram6)
        from maxshape import derivative_q

        barrier_only = derivative_q(mesh, q, params, gram6)
        np.testing.assert_allclose(func, barrier_only, atol=1e-14)

    def test_rigid_translation_pairing(self, setup6, gram6, rng):
        # at q = 0 the form terms annihilate constants; the alpha-term pairs
        # (q, p) = 0 as well, so the whole functional vanishes on constants
        mesh, dofs, sel = setup6
        q = zero_field(mesh)
        state = solve_at(mesh, dofs, q, sel)
        params = ObjectiveParams(lambda_target=0.9 * state.lam, alpha=0.7)
        adj = solve_adjoint(state, params.lambda_target)
        func = reduced_derivative(mesh, q, state, adj, params, gram6)
        for c in range(2):
            p = np.zeros((mesh.n_vertices, 2))
            p[:, c] = 1.0
            assert abs(float(func.ravel() @ p.ravel())) \
                <= 1e-10 * np.abs(func).max()

    def test_sign_invariance_of_state(self, setup6, gram6):
        mesh, dofs, sel = setup6
        q = zero_field(mesh)
        state = solve_at(mesh, dofs, q, sel)
        params = ObjectiveParams(lambda_target=0.9 * state.lam, alpha=0.7)
        adj = solve_adjoint(state, params.lambda_target)
        func = reduced_derivative(mesh, q, state, adj, params, gram6)

        flipped = type(state)(lam=state.lam, u=-state.u,
                              residual=state.residual)
        adj_f = solve_adjoint(flipped, params.lambda_target)
        func_f = reduced_derivative(mesh, q, flipped, adj_f, params,
                                    gram6)
        np.testing.assert_array_equal(func, func_f)


class TestFullGradientFiniteDifference:
    """Flagship check: adjoint derivative vs re-solving finite differences."""

    @pytest.mark.parametrize("q_inf", [0.0, 0.05])
    def test_gradient_matches_fd(self, q_inf, rng):
        import maxshape as ms

        mesh = ms.generate_unit_square(6)
        sel = EigenSelection(index=0, nev=6, shift=8.0, tol=1e-9)
        lam0 = np.pi ** 2
        params = ObjectiveParams(lambda_target=0.9 * lam0, alpha=1e-3,
                                 beta=1e-6, epsilon=1e-4)
        prob = MaxwellShapeProblem(mesh, params, sel, seed=1)
        if q_inf == 0.0:
            q = prob.zero_control()
        else:
            q = random_feasible_control(mesh, rng, q_inf).values
        func, _ = prob.derivative_functional(q)
        h = 1e-5
        for _ in range(5):
            p = rng.standard_normal((mesh.n_vertices, 2))
            p /= prob.q_norm(p)
            fd = (prob.evaluate(q + h * p) - prob.evaluate(q - h * p)) / (2 * h)
            exact = float(np.vdot(func, p))
            assert abs(exact - fd) <= 1e-4 * max(1.0, abs(fd))

    def test_descent_property(self, rng):
        import maxshape as ms

        mesh = ms.generate_unit_square(4)
        sel = EigenSelection(index=0, nev=6, shift=8.0, tol=1e-9)
        params = ObjectiveParams(lambda_target=8.0, alpha=0.5)
        prob = MaxwellShapeProblem(mesh, params, sel, seed=2)
        grad, _ = prob.gradient(prob.zero_control())
        assert grad.norm_q > 0
        assert np.vdot(grad.vector, prob.q_apply(-grad.vector)) < 0
