import math

import numpy as np
import pytest

from maxshape import (
    DeformationField,
    ObjectiveParams,
    assemble_control_gram,
    derivative_q,
    evaluate,
)
from maxshape.errors import InadmissibleDeformation
from maxshape.objective import state_free_terms

from conftest import (
    dilation_control,
    kron_gram,
    oracle_mesh,
    random_feasible_control,
    zero_field,
)


@pytest.fixture(scope="module")
def gram(square4):
    return assemble_control_gram(square4)


@pytest.fixture
def params():
    return ObjectiveParams(lambda_target=10.0, alpha=2.0, beta=1e-6,
                           epsilon=1e-4)


def value(mesh, q, lam, params, gram):
    """The cost at (q, lam): the state-free terms at q plus the target."""
    return evaluate(state_free_terms(mesh, q, params, gram), lam, params)


class TestEvaluate:
    def test_reference_value_at_zero(self, square4, params, gram):
        # q = 0, lam = lam_*: only the barrier survives, -beta*|O|*ln(1-eps).
        zero = zero_field(square4)
        val = value(square4, zero, 10.0, params, gram)
        expected = -params.beta * math.log(1.0 - params.epsilon)
        assert val == pytest.approx(expected, rel=1e-12)
        assert abs(val) < 2e-10

    def test_target_term(self, square4, params, gram):
        zero = zero_field(square4)
        base = value(square4, zero, 10.0, params, gram)
        val = value(square4, zero, 11.0, params, gram)
        assert val - base == pytest.approx(0.5, rel=1e-12)

    def test_regularization_term(self, square4, params, gram):
        # q(x) = (x, 0): ||q||^2 + ||grad q||^2 = 1/3 + 1 exactly.
        vals = np.zeros((square4.n_vertices, 2))
        vals[:, 0] = square4.vertices[:, 0]
        q = DeformationField(square4, vals)
        val = value(square4, q, 10.0, params, gram)
        reg = 0.5 * params.alpha * (1.0 / 3.0 + 1.0)
        barrier = -params.beta * 2.0 * math.log(2.0 - params.epsilon) / 2.0
        # jacobian is 2 on every triangle for this stretch
        assert val == pytest.approx(reg - params.beta * math.log(2.0 - params.epsilon),
                                    rel=1e-10)

    @pytest.mark.parametrize("case", ["shuffled", "L4"])
    def test_regularization_matches_kron_oracle(self, case, request, rng):
        # H applied to the (V, 2) control against the interleaved Gram
        mesh = oracle_mesh(case, request)
        q = random_feasible_control(mesh, rng, 0.05)
        params = ObjectiveParams(lambda_target=10.0, alpha=1.7, beta=0.0)
        val = value(mesh, q, params.lambda_target, params,
                       assemble_control_gram(mesh))
        flat = q.values.ravel()
        want = 0.5 * params.alpha * flat @ (kron_gram(mesh) @ flat)
        assert abs(val - want) <= 1e-14 * want

    def test_infeasible_returns_inf(self, square4, params, gram):
        # jacobian (1+s)^2 <= eps for s close to -1
        q = dilation_control(square4, -0.999)
        assert value(square4, q, 10.0, params, gram) == math.inf

    def test_barrier_monotonicity(self, square4, params, gram):
        # larger shrink -> jacobian closer to eps -> strictly larger barrier
        vals = []
        for s in (-0.3, -0.6, -0.9):
            q = dilation_control(square4, s)
            lam = params.lambda_target  # isolate the barrier + regularization
            reg = value(square4, q, lam,
                           ObjectiveParams(lambda_target=lam, alpha=0.0,
                                           beta=params.beta,
                                           epsilon=params.epsilon), gram)
            vals.append(reg)
        assert vals[0] < vals[1] < vals[2]

    def test_term_sum_decomposition(self, square4, rng, gram):
        q = random_feasible_control(square4, rng, 0.05)
        lam, lam_t = 9.3, 10.0
        full = ObjectiveParams(lambda_target=lam_t, alpha=1.7, beta=1e-5,
                               epsilon=1e-4)
        target_only = value(square4, q, lam,
                               ObjectiveParams(lam_t, alpha=0.0, beta=0.0),
                               gram)
        with_reg = value(square4, q, lam,
                            ObjectiveParams(lam_t, alpha=1.7, beta=0.0), gram)
        with_all = value(square4, q, lam, full, gram)
        barrier_only = value(square4, q, lam_t,
                                ObjectiveParams(lam_t, alpha=0.0, beta=1e-5),
                                gram)
        assert with_all == pytest.approx(
            target_only + (with_reg - target_only) + barrier_only, rel=1e-12)


class TestDerivativeQ:
    def test_zero_on_constants_at_origin(self, square4, params, gram):
        zero = zero_field(square4)
        func = derivative_q(square4, zero, params, gram)
        for c in range(2):
            assert abs(func[:, c].sum()) <= 1e-14

    def test_identity_gradient_direction(self, square4, params, gram):
        # pairing with p(x) = x gives -2*beta*|O|/(1-eps) at q = 0
        zero = zero_field(square4)
        func = derivative_q(square4, zero, params, gram)
        p = square4.vertices.copy()
        expected = -2.0 * params.beta / (1.0 - params.epsilon)
        assert float(func.ravel() @ p.ravel()) == pytest.approx(expected,
                                                                rel=1e-12)

    def test_finite_difference(self, square4, rng, params, gram):
        for _ in range(5):
            q = random_feasible_control(square4, rng, 0.05)
            func = derivative_q(square4, q, params, gram)
            h = 1e-6
            p = rng.standard_normal((square4.n_vertices, 2))
            p /= np.abs(p).max()
            plus = value(square4,
                            DeformationField(square4, q.values + h * p),
                            params.lambda_target, params, gram)
            minus = value(square4,
                             DeformationField(square4, q.values - h * p),
                             params.lambda_target, params, gram)
            fd = (plus - minus) / (2 * h)
            exact = float(func.ravel() @ p.ravel())
            assert abs(exact - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_infeasible_raises(self, square4, params, gram):
        q = dilation_control(square4, -0.999)
        with pytest.raises(InadmissibleDeformation):
            derivative_q(square4, q, params, gram)


class TestObjectiveParams:
    def test_epsilon_range(self):
        with pytest.raises(ValueError):
            ObjectiveParams(lambda_target=1.0, epsilon=1.0)
        with pytest.raises(ValueError):
            ObjectiveParams(lambda_target=1.0, epsilon=0.0)

    def test_nonnegative_weights(self):
        with pytest.raises(ValueError):
            ObjectiveParams(lambda_target=1.0, alpha=-1.0)

    @pytest.mark.parametrize("alpha", [math.nan, math.inf])
    def test_alpha_finite_and_nonnegative(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            ObjectiveParams(lambda_target=1.0, alpha=alpha)

    @pytest.mark.parametrize("beta", [math.nan, math.inf, -1e-6])
    def test_beta_finite_and_nonnegative(self, beta):
        with pytest.raises(ValueError, match="beta"):
            ObjectiveParams(lambda_target=1.0, beta=beta)

    @pytest.mark.parametrize("target", [0.0, -5.0, math.nan, math.inf])
    def test_positive_finite_target(self, target):
        # the derived shift 0.9 * lambda_target must be finite and not 0
        with pytest.raises(ValueError, match="lambda_target"):
            ObjectiveParams(lambda_target=target)
