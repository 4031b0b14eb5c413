import dataclasses
import math
from types import SimpleNamespace

import numpy as np
import pytest

from maxshape import (
    BfgsHistory,
    OptimizeStatus,
    OptimizerConfig,
    apply_inverse_hessian,
    armijo,
    assemble_control_gram,
    damp,
    generate_unit_square,
    optimize,
)
from maxshape import bfgs_optimizer
from maxshape.errors import DegenerateCurvature, LineSearchFailed


@pytest.fixture(scope="module")
def gram10():
    """10-dimensional principal block of the control Gram kron(H, I_2) of a
    2x2 grid."""
    h = assemble_control_gram(generate_unit_square(2)).toarray()
    return np.kron(h, np.eye(2))[:10, :10]


def qdot(gram, u, v):
    return float(u @ (gram @ v))


def push_pair(hist, gram, d_tilde, y):
    """Store (d~, y) with its Gram products Q d~ and Q y, as optimize does."""
    hist.push(d_tilde, y, gram @ d_tilde, gram @ y)


def dense_operator(hist, gram):
    """Dense product form of the inverse updates, from the pairs (d~, y) alone.

    B <- (I - rho d~ y^T Q) B (I - rho y d~^T Q) + rho d~ d~^T Q, oldest pair
    first, with rho = 1 / (d~, y)_Q taken from the Gram, starting from
    B_0 = gamma I, gamma = (d~, y)_Q / (y, y)_Q of the newest pair (b0_scale
    without pairs).
    """
    eye = np.eye(gram.shape[0])
    gamma = hist.b0_scale
    if hist.pairs:
        newest = hist.pairs[-1]
        gamma = ((newest.d_tilde @ gram @ newest.y)
                 / (newest.y @ gram @ newest.y))
    b = gamma * eye
    for p in hist.pairs:
        rho = 1.0 / (p.d_tilde @ gram @ p.y)
        left = eye - rho * np.outer(p.d_tilde, p.y) @ gram
        right = eye - rho * np.outer(p.y, p.d_tilde) @ gram
        b = left @ b @ right + rho * np.outer(p.d_tilde, p.d_tilde) @ gram
    return b


def push_random_pairs(hist, gram, rng, count, dim):
    """Feed damped random pairs through the production path."""
    for _ in range(count):
        y = rng.standard_normal(dim)
        d = rng.standard_normal(dim)
        d_damped, _ = damp(y, gram @ y, d, hist, xi=0.2)
        push_pair(hist, gram, d_damped, y)


class TestApplyInverseHessian:
    def test_empty_history_is_scaled_identity(self, rng):
        hist = BfgsHistory(b0_scale=2.5)
        g = rng.standard_normal(10)
        np.testing.assert_allclose(apply_inverse_hessian(hist, g), 2.5 * g,
                                   rtol=1e-15)

    def test_degenerate_pair_is_identity_update(self, gram10, rng):
        # d~ = B0 y makes every correction term cancel
        hist = BfgsHistory(b0_scale=0.7)
        y = rng.standard_normal(10)
        push_pair(hist, gram10, 0.7 * y, y)
        g = rng.standard_normal(10)
        np.testing.assert_allclose(apply_inverse_hessian(hist, g), 0.7 * g,
                                   rtol=1e-12, atol=1e-14)

    def test_matches_dense_oracle(self, gram10, rng):
        hist = BfgsHistory(b0_scale=1.3, m_mem=10)
        push_random_pairs(hist, gram10, rng, 3, 10)
        dense = dense_operator(hist, gram10)
        for _ in range(10):
            g = rng.standard_normal(10)
            recursive = apply_inverse_hessian(hist, g)
            np.testing.assert_allclose(recursive, dense @ g, rtol=1e-12,
                                       atol=1e-12)

    def test_pairs_keep_their_gram_products(self, gram10, rng):
        hist = BfgsHistory(b0_scale=1.0, m_mem=10)
        push_random_pairs(hist, gram10, rng, 3, 10)
        for p in hist.pairs:
            np.testing.assert_array_equal(p.qd, gram10 @ p.d_tilde)
            np.testing.assert_array_equal(p.qy, gram10 @ p.y)
            assert p.rho == 1.0 / float(p.d_tilde @ p.qy)
            assert p.yy == float(p.y @ p.qy)

    def test_b0_scale_read_only_while_empty(self, gram10, rng):
        # after the first pair, B_0 = gamma I with gamma = (d~, y)_Q / (y, y)_Q
        # of the newest pair, whatever b0_scale was
        source = BfgsHistory(b0_scale=1.0, m_mem=10)
        push_random_pairs(source, gram10, rng, 4, 10)
        small = BfgsHistory(b0_scale=1e-3, m_mem=10)
        large = BfgsHistory(b0_scale=1e3, m_mem=10)
        for p in source.pairs:
            for hist in (small, large):
                push_pair(hist, gram10, p.d_tilde, p.y)
        newest = source.pairs[-1]
        assert small.gamma == large.gamma == pytest.approx(
            qdot(gram10, newest.d_tilde, newest.y)
            / qdot(gram10, newest.y, newest.y), rel=1e-14)
        for _ in range(5):
            g = rng.standard_normal(10)
            np.testing.assert_array_equal(apply_inverse_hessian(small, g),
                                          apply_inverse_hessian(large, g))

    def test_secant_property_when_undamped(self, gram10, rng):
        # theta = 1 pushes the raw pair; the update must map y to d~
        hist = BfgsHistory(b0_scale=1.0)
        y = rng.standard_normal(10)
        by = apply_inverse_hessian(hist, y)
        d = by + 3.0 * y  # (y, d)_Q > (y, By)_Q: no damping needed
        d_damped, theta = damp(y, gram10 @ y, d, hist, xi=0.2)
        assert theta == 1.0
        push_pair(hist, gram10, d_damped, y)
        np.testing.assert_allclose(apply_inverse_hessian(hist, y), d,
                                   rtol=1e-10)


class TestDamp:
    def test_no_damping_branch(self, gram10, rng):
        hist = BfgsHistory(b0_scale=1.0)
        y = rng.standard_normal(10)
        d = apply_inverse_hessian(hist, y) * 2.0
        d_new, theta = damp(y, gram10 @ y, d, hist, xi=0.2)
        assert theta == 1.0
        np.testing.assert_array_equal(d_new, d)

    def test_strongly_negative_curvature(self, gram10, rng):
        # (y, d)_Q = -(y, By)_Q gives theta = (1-xi)/2 and post-damping
        # curvature exactly xi*(y, By)_Q
        hist = BfgsHistory(b0_scale=1.0)
        y = rng.standard_normal(10)
        by = apply_inverse_hessian(hist, y)
        yby = qdot(gram10, y, by)
        d = rng.standard_normal(10)
        d -= by * (qdot(gram10, y, d) / yby)        # (y, d)_Q = 0
        d -= by                                      # (y, d)_Q = -(y, By)_Q
        assert qdot(gram10, y, d) == pytest.approx(-yby, rel=1e-12)
        d_new, theta = damp(y, gram10 @ y, d, hist, xi=0.2)
        assert theta == pytest.approx(0.4, rel=1e-12)
        assert qdot(gram10, y, d_new) == pytest.approx(0.2 * yby, rel=1e-10)

    def test_zero_curvature(self, gram10, rng):
        hist = BfgsHistory(b0_scale=1.0)
        y = rng.standard_normal(10)
        by = apply_inverse_hessian(hist, y)
        yby = qdot(gram10, y, by)
        d = rng.standard_normal(10)
        d -= by * (qdot(gram10, y, d) / yby)
        assert abs(qdot(gram10, y, d)) <= 1e-12 * yby
        d_new, theta = damp(y, gram10 @ y, d, hist, xi=0.2)
        assert theta == pytest.approx(0.8, rel=1e-10)
        assert qdot(gram10, y, d_new) == pytest.approx(0.2 * yby, rel=1e-9)

    def test_store_without_damping_rejected(self, gram10, rng):
        hist = BfgsHistory(b0_scale=1.0)
        y = rng.standard_normal(10)
        with pytest.raises(DegenerateCurvature):
            push_pair(hist, gram10, -y, y)


class TestEviction:
    def test_capacity_respected(self, gram10, rng):
        hist = BfgsHistory(b0_scale=1.0, m_mem=3)
        push_random_pairs(hist, gram10, rng, 7, 10)
        assert len(hist) == 3

    def test_positive_definite_after_eviction(self, gram10, rng):
        # the surviving pairs restart the chain from B0, so the operator
        # stays a chain of positivity-preserving updates of B0
        hist = BfgsHistory(b0_scale=1.0, m_mem=2)
        for k in range(12):
            push_random_pairs(hist, gram10, rng, 1, 10)
            for _ in range(20):
                p = rng.standard_normal(10)
                assert qdot(gram10, p, apply_inverse_hessian(hist, p)) > 0

    def test_dense_oracle_after_eviction(self, gram10, rng):
        hist = BfgsHistory(b0_scale=0.8, m_mem=3)
        push_random_pairs(hist, gram10, rng, 9, 10)
        dense = dense_operator(hist, gram10)
        g = rng.standard_normal(10)
        np.testing.assert_allclose(apply_inverse_hessian(hist, g), dense @ g,
                                   rtol=1e-12, atol=1e-12)

    def test_eviction_leaves_only_last_pairs(self, gram10, rng):
        # the operator after evictions is that of the surviving pairs alone
        hist = BfgsHistory(b0_scale=0.8, m_mem=3)
        pushed = []
        for _ in range(9):
            y = rng.standard_normal(10)
            d_damped, _ = damp(y, gram10 @ y, rng.standard_normal(10), hist,
                               xi=0.2)
            push_pair(hist, gram10, d_damped, y)
            pushed.append((d_damped, y))
        fresh = BfgsHistory(b0_scale=0.8, m_mem=3)
        for d_damped, y in pushed[-3:]:
            push_pair(fresh, gram10, d_damped, y)
        for _ in range(5):
            g = rng.standard_normal(10)
            np.testing.assert_allclose(apply_inverse_hessian(hist, g),
                                       apply_inverse_hessian(fresh, g),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("m_mem", [0, -1])
    def test_rejects_capacity_below_one(self, m_mem):
        with pytest.raises(ValueError):
            BfgsHistory(b0_scale=1.0, m_mem=m_mem)


class TestArmijo:
    def test_quadratic_accepts_full_step(self, gram10, rng):
        q = rng.standard_normal(10)

        def j_eval(x):
            return 0.5 * qdot(gram10, x, x)

        d = -q
        t, q_new, j_new = armijo(j_eval, q, d, qdot(gram10, q, d),
                                 OptimizerConfig(gamma=0.1))
        assert t == 1.0
        assert j_new == 0.0
        np.testing.assert_array_equal(q_new, np.zeros(10))

    def test_barrier_wall_backtracks(self):
        # j is +inf for x <= 0.5 along the ray; the first feasible trial
        # t = rho sits below the wall and satisfies the decrease condition
        def j_eval(x):
            if x[0] <= 0.5:
                return math.inf
            return 0.5 * (x[0] - 0.6) ** 2

        q = np.array([1.0])
        d = np.array([-1.0])
        g_dot_d = -0.4
        t, q_new, j_new = armijo(j_eval, q, d, g_dot_d,
                                 OptimizerConfig(gamma=0.1, rho_ls=0.1))
        assert t == pytest.approx(0.1)
        assert q_new[0] == pytest.approx(0.9)

    def test_ascent_direction_rejected(self):
        with pytest.raises(LineSearchFailed):
            armijo(lambda x: float(x[0]), np.array([1.0]), np.array([1.0]),
                   g_dot_d=0.5, cfg=OptimizerConfig())

    def test_exhaustion(self):
        # claim a steep slope the function never delivers
        def j_eval(x):
            return float(x[0])

        with pytest.raises(LineSearchFailed):
            armijo(j_eval, np.array([1.0]), np.array([1.0]), g_dot_d=-5.0,
                   cfg=OptimizerConfig(ls_max=4))

    def test_never_accepts_above_armijo_line(self, gram10, rng):
        q = rng.standard_normal(10)
        d = -q
        calls = []

        def j_eval(x):
            val = 0.5 * qdot(gram10, x, x)
            calls.append((x.copy(), val))
            return val

        cfg = OptimizerConfig(gamma=0.3, rho_ls=0.5)
        j0 = 0.5 * qdot(gram10, q, q)
        g_dot_d = qdot(gram10, q, d)
        t, _, j_new = armijo(j_eval, q, d, g_dot_d, cfg, j0=j0)
        assert j_new <= j0 + cfg.gamma * t * g_dot_d


    def test_first_trial_at_t0_then_backtracks(self):
        # j is +inf for x < 1 - 5e-4 along the ray, so the first trial
        # t0 = 1e-3 fails and t0 * rho is the first feasible trial
        calls = []

        def j_eval(x):
            calls.append(x.copy())
            if x[0] < 1.0 - 5e-4:
                return math.inf
            return 0.5 * x[0] ** 2

        q = np.array([1.0])
        d = np.array([-1.0])
        cfg = OptimizerConfig(gamma=0.1, rho_ls=0.1)
        t, q_new, _ = armijo(j_eval, q, d, -1.0, cfg, j0=0.5, t0=1e-3)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0], q + 1e-3 * d)
        np.testing.assert_array_equal(calls[1], q + (1e-3 * 0.1) * d)
        assert t == 1e-3 * 0.1
        np.testing.assert_array_equal(q_new, calls[1])

    def test_floor_above_rhs_rejects_without_evaluating(self, caplog):
        # j = x^2 / 2 from x = 1 would accept t = 1; a floor of 1 above
        # every rhs (< 0.5) for x < 0.7 rejects t = 1 and 0.5 unevaluated,
        # the same trials a j of +inf there rejects
        q, d = np.array([1.0]), np.array([-1.0])
        cfg = OptimizerConfig(gamma=0.1, rho_ls=0.5)

        def search(with_floor):
            floors, calls = [], []

            def floor(x):
                floors.append(x.copy())
                return 1.0 if x[0] < 0.7 else -math.inf

            def j_eval(x):
                calls.append(x.copy())
                if not with_floor and x[0] < 0.7:
                    return math.inf
                return 0.5 * x[0] ** 2

            result = armijo(j_eval, q, d, -1.0, cfg, j0=0.5,
                            floor=floor if with_floor else None)
            return result, floors, calls

        with caplog.at_level("DEBUG", logger="maxshape.bfgs_optimizer"):
            (t, q_new, j_new), floors, calls = search(with_floor=True)
        (t_ref, q_ref, j_ref), _, calls_ref = search(with_floor=False)
        assert (t, j_new) == (t_ref, j_ref) == (0.25, 0.5 * 0.75 ** 2)
        np.testing.assert_array_equal(q_new, q_ref)
        np.testing.assert_array_equal(floors, calls_ref)
        np.testing.assert_array_equal(calls, [[0.75]])
        skipped = [r.getMessage() for r in caplog.records
                   if "rejected without a state solve" in r.getMessage()]
        assert len(skipped) == 2
        assert all(m.startswith("armijo trial: t=") and " floor=1 " in m
                   and " rhs=" in m for m in skipped)

    def test_floor_below_rhs_evaluates_every_trial(self):
        # j = x never meets the claimed slope; a floor 10 below it changes
        # nothing: all ls_max + 1 trials are evaluated, as without one
        def evaluated(floor):
            calls = []

            def j_eval(x):
                calls.append(x.copy())
                return float(x[0])

            with pytest.raises(LineSearchFailed):
                armijo(j_eval, np.array([1.0]), np.array([1.0]), g_dot_d=-5.0,
                       cfg=OptimizerConfig(ls_max=4), j0=1.0, floor=floor)
            return calls

        with_floor = evaluated(lambda x: float(x[0]) - 10.0)
        assert len(with_floor) == 5
        np.testing.assert_array_equal(with_floor, evaluated(None))

    @pytest.mark.parametrize("t0", [0.0, -1e-3, 1.5])
    def test_t0_outside_unit_interval_rejected(self, t0):
        with pytest.raises(ValueError):
            armijo(lambda x: float(x[0]), np.array([1.0]), np.array([-1.0]),
                   g_dot_d=-1.0, cfg=OptimizerConfig(), t0=t0)


class QuadraticProblem:
    """min 0.5 (q - q*)^T H (q - q*) posed through the problem protocol.

    step_limit returns the fixed `limit`; the default leaves the first
    search at t = 1.
    """

    def __init__(self, gram, h_mat, q_star, limit=math.inf):
        self.gram = gram
        self.h_mat = h_mat
        self.q_star = q_star
        self.limit = limit
        self.gram_inv = np.linalg.inv(gram)

    def gradient(self, q):
        coeffs = self.h_mat @ (q - self.q_star)
        vec = self.gram_inv @ coeffs
        norm = math.sqrt(max(float(coeffs @ vec), 0.0))
        grad = SimpleNamespace(vector=vec, norm_q=norm)
        return grad, SimpleNamespace(lam=0.0, mode_overlap=math.nan)

    def evaluate(self, q, lam=None):
        e = q - self.q_star
        return 0.5 * float(e @ (self.h_mat @ e))

    def cost_floor(self, q):
        return -math.inf

    def q_apply(self, v):
        return self.gram @ v

    def jacobian_range(self, q):
        return 1.0, 1.0

    def step_limit(self, d):
        return self.limit


class VertexArrayProblem:
    """A problem on flat vectors posed on (rows, 2) arrays: the layout of a
    mesh's controls, one row per vertex."""

    def __init__(self, flat, rows):
        self.flat = flat
        self.shape = (rows, 2)

    def gradient(self, q):
        grad, state = self.flat.gradient(q.ravel())
        return SimpleNamespace(vector=grad.vector.reshape(self.shape),
                               norm_q=grad.norm_q), state

    def evaluate(self, q, lam=None):
        return self.flat.evaluate(q.ravel(), lam)

    def cost_floor(self, q):
        return self.flat.cost_floor(q.ravel())

    def q_apply(self, v):
        return self.flat.q_apply(v.ravel()).reshape(self.shape)

    def jacobian_range(self, q):
        return self.flat.jacobian_range(q.ravel())

    def step_limit(self, d):
        return self.flat.step_limit(d.ravel())


def record_trial_steps(monkeypatch):
    """Per Armijo search of optimize, the steps t of its trials q + t d."""
    searches = []
    real = bfgs_optimizer.armijo

    def recording(j_eval, q, d, g_dot_d, cfg, **kwargs):
        steps = []
        searches.append(steps)

        def j_trial(x):
            steps.append(float((x - q) @ d / (d @ d)))
            return j_eval(x)

        return real(j_trial, q, d, g_dot_d, cfg, **kwargs)

    monkeypatch.setattr(bfgs_optimizer, "armijo", recording)
    return searches


class TestOptimize:
    def make_problem(self, gram10, rng):
        a = rng.standard_normal((10, 10))
        h_mat = a @ a.T + 10.0 * np.eye(10)
        q_star = rng.standard_normal(10)
        return QuadraticProblem(gram10, h_mat, q_star)

    def test_stationary_start(self, gram10, rng):
        prob = self.make_problem(gram10, rng)
        cfg = OptimizerConfig(tol=1e-7, k_max=50)
        q, records, status = optimize(prob, prob.q_star.copy(), cfg)
        assert status is OptimizeStatus.CONVERGED
        assert records[-1].k == 0
        np.testing.assert_array_equal(q, prob.q_star)

    def test_converges_on_quadratic(self, gram10, rng):
        prob = self.make_problem(gram10, rng)
        cfg = OptimizerConfig(tol=1e-9, k_max=200, b0_scale=0.05)
        q, records, status = optimize(prob, np.zeros(10), cfg)
        assert status is OptimizeStatus.CONVERGED
        np.testing.assert_allclose(q, prob.q_star, atol=1e-6)

    def test_monotone_descent(self, gram10, rng):
        prob = self.make_problem(gram10, rng)
        cfg = OptimizerConfig(tol=1e-9, k_max=200, b0_scale=0.05)
        _, records, _ = optimize(prob, np.zeros(10), cfg)
        values = [r.j_value for r in records]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_iteration_cap(self, gram10, rng):
        prob = self.make_problem(gram10, rng)
        cfg = OptimizerConfig(tol=1e-16, k_max=3, b0_scale=0.05)
        _, records, status = optimize(prob, np.zeros(10), cfg)
        assert status is OptimizeStatus.ITERATION_CAP
        assert records[-1].k == 3

    def test_callback_invoked_per_step(self, gram10, rng):
        prob = self.make_problem(gram10, rng)
        seen = []
        cfg = OptimizerConfig(tol=1e-9, k_max=100, b0_scale=0.05)
        optimize(prob, np.zeros(10), cfg,
                 callback=lambda k, q, rec: seen.append(k))
        assert seen == list(range(len(seen)))
        assert len(seen) >= 1

    @pytest.mark.parametrize("limit", [0.1, 4.0])
    def test_first_search_starts_at_step_limit(self, gram10, rng,
                                               monkeypatch, limit):
        searches = record_trial_steps(monkeypatch)
        prob = self.make_problem(gram10, rng)
        prob.limit = limit
        cfg = OptimizerConfig(tol=1e-9, k_max=3, b0_scale=1e3)
        optimize(prob, np.zeros(10), cfg)
        start = min(1.0, bfgs_optimizer.FIRST_STEP * limit)
        assert searches[0][0] == pytest.approx(start, rel=1e-12)

    def test_each_search_starts_next_to_last_step(self, gram10, rng,
                                                  monkeypatch):
        # B0 = 1e3 I is far too long for this quadratic, so the first
        # search backtracks; later ones start at min(1, t_prev / rho)
        searches = record_trial_steps(monkeypatch)
        prob = self.make_problem(gram10, rng)
        cfg = OptimizerConfig(tol=1e-9, k_max=20, b0_scale=1e3)
        _, records, _ = optimize(prob, np.zeros(10), cfg)
        steps = [r.step for r in records if r.step > 0]
        assert len(searches) == len(steps) >= 3
        assert min(steps) < 1e-2
        assert searches[0][0] == pytest.approx(1.0, rel=1e-9)
        for k in range(1, len(searches)):
            start = min(1.0, records[k - 1].step / cfg.rho_ls)
            assert searches[k][0] == pytest.approx(start, rel=1e-9)
        for trials, rec in zip(searches, records):
            assert trials[-1] == pytest.approx(rec.step, rel=1e-9)
            ratios = [b / a for a, b in zip(trials, trials[1:])]
            np.testing.assert_allclose(ratios, cfg.rho_ls, rtol=1e-9)

    def test_ls_trials_counts_search_evaluations(self, gram10, rng,
                                                 monkeypatch):
        searches = record_trial_steps(monkeypatch)
        prob = self.make_problem(gram10, rng)
        cfg = OptimizerConfig(tol=1e-9, k_max=20, b0_scale=1e3)
        _, records, _ = optimize(prob, np.zeros(10), cfg)
        assert [r.ls_trials for r in records[:-1]] == \
            [len(s) for s in searches]
        assert records[-1].ls_trials == 0    # terminal iterate: no search
        assert sum(r.ls_trials for r in records) > len(records) - 1

    @pytest.mark.parametrize("m_mem", [1, 3, 8])
    def test_gram_applies_per_iterate(self, gram10, rng, monkeypatch, m_mem):
        # Q d and Q y per iterate, however many pairs the two-loop recursion
        # runs over, and Q d~ only when damping changed the step (theta < 1):
        # an undamped pair stores t (Q d), which equals Q d~ to rounding
        stored = []
        push = BfgsHistory.push

        def spy(hist, d_tilde, y, qd, qy):
            push(hist, d_tilde, y, qd, qy)
            stored.append((d_tilde, qd))

        monkeypatch.setattr(BfgsHistory, "push", spy)
        prob = self.make_problem(gram10, rng)
        applies = 0
        gram_map = prob.q_apply

        def counted(v):
            nonlocal applies
            applies += 1
            return gram_map(v)

        prob.q_apply = counted
        seen = [0]
        thetas = []

        def on_iterate(k, q, rec):
            seen.append(applies)
            thetas.append(rec.theta)

        cfg = OptimizerConfig(tol=1e-16, k_max=12, m_mem=m_mem, b0_scale=1e3)
        _, records, _ = optimize(prob, np.zeros(10), cfg, callback=on_iterate)
        assert sum(r.step > 0 for r in records) > m_mem
        assert 0 < sum(theta < 1.0 for theta in thetas) < len(thetas)
        assert list(np.diff(seen)) == [2 + (theta < 1.0) for theta in thetas]
        for d_tilde, qd in stored:
            np.testing.assert_allclose(qd, gram10 @ d_tilde, rtol=1e-12,
                                       atol=1e-14 * np.abs(qd).max())

    def test_records_hold_gamma_and_t0(self, gram10, rng, monkeypatch):
        # gamma: b0_scale at k = 0, then (d~, y)_Q / (y, y)_Q of the newest
        # pair stored before the iterate; t0: the search's first trial step
        searches = record_trial_steps(monkeypatch)
        ratios = []
        push = BfgsHistory.push

        def spy(hist, d_tilde, y, qd, qy):
            push(hist, d_tilde, y, qd, qy)
            ratios.append(qdot(gram10, d_tilde, y) / qdot(gram10, y, y))

        monkeypatch.setattr(BfgsHistory, "push", spy)
        prob = self.make_problem(gram10, rng)
        prob.limit = 0.1
        newest = {}
        cfg = OptimizerConfig(tol=1e-9, k_max=20, b0_scale=1e3)
        _, records, _ = optimize(
            prob, np.zeros(10), cfg,
            callback=lambda k, q, rec: newest.update({k + 1: ratios[-1]}))
        assert len(records) >= 4
        assert records[0].gamma == cfg.b0_scale
        for rec in records[1:]:
            assert rec.gamma == pytest.approx(newest[rec.k], rel=1e-12)
        assert records[0].t0 == min(1.0, bfgs_optimizer.FIRST_STEP * 0.1)
        for rec, prev in zip(records[1:-1], records):
            assert rec.t0 == min(1.0, prev.step / cfg.rho_ls)
        for rec, trials in zip(records, searches):
            assert trials[0] == pytest.approx(rec.t0, rel=1e-9)
        assert math.isnan(records[-1].t0)     # terminal iterate: no search

    def test_vertex_arrays_give_the_flat_records(self, gram10, rng):
        # optimize takes every inner product with np.vdot, which sums the
        # entries in the order of the flat vector: the same bits
        prob = self.make_problem(gram10, rng)
        prob.limit = 0.3
        cfg = OptimizerConfig(tol=1e-9, k_max=200, b0_scale=0.05)
        q, records, status = optimize(prob, np.zeros(10), cfg)
        grid_q, grid_records, grid_status = optimize(
            VertexArrayProblem(prob, 5), np.zeros((5, 2)), cfg)
        assert status is grid_status is OptimizeStatus.CONVERGED
        assert len(records) > 5
        assert grid_q.shape == (5, 2)
        assert grid_q.tobytes() == q.tobytes()
        np.testing.assert_equal([dataclasses.astuple(r) for r in grid_records],
                                [dataclasses.astuple(r) for r in records])

    def test_log_lines(self, gram10, rng, caplog):
        prob = self.make_problem(gram10, rng)
        cfg = OptimizerConfig(tol=1e-9, k_max=4, b0_scale=1e3)
        with caplog.at_level("DEBUG", logger="maxshape.bfgs_optimizer"):
            _, records, _ = optimize(prob, np.zeros(10), cfg)
        mine = [r for r in caplog.records
                if r.name == "maxshape.bfgs_optimizer"]
        trials = [r.getMessage() for r in mine if r.levelname == "DEBUG"]
        iterates = [r.getMessage() for r in mine if r.levelname == "INFO"]
        assert len(trials) == sum(r.ls_trials for r in records)
        assert all(m.startswith("armijo trial: t=") and " j=" in m
                   and " rhs=" in m for m in trials)
        accepted = [r for r in records if r.step > 0]
        assert len(iterates) == len(accepted) == 4
        for msg, rec in zip(iterates, accepted):
            assert msg.startswith(f"iterate k={rec.k} lam=")
            for key in ("J=", "|g|_Q=", "t=",
                        f"ls_trials={rec.ls_trials}", "overlap=nan",
                        "gamma=", "t0="):
                assert key in msg
        # the first direction uses B_0 = b0_scale I and starts at t = 1
        assert " gamma=1000 t0=1" in iterates[0]
        for msg, prev in zip(iterates[1:], accepted):
            t0 = float(msg.rsplit("t0=", 1)[1])
            assert t0 == pytest.approx(min(1.0, prev.step / cfg.rho_ls),
                                       rel=1e-5)


class TestOptimizerConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"gamma": 0.5}, {"gamma": 0.0}, {"rho_ls": 1.0}, {"xi": 0.0},
        {"xi": 1.0}, {"tol": 0.0}, {"m_mem": 0}, {"b0_scale": 0.0},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            OptimizerConfig(**kwargs)

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-7])
    def test_tol_finite_and_positive(self, tol):
        with pytest.raises(ValueError, match="tol"):
            OptimizerConfig(tol=tol)

    @pytest.mark.parametrize("b0_scale", [math.nan, math.inf, -1.0])
    def test_b0_scale_finite_and_positive(self, b0_scale):
        with pytest.raises(ValueError, match="b0_scale"):
            OptimizerConfig(b0_scale=b0_scale)
