import dataclasses
import math
from functools import cached_property
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from maxshape import (
    DeformationField,
    DofMap,
    EigenSelection,
    ObjectiveParams,
    OptimizerConfig,
    OptimizeStatus,
    generate_unit_square,
    optimize,
)
from maxshape import adjoint_gradient, bfgs_optimizer
from maxshape import eigensolver
from maxshape.errors import (
    InadmissibleDeformation,
    InsufficientSpectrum,
    NoConvergence,
)
from maxshape.fem_assembly import stiffness_floor
from maxshape.mesh_io import Mesh
from maxshape.problem import MaxwellShapeProblem
from maxshape.reference_transform import metric_floor

from conftest import (
    assert_entries_close,
    desk_problem,
    gradient_incidence,
    inverse_transpose,
    kron_gram,
    l_shape,
    oracle_mesh,
    random_feasible_control,
    zero_field,
)


def _square8_problem():
    mesh = generate_unit_square(8)
    sel = EigenSelection(index=0, nev=6, shift=9.0, tol=1e-9)
    params = ObjectiveParams(lambda_target=9.0, alpha=1e-3, beta=1e-6,
                             epsilon=1e-4)
    return MaxwellShapeProblem(mesh, params, sel, seed=0)


@pytest.fixture(scope="module")
def square8_problem():
    return _square8_problem()


def _square4_problem():
    mesh = generate_unit_square(4)
    sel = EigenSelection(index=0, nev=6, shift=9.0, tol=1e-9)
    params = ObjectiveParams(lambda_target=9.0, alpha=1e-3)
    return MaxwellShapeProblem(mesh, params, sel, seed=0)


@pytest.fixture
def gram_builds(monkeypatch):
    """Counts of Gram assemblies and H factorizations made by problem.py,
    and the shapes of the matrices factored."""
    import maxshape.problem as problem_module

    calls = {"assemble": 0, "factorize": 0}
    shapes = []
    assemble = problem_module.assemble_control_gram
    factorize = problem_module.spla.splu

    def counted_assemble(*args, **kwargs):
        calls["assemble"] += 1
        return assemble(*args, **kwargs)

    def counted_factorize(mat, **kwargs):
        calls["factorize"] += 1
        shapes.append(mat.shape)
        return factorize(mat, **kwargs)

    monkeypatch.setattr(problem_module, "assemble_control_gram",
                        counted_assemble)
    # problem.py's own spla name: the eigensolver's factorizations stay
    # out of the count
    monkeypatch.setattr(problem_module, "spla",
                        SimpleNamespace(splu=counted_factorize))
    return calls, shapes


@pytest.fixture
def state_solves(monkeypatch):
    """The controls whose forms maxshape.adjoint_gradient.solve_state
    solved, in order."""
    seen, controls = [], {}
    real_forms, real_solve = (adjoint_gradient.state_forms,
                              adjoint_gradient.solve_state)

    def assembled(mesh, dofs, q):
        forms = real_forms(mesh, dofs, q)
        controls[id(forms)] = q.values.copy()
        return forms

    def counted(forms, dofs, sel, **kwargs):
        seen.append(controls[id(forms)])
        return real_solve(forms, dofs, sel, **kwargs)

    monkeypatch.setattr(adjoint_gradient, "state_forms", assembled)
    monkeypatch.setattr(adjoint_gradient, "solve_state", counted)
    return seen


class TestEvaluate:
    def test_infeasible_control_is_inf(self, square8_problem):
        prob = square8_problem
        q = prob.zero_control()
        q[:, 0] = -2.0 * prob.mesh.vertices[:, 0]  # folds the mesh
        assert prob.evaluate(q) == math.inf

    def test_solver_failure_is_inf(self, square8_problem, monkeypatch):
        def boom(q):
            raise NoConvergence("forced")

        prob = square8_problem
        monkeypatch.setattr(prob, "solve_state", boom)
        assert prob.evaluate(prob.zero_control()) == math.inf

    def test_non_finite_warm_solve_is_inf(self, nan_on_solve):
        # the first, cold, solve succeeds; a NaN in the warm solve's first
        # iteration makes the point unsolvable, not the run
        prob = _square16_problem()
        prob.solve_state(prob.zero_control())
        nan_on_solve(2)
        assert prob.evaluate(_smooth_control(prob, 0.02)) == math.inf

    def test_arpack_failure_is_inf(self, nan_on_solve):
        # a NaN in the first, cold, solve's fifth apply makes ARPACK fail
        prob = _square16_problem()
        nan_on_solve(5)
        assert prob.evaluate(prob.zero_control()) == math.inf

    def test_given_lambda_skips_solve(self, square8_problem, monkeypatch):
        prob = square8_problem
        monkeypatch.setattr(prob, "solve_state",
                            lambda q: (_ for _ in ()).throw(AssertionError))
        val = prob.evaluate(prob.zero_control(), lam=prob.params.lambda_target)
        assert math.isfinite(val)


class TestGradient:
    def test_riesz_map_of_derivative_functional(self, state_solves):
        prob = _square8_problem()
        q = _smooth_control(prob, 0.02)
        grad, state = prob.gradient(q)
        functional, state_again = prob.derivative_functional(q)
        # dense solve with the whole interleaved Gram kron(H, I_2): the
        # two-column solve with H must keep the component layout and scale
        flat = functional.ravel()
        expected = np.linalg.solve(kron_gram(prob.mesh), flat)
        assert grad.vector.shape == functional.shape
        np.testing.assert_allclose(grad.vector.ravel(), expected, rtol=1e-12,
                                   atol=1e-12 * np.abs(expected).max())
        assert grad.norm_q == pytest.approx(math.sqrt(flat @ expected),
                                            rel=1e-12)
        assert state is state_again
        assert len(state_solves) == 1

    def test_memoized_control_solves_nothing(self, state_solves):
        prob = _square8_problem()
        q = _smooth_control(prob, 0.02)
        state = prob.solve_state(q)
        _, grad_state = prob.gradient(q)
        assert grad_state is state
        assert len(state_solves) == 1

    def test_optimize_builds_gram_once(self, gram_builds):
        calls, shapes = gram_builds
        prob = _square4_problem()
        cfg = OptimizerConfig(tol=1e-12, k_max=3, b0_scale=1e3)
        _, records, _ = optimize(prob, prob.zero_control(), cfg)
        assert sum(r.step > 0 for r in records) >= 1
        assert calls == {"assemble": 1, "factorize": 1}
        # the scalar H1 block only, not the interleaved 2V x 2V Gram
        assert shapes == [(prob.mesh.n_vertices, prob.mesh.n_vertices)]


class TestBuiltAtFirstUse:
    """A problem builds the Gram and the factor of H only when it needs them."""

    def test_state_solve_builds_nothing(self, gram_builds):
        prob = _square4_problem()
        prob.solve_state(prob.zero_control())
        assert gram_builds[0] == {"assemble": 0, "factorize": 0}

    @pytest.mark.parametrize("method", ["evaluate", "derivative_functional"])
    def test_value_and_derivative_assemble_only(self, gram_builds, method):
        prob = _square4_problem()
        getattr(prob, method)(_smooth_control(prob, 0.02))
        assert gram_builds[0] == {"assemble": 1, "factorize": 0}

    def test_gradient_assembles_and_factors_once(self, gram_builds):
        prob = _square4_problem()
        q = _smooth_control(prob, 0.02)
        prob.gradient(q)
        prob.gradient(0.5 * q)
        assert gram_builds[0] == {"assemble": 1, "factorize": 1}
        n = prob.mesh.n_vertices
        assert gram_builds[1] == [prob.gram.shape] == [(n, n)]

    def test_eigs_command_builds_nothing(self, gram_builds, capsys):
        from maxshape import cli_runner

        cfg = cli_runner.parse_config("\n".join([
            "mesh.unit_square = 4",
            "objective.lambda_target = 9.87",
            "eigen.shift = 9.0",
        ]))
        assert cli_runner.run_eigs(cfg, nev=4) == 0
        assert "dofs_total" in capsys.readouterr().out
        assert gram_builds[0] == {"assemble": 0, "factorize": 0}


class TestInnerProduct:
    def test_symmetric_positive(self, square8_problem, rng):
        prob = square8_problem
        u = rng.standard_normal((prob.mesh.n_vertices, 2))
        v = rng.standard_normal((prob.mesh.n_vertices, 2))
        assert np.vdot(u, prob.q_apply(v)) == pytest.approx(
            np.vdot(v, prob.q_apply(u)), rel=1e-12)
        assert np.vdot(u, prob.q_apply(u)) > 0

    @pytest.mark.parametrize("case", ["shuffled", "L4"])
    def test_gram_map_matches_kron_oracle(self, case, request, rng):
        # H applied to each component of v against the interleaved Gram
        mesh = oracle_mesh(case, request)
        prob = MaxwellShapeProblem(mesh, ObjectiveParams(lambda_target=9.0),
                                   EigenSelection(index=0, nev=6))
        v = rng.standard_normal((mesh.n_vertices, 2))
        assert_entries_close(prob.q_apply(v).ravel(),
                             kron_gram(mesh) @ v.ravel(), rtol=1e-14)

    def test_norm_of_constant_field(self, square8_problem):
        # constant unit displacement: L2 part 1, gradient part 0
        prob = square8_problem
        q = prob.zero_control()
        q[:, 0] = 1.0
        assert prob.q_norm(q) == pytest.approx(1.0, rel=1e-12)


class TestStepLimit:
    def test_shortest_edge_over_largest_vertex_move(self, square8_problem):
        prob = square8_problem
        d = prob.zero_control()
        d[5] = (3.0, -4.0)                    # vertex 5 moves by 5
        d[9, 0] = 1.0
        # the 8 x 8 square's shortest edges are the sides, 1/8
        assert prob.step_limit(d) == pytest.approx((1.0 / 8.0) / 5.0,
                                                   rel=1e-14)
        assert prob.step_limit(-2.0 * d) == pytest.approx(
            prob.step_limit(d) / 2.0, rel=1e-14)


class TestDeterminism:
    def test_same_seed_same_state(self):
        mesh = generate_unit_square(8)
        sel = EigenSelection(index=0, nev=6, shift=9.0, tol=1e-9)
        params = ObjectiveParams(lambda_target=9.0, alpha=1e-3)
        a = MaxwellShapeProblem(mesh, params, sel, seed=4)
        b = MaxwellShapeProblem(mesh, params, sel, seed=4)
        sa = a.solve_state(a.zero_control())
        sb = b.solve_state(b.zero_control())
        assert sa.lam == sb.lam
        np.testing.assert_array_equal(sa.u, sb.u)


class TestSelfTargetingRun:
    def test_stays_at_target_with_tiny_control(self):
        # lambda_* equal to the current eigenvalue: the initial gradient is
        # barrier-only (order beta), the eigenvalue stays pinned and the
        # control never grows beyond that scale.
        mesh = generate_unit_square(8)
        sel = EigenSelection(index=0, nev=6, shift=9.0, tol=1e-9)
        probe = MaxwellShapeProblem(
            mesh, ObjectiveParams(lambda_target=1.0, alpha=0.0), sel, seed=0)
        lam0 = probe.solve_state(probe.zero_control()).lam

        alpha = 2.7e-4
        params = ObjectiveParams(lambda_target=lam0, alpha=alpha, beta=1e-6,
                                 epsilon=1e-4)
        prob = MaxwellShapeProblem(mesh, params, sel, seed=0)
        cfg = OptimizerConfig(tol=1e-7, k_max=6, b0_scale=1.0 / alpha)
        q, records, status = optimize(prob, prob.zero_control(), cfg)

        assert records[0].grad_norm <= 1e-5          # barrier scale only
        assert records[0].j_value == pytest.approx(  # -beta |O| ln(1 - eps)
            -1e-6 * math.log(1.0 - 1e-4), rel=1e-6)
        values = [r.j_value for r in records]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert np.abs(q).max() <= 5e-3
        assert abs(records[-1].lam - lam0) <= 1e-4 * lam0

    def test_converges_immediately_without_barrier(self):
        # with beta = 0 the origin is exactly stationary at lambda = lambda_*
        mesh = generate_unit_square(8)
        sel = EigenSelection(index=0, nev=6, shift=9.0, tol=1e-9)
        probe = MaxwellShapeProblem(
            mesh, ObjectiveParams(lambda_target=1.0, alpha=0.0), sel, seed=0)
        lam0 = probe.solve_state(probe.zero_control()).lam

        params = ObjectiveParams(lambda_target=lam0, alpha=2.7e-4, beta=0.0,
                                 epsilon=1e-4)
        prob = MaxwellShapeProblem(mesh, params, sel, seed=0)
        cfg = OptimizerConfig(tol=1e-7, k_max=6, b0_scale=1.0)
        q, records, status = optimize(prob, prob.zero_control(), cfg)
        assert status is OptimizeStatus.CONVERGED
        assert records[-1].k == 0
        assert np.all(q == 0.0)


class TestLastStateMemo:
    def test_equal_control_reuses_state(self, state_solves):
        prob = _square8_problem()
        first = prob.solve_state(prob.zero_control())
        again = prob.solve_state(prob.zero_control())
        assert len(state_solves) == 1
        assert again is first
        assert again.lam == first.lam

    def test_one_entry_changed_solves_again(self, state_solves):
        prob = _square8_problem()
        q = prob.zero_control()
        prob.solve_state(q)
        moved = q.copy()
        moved[2, 1] = 1e-3
        prob.solve_state(moved)
        assert len(state_solves) == 2
        np.testing.assert_array_equal(state_solves[1], moved)

    def test_caller_mutation_cannot_hit_stale_entry(self, state_solves):
        prob = _square8_problem()
        q = prob.zero_control()
        at_zero = prob.solve_state(q)
        q[2, 1] = 1e-2              # the caller reuses its buffer
        moved = prob.solve_state(q)
        assert len(state_solves) == 2
        assert moved.lam != at_zero.lam

    def test_failed_solve_stores_nothing(self, state_solves, monkeypatch):
        prob = _square8_problem()
        q = prob.zero_control()
        counted = adjoint_gradient.solve_state

        def boom(*args, **kwargs):
            raise NoConvergence("forced")

        monkeypatch.setattr(adjoint_gradient, "solve_state", boom)
        with pytest.raises(NoConvergence):
            prob.solve_state(q)
        monkeypatch.setattr(adjoint_gradient, "solve_state", counted)
        state = prob.solve_state(q)
        assert len(state_solves) == 1
        assert math.isfinite(state.lam)

    def test_reuse_after_infeasible_evaluate(self, state_solves):
        prob = _square8_problem()
        q = _smooth_control(prob, 0.02)
        state = prob.solve_state(q)
        assert prob.evaluate(_folding_control(prob)) == math.inf
        assert prob.solve_state(q.copy()) is state
        assert len(state_solves) == 1

    def test_debug_log_names_solve_and_reuse(self, caplog):
        prob = _square8_problem()
        with caplog.at_level("DEBUG", logger="maxshape.problem"):
            prob.solve_state(prob.zero_control())
            prob.solve_state(prob.zero_control())
        lines = [r.getMessage() for r in caplog.records
                 if r.name == "maxshape.problem"]
        assert len(lines) == 2
        assert lines[0].startswith("solved state: lam=")
        assert "residual=" in lines[0] and "divergence=" in lines[0]
        assert lines[1].startswith("reused state: lam=")


    def test_debug_solved_line_prints_gap(self, caplog):
        prob = _square8_problem()
        with caplog.at_level("DEBUG", logger="maxshape.problem"):
            state = prob.solve_state(prob.zero_control())
        line = [r.getMessage() for r in caplog.records
                if r.name == "maxshape.problem"][0]
        assert 0.0 < state.gap < 1.0           # the split pi^2 pair
        assert line.endswith(f" gap={state.gap:.3e}")


def _square16_problem():
    mesh = generate_unit_square(16)
    sel = EigenSelection(index=0, nev=8, shift=9.35, tol=1e-8)
    params = ObjectiveParams(lambda_target=10.4, alpha=1e-3, beta=1e-6,
                             epsilon=1e-4)
    return MaxwellShapeProblem(mesh, params, sel, seed=0)


def _folding_control(prob):
    q = prob.zero_control()
    q[:, 0] = -2.0 * prob.mesh.vertices[:, 0]     # x -> -x on every triangle
    return q


def _smooth_control(prob, amplitude):
    x, y = prob.mesh.vertices[:, 0], prob.mesh.vertices[:, 1]
    q = prob.zero_control()
    q[:, 0] = amplitude * x * np.sin(np.pi * x) * np.sin(np.pi * y)
    q[:, 1] = amplitude * np.sin(2.0 * np.pi * x) * np.sin(np.pi * y)
    return q


@pytest.fixture
def arnoldi_calls(monkeypatch):
    """Number of spla.eigs calls the eigensolver makes."""
    calls = []

    class SpyLinalg:
        def __getattr__(self, name):
            return getattr(spla, name)

        def eigs(self, *args, **kwargs):
            calls.append(1)
            return spla.eigs(*args, **kwargs)

    monkeypatch.setattr(eigensolver, "spla", SpyLinalg())
    return calls


class TestWarmStateSolves:
    def test_only_the_first_solve_runs_arnoldi(self, arnoldi_calls):
        prob = _square16_problem()
        first = prob.solve_state(prob.zero_control())
        assert len(arnoldi_calls) == 1
        assert first.block.shape == (prob.dofs.free.n_edge, 2)
        for amplitude in (1e-3, 0.02, 0.05):
            state = prob.solve_state(_smooth_control(prob, amplitude))
            assert state.residual <= 1e-8
        assert len(arnoldi_calls) == 1

    def test_failed_solve_keeps_the_block(self, arnoldi_calls, monkeypatch):
        # A warm solve capped at one iteration raises; the next solve must
        # start from the block of the last solve that succeeded, exactly as
        # if the failed one had never run.
        prob = _square16_problem()
        q_near = _smooth_control(prob, 0.01)
        prob.solve_state(prob.zero_control())
        with monkeypatch.context() as patch:
            patch.setattr(eigensolver, "BLOCK_MAXITER", 1)
            with pytest.raises(NoConvergence):
                prob.solve_state(_smooth_control(prob, 0.05))
        after_failure = prob.solve_state(q_near)

        ref = _square16_problem()
        ref.solve_state(ref.zero_control())
        expected = ref.solve_state(q_near)
        assert len(arnoldi_calls) == 2          # the two first solves
        assert after_failure.lam == expected.lam
        np.testing.assert_array_equal(after_failure.u, expected.u)
        np.testing.assert_array_equal(after_failure.block, expected.block)


class TestColdStateGuard:
    """The first, cold, state solve of the n = 16 square, whose lowest
    pairs are 9.8505, 9.8676 and 19.760: a shift above them still gives
    index 0, until the pairs nearest it leave the lowest out."""

    @staticmethod
    def problem(shift):
        mesh = generate_unit_square(16)
        params = ObjectiveParams(lambda_target=10.4, alpha=1e-3)
        return MaxwellShapeProblem(
            mesh, params, EigenSelection(nev=8, shift=shift, tol=1e-8))

    def test_shift_above_the_lowest_pairs_keeps_index_0(self):
        prob = self.problem(15.0)
        state = prob.solve_state(prob.zero_control())
        assert state.lam == pytest.approx(9.8505156, rel=1e-7)

    def test_far_shift_raises_naming_it(self):
        prob = self.problem(30.0)
        with pytest.raises(InsufficientSpectrum, match="shift 30"):
            prob.solve_state(prob.zero_control())


class TestModeOverlap:
    def test_cold_nan_warm_near_one(self):
        prob = _square16_problem()
        assert math.isnan(prob.solve_state(prob.zero_control()).mode_overlap)
        near = prob.solve_state(_smooth_control(prob, 1e-3))
        assert 0.99 < near.mode_overlap < 1.01


class TestOneSolvePerControl:
    @staticmethod
    def run_counting_feasible_trials(prob, monkeypatch, k_max):
        feasible_trials = []
        real_evaluate = prob.evaluate

        def evaluate(q, lam=None):
            if lam is None and \
                    prob.jacobian_range(q)[0] > prob.params.epsilon:
                feasible_trials.append(np.array(q, copy=True))
            return real_evaluate(q, lam)

        monkeypatch.setattr(prob, "evaluate", evaluate)
        cfg = OptimizerConfig(tol=1e-12, k_max=k_max,
                              b0_scale=1.0 / prob.params.alpha)
        _, records, _ = optimize(prob, prob.zero_control(), cfg)
        return records, feasible_trials

    def test_optimize_solves_each_control_once(self, state_solves,
                                               monkeypatch):
        prob = _square8_problem()
        records, feasible_trials = self.run_counting_feasible_trials(
            prob, monkeypatch, k_max=3)

        assert sum(r.step > 0 for r in records) >= 1
        keys = [q.tobytes() for q in state_solves]
        assert len(set(keys)) == len(keys)
        assert len(state_solves) == 1 + len(feasible_trials)

    def test_search_start_saves_solves(self, state_solves, monkeypatch):
        # B0 = (1/alpha) I: starting every search at t = 1 cost 18
        # eigensolves over these six steps; starting next to the last
        # accepted step cost 10, and with the first step bounded by the
        # step limit and B0 = gamma_k I it costs 9.
        prob = _square8_problem()
        records, feasible_trials = self.run_counting_feasible_trials(
            prob, monkeypatch, k_max=6)

        assert sum(r.step > 0 for r in records) == 6
        assert len(state_solves) == 1 + len(feasible_trials)
        assert len(state_solves) < 18


class TestOneFieldPerControl:
    def test_equal_control_same_field(self):
        prob = _square8_problem()
        q = _smooth_control(prob, 0.02)
        field = prob.field(q)
        assert prob.field(q.copy()) is field
        moved = q.copy()
        moved[2, 1] += 1e-3
        assert prob.field(moved) is not field

    def test_folded_control(self):
        prob = _square8_problem()
        q = _folding_control(prob)
        assert prob.evaluate(q) == math.inf
        field = prob.field(q)
        assert field.jacobian.min() < 0.0
        for _ in range(2):
            with pytest.raises(InadmissibleDeformation):
                field.pulled_gradients

    def test_state_assembly_leaves_the_pulled_gradients(self):
        # state forms and the cost floor read J and the adjugate-pulled
        # gradients; only derivatives cache DF^-T grad lam
        prob = _square8_problem()
        q = _smooth_control(prob, 0.02)
        new = DeformationField(prob.mesh, q)
        adjoint_gradient.state_forms(prob.mesh, prob.dofs, new)
        prob.gradient(prob.zero_control())      # the anchor of the Ritz bound
        assert prob._anchor is not None
        assert np.isfinite(prob.cost_floor(q))
        for field in (new, prob.field(q)):
            assert "jacobian" in field.__dict__
            assert "pulled_gradients" not in field.__dict__

    def test_optimize_computes_one_gradient_per_control(self, monkeypatch):
        computed = []
        real = DeformationField.__dict__["gradient"].func

        def counted(field):
            computed.append(field.values.tobytes())
            return real(field)

        gradient = cached_property(counted)
        gradient.__set_name__(DeformationField, "gradient")
        monkeypatch.setattr(DeformationField, "gradient", gradient)

        prob = _square8_problem()
        controls = set()
        for name in ("gradient", "evaluate", "jacobian_range"):
            def seen(q, *args, _real=getattr(prob, name), **kwargs):
                controls.add(np.asarray(q, dtype=np.float64).tobytes())
                return _real(q, *args, **kwargs)
            monkeypatch.setattr(prob, name, seen)
        cfg = OptimizerConfig(tol=1e-12, k_max=3,
                              b0_scale=1.0 / prob.params.alpha)
        _, records, _ = optimize(prob, prob.zero_control(), cfg)

        assert sum(r.step > 0 for r in records) == 3
        assert len(computed) == len(set(computed))
        assert set(computed) == controls


class TestControlLayout:
    """A control is a (V, 2) array, one row per vertex, and nothing else."""

    def test_equal_array_solves_once_on_one_field(self, state_solves):
        prob = _square8_problem()
        q = np.zeros((prob.mesh.n_vertices, 2))
        state = prob.solve_state(q)
        field = prob.field(q)
        assert prob.solve_state(q.copy()) is state
        assert prob.field(q.copy()) is field
        assert len(state_solves) == 1

    @pytest.mark.parametrize("method", ["field", "solve_state", "optimize"])
    def test_flat_vector_raises_naming_its_shape(self, method):
        prob = _square8_problem()
        prob.solve_state(prob.zero_control())
        flat = np.zeros(2 * prob.mesh.n_vertices)
        call = {"field": prob.field, "solve_state": prob.solve_state,
                "optimize": lambda q: optimize(prob, q, OptimizerConfig())}
        with pytest.raises(ValueError, match=r"shape \(162,\)"):
            call[method](flat)


@pytest.fixture
def start_blocks(monkeypatch):
    """The block each maxshape.adjoint_gradient.solve_state call starts
    from, in order (None for a cold solve)."""
    blocks = []
    real = adjoint_gradient.solve_state

    def spy(forms, dofs, sel, **kwargs):
        blocks.append(kwargs["block"])
        return real(forms, dofs, sel, **kwargs)

    monkeypatch.setattr(adjoint_gradient, "solve_state", spy)
    return blocks


class TestWarmStartAnchor:
    """Every state solve after the first reduced derivative starts from the
    state where the derivative last ran, the anchor."""

    def test_trial_after_a_rejected_one_starts_from_the_anchor(
            self, start_blocks):
        prob = _square16_problem()
        first = prob.solve_state(prob.zero_control())
        q0 = _smooth_control(prob, 0.01)
        _, anchor = prob.gradient(q0)
        d = _smooth_control(prob, 1.0)
        prob.evaluate(q0 + 0.04 * d)        # a rejected trial
        prob.evaluate(q0 + 0.02 * d)
        assert start_blocks[0] is None
        # before any derivative: the last solved state
        assert start_blocks[1] is first.block
        assert start_blocks[2:] == [anchor.block, anchor.block]
        # the anchor starts solves but answers none: its control, no longer
        # the last solved one, is solved again, from the anchor
        assert prob.solve_state(q0) is not anchor
        assert start_blocks[4:] == [anchor.block]

    def test_optimize_starts_each_solve_from_the_last_gradient(
            self, start_blocks, monkeypatch):
        prob = _square16_problem()
        anchors = []
        real = prob.derivative_functional

        def derivative_functional(q):
            functional, state = real(q)
            anchors.append((len(start_blocks), state))
            return functional, state

        monkeypatch.setattr(prob, "derivative_functional",
                            derivative_functional)
        # without a cost floor every trial solves, rejected ones included,
        # so some solve follows a rejected trial's
        monkeypatch.setattr(prob, "cost_floor", lambda q: -math.inf)
        cfg = OptimizerConfig(tol=1e-12, k_max=4,
                              b0_scale=1.0 / prob.params.alpha)
        optimize(prob, prob.zero_control(), cfg)
        trials_after_rejection = 0
        for (begin, anchor), (end, _) in zip(anchors,
                                             anchors[1:] + [(None, None)]):
            blocks = start_blocks[begin:end]
            assert all(b is anchor.block for b in blocks)
            trials_after_rejection += max(len(blocks) - 1, 0)
        assert start_blocks[0] is None
        assert trials_after_rejection >= 1


def _desk8_problem():
    """The desk recipe on the 8 x 8 square with k_max = 4.  Its fourth
    Armijo search starts with a trial whose cost floor lies above the
    right-hand side."""
    problem, _, cfg = desk_problem(generate_unit_square(8))
    return problem, dataclasses.replace(cfg, k_max=4)


@pytest.fixture
def armijo_trials(monkeypatch):
    """Per trial of every Armijo search of optimize, in order: its floor,
    its right-hand side and whether the search evaluated it."""
    trials = []
    real = bfgs_optimizer.armijo

    def recording(j_eval, q, d, g_dot_d, cfg, j0=None, t0=1.0, floor=None):
        step = [t0]

        def trial_floor(x):
            t = step[0]
            step[0] = t * cfg.rho_ls
            value = floor(x)
            trials.append({"floor": value,
                           "rhs": j0 + cfg.gamma * t * g_dot_d,
                           "evaluated": False})
            return value

        def trial_j(x):
            trials[-1]["evaluated"] = True
            return j_eval(x)

        return real(trial_j, q, d, g_dot_d, cfg, j0=j0, t0=t0,
                    floor=trial_floor)

    monkeypatch.setattr(bfgs_optimizer, "armijo", recording)
    return trials


class TestCostFloor:
    def test_lower_bound_of_evaluate_without_a_solve(self, state_solves):
        prob = _square16_problem()
        q = _smooth_control(prob, 0.02)
        floor = prob.cost_floor(q)
        assert prob.cost_floor(_folding_control(prob)) == math.inf
        assert state_solves == []
        assert floor == prob.evaluate(q, lam=prob.params.lambda_target)
        assert floor < prob.evaluate(q)

    def test_skipped_trials_change_no_record(self, state_solves,
                                             armijo_trials, monkeypatch):
        prob, cfg = _desk8_problem()
        ref, _ = _desk8_problem()
        monkeypatch.setattr(ref, "cost_floor", lambda q: -math.inf)
        runs = []
        for p in (prob, ref):
            state_solves.clear()
            armijo_trials.clear()
            _, records, _ = optimize(p, p.zero_control(), cfg)
            runs.append((records, len(state_solves), list(armijo_trials)))
        (records, solves, trials), (ref_records, ref_solves, ref_trials) = runs

        np.testing.assert_equal([dataclasses.astuple(r) for r in records],
                                [dataclasses.astuple(r) for r in ref_records])
        skipped = [t for t in trials if not t["evaluated"]]
        assert len(skipped) >= 1
        assert solves == ref_solves - len(skipped)
        assert len(trials) == len(ref_trials) == sum(
            r.ls_trials for r in records)
        assert all(t["evaluated"] for t in ref_trials)
        assert all((t["floor"] > t["rhs"]) != t["evaluated"] for t in trials)

    def test_floored_trials_fail_armijo_when_solved(self, monkeypatch):
        # every trial solves anyway: a floored trial's J exceeds its
        # right-hand side, and the floor never exceeds J
        prob, cfg = _desk8_problem()
        trials = []
        real = bfgs_optimizer.armijo

        def solving(j_eval, q, d, g_dot_d, cfg, j0=None, t0=1.0,
                    floor=None):
            step = [t0]

            def trial_floor(x):
                t = step[0]
                step[0] = t * cfg.rho_ls
                value = floor(x)
                trials.append(dict(
                    state_free=prob.evaluate(
                        x, lam=prob.params.lambda_target),
                    floor=value, j=j_eval(x),
                    rhs=j0 + cfg.gamma * t * g_dot_d))
                return value

            return real(j_eval, q, d, g_dot_d, cfg, j0=j0, t0=t0,
                        floor=trial_floor)

        monkeypatch.setattr(bfgs_optimizer, "armijo", solving)
        optimize(prob, prob.zero_control(), dataclasses.replace(cfg, k_max=8))
        floored = [t for t in trials if t["floor"] > t["rhs"]]
        assert all(t["floor"] <= t["j"] for t in trials)
        assert all(t["j"] > t["rhs"] for t in floored)
        # some trial only the Ritz bound rejects
        assert any(t["state_free"] <= t["rhs"] for t in floored)

    def test_debug_line_per_floor(self, caplog):
        prob = _square16_problem()
        q = _smooth_control(prob, 0.01)
        with caplog.at_level("DEBUG", logger="maxshape.problem"):
            prob.cost_floor(q)              # no anchor: R alone
            prob.gradient(q)
            floor = prob.cost_floor(1.01 * q)
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("cost floor:")]
        assert len(lines) == 2
        assert "theta=nan eps=nan kappa=nan" in lines[0]
        fields = dict(item.split("=") for item in lines[1].split()[2:])
        assert 0 < float(fields["kappa"]) < 1.1
        assert 0 <= float(fields["eps"]) < 1e-2
        assert float(fields["R"]) <= float(fields["floor"]) \
            == pytest.approx(floor, rel=1e-9)


class TestRitzBound:
    """The parts of the cost floor's bound of the tracked eigenvalue."""

    @pytest.mark.parametrize("case", [*(f"square{n}" for n in range(4, 17)),
                                      "l_shape4", "l_shape8", "shuffled"])
    def test_stiffness_floor_below_smallest_eigenvalue(self, case,
                                                       shuffled_mesh):
        if case == "shuffled":
            mesh = shuffled_mesh
        elif case.startswith("l_shape"):
            mesh = l_shape(int(case[7:]))
        else:
            mesh = generate_unit_square(int(case[6:]))
        dofs = DofMap.from_mesh(mesh)
        forms = adjoint_gradient.state_forms(mesh, dofs,
                                             zero_field(mesh))
        l_ref = (forms.BT @ gradient_incidence(mesh, dofs)).toarray()
        assert stiffness_floor(mesh, dofs) <= np.linalg.eigvalsh(l_ref)[0]

    def test_metric_floor_matches_svd(self, square8, rng):
        fields = [random_feasible_control(square8, rng, 0.03)
                  for _ in range(4)]
        # a sheared stretch, DF = [[2, 0.3], [0, 0.5]] on every triangle
        x, y = square8.vertices.T
        fields.append(DeformationField(
            square8, np.column_stack([x + 0.3 * y, -0.5 * y])))
        for field in fields:
            sigma_min = np.linalg.svd(inverse_transpose(field),
                                      compute_uv=False)[:, -1]
            want = float((field.jacobian * sigma_min ** 2).min())
            assert metric_floor(field) == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("index", [0, 1])
    def test_ritz_ceiling_above_solved_eigenvalue(self, n, index):
        mesh = generate_unit_square(n)
        sel = EigenSelection(index=index, nev=8, shift=9.35, tol=1e-8)
        prob = MaxwellShapeProblem(
            mesh, ObjectiveParams(lambda_target=10.4, alpha=1e-3), sel,
            seed=0)
        q0 = _smooth_control(prob, 0.01)
        grad, anchor = prob.gradient(q0)
        direction = -grad.vector / np.abs(grad.vector).max()
        rng = np.random.default_rng(5)
        l_floor = stiffness_floor(mesh, prob.dofs)
        finite = 0
        for size in (1e-5, 1e-4, 1e-3, 1e-2):
            for d in (direction, rng.uniform(-1.0, 1.0, q0.shape)):
                q = q0 + size / n * d / np.abs(d).max()
                field = DeformationField(mesh, q)
                theta, eps = eigensolver.ritz_ceiling(
                    adjoint_gradient.state_forms(mesh, prob.dofs, field),
                    anchor.block, index, metric_floor(field) * l_floor)
                assert eps >= 0.0
                assert theta * (1.0 + sel.tol) >= prob.solve_state(q).lam
                finite += math.isfinite(theta)
        assert finite >= 4


def _renumbered(mesh, seed):
    """mesh with its vertices renumbered at random, none moved."""
    number = np.random.default_rng(seed).permutation(mesh.n_vertices)
    vertices = np.empty_like(mesh.vertices)
    vertices[number] = mesh.vertices
    return Mesh(vertices, number[mesh.triangles])


def _mirror_error(mesh, v):
    """max |v(y, x) - (v_y, v_x)(x, y)| / max |v| of (V, 2) nodal values v
    on a mesh that (x, y) -> (y, x) maps to itself."""
    number = {tuple(p): i for i, p in enumerate(mesh.vertices)}
    mirror = [number[y, x] for x, y in mesh.vertices]
    return np.abs(v[mirror] - v[:, ::-1]).max() / np.abs(v).max()


def _mirror_control(mesh):
    """q = (b x (1 - y), b y (1 - x)), b = 0.01 sin(pi x) sin(pi y): a
    control that (x, y) -> (y, x) maps to itself, components swapped."""
    x, y = mesh.vertices.T
    b = 0.01 * np.sin(np.pi * x) * np.sin(np.pi * y)
    return np.column_stack([b * x * (1.0 - y), b * y * (1.0 - x)])


class TestMirrorSymmetry:
    """The square, its mesh and the objective are invariant under the
    mirror (x, y) -> (y, x), so Riesz gradients at mirror-symmetric
    controls and the iterates of a desk run are mirror-symmetric: an
    oracle for assembly and derivative numbering without finite
    differences, with the square's numbering and a random one."""

    @pytest.mark.parametrize("renumber", [False, True])
    @pytest.mark.parametrize("n", [8, 16])
    def test_riesz_gradient(self, n, renumber):
        # Both squares solve by ARPACK at q = 0, then warm from it.
        # The warm mode is as symmetric as its residual allows: at tol 1e-8
        # the gradient's mirror error reads about 1e-10.
        mesh = generate_unit_square(n)
        if renumber:
            mesh = _renumbered(mesh, n)
        prob = MaxwellShapeProblem(
            mesh, ObjectiveParams(lambda_target=10.4, alpha=1e-3, beta=1e-6,
                                  epsilon=1e-4),
            EigenSelection(index=0, nev=8, shift=9.0, tol=1e-10), seed=0)
        symmetric = _mirror_control(mesh)
        assert _mirror_error(mesh, symmetric) <= 1e-15
        for q in (prob.zero_control(), symmetric):
            grad, _ = prob.gradient(q)
            assert _mirror_error(mesh, grad.vector) <= 1e-9

    @pytest.mark.parametrize("renumber", [False, True])
    @pytest.mark.parametrize("n", [8, 16])
    def test_desk_iterates(self, n, renumber):
        mesh = generate_unit_square(n)
        if renumber:
            mesh = _renumbered(mesh, n)
        prob, _, cfg = desk_problem(mesh)
        cfg = dataclasses.replace(cfg, k_max=5)
        accepted = []
        q, records, _ = optimize(prob, prob.zero_control(), cfg,
                                 callback=lambda k, q, rec: accepted.append(q))
        assert len(records) == 6
        for q in [*accepted, q]:
            assert _mirror_error(mesh, q) <= 1e-9
