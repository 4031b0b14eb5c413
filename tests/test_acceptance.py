"""Acceptance suite: every toolkit-level requirement at its stated tolerance.

Each check prints one PASS/FAIL line (run with ``pytest -s`` to see them all).
The desk-scale optimization run is shared by several checks through a
module-scoped fixture.
"""

import math
import os
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import maxshape as ms
from maxshape import (
    DeformationField,
    DofMap,
    EigenSelection,
    Mesh,
    ObjectiveParams,
    OptimizeStatus,
    OptimizerConfig,
    apply_dirichlet,
    assemble_control_gram,
    assemble_forms,
    generate_unit_square,
    optimize,
    solve_gevp,
)
from maxshape.bfgs_optimizer import BfgsHistory, apply_inverse_hessian, damp
from maxshape.problem import MaxwellShapeProblem

from conftest import (
    CAVITY_ALPHA,
    CAVITY_TARGET,
    SQUARE_SPECTRUM,
    desk_problem,
    dilation_control,
    random_feasible_control,
    zero_field,
)


def _report(name: str, ok: bool, detail: str) -> bool:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def _reduced(mesh, q=None):
    dofs = DofMap.from_mesh(mesh)
    field = q if q is not None else zero_field(mesh)
    return apply_dirichlet(assemble_forms(mesh, dofs, field), dofs)


def _divergence_certificate(forms, pairs):
    worst = 0.0
    for p in pairs:
        ratio = np.linalg.norm(forms.B.T @ p.u) / np.linalg.norm(forms.M @ p.u)
        worst = max(worst, ratio)
    return worst


# -- 1: analytic spectrum ----------------------------------------------------

def test_analytic_spectrum_and_refinement():
    """Smallest five eigenvalues of the square within 2%, O(h^2) refinement."""
    start = time.perf_counter()
    exact = SQUARE_SPECTRUM[:5]
    errors = {}
    for n in (16, 32):
        forms = _reduced(generate_unit_square(n))
        pairs = solve_gevp(forms, EigenSelection(nev=7, shift=9.0, tol=1e-8))
        lam = np.array([p.lam for p in pairs[:5]])
        rel = np.abs(lam - exact) / exact
        errors[n] = np.abs(lam[0] - exact[0]) / exact[0]
        ok = bool(np.all(rel <= 0.02))
        assert _report(f"1 spectrum n={n}", ok,
                       f"max rel dev {rel.max():.3e} vs 2e-2"), lam
    factor = errors[16] / errors[32]
    elapsed = time.perf_counter() - start
    assert _report("1 refinement", factor >= 3.0,
                   f"ground-state error factor {factor:.2f} vs >= 3")
    assert _report("1 runtime", elapsed <= 30.0, f"{elapsed:.1f}s vs 30s")


# -- 2: transform correctness via scaling law --------------------------------

def test_scaling_law_and_translation():
    """Dilation divides every eigenvalue by (1+s)^2; translation changes none."""
    mesh = generate_unit_square(16)
    base = solve_gevp(_reduced(mesh),
                      EigenSelection(nev=7, shift=9.0, tol=1e-8))
    lam0 = np.array([p.lam for p in base])

    for s in (-0.1, 0.1, 0.3):
        scaled = solve_gevp(
            _reduced(mesh, dilation_control(mesh, s)),
            EigenSelection(nev=7, shift=9.0 / (1 + s) ** 2, tol=1e-8))
        lam_s = np.array([p.lam for p in scaled])
        rel = np.abs(lam_s - lam0 / (1 + s) ** 2) / (lam0 / (1 + s) ** 2)
        assert _report(f"2 dilation s={s:+.1f}", bool(np.all(rel <= 1e-3)),
                       f"max rel dev {rel.max():.3e} vs 1e-3")

    shift_field = DeformationField(
        mesh, np.tile((0.25, -0.4), (mesh.n_vertices, 1)))
    moved = solve_gevp(_reduced(mesh, shift_field),
                       EigenSelection(nev=7, shift=9.0, tol=1e-8))
    lam_t = np.array([p.lam for p in moved])
    dev = np.abs(lam_t - lam0)
    bound = 1e-8 + 1e-8 * np.abs(lam0)
    assert _report("2 translation", bool(np.all(dev <= bound)),
                   f"max shift {dev.max():.3e} vs {bound.max():.3e}")


# -- 3: adjoint gradient vs finite differences -------------------------------

def test_adjoint_gradient_finite_differences():
    """Relative error <= 1e-4 at h = 1e-5 with O(h^2) decay, at q=0 and q!=0."""
    start = time.perf_counter()
    mesh = generate_unit_square(8)
    lam0 = np.pi ** 2
    params = ObjectiveParams(lambda_target=0.9 * lam0, alpha=2.7e-4,
                             beta=1e-6, epsilon=1e-4)
    sel = EigenSelection(index=0, nev=6, shift=8.0, tol=1e-9)
    prob = MaxwellShapeProblem(mesh, params, sel, seed=7)
    rng = np.random.default_rng(7)
    steps = (1e-3, 1e-4, 1e-5)

    for q_inf in (0.0, 0.05):
        if q_inf == 0.0:
            q = prob.zero_control()
        else:
            q = random_feasible_control(mesh, rng, q_inf).values
        functional, _ = prob.derivative_functional(q)
        worst_fine = 0.0
        for i in range(5):
            p = rng.standard_normal((mesh.n_vertices, 2))
            p /= prob.q_norm(p)
            exact = float(np.vdot(functional, p))
            errs = []
            for h in steps:
                fd = (prob.evaluate(q + h * p)
                      - prob.evaluate(q - h * p)) / (2 * h)
                errs.append(abs(exact - fd) / max(1.0, abs(fd)))
            worst_fine = max(worst_fine, errs[2])
            # O(h^2): one decade in h buys ~two decades in error until the
            # evaluation noise floor (~1e-8) takes over at the finest step.
            assert errs[0] / errs[1] >= 20.0, (q_inf, i, errs)
            assert errs[2] <= errs[0], (q_inf, i, errs)
        assert _report(f"3 gradient q_inf={q_inf:g}", worst_fine <= 1e-4,
                       f"max rel err {worst_fine:.3e} vs 1e-4")
    elapsed = time.perf_counter() - start
    assert _report("3 runtime", elapsed <= 120.0, f"{elapsed:.1f}s vs 120s")


# -- 4: damping lemma suite ---------------------------------------------------

def test_damping_lemma_suite():
    """1000 randomized damping events: curvature bound, positivity, oracle."""
    start = time.perf_counter()
    h = assemble_control_gram(generate_unit_square(2)).toarray()
    gram = np.kron(h, np.eye(2))[:10, :10]

    def qdot(u, v):
        return float(u @ (gram @ v))

    def dense_operator(hist):
        # product form from the pairs (d~, y) alone, rho from the Gram,
        # from B_0 = gamma I with gamma = (d~, y)_Q / (y, y)_Q of the newest
        # pair (b0_scale without pairs)
        eye = np.eye(10)
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

    rng = np.random.default_rng(42)
    xi = 0.2
    for trial in range(1000):
        hist = BfgsHistory(b0_scale=float(rng.uniform(0.2, 3.0)), m_mem=4)
        for _ in range(int(rng.integers(0, 4))):
            y = rng.standard_normal(10)
            d = rng.standard_normal(10)
            d_damped, _ = damp(y, gram @ y, d, hist, xi)
            hist.push(d_damped, y, gram @ d_damped, gram @ y)

        y = rng.standard_normal(10)
        d = rng.standard_normal(10)
        by = apply_inverse_hessian(hist, y)
        yby = qdot(y, by)
        d_damped, theta = damp(y, gram @ y, d, hist, xi)
        assert qdot(y, d_damped) >= xi * yby - 1e-12 * abs(yby), trial
        hist.push(d_damped, y, gram @ d_damped, gram @ y)

        for _ in range(20):
            p = rng.standard_normal(10)
            assert qdot(p, apply_inverse_hessian(hist, p)) > 0.0, trial

        dense = dense_operator(hist)
        g = rng.standard_normal(10)
        recursive = apply_inverse_hessian(hist, g)
        ref = np.linalg.norm(dense @ g)
        assert np.linalg.norm(recursive - dense @ g) <= 1e-12 * max(ref, 1.0)

    elapsed = time.perf_counter() - start
    assert _report("4 damping suite", True,
                   "1000 randomized events: curvature, positivity, oracle")
    assert _report("4 runtime", elapsed <= 10.0, f"{elapsed:.1f}s vs 10s")


# -- 5: end-to-end optimization, desk scale -----------------------------------

@pytest.fixture(scope="module")
def desk_run():
    """Shared desk-scale optimization on the 16x16 unit square."""
    problem, lam0, cfg = desk_problem(generate_unit_square(16))
    start = time.perf_counter()
    q, records, status = optimize(problem, problem.zero_control(),
                                  replace(cfg, k_max=50))
    elapsed = time.perf_counter() - start
    return dict(problem=problem, lam0=lam0,
                lam_star=problem.params.lambda_target, q=q,
                records=records, status=status, elapsed=elapsed)


def test_desk_scale_reaches_target(desk_run):
    """|lam - lam*| <= 1e-3 lam* and J <= 1e-6 within 50 iterations."""
    lam_star = desk_run["lam_star"]
    records = desk_run["records"]
    qualifying = [r for r in records
                  if abs(r.lam - lam_star) <= 1e-3 * lam_star
                  and r.j_value <= 1e-6]
    ok = bool(qualifying) and qualifying[0].k <= 50
    detail = (f"first qualifying iterate k={qualifying[0].k}"
              if qualifying else "no qualifying iterate")
    assert _report("5 target", ok, detail)

    final = records[-1]
    assert _report(
        "5 final state", abs(final.lam - lam_star) <= 1e-3 * lam_star,
        f"|lam-lam*| = {abs(final.lam - lam_star):.2e} "
        f"vs {1e-3 * lam_star:.2e}, j = {final.j_value:.2e}")


def test_desk_scale_monotone_descent(desk_run):
    values = [r.j_value for r in desk_run["records"]]
    ok = all(b <= a for a, b in zip(values, values[1:]))
    assert _report("5 monotone descent", ok,
                   f"{len(values)} iterates, j {values[0]:.3e} -> {values[-1]:.3e}")


def test_desk_scale_mode_swaps(desk_run):
    """The square's tracked index swaps modes at each of the first four
    steps: each lifts the tracked mode above its neighbour, so the new
    index-0 vector is M-orthogonal to the last one."""
    overlaps = [r.mode_overlap for r in desk_run["records"][:5]]
    assert math.isnan(overlaps[0])        # the first state is cold
    ok = all(o < 0.01 for o in overlaps[1:])
    assert _report("5 mode swaps", ok,
                   "overlaps at k = 1-4: "
                   + ", ".join(f"{o:.2e}" for o in overlaps[1:]))


def test_desk_scale_runtime(desk_run):
    elapsed = desk_run["elapsed"]
    assert _report("5 runtime", elapsed <= 300.0, f"{elapsed:.1f}s vs 300s")


def test_desk_scale_jacobian_window(desk_run):
    """Jacobian extremes within (0.95, 1.05) at the qualifying iterate.

    The minimizer of this objective concentrates the shrinkage where the
    tracked mode carries its energy instead of scaling the domain uniformly
    (uniform scaling would give a jacobian of 1/1.05 = 0.9524 everywhere,
    at a strictly larger H1 cost): the converged jacobian minimum sits near
    0.92 on this mesh, below the required window.  The check is kept as
    stated; see the repository notes for the analysis.
    """
    lam_star = desk_run["lam_star"]
    records = desk_run["records"]
    qualifying = [r for r in records
                  if abs(r.lam - lam_star) <= 1e-3 * lam_star
                  and r.j_value <= 1e-6]
    assert qualifying
    rec = qualifying[0]
    ok = 0.95 < rec.jq_min and rec.jq_max < 1.05
    assert _report("5 jacobian window", ok,
                   f"J in [{rec.jq_min:.5f}, {rec.jq_max:.5f}] vs (0.95, 1.05)")


def test_desk_first_search_is_short():
    """The first line search makes <= 3 trials, none of them infeasible:
    every trial takes a cost floor, and those it does not reject an
    evaluation."""
    problem, _, cfg = desk_problem(generate_unit_square(16))
    floors, values = [], []
    cost_floor, evaluate = problem.cost_floor, problem.evaluate

    def floor_recording(q):
        floors.append(cost_floor(q))
        return floors[-1]

    def recording(q, lam=None):
        value = evaluate(q, lam)
        if lam is None:                      # an Armijo trial
            values.append(value)
        return value

    problem.cost_floor = floor_recording
    problem.evaluate = recording
    _, records, _ = optimize(problem, problem.zero_control(),
                             replace(cfg, k_max=1))
    assert records[0].ls_trials == len(floors) >= len(values)
    infinite = sum(math.isinf(v) for v in floors + values)
    ok = len(floors) <= 3 and infinite == 0
    assert _report("5 first search", ok,
                   f"{len(floors)} trials vs 3, {infinite} infinite vs 0")


# -- 5b: a simple eigenvalue converges, independently of the mesh -------------

@pytest.fixture(scope="module")
def rectangle_run():
    """The desk configuration on the 1 x 0.8 rectangle at n x n, by n.

    The rectangle's ground eigenvalue pi^2 is simple (the next one is
    pi^2 / 0.64), unlike the square's double pi^2, so the optimizer can stop
    at a stationary point.
    """
    runs = {}

    def run(n):
        if n not in runs:
            square = generate_unit_square(n)
            mesh = Mesh(square.vertices * [1.0, 0.8], square.triangles)
            problem, _, cfg = desk_problem(mesh)
            q, records, status = optimize(problem, problem.zero_control(),
                                          replace(cfg, k_max=100))
            runs[n] = dict(problem=problem, q=q, records=records,
                           status=status)
        return runs[n]

    return run


def test_rectangle_converges(rectangle_run):
    """CONVERGED within 100 iterates, monotone J, certified final state."""
    run = rectangle_run(16)
    records = run["records"]
    assert _report("5b rectangle status",
                   run["status"] is OptimizeStatus.CONVERGED,
                   f"{run['status'].value} at k={records[-1].k}, "
                   f"|g|_Q = {records[-1].grad_norm:.2e}")
    values = [r.j_value for r in records]
    assert _report("5b rectangle monotone descent",
                   all(b <= a for a, b in zip(values, values[1:])),
                   f"j {values[0]:.3e} -> {values[-1]:.3e}")

    problem = run["problem"]
    forms = apply_dirichlet(
        assemble_forms(problem.mesh, problem.dofs, problem.field(run["q"])),
        problem.dofs)
    worst = _divergence_certificate(forms, solve_gevp(forms, problem.sel))
    assert _report("5b rectangle divergence certificate", worst <= 1e-6,
                   f"max ||B^T u|| / ||M u|| = {worst:.3e} vs 1e-6")


def test_rectangle_mesh_independence(rectangle_run):
    """Both n = 16 and n = 32 converge, with k_32 <= 1.5 k_16."""
    k = {}
    for n in (16, 32):
        run = rectangle_run(n)
        assert _report(f"5b rectangle n={n}",
                       run["status"] is OptimizeStatus.CONVERGED,
                       f"{run['status'].value} at k={run['records'][-1].k}")
        k[n] = run["records"][-1].k
    assert _report("5b mesh independence", k[32] <= 1.5 * k[16],
                   f"k_32 = {k[32]} vs 1.5 k_16 = {1.5 * k[16]:g}")


def test_riesz_gradient_mesh_independence():
    """||g_0||_Q on the desk square settles: |g_64 - g_32| <= |g_32 - g_16| / 3.

    A wrong component layout or scaling in the Riesz map shows up as a norm
    that drifts with n; the finite-difference checks hold n fixed.
    """
    norms = {}
    for n in (16, 32, 64):
        problem, _, _ = desk_problem(generate_unit_square(n))
        norms[n] = problem.gradient(problem.zero_control())[0].norm_q
    coarse = abs(norms[32] - norms[16])
    fine = abs(norms[64] - norms[32])
    assert _report("5b Riesz gradient mesh independence",
                   fine <= coarse / 3,
                   "||g_0||_Q = " + ", ".join(f"{v:.4f}" for v in norms.values())
                   + f"; ratio {fine / coarse:.3f} vs 1/3")


# -- 6: cavity reproduction (needs the external mesh) -------------------------

CAVITY_MESH_VAR = "MAXSHAPE_CAVITY_MSH"


@pytest.mark.skipif(CAVITY_MESH_VAR not in os.environ,
                    reason="5-cell cavity mesh not available "
                           f"(set {CAVITY_MESH_VAR} to run)")
def test_cavity_reproduction():
    """Initial eigenvalue 6018.47 +- 0.5%; optimization hits 6017 +- 0.5."""
    mesh = ms.parse_msh(Path(os.environ[CAVITY_MESH_VAR]).read_text())
    params = ObjectiveParams(lambda_target=CAVITY_TARGET, alpha=CAVITY_ALPHA,
                             beta=1e-6, epsilon=1e-4)
    sel = EigenSelection(index=0, nev=6, shift=0.9 * CAVITY_TARGET, tol=1e-5)
    problem = MaxwellShapeProblem(mesh, params, sel, seed=0)
    print(f"cavity mixed system: {problem.dofs.full.n} DoFs")

    lam0 = problem.solve_state(problem.zero_control()).lam
    assert _report("6 initial eigenvalue", abs(lam0 - 6018.47) <= 0.005 * 6018.47,
                   f"lam0 = {lam0:.2f} vs 6018.47 +- 0.5%")

    cfg = OptimizerConfig(tol=1e-7, k_max=30, b0_scale=1.0 / CAVITY_ALPHA)
    _, records, _ = optimize(problem, problem.zero_control(), cfg)
    final = records[-1]
    assert _report("6 final eigenvalue", abs(final.lam - CAVITY_TARGET) <= 0.5,
                   f"lam = {final.lam:.3f} vs 6017 +- 0.5")
    assert _report("6 final objective", final.j_value <= 1e-6,
                   f"J = {final.j_value:.3e} vs 1e-6")
    assert _report("6 jacobian", 0.999 <= final.jq_min <= final.jq_max <= 1.001,
                   f"J_q in [{final.jq_min:.5f}, {final.jq_max:.5f}]")
    assert _report("6 iterations", final.k <= 30, f"{final.k} vs 30")


# -- 7: spurious-mode freedom --------------------------------------------------

def test_spurious_mode_freedom(desk_run):
    """Every returned eigenpair satisfies ||B^T u|| <= 1e-6 ||M u||."""
    worst = 0.0
    for n in (8, 16):
        mesh = generate_unit_square(n)
        forms = _reduced(mesh)
        pairs = solve_gevp(forms, EigenSelection(nev=7, shift=9.0, tol=1e-8))
        worst = max(worst, _divergence_certificate(forms, pairs))

    mesh = generate_unit_square(16)
    for s in (-0.1, 0.3):
        forms = _reduced(mesh, dilation_control(mesh, s))
        pairs = solve_gevp(
            forms, EigenSelection(nev=7, shift=9.0 / (1 + s) ** 2, tol=1e-8))
        worst = max(worst, _divergence_certificate(forms, pairs))

    problem = desk_run["problem"]
    dofs = problem.dofs
    forms = apply_dirichlet(
        assemble_forms(problem.mesh, dofs, problem.field(desk_run["q"])), dofs)
    pairs = solve_gevp(forms, problem.sel)
    worst = max(worst, _divergence_certificate(forms, pairs))

    assert _report("7 divergence certificate", worst <= 1e-6,
                   f"max ||B^T u|| / ||M u|| = {worst:.3e} vs 1e-6")
