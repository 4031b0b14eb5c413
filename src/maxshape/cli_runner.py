"""Configuration-driven entry point for optimization and validation runs.

Configs are flat ``key = value`` text with dotted section prefixes::

    mesh.unit_square      = 16
    objective.lambda_target = 10.36
    objective.alpha       = 100
    output.dir            = out

Subcommands: ``run`` (full optimization with artifacts), ``check-gradient``
(finite-difference validation of the adjoint derivative) and ``eigs``
(eigenvalue solve only).  Verbosity via MAXSHAPE_LOG in {error, info, debug}.
"""

from __future__ import annotations

import argparse
import logging
import math
import numbers
import os
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__, adjoint_gradient
from .bfgs_optimizer import (
    IterationRecord,
    OptimizeStatus,
    OptimizerConfig,
    optimize,
    write_iteration_csv,
)
from .eigensolver import EigenSelection, solve_gevp
from .errors import ConfigError, MaxshapeError
from .fem_assembly import LOCAL_INCIDENCE
from .mesh_io import Mesh, generate_unit_square, parse_msh, write_vtk
from .objective import ObjectiveParams
from .problem import MaxwellShapeProblem
from .reference_transform import DeformationField

log = logging.getLogger(__name__)

# Largest relative error at the finest step that check-gradient passes.
GRADIENT_REL_TOL = 1e-4


@dataclass
class RunConfig:
    """Fully resolved configuration of one optimization run."""

    mesh_msh_path: Path | None = None
    mesh_unit_square: int | None = None
    objective: ObjectiveParams = field(
        default_factory=lambda: ObjectiveParams(lambda_target=1.0))
    eigen: EigenSelection = field(default_factory=EigenSelection)
    optimizer: OptimizerConfig = field(default_factory=OptimizerConfig)
    output_dir: Path = Path("out")
    emit_vtk_every: int = 0
    seed: int = 0


_KEY_TYPES = {
    "mesh.msh_path": Path,
    "mesh.unit_square": int,
    "objective.lambda_target": float,
    "objective.alpha": float,
    "objective.beta": float,
    "objective.epsilon": float,
    "eigen.index": int,
    "eigen.shift": float,
    "eigen.nev": int,
    "eigen.tol": float,
    "optimizer.tol": float,
    "optimizer.k_max": int,
    "optimizer.gamma": float,
    "optimizer.rho": float,
    "optimizer.ls_max": int,
    "optimizer.xi": float,
    "optimizer.m_mem": int,
    "optimizer.b0_scale": float,
    "output.dir": Path,
    "output.emit_vtk_every": int,
    "seed": int,
}

# Configuration keys outside the parameter sections, by RunConfig field.
_RUN_FIELDS = {
    "mesh.msh_path": "mesh_msh_path",
    "mesh.unit_square": "mesh_unit_square",
    "output.dir": "output_dir",
    "output.emit_vtk_every": "emit_vtk_every",
    "seed": "seed",
}


def parse_config(text: str) -> RunConfig:
    """Parse configuration text into a validated RunConfig.

    Raises:
        ConfigError: unknown keys, bad values, or missing/ambiguous mesh.
    """
    raw: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = _KEY_TYPES[key](value)
            if isinstance(raw[key], float) and not math.isfinite(raw[key]):
                raise ValueError(f"{value!r} is not finite")
            # the derived shift 0.9*lambda_target needs a positive target
            if key == "objective.lambda_target" and raw[key] <= 0.0:
                raise ValueError(f"{value!r} is not > 0")
            # numpy's generators take no negative seed
            if key == "seed" and raw[key] < 0:
                raise ValueError(f"{value!r} is not >= 0")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {exc}")

    if ("mesh.msh_path" in raw) == ("mesh.unit_square" in raw):
        raise ConfigError(
            "exactly one of mesh.msh_path and mesh.unit_square is required")
    if "objective.lambda_target" not in raw:
        raise ConfigError("objective.lambda_target is required")

    def section(prefix: str) -> dict:
        return {key[len(prefix):]: value for key, value in raw.items()
                if key.startswith(prefix)}

    def build(name: str, cls, values: dict):
        try:
            return cls(**values)
        except ValueError as exc:
            raise ConfigError(f"{name}: {exc}")

    objective = build("objective", ObjectiveParams, section("objective."))
    eigen = build("eigen", EigenSelection, section("eigen."))
    opt = section("optimizer.")
    if "rho" in opt:
        opt["rho_ls"] = opt.pop("rho")
    # CLI default: the initial inverse Hessian scales with 1 / alpha
    opt.setdefault("b0_scale",
                   1.0 / objective.alpha if objective.alpha > 0 else 1.0)
    optimizer = build("optimizer", OptimizerConfig, opt)

    if raw.get("mesh.unit_square", 1) < 1:
        raise ConfigError("mesh.unit_square must be >= 1")
    # Only the keys present: RunConfig keeps its own defaults for the rest.
    top = {name: raw[key] for key, name in _RUN_FIELDS.items() if key in raw}
    return RunConfig(objective=objective, eigen=eigen, optimizer=optimizer,
                     **top)


def load_config(path: str | os.PathLike) -> RunConfig:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    return parse_config(path.read_text())


def load_mesh(cfg: RunConfig) -> Mesh:
    """Materialize the mesh named by the configuration.

    Raises:
        ConfigError: the MSH file is missing or unreadable.
    """
    if cfg.mesh_unit_square is not None:
        return generate_unit_square(cfg.mesh_unit_square)
    path = cfg.mesh_msh_path
    if path is None or not path.is_file():
        raise ConfigError(f"mesh file not found: {path}")
    try:
        return parse_msh(path.read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read mesh file {path}: {exc}")


def build_problem(cfg: RunConfig) -> MaxwellShapeProblem:
    mesh = load_mesh(cfg)
    return MaxwellShapeProblem(mesh, cfg.objective, cfg.eigen, seed=cfg.seed)


# -- run --------------------------------------------------------------------

def run(cfg: RunConfig) -> int:
    """Execute the optimization and write all artifacts.

    Writes iterations.csv, summary.txt and deformed-mesh VTK snapshots to
    the output directory.  Returns 0 on convergence, 1 otherwise.
    """
    problem = build_problem(cfg)        # validates mesh before any artifact
    mesh = problem.mesh
    out = cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)

    every = cfg.emit_vtk_every

    def snapshot(k: int, q: np.ndarray, _rec: IterationRecord) -> None:
        if every > 0 and (k % every) == 0:
            field_q = problem.field(q)
            text = write_vtk(mesh, field_q, title=f"iteration {k}")
            (out / f"deformed_{k:04d}.vtk").write_text(text)

    q0 = problem.zero_control()
    q_final, records, status = optimize(problem, q0, cfg.optimizer,
                                        callback=snapshot)

    (out / "iterations.csv").write_text(write_iteration_csv(records))

    state = problem.solve_state(q_final)
    field_q = problem.field(q_final)
    u_mag = _cell_field_magnitude(mesh, field_q, state.u)
    text = write_vtk(mesh, field_q, fields={"u_mag": u_mag},
                     title="final configuration")
    (out / "deformed_final.vtk").write_text(text)

    first, last = records[0], records[-1]
    r_rel = last.grad_norm / first.grad_norm if first.grad_norm > 0 else 0.0
    summary = "\n".join([
        f"mesh_vertices = {mesh.n_vertices}",
        f"mesh_edges = {mesh.n_edges}",
        f"mesh_triangles = {mesh.n_triangles}",
        f"dofs_total = {problem.dofs.full.n}",
        f"dofs_free = {problem.dofs.free.n}",
        f"lambda_initial = {first.lam:.10g}",
        f"lambda_final = {last.lam:.10g}",
        f"lambda_target = {cfg.objective.lambda_target:.10g}",
        f"j_final = {last.j_value:.10g}",
        # relative gradient residual, final over initial (assumed definition)
        f"r_rel = {r_rel:.10g}",
        f"jq_min = {last.jq_min:.10g}",
        f"jq_max = {last.jq_max:.10g}",
        f"iterations = {last.k}",
        f"status = {status.value}",
    ]) + "\n"
    (out / "summary.txt").write_text(summary)
    sys.stdout.write(summary)
    return 0 if status is OptimizeStatus.CONVERGED else 1


def _cell_field_magnitude(mesh: Mesh, q: DeformationField,
                          u: np.ndarray) -> np.ndarray:
    """|DF^-T u_h| at triangle centroids, for visualization."""
    # Every lam is 1/3 at the centroid, so the pulled Whitney function of
    # local edge k = (a, b) is s_k (P[b] - P[a]) / 3, P = DF^-T grad(lam).
    su = mesh.triangle_edge_signs * u[mesh.triangle_edges]
    weights = (su @ LOCAL_INCIDENCE / 3.0)[:, None, :]          # (T, 1, 3)
    return np.linalg.norm((weights @ q.pulled_gradients)[:, 0], axis=1)


# -- check-gradient ---------------------------------------------------------

def check_gradient(cfg: RunConfig, n_directions: int,
                   h: float | list[float] = 1e-5,
                   q_inf: float = 0.0) -> tuple[dict, int]:
    """Finite-difference validation of the reduced derivative.

    Compares the assembled functional against central differences of the
    full objective (re-solving the eigenvalue problem at each trial point)
    for random Q-normalized directions, at q = 0 or at a random feasible
    deformation with max-norm q_inf.  Exit status 0 iff every relative
    error at the smallest step is at most GRADIENT_REL_TOL.  h is a step or
    a sequence of steps; ConfigError rejects it, before any mesh is built,
    unless it holds a step and every step is a number, finite and > 0.
    """
    steps = sorted(_checked_steps(h), reverse=True)
    problem = build_problem(cfg)
    rng = np.random.default_rng(cfg.seed)
    q = _feasible_control(problem, rng, q_inf)

    report: dict = {"q_inf": q_inf, "steps": steps, "directions": []}
    if n_directions <= 0:
        report["max_rel_error"] = 0.0
        _print_report(report)
        return report, 0

    functional, _ = problem.derivative_functional(q)
    for i in range(n_directions):
        p = rng.standard_normal(q.shape)
        p /= problem.q_norm(p)
        exact = float(np.vdot(functional, p))
        rows = []
        for step in steps:
            j_plus = problem.evaluate(q + step * p)
            j_minus = problem.evaluate(q - step * p)
            fd = (j_plus - j_minus) / (2.0 * step)
            rel = abs(exact - fd) / max(1.0, abs(fd))
            rows.append({"h": step, "fd": fd, "exact": exact, "rel_error": rel})
        report["directions"].append(rows)

    # np.max, unlike max, propagates a NaN error from an infinite trial value
    finest = [rows[-1]["rel_error"] for rows in report["directions"]]
    report["max_rel_error"] = float(np.max(finest))
    _print_report(report)
    return report, 0 if report["max_rel_error"] <= GRADIENT_REL_TOL else 1


def _checked_steps(h) -> list[float]:
    """The steps h as floats, checked."""
    steps = np.ravel(h).tolist()
    if not steps or not all(isinstance(step, numbers.Real)
                            and 0 < step < math.inf for step in steps):
        raise ConfigError(f"h needs steps that are numbers, finite and > 0, "
                          f"got {h!r}")
    return [float(step) for step in steps]


def _feasible_control(problem: MaxwellShapeProblem, rng: np.random.Generator,
                      q_inf: float) -> np.ndarray:
    if q_inf == 0.0:
        return problem.zero_control()
    for _ in range(100):
        q = rng.uniform(-1.0, 1.0, size=(problem.mesh.n_vertices, 2))
        q *= q_inf / np.abs(q).max()
        jq_min, _ = problem.jacobian_range(q)
        if jq_min > 2.0 * problem.params.epsilon:
            return q
    raise ConfigError(
        f"could not draw a feasible control with max-norm {q_inf}")


def _print_report(report: dict) -> None:
    print(f"gradient check at |q|_inf = {report['q_inf']:g}")
    for i, rows in enumerate(report["directions"]):
        for row in rows:
            print(f"  dir {i}: h = {row['h']:8.1e}  fd = {row['fd']: .12e}  "
                  f"adjoint = {row['exact']: .12e}  rel_err = {row['rel_error']:.3e}")
    status = "PASS" if report["max_rel_error"] <= GRADIENT_REL_TOL else "FAIL"
    print(f"max relative error at finest step: {report['max_rel_error']:.3e} "
          f"(tolerance {GRADIENT_REL_TOL:g}) -> {status}")


# -- eigs -------------------------------------------------------------------

def run_eigs(cfg: RunConfig, nev: int | None = None) -> int:
    """Solve the eigenvalue problem at q = 0 and print the finite spectrum.
    An nev that EigenSelection rejects raises ConfigError naming --nev."""
    problem = build_problem(cfg)
    sel = problem.sel
    if nev is not None:
        try:
            sel = replace(sel, nev=nev)
        except ValueError as exc:
            raise ConfigError(f"--nev: {exc}")
    forms = adjoint_gradient.state_forms(
        problem.mesh, problem.dofs, problem.field(problem.zero_control()))
    pairs = solve_gevp(forms, sel)
    print(f"dofs_total = {problem.dofs.full.n}  dofs_free = {problem.dofs.free.n}")
    print("  i  lambda            residual   div_certificate")
    for i, p in enumerate(pairs):
        print(f"{i:3d}  {p.lam:<16.10g}  {p.residual:.2e}   {p.divergence:.2e}")
    return 0


# -- entry point ------------------------------------------------------------

def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="maxshape",
        description="2D Maxwell eigenvalue shape optimization")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run the shape optimization")
    p_run.add_argument("--config", required=True)

    p_grad = sub.add_parser("check-gradient",
                            help="finite-difference gradient validation")
    p_grad.add_argument("--config", required=True)
    p_grad.add_argument("--dirs", type=int, default=5)
    p_grad.add_argument("--h", default="1e-5",
                        help="step size, or comma-separated list for decay")
    p_grad.add_argument("--qinf", type=float, default=0.0,
                        help="max-norm of a random feasible base deformation")

    p_eigs = sub.add_parser("eigs", help="eigenvalue solve only")
    p_eigs.add_argument("--config", required=True)
    p_eigs.add_argument("--nev", type=int, default=None)

    args = parser.parse_args(argv)
    _setup_logging()

    try:
        cfg = load_config(args.config)
        if args.command == "run":
            return run(cfg)
        if args.command == "check-gradient":
            _, code = check_gradient(cfg, args.dirs, _steps(args.h),
                                     q_inf=args.qinf)
            return code
        if args.command == "eigs":
            return run_eigs(cfg, args.nev)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MaxshapeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _steps(text: str) -> list[float]:
    """The comma-separated --h steps as floats; check_gradient checks
    their values."""
    try:
        return [float(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise ConfigError(f"--h needs comma-separated numbers, got {text!r}")


def _setup_logging() -> None:
    level = {"error": logging.ERROR, "info": logging.INFO,
             "debug": logging.DEBUG}.get(
        os.environ.get("MAXSHAPE_LOG", "error").lower(), logging.ERROR)
    logging.basicConfig(level=level,
                        format="%(levelname)s %(name)s: %(message)s")


if __name__ == "__main__":
    sys.exit(main())
