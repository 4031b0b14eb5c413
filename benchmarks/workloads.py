"""The benchmark's workloads: inputs made from a seed, the timed call, checks.

Each workload has a set-up (mesh, the lambda0 probe, the generated inputs)
and one main call into the public API: ``optimize`` for desk16,
``cli_runner.check_gradient`` for fdcheck32 and ``cli_runner.run`` for
run64.  The program sees only generated inputs: config text, lambda0 and
lambda*.  The problem class is a subclass that counts state solves and
objective evaluations, so that every run, traced or not, yields exact
counts.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import shutil
import tempfile
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import maxshape
from maxshape import cli_runner

# Reference cavity weighting the desk run scales from: alpha = 100 at 6017.
CAVITY_ALPHA = 100.0
CAVITY_TARGET = 6017.0


def counting_problem(counts: Counter, gauge=None):
    """MaxwellShapeProblem subclass that tallies its calls into counts.

    Each state solve also ticks the host-speed gauge, when there is one.
    """

    class CountingProblem(maxshape.MaxwellShapeProblem):
        def solve_state(self, q):
            if self.gauge is not None:
                self.gauge.tick()
            key = hashlib.blake2b(np.asarray(q).tobytes(),
                                  digest_size=16).digest()
            seen = self.__dict__.setdefault("_solved_at", set())
            counts["solves"] += 1
            counts["repeat_solves"] += key in seen
            seen.add(key)
            return super().solve_state(q)

        def evaluate(self, q, lam=None):
            counts["evaluations"] += 1
            counts["evaluations_at_new_point"] += lam is None
            value = super().evaluate(q, lam)
            counts["inf_evaluations"] += math.isinf(value)
            return value

    CountingProblem.gauge = gauge
    return CountingProblem


@dataclass
class Rep:
    """Outcome of one main call.

    Times are in seconds of the call's gauge clock, which leaves out the
    reference kernel; ``scale`` converts them to reference seconds.
    """

    run_s: float
    time_to_target_s: float
    counts: dict
    failures: list[str] = field(default_factory=list)
    status: str = ""
    artifact: bytes = b""
    detail: object = None      # what the workload's check needs
    scale: float = 1.0


@dataclass
class Inputs:
    """Generated inputs of one main call."""

    lam_star: float
    alpha: float


def probe_lambda0(n: int, seed: int) -> float:
    """Smallest eigenvalue of the undeformed n x n unit square."""
    mesh = maxshape.generate_unit_square(n)
    sel = maxshape.EigenSelection(index=0, nev=8, shift=9.0, tol=1e-8)
    probe = maxshape.MaxwellShapeProblem(
        mesh, maxshape.ObjectiveParams(lambda_target=1.0, alpha=0.0), sel,
        seed=seed)
    return probe.solve_state(probe.zero_control()).lam


def target_inputs(n: int, seed: int) -> Inputs:
    """The desk problem at n: lambda* = 1.05 lambda0, cavity-scaled alpha."""
    lam0 = probe_lambda0(n, seed)
    return Inputs(lam_star=1.05 * lam0,
                  alpha=CAVITY_ALPHA * (lam0 / CAVITY_TARGET) ** 2)


def config_text(n: int, inputs: Inputs, seed: int, **extra) -> str:
    lines = {
        "mesh.unit_square": n,
        "objective.lambda_target": repr(inputs.lam_star),
        "objective.alpha": repr(inputs.alpha),
        "objective.beta": "1e-6",
        "objective.epsilon": "1e-4",
        "eigen.index": 0,
        "eigen.nev": 8,
        "eigen.shift": repr(0.9 * inputs.lam_star),
        "eigen.tol": "1e-8",
        "optimizer.tol": "1e-7",
        "optimizer.b0_scale": repr(1.0 / inputs.alpha),
        "seed": seed,
    }
    lines.update(extra)
    return "".join(f"{k} = {v}\n" for k, v in lines.items())


def qualifies(rec, lam_star: float) -> bool:
    """The acceptance target: |lam - lam*| <= 1e-3 lam* and J <= 1e-6."""
    return abs(rec.lam - lam_star) <= 1e-3 * lam_star and rec.j_value <= 1e-6


# Binding sites on every workload's path: the lambda0 probe, the problem's
# construction, its state solves and its reduced derivative.
SOLVE_SITES = (
    "maxshape.generate_unit_square",
    "maxshape.problem.assemble_control_gram",
    "maxshape.adjoint_gradient.solve_state",
    "maxshape.adjoint_gradient.assemble_forms",
    "maxshape.adjoint_gradient.apply_dirichlet",
    "maxshape.adjoint_gradient.solve_gevp",
    "eigensolver.spla.splu",
    "eigensolver.spla.eigs",
    "maxshape.adjoint_gradient.solve_adjoint",
    "maxshape.adjoint_gradient.reduced_derivative",
    "maxshape.adjoint_gradient.assemble_shape_derivative",
    "maxshape.adjoint_gradient.derivative_q",
    "maxshape.objective.evaluate",
    "problem.solve_state",
    "problem.evaluate",
)


class Workload:
    name = ""
    why = ""
    n = 0
    # Binding sites the traced set-up and main call must go through.
    sites: tuple[str, ...] = ()

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir

    def setup(self):
        raise NotImplementedError

    def main(self, ctx, gauge) -> Rep:
        """The timed call, timestamped with ``gauge.clock``."""
        raise NotImplementedError

    def check(self, rep: Rep) -> list[str]:
        """Output checks, run outside the timed region."""
        return []


class Desk16(Workload):
    name = "desk16"
    why = ("acceptance desk run at n=16 through optimize: 51 iterates, "
           "repeat solves and the shape derivative dominate a cheap "
           "factorization")
    n = 16
    sites = SOLVE_SITES + ("maxshape.optimize",
                           "maxshape.adjoint_gradient.riesz_gradient")

    def setup(self):
        inputs = target_inputs(self.n, self.seed)
        counts = Counter()
        problem = counting_problem(counts)(
            maxshape.generate_unit_square(self.n),
            maxshape.ObjectiveParams(lambda_target=inputs.lam_star,
                                     alpha=inputs.alpha, beta=1e-6,
                                     epsilon=1e-4),
            maxshape.EigenSelection(index=0, nev=8,
                                    shift=0.9 * inputs.lam_star, tol=1e-8),
            seed=self.seed)
        return inputs, problem, counts

    def main(self, ctx, gauge) -> Rep:
        inputs, problem, counts = ctx
        problem.gauge = gauge
        cfg = maxshape.OptimizerConfig(tol=1e-7, k_max=50,
                                       b0_scale=1.0 / inputs.alpha)
        hit: list[float] = []

        def on_iterate(k, q, rec):
            if not hit and qualifies(rec, inputs.lam_star):
                hit.append(gauge.clock())

        start = gauge.clock()
        q, records, status = maxshape.optimize(
            problem, problem.zero_control(), cfg, callback=on_iterate)
        end = gauge.clock()

        first = next((r.k for r in records if qualifies(r, inputs.lam_star)),
                     -1)
        # A qualifying terminal iterate is handed to no callback.
        reached = hit[0] if hit else end
        return Rep(run_s=end - start, time_to_target_s=reached - start,
                   counts=_optimizer_counts(counts, records, first),
                   status=status.value, detail=(problem, q, records))

    def check(self, rep):
        problem, q, records = rep.detail
        failures = []
        if not 0 <= rep.counts["first_target_k"] <= 50:
            failures.append("no iterate k <= 50 meets the target")
        values = [r.j_value for r in records]
        if any(b > a for a, b in zip(values, values[1:])):
            failures.append("J increased between iterates")
        cert = divergence_certificate(problem, q)
        if not cert <= 1e-6:
            failures.append(f"divergence certificate {cert:.3e} > 1e-6")
        return failures


class FdCheck32(Workload):
    name = "fdcheck32"
    why = ("check_gradient at n=32: objective evaluations at distinct "
           "points; no optimizer, no repeat solves, one shape derivative")
    n = 32
    directions = 6
    steps = [1e-3, 1e-4, 1e-5]
    q_inf = 0.005
    sites = SOLVE_SITES + ("maxshape.cli_runner.check_gradient",
                           "maxshape.cli_runner.generate_unit_square")

    def setup(self):
        return config_text(self.n, target_inputs(self.n, self.seed),
                           self.seed, **{"eigen.tol": "1e-9"})

    def main(self, ctx, gauge) -> Rep:
        cfg = cli_runner.parse_config(ctx)
        counts = Counter()
        with _bound(cli_runner, "MaxwellShapeProblem",
                    counting_problem(counts, gauge)), \
                contextlib.redirect_stdout(io.StringIO()):
            start = gauge.clock()
            report, code = cli_runner.check_gradient(
                cfg, self.directions, self.steps, q_inf=self.q_inf)
            end = gauge.clock()
        return Rep(run_s=end - start, time_to_target_s=end - start,
                   counts={k: counts[k] for k in
                           ("solves", "repeat_solves", "evaluations",
                            "inf_evaluations")},
                   status=f"exit {code}, max_rel_error "
                          f"{report['max_rel_error']:.6e}",
                   detail=(report, code))

    def check(self, rep):
        report, code = rep.detail
        err = report["max_rel_error"]
        failures = []
        if not err <= 1e-4:
            failures.append(f"max relative error {err:.3e} > 1e-4")
        if code != 0:
            failures.append(f"check_gradient returned {code}")
        return failures


class Run64(Workload):
    name = "run64"
    why = ("maxshape run at n=64, k_max=1: LU fill and eigensolve at "
           "scale, set-up at scale, memory and artifact writing")
    n = 64
    k_max = 1
    sites = SOLVE_SITES + (
        "maxshape.cli_runner.run", "maxshape.cli_runner.optimize",
        "maxshape.cli_runner.generate_unit_square",
        "maxshape.cli_runner.write_vtk",
        "maxshape.cli_runner._cell_field_magnitude",
        "maxshape.adjoint_gradient.riesz_gradient")

    def setup(self):
        return target_inputs(self.n, self.seed)

    def main(self, ctx, gauge) -> Rep:
        inputs = ctx
        out = Path(tempfile.mkdtemp(prefix="run64-", dir=self.workdir))
        try:
            text = config_text(self.n, inputs, self.seed,
                               **{"optimizer.k_max": self.k_max,
                                  "output.dir": out,
                                  "output.emit_vtk_every": 0})
            cfg = cli_runner.parse_config(text)
            counts = Counter()
            accepted: list[float] = []
            stamped = _stamp_accepted_steps(cli_runner.optimize, accepted,
                                            gauge.clock)
            with _bound(cli_runner, "MaxwellShapeProblem",
                        counting_problem(counts, gauge)), \
                    _bound(cli_runner, "optimize", stamped), \
                    contextlib.redirect_stdout(io.StringIO()):
                start = gauge.clock()
                code = cli_runner.run(cfg)
                end = gauge.clock()
            csv = (out / "iterations.csv").read_bytes()
            summary = (out / "summary.txt").read_text()
        finally:
            shutil.rmtree(out, ignore_errors=True)
        status = _summary_field(summary, "status")
        records = stamped.records
        return Rep(run_s=end - start,
                   time_to_target_s=(accepted[0] if accepted else end) - start,
                   counts=_optimizer_counts(counts, records, -1),
                   status=status, artifact=csv, detail=code)

    def check(self, rep):
        failures = []
        if (rep.detail == 0) != (rep.status == "converged"):
            failures.append(f"exit code {rep.detail} disagrees with status "
                            f"{rep.status!r} in summary.txt")
        # Each call is compared with the first call ever made in this
        # checkout on the same seed and the same program source.
        first = self.workdir / (f"run64-seed{self.seed}-{_source_digest()}"
                                "-iterations.csv")
        if not first.exists():
            first.write_bytes(rep.artifact)
        elif first.read_bytes() != rep.artifact:
            failures.append("iterations.csv differs from an earlier run")
        return failures


WORKLOADS = {w.name: w for w in (Desk16, FdCheck32, Run64)}


def divergence_certificate(problem, q: np.ndarray) -> float:
    """||B^T u|| / ||M u|| of the tracked pair at control q."""
    forms = maxshape.apply_dirichlet(
        maxshape.assemble_forms(problem.mesh, problem.dofs, problem.field(q)),
        problem.dofs)
    pairs = maxshape.solve_gevp(forms, problem.sel)
    pair = maxshape.select_and_normalize(pairs, problem.sel, forms.M)
    return float(np.linalg.norm(forms.B.T @ pair.u)
                 / np.linalg.norm(forms.M @ pair.u))


def _optimizer_counts(counts: Counter, records, first_target_k: int) -> dict:
    steps = [r for r in records if r.step > 0]
    return {
        "solves": counts["solves"],
        "repeat_solves": counts["repeat_solves"],
        "evaluations": counts["evaluations"],
        "inf_evaluations": counts["inf_evaluations"],
        # optimize evaluates with a known eigenvalue once; every other
        # evaluation is an Armijo trial
        "ls_trials": counts["evaluations_at_new_point"],
        "iterates": len(records),
        "damped_steps": sum(r.theta < 1.0 for r in steps),
        "steps": len(steps),
        "first_target_k": first_target_k,
    }


def _stamp_accepted_steps(optimize, stamps: list[float], clock):
    """optimize that also records when each step is accepted, and its log."""

    def stamped(problem, q0, cfg, callback=None):
        def on_iterate(k, q, rec):
            stamps.append(clock())
            if callback is not None:
                callback(k, q, rec)
        q, records, status = optimize(problem, q0, cfg, callback=on_iterate)
        stamped.records = records
        return q, records, status

    stamped.records = []
    return stamped


@contextlib.contextmanager
def _bound(owner, attr: str, value):
    saved = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield
    finally:
        setattr(owner, attr, saved)


def _source_digest() -> str:
    """Digest of the maxshape sources, naming the program version."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted(Path(maxshape.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _summary_field(summary: str, key: str) -> str:
    for line in summary.splitlines():
        name, _, value = line.partition("=")
        if name.strip() == key:
            return value.strip()
    return ""
