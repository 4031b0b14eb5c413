"""Run one workload of the maxshape benchmark and print its metrics.

    python3 benchmarks/run.py --workload desk16 --seed 0 --seconds 10 --trace 0

Run from the root of a checkout; the program is imported from its src/
directory.  With --trace 0 the run repeats set-up and the workload's main
call until --seconds have passed and reports the end-to-end metrics as
medians.  With --trace 1 it makes one untraced and one traced call and
reports the per-layer metrics.  Times of set-up and main calls are in
reference seconds (see hostspeed.py): wall seconds scaled by the host's
speed, gauged with a fixed kernel around and during each call; span times
are wall seconds.  Either way the last line of standard output is one JSON
object; the samples, counts, run metadata and (traced) spans go to
.bench_out/<workload>-seed<seed>-trace<trace>.json.

Every call's outputs are checked; a call that raises or fails a check
counts in ``failed``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

# One process, no extra threads: BLAS must not start a pool of its own.
BLAS_THREADS = {var: "1" for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(BLAS_THREADS)

import hostspeed  # noqa: E402  (imports numpy: after the BLAS setting)
from hostspeed import Gauge  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"

# Set-up is short, so each run times it at least SETUP_SAMPLES times and for
# at least SETUP_SECONDS in all, and reports the median: one sample of 0.1 s
# lands wholly in a slow or a fast second of the host.
SETUP_SAMPLES = 3
SETUP_SECONDS = 2.0

# The main call's gauge samples the reference kernel on the first state
# solve after each such interval; each sample costs about 40 ms.
GAUGE_INTERVAL_S = 0.5

# No call starts that would be expected to end after this many seconds, so a
# run ends well within three minutes.
LAST_START_S = 120.0

END_TO_END = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, the end-to-end metric and workloads it should
# move).  Span metrics cover the main call; mesh generation also covers
# set-up, which is where desk16 and fdcheck32 call it.
PER_LAYER = {
    "fem_assembly.assemble_forms.calls": ("count", "run_s: all"),
    "fem_assembly.assemble_forms.s": ("s", "run_s: all, most on fdcheck32"),
    "fem_assembly.assemble_shape_derivative.calls": (
        "count", "run_s, time_to_target_s: desk16; run_s: run64"),
    "fem_assembly.assemble_shape_derivative.s": (
        "s", "run_s, time_to_target_s: desk16; run_s: run64; "
             "none on fdcheck32"),
    "fem_assembly.apply_dirichlet.s": ("s", "run_s: all"),
    "fem_assembly.assemble_control_gram.s": ("s", "run_s: run64 set-up"),
    "eigensolver.solve_gevp.calls": ("count", "run_s: run64, fdcheck32"),
    "eigensolver.solve_gevp.s": ("s", "run_s: run64, fdcheck32"),
    "eigensolver.solve_gevp.self_s": ("s", "run_s: run64, fdcheck32"),
    "eigensolver.lu_factor.s": ("s", "run_s: run64"),
    "eigensolver.lu_factor.fill_nnz": ("count", "run_s: run64"),
    "eigensolver.krylov.s": ("s", "run_s: run64, fdcheck32"),
    "eigensolver.krylov.op_applies": ("count", "run_s: run64, fdcheck32"),
    "eigensolver.failures": ("count", "failed"),
    "adjoint_gradient.solve_state.calls": ("count", "run_s: all"),
    "adjoint_gradient.solve_state.s": ("s", "run_s: all"),
    "adjoint_gradient.riesz_gradient.calls": ("count", "control: none"),
    "adjoint_gradient.riesz_gradient.s": ("s", "control: none"),
    "objective.evaluate.calls": ("count", "run_s: desk16, run64"),
    "objective.evaluate.s": ("s", "run_s: desk16, run64"),
    "objective.derivative_q.calls": ("count", "run_s: desk16, run64"),
    "objective.derivative_q.s": ("s", "run_s: desk16, run64"),
    "problem.solve_state.calls": ("count", "run_s: desk16"),
    "problem.solve_state.repeats": ("count", "run_s: desk16"),
    "problem.solve_state.repeat_share": (
        "ratio", "run_s: desk16; none on fdcheck32"),
    "problem.evaluate.calls": ("count", "run_s: desk16, fdcheck32"),
    "problem.evaluate.inf_share": (
        "ratio", "time_to_target_s: desk16; run_s: run64"),
    "bfgs_optimizer.iterates": ("count", "run_s: desk16, run64"),
    "bfgs_optimizer.ls_trials": ("count", "time_to_target_s, run_s: desk16"),
    "bfgs_optimizer.ls_trials_per_iterate": (
        "ratio", "time_to_target_s, run_s: desk16, run64"),
    "bfgs_optimizer.damped_share": (
        "ratio", "time_to_target_s, run_s: desk16, run64"),
    "bfgs_optimizer.iterate_s": ("s", "run_s: desk16, run64"),
    "bfgs_optimizer.self_s": ("s", "run_s: desk16, run64"),
    "bfgs_optimizer.converged": ("count", "time_to_target_s: desk16"),
    "bfgs_optimizer.first_target_k": ("count", "time_to_target_s: desk16"),
    "mesh_io.generate_unit_square.s": ("s", "setup_s: all"),
    "mesh_io.write_vtk.s": ("s", "run_s: run64"),
    "cli_runner.run.self_s": ("s", "run_s: run64"),
    "trace_overhead_share": ("ratio", "none: tracing cost"),
    # Untraced, from the traced run's plain call.  Too unsteady across seeds
    # for an end-to-end bound: see README.md.
    "time_to_target_s": ("s", "user-visible: desk16, run64"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "maxshape" / "__init__.py").is_file():
        print(f"no maxshape sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(workloads.WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, OUT)
    workloads.probe_lambda0(8, args.seed)   # first-call costs, untimed
    for _ in range(3):
        hostspeed.reference_kernel()

    if args.trace:
        result, record = traced_run(wl)
    else:
        result, record = untraced_run(wl, args.seconds)
    record.update(workload=wl.name, why=wl.why, seed=args.seed,
                  trace=args.trace, result=result, metadata=metadata(),
                  layer_map={k: v[1] for k, v in PER_LAYER.items()})
    path = OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")

    attempted, failed = result["attempted"], result["failed"]
    print(f"{wl.name} seed={args.seed} trace={args.trace}: "
          f"failed_share = {failed}/{attempted} = {failed / attempted:g}")
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


def attempt(wl, interval: float, tracer=None):
    """One set-up and main call, checked.  Returns (setup_s, Rep or None).

    Both are timed on gauge clocks and converted to reference seconds; the
    main call's gauge also samples every ``interval`` seconds inside it.
    """
    setup_s = None
    try:
        if tracer is not None:
            tracer.run_id = "setup"
            tracer.install()
        try:
            setup_s, ctx = timed_setup(wl)
            if tracer is not None:
                tracer.run_id = "main"
            gauge = Gauge(interval)
            gauge.sample()
            rep = wl.main(ctx, gauge)
            gauge.sample()
        finally:
            if tracer is not None:
                tracer.uninstall()
        rep.scale = gauge.to_reference(1.0)
        rep.failures = wl.check(rep)
    except Exception:           # a raising call is a failed attempt
        traceback.print_exc(file=sys.stderr)
        return setup_s, None
    for failure in rep.failures:
        print(f"{wl.name}: check failed: {failure}", file=sys.stderr)
    return setup_s, rep


def timed_setup(wl):
    """The workload's set-up, in reference seconds, and its result."""
    gauge = Gauge()
    gauge.sample()
    start = gauge.clock()
    ctx = wl.setup()
    end = gauge.clock()
    gauge.sample()
    return gauge.to_reference(end - start), ctx


def untraced_run(wl, seconds: float):
    setups, reps = [], []
    start = time.perf_counter()
    longest = 0.0
    while not reps or (
            time.perf_counter() - start < seconds
            and time.perf_counter() - start + longest < LAST_START_S):
        t0 = time.perf_counter()
        setup_s, rep = attempt(wl, GAUGE_INTERVAL_S)
        longest = max(longest, time.perf_counter() - t0)
        setups.append(setup_s)
        reps.append(rep)
    while (len(setups) < SETUP_SAMPLES
           or sum(s for s in setups if s is not None) < SETUP_SECONDS):
        setups.append(timed_setup(wl)[0])

    good = [r for r in reps if r is not None]
    failed = sum(r is None or bool(r.failures) for r in reps)
    counts = [r.counts for r in good]
    consistent = all(c == counts[0] for c in counts)
    if not consistent:
        print(f"{wl.name}: counts differ between repeated calls",
              file=sys.stderr)
    values = {
        "setup_s": _median([s for s in setups if s is not None]),
        "run_s": _median([r.run_s * r.scale for r in good]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    result = {
        "correct": failed == 0 and bool(good) and consistent,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in values.items()},
    }
    record = {
        "setup_samples_s": setups,
        "calls": [None if r is None else _rep_record(r) for r in reps],
    }
    return result, record


def traced_run(wl):
    from tracing import Tracer

    # Neither call samples the kernel inside it, so no span holds kernel time.
    _, plain = attempt(wl, math.inf)
    tracer = Tracer()
    _, traced = attempt(wl, math.inf, tracer=tracer)
    reps = [plain, traced]
    failed = sum(r is None or bool(r.failures) for r in reps)
    problems = [] if plain and traced else ["a call raised"]
    if plain and traced:
        problems += self_test(wl, tracer, plain, traced)
    for problem in problems:
        print(f"{wl.name}: trace self-test failed: {problem}", file=sys.stderr)

    values = dict.fromkeys(PER_LAYER, 0.0)
    if traced is not None:
        values.update(layer_metrics(tracer, traced))
    if plain is not None:
        values["time_to_target_s"] = plain.time_to_target_s * plain.scale
    if plain is not None and traced is not None:
        plain_s = plain.run_s * plain.scale
        values["trace_overhead_share"] = \
            (traced.run_s * traced.scale - plain_s) / plain_s
    result = {
        "correct": failed == 0 and not problems,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": PER_LAYER[k][0]}
                    for k, v in values.items()},
    }
    record = {
        "calls": [None if r is None else _rep_record(r) for r in reps],
        "self_test_failures": problems,
        "site_hits": dict(tracer.site_hits),
        "spans": tracer.dump(),
    }
    return result, record


def self_test(wl, tracer, plain, traced) -> list[str]:
    """Counts must match untraced, and every required binding must be hit."""
    problems = []
    if plain.counts != traced.counts:
        problems.append(f"counts differ: untraced {plain.counts}, "
                        f"traced {traced.counts}")
    if plain.status != traced.status:
        problems.append(f"status differs: {plain.status} vs {traced.status}")
    for site in wl.sites:
        if not tracer.site_hits[site]:
            problems.append(f"binding {site} was never called")
    main = tracer.layer_totals({"main"})

    def calls(name):
        return main.get(name, {}).get("calls", 0)
    if (calls("eigensolver.solve_gevp")
            != calls("adjoint_gradient.solve_state")):
        problems.append("solve_gevp and adjoint solve_state calls differ")
    if calls("problem.solve_state") != traced.counts["solves"]:
        problems.append("problem.solve_state spans differ from the count")
    return problems


def layer_metrics(tracer, rep) -> dict[str, float]:
    main = tracer.layer_totals({"main"})
    every = tracer.layer_totals({"setup", "main"})
    counts = tracer.counts["main"]
    c = rep.counts

    def span(name, key, totals=main):
        return totals.get(name, {}).get(key, 0)

    def share(num, den):
        return num / den if den else 0.0

    values = {}
    for name in ("fem_assembly.assemble_forms",
                 "fem_assembly.assemble_shape_derivative",
                 "eigensolver.solve_gevp", "adjoint_gradient.solve_state",
                 "adjoint_gradient.riesz_gradient", "objective.evaluate",
                 "objective.derivative_q"):
        values[f"{name}.calls"] = span(name, "calls")
        values[f"{name}.s"] = span(name, "s")
    for name in ("fem_assembly.apply_dirichlet",
                 "fem_assembly.assemble_control_gram",
                 "eigensolver.lu_factor", "eigensolver.krylov",
                 "mesh_io.write_vtk"):
        values[f"{name}.s"] = span(name, "s")
    iterates = c.get("iterates", 0)
    values.update({
        "eigensolver.solve_gevp.self_s": span("eigensolver.solve_gevp",
                                              "self_s"),
        "eigensolver.lu_factor.fill_nnz": share(
            counts["eigensolver.lu_factor.fill_nnz"],
            span("eigensolver.lu_factor", "calls")),
        "eigensolver.krylov.op_applies":
            counts["eigensolver.krylov.op_applies"],
        "eigensolver.failures": span("eigensolver.solve_gevp", "failures"),
        "problem.solve_state.calls": c["solves"],
        "problem.solve_state.repeats": c["repeat_solves"],
        "problem.solve_state.repeat_share": share(c["repeat_solves"],
                                                  c["solves"]),
        "problem.evaluate.calls": c["evaluations"],
        "problem.evaluate.inf_share": share(c["inf_evaluations"],
                                            c["evaluations"]),
        "bfgs_optimizer.iterates": iterates,
        "bfgs_optimizer.ls_trials": c.get("ls_trials", 0),
        "bfgs_optimizer.ls_trials_per_iterate": share(c.get("ls_trials", 0),
                                                      iterates),
        "bfgs_optimizer.damped_share": share(c.get("damped_steps", 0),
                                             c.get("steps", 0)),
        "bfgs_optimizer.iterate_s": share(
            span("bfgs_optimizer.optimize", "s"), iterates),
        "bfgs_optimizer.self_s": span("bfgs_optimizer.optimize", "self_s"),
        "bfgs_optimizer.converged": float(rep.status == "converged"),
        "bfgs_optimizer.first_target_k": c.get("first_target_k", -1),
        "mesh_io.generate_unit_square.s": span(
            "mesh_io.generate_unit_square", "s", every),
        "cli_runner.run.self_s": span("cli_runner.run", "self_s"),
    })
    return values


def metadata() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return deps["blas"].get("version", "unknown")
        except (KeyError, TypeError, AttributeError):
            return "unknown"

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_openblas": blas(numpy),
        "scipy_openblas": blas(scipy),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _git_commit() -> str:
    """HEAD of the checkout, read from .git; 'unknown' outside a clone."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _rep_record(rep) -> dict:
    return {"wall_run_s": rep.run_s,
            "wall_time_to_target_s": rep.time_to_target_s,
            "run_s": rep.run_s * rep.scale,
            "reference_kernel_s": hostspeed.REF_S / rep.scale,
            "counts": rep.counts, "status": rep.status,
            "failures": rep.failures}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


if __name__ == "__main__":
    sys.exit(main())
