"""Spans around the calls the benchmark makes into maxshape.

The program carries no timers of its own, so the traced run wraps each
public function from outside, at every module attribute bound to it:
``from .fem_assembly import assemble_forms`` copies the binding into the
importing module, and patching the home module alone would miss that
caller.  ``splu`` and ``eigs`` are wrapped as the eigensolver looks them up,
through its ``spla`` name, so scipy itself stays untouched.

Spans (name, start, end, parent, run id) stay in memory until the run
writes them out.  A span's self time is its duration minus the time its
child spans cover; the process is single-threaded, so children never
overlap and their durations add.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# Functions traced at every binding site, as "<module>.<function>" under the
# maxshape package; the module part is also the span name's layer.
TRACED = (
    "fem_assembly.assemble_forms",
    "fem_assembly.assemble_shape_derivative",
    "fem_assembly.apply_dirichlet",
    "fem_assembly.assemble_control_gram",
    "eigensolver.solve_gevp",
    "adjoint_gradient.solve_state",
    "adjoint_gradient.solve_adjoint",
    "adjoint_gradient.reduced_derivative",
    "adjoint_gradient.riesz_gradient",
    "objective.evaluate",
    "objective.derivative_q",
    "bfgs_optimizer.optimize",
    "mesh_io.generate_unit_square",
    "mesh_io.write_vtk",
    "cli_runner.run",
    "cli_runner.check_gradient",
    "cli_runner._cell_field_magnitude",
)

# Methods of MaxwellShapeProblem, traced on the class.
TRACED_METHODS = {"problem.solve_state": "solve_state",
                  "problem.evaluate": "evaluate"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int          # index into Tracer.spans, -1 at the top
    run_id: str
    failed: bool = False


class _LinalgProxy:
    """Stands in for scipy.sparse.linalg inside the eigensolver module."""

    def __init__(self, real, overrides: dict):
        self._real = real
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Records spans and per-run-id counts while its wrappers are installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: defaultdict[str, Counter] = defaultdict(Counter)
        self.site_hits: Counter = Counter()
        self.run_id = "setup"
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def wrap(self, name: str, site: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.site_hits[site] += 1
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, time.perf_counter(), 0.0, parent, self.run_id)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span.failed = True
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every binding of the traced functions and problem methods."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "maxshape" or n.startswith("maxshape.")]
        for name in TRACED:
            module, attr = name.split(".")
            orig = getattr(sys.modules[f"maxshape.{module}"], attr)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        site = f"{mod.__name__}.{key}"
                        self._patch(mod, key, self.wrap(name, site, orig))
        problem_cls = sys.modules["maxshape.problem"].MaxwellShapeProblem
        for name, attr in TRACED_METHODS.items():
            orig = getattr(problem_cls, attr)
            self._patch(problem_cls, attr, self.wrap(name, name, orig))

        eigensolver = sys.modules["maxshape.eigensolver"]
        real = eigensolver.spla
        self._patch(eigensolver, "spla", _LinalgProxy(real, {
            "splu": self._wrap_splu(real.splu),
            "eigs": self._wrap_eigs(real.eigs, real.LinearOperator),
        }))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap_splu(self, splu):
        timed = self.wrap("eigensolver.lu_factor", "eigensolver.spla.splu",
                          splu)

        def splu_counted(*args, **kwargs):
            lu = timed(*args, **kwargs)
            self.counts[self.run_id]["eigensolver.lu_factor.fill_nnz"] += \
                lu.L.nnz + lu.U.nnz
            return lu
        return splu_counted

    def _wrap_eigs(self, eigs, linear_operator):
        timed = self.wrap("eigensolver.krylov", "eigensolver.spla.eigs", eigs)

        def eigs_counted(op, *args, **kwargs):
            def matvec(x):
                self.counts[self.run_id]["eigensolver.krylov.op_applies"] += 1
                return op.matvec(x)
            counted = linear_operator(op.shape, matvec=matvec, dtype=op.dtype)
            return timed(counted, *args, **kwargs)
        return eigs_counted

    # -- derived numbers ------------------------------------------------

    def layer_totals(self, run_ids) -> dict[str, dict[str, float]]:
        """calls, s, self_s and failures per span name over the given runs."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "s": 0.0, "self_s": 0.0, "failures": 0})
        for i, span in enumerate(self.spans):
            if span.run_id not in run_ids:
                continue
            t = totals[span.name]
            t["calls"] += 1
            t["s"] += span.end - span.start
            t["self_s"] += span.end - span.start - child_time[i]
            t["failures"] += span.failed
        return totals

    def dump(self) -> list[dict]:
        return [{"name": s.name, "start": s.start, "end": s.end,
                 "parent": s.parent, "run_id": s.run_id, "failed": s.failed}
                for s in self.spans]
