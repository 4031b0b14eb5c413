"""The package namespace and the binding sites the benchmark traces.

The traced benchmark (benchmarks/tracing.py) wraps each function it names
at every module attribute bound to it, and its workloads require some of
those bindings to be hit.  These tests load the benchmark files read-only
and check that every such name still resolves in the program, and that the
API the workloads call directly still works.
"""

import ast
import importlib
import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import maxshape

ROOT = Path(__file__).resolve().parents[1]
BENCHMARKS = ROOT / "benchmarks"
PACKAGE = Path(maxshape.__file__).resolve().parent
# The code whose attribute reads keep a method alive; tests do not count.
READERS = ("src", "tools", "benchmarks")


def load_benchmark_module(name, monkeypatch):
    """Import benchmarks/<name>.py without writing bytecode next to it."""
    spec = importlib.util.spec_from_file_location(
        f"_benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def tracing(monkeypatch):
    return load_benchmark_module("tracing", monkeypatch)


def traced_function(name):
    module, attr = name.split(".")
    return getattr(importlib.import_module(f"maxshape.{module}"), attr)


def unused_imports(source):
    """Names a module imports and never reads: neither as a name, nor in a
    string annotation, nor in its __all__."""
    tree = ast.parse(source)
    imported = set()
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:                         # __all__ entries, string annotations
                expr = ast.parse(node.value.strip(), mode="eval")
            except SyntaxError:
                continue
            used |= {n.id for n in ast.walk(expr) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def unread_parameters(source):
    """The parameters, as function.parameter, that their function's body
    never reads, nested functions included; a leading underscore exempts
    a parameter."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
            continue
        args = node.args
        params = [*args.posonlyargs, *args.args, *args.kwonlyargs,
                  *filter(None, [args.vararg, args.kwarg])]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", "<lambda>")
        unread += [f"{name}.{a.arg}" for a in params
                   if not a.arg.startswith("_") and a.arg not in read]
    return unread


def unread_methods(sources, readers):
    """The methods, as Class.name, of the classes in sources whose name no
    attribute read in readers names: plain, class and static methods,
    properties and cached properties; dunders are exempt."""
    read = {n.attr for source in readers for n in ast.walk(ast.parse(source))
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = []
    for source in sources:
        for cls in ast.walk(ast.parse(source)):
            if not isinstance(cls, ast.ClassDef):
                continue
            unread += [f"{cls.name}.{item.name}" for item in cls.body
                       if isinstance(item, (ast.FunctionDef,
                                            ast.AsyncFunctionDef))
                       and not (item.name.startswith("__")
                                and item.name.endswith("__"))
                       and item.name not in read]
    return sorted(unread)


class TestPublicSurface:
    def test_all_names_resolve(self):
        for name in maxshape.__all__:
            assert hasattr(maxshape, name), name

    @pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                             ids=lambda p: p.name)
    def test_every_import_is_used(self, path):
        assert unused_imports(path.read_text()) == []

    @pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")),
                             ids=lambda p: p.name)
    def test_every_parameter_is_read(self, path):
        assert unread_parameters(path.read_text()) == []

    def test_every_method_is_read(self):
        readers = [path.read_text() for top in READERS
                   for path in sorted((ROOT / top).rglob("*.py"))]
        sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
        assert unread_methods(sources, readers) == []

    def test_unread_method_check(self):
        source = ("import functools\n"
                  "class C:\n"
                  "    def __init__(self): self.e()\n"
                  "    @property\n"
                  "    def a(self): return self.b\n"
                  "    @functools.cached_property\n"
                  "    def b(self): return 1\n"
                  "    @staticmethod\n"
                  "    def c(): return 2\n"
                  "    @property\n"
                  "    def d(self): return 3\n"
                  "    def e(self): return 4\n"
                  "    @classmethod\n"
                  "    def f(cls): return cls()\n")
        assert unread_methods([source], [source]) == [
            "C.a", "C.c", "C.d", "C.f"]
        assert unread_methods([source], [source, "C().d = 1\nC().a\nC.f()"]) \
            == ["C.c", "C.d"]

    def test_unread_parameter_check(self):
        source = ("def f(a, b, *args, c=1, _d=2, **kw):\n"
                  "    def g(x):\n"
                  "        return a + args[0]\n"
                  "    return g(c)\n"
                  "h = lambda y, z: y\n")
        assert unread_parameters(source) == ["f.b", "f.kw", "g.x", "<lambda>.z"]

    def test_unused_import_check(self):
        source = ("from __future__ import annotations\n"
                  "import os.path\nimport numpy as np\n"
                  "from .mesh_io import Mesh, LOCAL_EDGES\n"
                  "__all__ = ['LOCAL_EDGES']\n"
                  "def f(m: 'Mesh | None') -> 'np.ndarray':\n"
                  "    return os.path.join(m)\n")
        assert unused_imports(source) == []
        assert unused_imports(source.replace("'np.", "'")) == ["np"]
        assert unused_imports("import os.path\nfrom a import b as c\n") \
            == ["c", "os"]


class TestBenchmarkBindings:
    def test_traced_functions_resolve(self, tracing):
        for name in tracing.TRACED:
            assert callable(traced_function(name)), name
        for attr in tracing.TRACED_METHODS.values():
            assert callable(getattr(maxshape.MaxwellShapeProblem, attr)), attr

    def test_required_binding_sites_exist(self, tracing, monkeypatch):
        workloads = load_benchmark_module("workloads", monkeypatch)
        traced = {id(traced_function(name)) for name in tracing.TRACED}
        sites = {site for w in workloads.WORKLOADS.values() for site in w.sites}
        for site in sorted(sites):
            owner, attr = site.rsplit(".", 1)
            if owner.startswith("maxshape"):
                bound = getattr(importlib.import_module(owner), attr)
                assert id(bound) in traced, f"{site} is not a traced function"
            elif owner == "eigensolver.spla":
                assert callable(getattr(maxshape.eigensolver.spla, attr)), site
            else:
                assert site in tracing.TRACED_METHODS, site

    def test_divergence_certificate_runs(self, monkeypatch):
        # The benchmark calls assemble_forms, apply_dirichlet, solve_gevp,
        # select_and_normalize and the forms' M and B blocks directly.
        workloads = load_benchmark_module("workloads", monkeypatch)
        problem = maxshape.MaxwellShapeProblem(
            maxshape.generate_unit_square(4),
            maxshape.ObjectiveParams(lambda_target=10.36),
            maxshape.EigenSelection())
        n = problem.mesh.n_vertices
        q = 0.01 * np.sin(np.arange(2 * n)).reshape(n, 2)
        assert workloads.divergence_certificate(problem, q) <= 1e-6

    def test_counting_problem_counts_one_repeat_per_step(self, monkeypatch):
        # Each accepted point is solved once by its Armijo trial and
        # requested once more for its gradient: the repeat solves the
        # benchmark reports.
        workloads = load_benchmark_module("workloads", monkeypatch)
        inputs = workloads.target_inputs(4, 0)
        counts = Counter()
        problem = workloads.counting_problem(counts)(
            maxshape.generate_unit_square(4),
            maxshape.ObjectiveParams(lambda_target=inputs.lam_star,
                                     alpha=inputs.alpha),
            maxshape.EigenSelection(index=0, nev=8,
                                    shift=0.9 * inputs.lam_star, tol=1e-8),
            seed=0)
        cfg = maxshape.OptimizerConfig(tol=1e-12, k_max=2,
                                       b0_scale=1.0 / inputs.alpha)
        _, records, _ = maxshape.optimize(problem, problem.zero_control(),
                                          cfg)
        steps = sum(r.step > 0 for r in records)
        assert steps == 2
        assert counts["repeat_solves"] == steps
