"""Time the parts of a problem's set-up and of one state solve.

    python3 tools/solve_anatomy.py [--out tools/solve_anatomy.json]

For n = 8, 16, 32 and 64 the script assembles the reduced pencil of the unit
square at a random nodal deformation of size 0.05 / n, with the desk run's
shift sigma = 0.9 * 1.05 * pi^2, and reports the median of 20 timings of
each part of a problem's construction, of a state solve and of an Armijo
trial's cost floor, in reference milliseconds: a benchmarks/hostspeed.py
Gauge samples the host speed before the first timing and after each one,
and each timing is scaled by the two samples around it, so records from
different sessions on a shared host compare and a stall moves only the
timings next to it.  The parts:

- grid: generate_unit_square;
- pattern: DofMap.from_mesh, with the sparsity pattern of the pencil;
- ordering: the minimum-degree ordering of the free edge x edge pattern
  that the pattern's build computes, part of "pattern";
- Gram + H factor: assemble_control_gram, the scalar H1 block H that both
  components of a control carry, and splu of H, which a problem builds at
  its first use of the Gram;
- assemble: assemble_forms and apply_dirichlet;
- factor S: splu of S = A - sigma*M, which every sparse solve factors,
  as they do: in the pattern's order, which SuperLU keeps;
- inertia read: the count of negative entries of U's diagonal, which a
  cold solve reads off S's factor right after factoring it
  (ShiftInvert.below), timed as that first read on a fresh factor: U's
  first access makes SuperLU convert both L and U to CSC, which the
  factor then keeps until it is freed, so later reads cost far less;
  "inertia read MB" is the memory the conversion holds (tracemalloc);
- block iteration: one iteration of the warm solve on a 3-column block,
  Y = S^{-1} (M X) with its sparse products M Y and A Y, the
  Rayleigh-Ritz step and the next block's M X = (M Y) C, on the
  column-contiguous blocks of the warm path (eigensolver module
  docstring);
- warm solve: solve_gevp from the block of a cold solve at a deformation
  0.005 / n away, with the shift it factored at (warm sigma: sigma or,
  when larger, just below the block's lowest Rayleigh quotient) and the
  block iterations k it took;
- bookkeeping: the warm solve less factor S and its k + 1 solves with the
  3-column block (the start filter's and one per iteration), each timed
  as "block solve" in the record, on a column-contiguous block as the
  warm path solves.  The three are timed back to back in each
  repeat (paired_ms), and the bookkeeping is the median of the repeats'
  differences;
- cold apply: one application of the cold solve's edge operator
  F = S^{-1} M + I/sigma to one edge vector;
- spectrum solve: solve_gevp by ARPACK on F for the lowest nev = 8
  pairs, as ``maxshape eigs`` runs it, with the applies of F it made;
- cold state solve: the same for the index + 2 = 2 pairs a problem's
  first state solve computes (solve_gevp's count), with its applies;
- Ritz floor: what an Armijo trial's cost floor adds to the state-free
  cost once there is an anchor: on a new field at the deformation, its
  kinematics, the state forms and the Ritz bound of the tracked
  eigenvalue from the warm solve's block (metric_floor and ritz_ceiling,
  with the mesh's stiffness_floor computed once).

The warm sigma and the iteration and apply counts are read from the
eigensolver's debug lines.

BLAS runs on one thread.  The solve columns of the printed table are the
"Anatomy of one state solve" of ROADMAP.md's Baseline, and its set-up
columns are quoted under "Problem construction".
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import platform
import re
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.linalg  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks"))

from hostspeed import REF_S, Gauge  # noqa: E402

from maxshape import (  # noqa: E402
    DeformationField,
    DofMap,
    EigenSelection,
    apply_dirichlet,
    assemble_control_gram,
    assemble_forms,
    generate_unit_square,
    select_and_normalize,
    solve_gevp,
)
from maxshape.eigensolver import (  # noqa: E402
    PATTERN_ORDER_LU,
    SYMMETRIC_LU,
    ShiftInvert,
    _combine,
    _products,
    ritz_ceiling,
)
from maxshape.fem_assembly import (  # noqa: E402
    minimum_degree_order,
    stiffness_floor,
)
from maxshape.reference_transform import (  # noqa: E402
    jacobian_range,
    metric_floor,
)

SIZES = (8, 16, 32, 64)
REPEATS = 20
SIGMA = 0.9 * 1.05 * np.pi ** 2
SEED = 0
COLUMNS = ("grid", "pattern", "ordering", "Gram + H factor", "assemble",
           "factor S", "inertia read", "block iteration", "warm solve",
           "bookkeeping", "cold apply", "spectrum solve", "cold state solve",
           "Ritz floor")
COUNTS = ("warm sigma", "warm iterations", "spectrum applies",
          "cold state applies", "inertia read MB")


def random_field(mesh, rng, size: float) -> np.ndarray:
    vals = rng.uniform(-1.0, 1.0, size=(mesh.n_vertices, 2))
    return vals * size / np.abs(vals).max()


def median_ms(fn, repeats: int, fresh=None) -> float:
    """The median of repeats timings of fn in reference milliseconds, each
    scaled by the gauge's samples just before and just after it.  The
    reference kernel evicts fn's data from the caches, so an untimed call
    follows each sample.  Given fresh, every call is fn(fresh()), its
    argument made untimed just before it."""
    gauge = Gauge()
    gauge.sample()
    times = []
    make = (lambda: ()) if fresh is None else (lambda: (fresh(),))
    for _ in range(repeats):
        fn(*make())
        args = make()
        start = time.perf_counter()
        fn(*args)
        wall = time.perf_counter() - start
        gauge.sample()
        times.append(wall * REF_S / statistics.fmean(gauge.samples[-2:]))
    return 1e3 * statistics.median(times)


def paired_ms(fns: dict, repeats: int) -> dict[str, list[float]]:
    """repeats timings of each of fns in reference milliseconds, taken as
    median_ms takes them, but all of fns back to back in each repeat and
    scaled by the gauge's samples around the repeat: a difference of
    samples of one repeat is not moved by the host's drift between
    repeats, which a difference of separate medians is."""
    gauge = Gauge()
    gauge.sample()
    times = {name: [] for name in fns}
    for _ in range(repeats):
        walls = {}
        for name, fn in fns.items():
            fn()
            start = time.perf_counter()
            fn()
            walls[name] = time.perf_counter() - start
        gauge.sample()
        scale = 1e3 * REF_S / statistics.fmean(gauge.samples[-2:])
        for name, wall in walls.items():
            times[name].append(wall * scale)
    return times


class _SolveCounts(logging.Handler):
    """Keeps the fields of the last debug line of each kind of solve."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.last: dict[str, dict[str, str]] = {}

    def emit(self, record):
        kind, _, fields = record.getMessage().partition(": ")
        self.last[kind] = dict(re.findall(r"(\w+)=(\S+)", fields))


def anatomy(n: int, repeats: int = REPEATS, seed: int = SEED) -> dict:
    """Median reference milliseconds of each part of set-up, a state
    solve and a cost floor at n x n."""
    mesh = generate_unit_square(n)
    dofs = DofMap.from_mesh(mesh)
    rng = np.random.default_rng(seed)
    base = random_field(mesh, rng, 0.05 / n)
    start_q = DeformationField(mesh, base)
    q = DeformationField(mesh, base + random_field(mesh, rng, 0.005 / n))
    if min(jacobian_range(start_q)[0], jacobian_range(q)[0]) <= 0.0:
        raise AssertionError("the random deformation folds a triangle")
    sel = EigenSelection(index=0, nev=8, shift=SIGMA, tol=1e-8)

    def assemble(field):
        return apply_dirichlet(assemble_forms(mesh, dofs, field), dofs)

    start = assemble(start_q)
    block = select_and_normalize(solve_gevp(start, sel), sel, start.M).block
    forms = assemble(q)
    s_mat = forms.edge_shift(SIGMA)
    edge = spla.splu(s_mat, **PATTERN_ORDER_LU)
    # the free edge x edge pattern in ascending edge order, which the
    # pattern's build orders
    position = np.argsort(dofs.free.edges)
    ascending = s_mat[position][:, position].tocsc().sorted_indices()
    a, m = forms.A, forms.M
    x = np.asfortranarray(
        np.hstack([block, rng.standard_normal((forms.layout.n_edge, 1))]))
    (mx,) = _products(x, m)

    def block_iteration():
        y = edge.solve(mx)
        ay, my = _products(y, a, m)
        _, c = scipy.linalg.eigh(y.T @ ay, y.T @ my)
        return _combine(y, c), _combine(my, c)

    counter = _SolveCounts()
    log = logging.getLogger("maxshape.eigensolver")
    level = log.level
    log.addHandler(counter)
    log.setLevel(logging.DEBUG)
    try:
        # the parts of the bookkeeping, timed in pairs
        warm_parts = paired_ms({
            "warm solve": lambda: solve_gevp(forms, sel, block=block),
            "factor S": lambda: spla.splu(s_mat, **PATTERN_ORDER_LU),
            "block solve": lambda: edge.solve(mx)}, repeats)
        warm = counter.last["block solve"]
        spectrum_ms = median_ms(lambda: solve_gevp(forms, sel), repeats)
        spectrum = counter.last["arpack solve"]
        state_ms = median_ms(
            lambda: solve_gevp(forms, sel, count=sel.index + 2), repeats)
        state = counter.last["arpack solve"]
    finally:
        log.removeHandler(counter)
        log.setLevel(level)
    counts = {"warm sigma": float(warm["sigma"]),
              "warm iterations": int(warm["iterations"]),
              "spectrum applies": int(spectrum["op_applies"]),
              "cold state applies": int(state["op_applies"]),
              "inertia read MB": inertia_mb(s_mat)}

    op = ShiftInvert(forms, SIGMA)
    v = rng.standard_normal(forms.layout.n_edge)

    def gram_and_factor():
        return spla.splu(assemble_control_gram(mesh).tocsc(), **SYMMETRIC_LU)

    l_floor = stiffness_floor(mesh, dofs)

    def ritz_floor():
        trial = DeformationField(mesh, q.values)
        return ritz_ceiling(assemble(trial), block, sel.index,
                            metric_floor(trial) * l_floor)

    solves = counts["warm iterations"] + 1
    return {
        "n": n, "pencil": forms.layout.n,
        "grid": median_ms(lambda: generate_unit_square(n), repeats),
        "pattern": median_ms(lambda: DofMap.from_mesh(mesh), repeats),
        "ordering": median_ms(lambda: minimum_degree_order(
            ascending.indptr, ascending.indices), repeats),
        "Gram + H factor": median_ms(gram_and_factor, repeats),
        "assemble": median_ms(lambda: assemble(q), repeats),
        "factor S": statistics.median(warm_parts["factor S"]),
        "inertia read": median_ms(
            lambda lu: np.count_nonzero(lu.U.diagonal() < 0.0), repeats,
            fresh=lambda: spla.splu(s_mat, **PATTERN_ORDER_LU)),
        "block iteration": median_ms(block_iteration, repeats),
        "warm solve": statistics.median(warm_parts["warm solve"]),
        "block solve": statistics.median(warm_parts["block solve"]),
        "bookkeeping": statistics.median(
            total - factor - solves * solve
            for total, factor, solve in zip(*warm_parts.values())),
        "cold apply": median_ms(lambda: op.apply(v), repeats),
        "spectrum solve": spectrum_ms,
        "cold state solve": state_ms,
        "Ritz floor": median_ms(ritz_floor, repeats),
        **counts,
    }


def inertia_mb(s_mat) -> float:
    """The memory, in MB, that the first read of U's diagonal makes a
    fresh factor of s_mat hold: SuperLU's CSC copies of L and U."""
    lu = spla.splu(s_mat, **PATTERN_ORDER_LU)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        lu.U.diagonal()
        return (tracemalloc.get_traced_memory()[0] - before) / 1e6
    finally:
        tracemalloc.stop()


def table(rows: list[dict]) -> str:
    """The rows as a markdown table."""
    cells = ["n", "pencil", *COLUMNS, *COUNTS]
    lines = ["| " + " | ".join(cells) + " |", "|" + "---|" * len(cells)]
    for row in rows:
        lines.append("| " + " | ".join(
            [str(row["n"]), str(row["pencil"]),
             *(f"{row[c]:.2f} ms" for c in COLUMNS),
             *(f"{row[c]:.6g}" for c in COUNTS)]) + " |")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args()
    rows = [anatomy(n) for n in SIZES]
    print(table(rows))
    if args.out is not None:
        record = {
            "command": "python3 tools/solve_anatomy.py --out "
                       + str(args.out),
            "units": "reference ms (benchmarks/hostspeed.py)",
            "sigma": SIGMA, "repeats": REPEATS, "seed": SEED,
            "machine": {"python": platform.python_version(),
                        "numpy": np.__version__, "scipy": scipy.__version__,
                        "nproc": os.cpu_count(),
                        "machine": platform.machine()},
            "rows": rows,
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main()
