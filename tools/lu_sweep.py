"""Sweep SuperLU's supernode settings on the deformed shift-invert pencil.

    python3 tools/lu_sweep.py --out tools/lu_sweep.json

For n = 16, 32 and 64 the script assembles the reduced forms A, M and B^T
of the unit square at a fixed random deformation and factors the two
matrices of the eigensolver's shift-invert solve, S = A - sigma*M, which
every sparse solve factors, and L = B^T G, which only cold solves factor
(as L^T, whose CSC arrays are L's CSR arrays), the way the eigensolver
does: S in its pattern's minimum-degree numbering, which
eigensolver.PATTERN_ORDER_LU keeps, and L with eigensolver.SYMMETRIC_LU's
ordering, both with symmetric-mode diagonal pivots.  Each (panel_size,
relax) pair of the grid is tried, and scipy's defaults (None, None), which
SuperLU resolves to (20, 10).
Rounds run the candidates in a fresh random order each, so a slow stretch
of the host spreads over all of them.  Per candidate it reports the median
time to factor both matrices, their total fill nnz(L) + nnz(U) and the
larger relative residual ||X x - b|| / ||b|| of one solve with each
matrix X, and it ranks the candidates (see rank).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

os.environ.update({var: "1" for var in ("OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")})

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.sparse.linalg as spla  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from maxshape import (  # noqa: E402
    DeformationField,
    DofMap,
    apply_dirichlet,
    assemble_forms,
    generate_unit_square,
)
from maxshape.eigensolver import PATTERN_ORDER_LU, SYMMETRIC_LU  # noqa: E402
from maxshape.reference_transform import jacobian_range  # noqa: E402

PANEL_SIZES = (1, 2, 4, 6, 8, 12, 20)
RELAXES = (1, 2, 4, 6, 8, 10)
# Rounds per mesh size: the small factorizations are timed more often.
ROUNDS = {16: 41, 32: 21, 64: 11}
# The default shift of the desk run: 0.9 times a target 5 % above pi^2.
SIGMA = 0.9 * 1.05 * np.pi ** 2
SEED = 0
# The ordering and pivoting of S's and of L's factorization, without the
# supernode settings.
ORDERINGS = tuple({k: v for k, v in settings.items()
                   if k not in ("panel_size", "relax")}
                  for settings in (PATTERN_ORDER_LU, SYMMETRIC_LU))


def deformed_pencil(n: int, seed: int):
    """A - sigma*M and L^T, L = B^T G, both CSC, at a random nodal
    deformation of size h / 10: the matrices eigensolver.ShiftInvert
    factors."""
    mesh = generate_unit_square(n)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, size=(mesh.n_vertices, 2))
    q = DeformationField(mesh, vals * (0.1 / n) / np.abs(vals).max())
    if jacobian_range(q)[0] <= 0.0:
        raise AssertionError("the random deformation folds a triangle")
    dofs = DofMap.from_mesh(mesh)
    forms = apply_dirichlet(assemble_forms(mesh, dofs, q), dofs)
    return (forms.edge_shift(SIGMA),
            (forms.BT @ forms.layout.gradient).T)


def factor(mats, panel_size, relax):
    start = time.perf_counter()
    lus = [spla.splu(mat, panel_size=panel_size, relax=relax, **ordering)
           for mat, ordering in zip(mats, ORDERINGS)]
    return time.perf_counter() - start, lus


def sweep(n: int, seed: int) -> dict:
    mats = deformed_pencil(n, seed)
    rng = np.random.default_rng(seed + 1)
    bs = [rng.standard_normal(mat.shape[0]) for mat in mats]
    candidates = [(None, None)] + [(p, r) for p in PANEL_SIZES
                                   for r in RELAXES]
    times = {c: [] for c in candidates}
    rng = np.random.default_rng(seed + 2)
    for _ in range(ROUNDS[n]):
        for i in rng.permutation(len(candidates)):
            elapsed, _ = factor(mats, *candidates[i])
            times[candidates[i]].append(elapsed)
    rows = []
    for c in candidates:
        _, lus = factor(mats, *c)
        rows.append({
            "panel_size": c[0], "relax": c[1],
            "median_ms": 1e3 * statistics.median(times[c]),
            "fill_nnz": sum(int(lu.L.nnz + lu.U.nnz) for lu in lus),
            "residual": max(float(np.linalg.norm(mat @ lu.solve(b) - b)
                                  / np.linalg.norm(b))
                            for mat, lu, b in zip(mats, lus, bs)),
        })
    default = rows[0]
    for row in rows:
        row["time_vs_default"] = row["median_ms"] / default["median_ms"]
    return {"n": n, "size": [mat.shape[0] for mat in mats],
            "nnz": [int(mat.nnz) for mat in mats],
            "rounds": ROUNDS[n], "candidates": rows}


def rank(results: list[dict]) -> list[dict]:
    """Candidates whose fill stays within 1 % of the default at every size,
    by the geometric mean over the sizes of their time against the default:
    the state solves of the three benchmark workloads factor at n = 16, 32
    and 64 alike."""
    rows = []
    for i, cand in enumerate(results[0]["candidates"]):
        per_size = [res["candidates"][i] for res in results]
        fill_ok = all(row["fill_nnz"] <= 1.01 * res["candidates"][0]["fill_nnz"]
                      for row, res in zip(per_size, results))
        ratios = [row["time_vs_default"] for row in per_size]
        if fill_ok:
            rows.append({"panel_size": cand["panel_size"],
                         "relax": cand["relax"], "time_vs_default": ratios,
                         "geomean_time_vs_default": float(
                             np.exp(np.mean(np.log(ratios))))})
    return sorted(rows, key=lambda row: row["geomean_time_vs_default"])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    results = [sweep(n, SEED) for n in sorted(ROUNDS)]
    ranking = rank(results)
    record = {
        "command": "python3 tools/lu_sweep.py --out " + str(args.out),
        "sigma": SIGMA,
        "settings": {"S": ORDERINGS[0], "L": ORDERINGS[1]},
        "machine": {"python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__,
                    "nproc": os.cpu_count(), "machine": platform.machine()},
        "ranking": ranking,
        "sizes": results,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for row in ranking[:8]:
        print(f"({row['panel_size']},{row['relax']}): time vs default "
              + " ".join(f"{t:.3f}" for t in row["time_vs_default"])
              + f", geometric mean {row['geomean_time_vs_default']:.3f}")


if __name__ == "__main__":
    main()
