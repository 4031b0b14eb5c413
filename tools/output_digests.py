"""Digest the benchmark workloads' outputs, and compare them with a parent.

    python3 tools/output_digests.py [--parent REV]

Each case is one main call of a benchmarks/workloads.py workload:

- desk16, seeds 0-2: the optimizer's status, iterates, state solves and
  first qualifying iterate, and sha256 digests of the lambda, J and |g|_Q
  paths (each value as float.hex) and of the final control's bytes;
- fdcheck32, seed 0: max_rel_error as float.hex;
- run64, seed 0: the sha256 digest of iterations.csv.

A tree runs all its cases in one subprocess, from a temporary directory,
with BLAS on one thread and no bytecode written, so the tree is only read.
Without --parent the working tree this script lives in is digested and
printed.  With --parent, REV is exported as tools/bench_pairs.py exports
it and digested as well, every field that differs is printed, and the
script exits 1 if any does.  Where a field differs it also prints how far
the outputs moved, so that a change at the level of rounding can state
its tolerance: the largest relative difference of each desk16 seed's
lambda, J and |g|_Q paths, both sides' fdcheck32 max_rel_error, and the
largest relative difference of the numbers in run64's iterations.csv.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
CASES = (("desk16", 0), ("desk16", 1), ("desk16", 2), ("fdcheck32", 0),
         ("run64", 0))
BLAS_THREADS = {var: "1" for var in
                ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _path_sha(values) -> str:
    return _sha(" ".join(float(v).hex() for v in values).encode())


def case_digest(workloads, name: str, seed: int,
                workdir: Path) -> tuple[dict, dict]:
    """Run one workload's set-up and main call: the digests of what it
    returns, and the values they are taken of, which deviations()
    compares."""
    gauge = SimpleNamespace(clock=time.perf_counter, tick=lambda: None)
    wl = workloads.WORKLOADS[name](seed, workdir)
    rep = wl.main(wl.setup(), gauge)
    if name == "desk16":
        _, q, records = rep.detail
        paths = {"lam": [r.lam for r in records],
                 "J": [r.j_value for r in records],
                 "g_Q": [r.grad_norm for r in records]}
        return ({"status": rep.status, "iterates": len(records),
                 "solves": rep.counts["solves"],
                 "first_target_k": rep.counts["first_target_k"],
                 **{key: _path_sha(path) for key, path in paths.items()},
                 "q": _sha(q.tobytes())}, paths)
    if name == "fdcheck32":
        error = rep.detail[0]["max_rel_error"]
        return {"max_rel_error": error.hex()}, {"max_rel_error": error}
    return ({"iterations_csv": _sha(rep.artifact)},
            {"iterations_csv": rep.artifact.decode()})


def tree_digests(tree: str, cases) -> list[dict]:
    """Digests and values of cases with the program and workloads of
    tree; runs in the subprocess that digests() starts."""
    tree = Path(tree)
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks")]
    import workloads

    found = {f"{name} seed {seed}": case_digest(workloads, name, seed,
                                                Path.cwd())
             for name, seed in cases}
    return [{case: pair[i] for case, pair in found.items()} for i in (0, 1)]


def digests(tree: Path, cases=CASES) -> tuple[dict, dict]:
    """Digests of cases in tree and the values they are taken of, from one
    subprocess."""
    code = (f"import json, sys; sys.path.insert(0, {str(TOOLS)!r}); "
            "import output_digests as o; "
            f"print(json.dumps(o.tree_digests({str(tree)!r}, "
            f"{[list(c) for c in cases]!r})))")
    with tempfile.TemporaryDirectory(prefix="digests_") as tmp:
        proc = subprocess.run([sys.executable, "-B", "-c", code], cwd=tmp,
                              env={**os.environ, **BLAS_THREADS},
                              capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"digests in {tree} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    found, values = json.loads(proc.stdout.strip().splitlines()[-1])
    return found, values


def differences(parent: dict, change: dict) -> list[str]:
    """One line per case field whose value differs between the sides."""
    lines = []
    for case in sorted(set(parent) | set(change)):
        a, b = parent.get(case, {}), change.get(case, {})
        lines += [f"{case} {key}: parent {a.get(key)} change {b.get(key)}"
                  for key in sorted(set(a) | set(b))
                  if a.get(key) != b.get(key)]
    return lines


def relative_difference(x: float, y: float) -> float:
    """|x - y| / max(|x|, |y|): 0 where x == y, inf where they differ and
    one is not finite."""
    if x == y:
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def _largest(a: list[float], b: list[float], unit: str) -> str:
    """The largest relative difference of a and b, pairwise, as text."""
    largest = max(map(relative_difference, a, b), default=0.0)
    size = (f"{len(a)} {unit}" if len(a) == len(b)
            else f"the first {min(len(a), len(b))} {unit} (parent "
                 f"{len(a)}, change {len(b)})")
    return f"largest relative difference {largest:.3g} over {size}"


def _csv_numbers(text: str) -> tuple[list[float], int]:
    """The numbers of a CSV text below its header row, row by row, and
    the count of rows."""
    rows = text.splitlines()[1:]
    return [float(cell) for row in rows for cell in row.split(",")], len(rows)


def deviations(parent: dict, change: dict) -> list[str]:
    """One line per value that both sides computed: how far it moved."""
    lines = []
    for case in sorted(set(parent) & set(change)):
        a, b = parent[case], change[case]
        for key in (key for key in a if key in b):
            if key == "max_rel_error":
                text = f"parent {a[key]:.6e} change {b[key]:.6e}"
            elif key == "iterations_csv":
                (xs, rows), (ys, _) = (_csv_numbers(a[key]),
                                       _csv_numbers(b[key]))
                text = _largest(xs, ys, f"numbers in {rows} rows")
            else:
                text = _largest(a[key], b[key], "iterates")
            lines.append(f"{case} {key}: {text}")
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default=None,
                        help="git revision to compare the working tree with")
    args = parser.parse_args()
    change, change_values = digests(ROOT)
    for case, fields in change.items():
        print(f"{case}: " + " ".join(f"{k}={v}" for k, v in fields.items()))
    if args.parent is None:
        return 0
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(TOOLS))
    from bench_pairs import export

    with tempfile.TemporaryDirectory(prefix="digests_parent_") as tmp:
        commit = export(args.parent, Path(tmp))
        parent, parent_values = digests(Path(tmp))
    lines = differences(parent, change)
    print(f"parent {commit}: " + ("identical" if not lines
                                  else f"{len(lines)} fields differ"))
    for line in lines:
        print(f"  {line}")
    if not lines:
        return 0
    print("how far the outputs moved:")
    for line in deviations(parent_values, change_values):
        print(f"  {line}")
    return 1


if __name__ == "__main__":
    sys.exit(main())
