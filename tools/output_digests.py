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
script exits 1 if any does.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def case_digest(workloads, name: str, seed: int, workdir: Path) -> dict:
    """Run one workload's set-up and main call; digest what it returns."""
    gauge = SimpleNamespace(clock=time.perf_counter, tick=lambda: None)
    wl = workloads.WORKLOADS[name](seed, workdir)
    rep = wl.main(wl.setup(), gauge)
    if name == "desk16":
        _, q, records = rep.detail
        return {"status": rep.status, "iterates": len(records),
                "solves": rep.counts["solves"],
                "first_target_k": rep.counts["first_target_k"],
                "lam": _path_sha(r.lam for r in records),
                "J": _path_sha(r.j_value for r in records),
                "g_Q": _path_sha(r.grad_norm for r in records),
                "q": _sha(q.tobytes())}
    if name == "fdcheck32":
        return {"max_rel_error": rep.detail[0]["max_rel_error"].hex()}
    return {"iterations_csv": _sha(rep.artifact)}


def tree_digests(tree: str, cases) -> dict:
    """Digests of cases with the program and workloads of tree; runs in
    the subprocess that digests() starts."""
    tree = Path(tree)
    sys.path[:0] = [str(tree / "src"), str(tree / "benchmarks")]
    import workloads

    return {f"{name} seed {seed}": case_digest(workloads, name, seed,
                                               Path.cwd())
            for name, seed in cases}


def digests(tree: Path, cases=CASES) -> dict:
    """Digests of cases in tree, from one subprocess."""
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
    return json.loads(proc.stdout.strip().splitlines()[-1])


def differences(parent: dict, change: dict) -> list[str]:
    """One line per case field whose value differs between the sides."""
    lines = []
    for case in sorted(set(parent) | set(change)):
        a, b = parent.get(case, {}), change.get(case, {})
        lines += [f"{case} {key}: parent {a.get(key)} change {b.get(key)}"
                  for key in sorted(set(a) | set(b))
                  if a.get(key) != b.get(key)]
    return lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default=None,
                        help="git revision to compare the working tree with")
    args = parser.parse_args()
    change = digests(ROOT)
    for case, fields in change.items():
        print(f"{case}: " + " ".join(f"{k}={v}" for k, v in fields.items()))
    if args.parent is None:
        return 0
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(TOOLS))
    from bench_pairs import export

    with tempfile.TemporaryDirectory(prefix="digests_parent_") as tmp:
        commit = export(args.parent, Path(tmp))
        parent = digests(Path(tmp))
    lines = differences(parent, change)
    print(f"parent {commit}: " + ("identical" if not lines
                                  else f"{len(lines)} fields differ"))
    for line in lines:
        print(f"  {line}")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
