"""Compare a change with its parent commit by alternating benchmark pairs.

    python3 tools/bench_pairs.py --parent HEAD --seeds 201-210 \\
        --label prNN --out BENCH_prNN.json

The parent revision is exported with ``git archive`` into a temporary
directory (no worktree is registered in the repository); the change is the
working tree this script lives in.  For every workload of BENCHMARK.json
and every seed the two sides run ``benchmarks/run.py --trace 0`` for the
benchmark's run_seconds, one after the other and one process at a time;
the side that runs first alternates from seed to seed.  The
record holds every pair and, per end-to-end metric, both sides' quartiles,
the pairs the change won, the parent's interquartile range and whether the
pairs rule holds: the change better in at least 9 of 10 pairs (the same
share of more), and its median better than the parent's by more than the
parent's interquartile range.  With --traced-seed each side also makes
TRACED_RUNS traced runs, the side that runs first alternating from run to
run; each run's correctness, counts and per-layer metrics are kept, and so
is the median of every per-layer metric over the runs, since a single
traced run can read a one-off stall as a regression.  Span seconds are wall
seconds, so every traced run of a side is scaled to reference seconds by
the median gauge of that side's traced calls (benchmarks/hostspeed.py):
the gauge of one call reads a single moment of the host, and one outlier
would move that run's every span.  Each run keeps its own gauge, and each
wall value stays beside the scaled one.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))
from hostspeed import REF_S  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
METRICS = tuple(m["name"] for m in BENCHMARK["end_to_end"])
if any(m["better"] != "lower" for m in BENCHMARK["end_to_end"]):
    raise SystemExit("bench_pairs counts a pair as won by the lower value")
WORKLOADS = tuple(w["name"] for w in BENCHMARK["workloads"])
SECONDS = BENCHMARK["run_seconds"]
WIN_SHARE = 0.9
TRACED_RUNS = 3
# A traced run's metrics in seconds that are already reference seconds:
# run.py takes time_to_target_s from the untraced call.
REFERENCE_SECONDS = ("time_to_target_s",)


def parse_seeds(text: str) -> list[int]:
    """'201-210' or '3,5,8' to a list of seeds."""
    if "-" in text:
        lo, hi = (int(x) for x in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def export(rev: str, dest: Path) -> str:
    """Write the tree of rev into dest; return its full commit id."""
    commit = subprocess.run(["git", "rev-parse", rev], cwd=ROOT, check=True,
                            capture_output=True, text=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, check=True,
                             capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)
    return commit


def bench(tree: Path, workload: str, seed: int, trace: int) -> dict:
    """One run of benchmarks/run.py in tree: its last output line as JSON,
    and for a traced run also the self-test failures and each call's
    status and counts from the run's record."""
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(SECONDS), "--trace",
         str(trace)], cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} in {tree} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if trace:
        record = json.loads((tree / ".bench_out" / f"{workload}-seed{seed}-"
                             "trace1.json").read_text())
        result["self_test_failures"] = record["self_test_failures"]
        result["calls"] = [{"status": call["status"],
                            "counts": call["counts"]}
                           for call in record["calls"]]
        result["reference_kernel_s"] = record["calls"][1]["reference_kernel_s"]
    return result


def host_normalize(runs: list[dict]) -> None:
    """Scale the span seconds, wall seconds, of one side's traced runs to
    reference seconds by REF_S / the median reference_kernel_s of their
    traced calls, keeping each wall value as wall_value."""
    scale = REF_S / statistics.median(run["reference_kernel_s"]
                                      for run in runs)
    for result in runs:
        result["reference_scale"] = scale
        for name, metric in result["metrics"].items():
            if metric["unit"] == "s" and name not in REFERENCE_SECONDS:
                metric["wall_value"] = metric["value"]
                metric["value"] *= scale


def end_to_end(result: dict) -> dict:
    row = {name: result["metrics"][name]["value"] for name in METRICS}
    row.update(correct=result.get("correct"), attempted=result["attempted"],
               failed=result["failed"])
    return row


def quartiles(values: list[float]) -> list[float]:
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return [q1, med, q3]


def median_metrics(runs: list[dict]) -> dict:
    """The median of every per-layer metric, and of its wall value where
    it has one, over traced runs, in the metrics layout of one run."""
    return {name: {key: (value if key == "unit" else statistics.median(
                        run["metrics"][name][key] for run in runs))
                   for key, value in metric.items()}
            for name, metric in runs[0]["metrics"].items()}


def traced(trees: dict, workload: str, seed: int) -> dict:
    """TRACED_RUNS traced runs per side, alternating which goes first,
    scaled by their side's median gauge, and their per-layer medians."""
    runs = {"parent": [], "change": []}
    for i in range(TRACED_RUNS):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(bench(trees[side], workload, seed, 1))
    for side_runs in runs.values():
        host_normalize(side_runs)
    return {side: {"runs": side_runs, "median": median_metrics(side_runs)}
            for side, side_runs in runs.items()}


def summarize(pairs: list[dict]) -> dict:
    out = {}
    for name in METRICS:
        parent = [p["parent"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        pq, cq = quartiles(parent), quartiles(change)
        won = sum(c < p for p, c in zip(parent, change))
        iqr = pq[2] - pq[0]
        gap = pq[1] - cq[1]
        out[name] = {
            "parent_q1_median_q3": pq, "change_q1_median_q3": cq,
            "change_better_pairs": won, "pairs": len(pairs),
            "median_change_rel": -gap / pq[1], "parent_iqr": iqr,
            "median_gap": gap,
            "pairs_rule_holds": (len(pairs) >= 10
                                 and won >= math.ceil(WIN_SHARE * len(pairs))
                                 and gap > iqr),
        }
    out["failed"] = {side: sum(p[side]["failed"] for p in pairs)
                     for side in ("parent", "change")}
    out["attempted"] = {side: [p[side]["attempted"] for p in pairs]
                        for side in ("parent", "change")}
    return out


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", default="HEAD",
                        help="git revision of the parent side")
    parser.add_argument("--seeds", required=True, help="'201-210' or '1,4,9'")
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--label", required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)

    with tempfile.TemporaryDirectory(prefix="bench_parent_") as tmp:
        parent_tree = Path(tmp)
        commit = export(args.parent, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        record = {
            "label": args.label,
            "command": "python3 benchmarks/run.py --workload W --seed S "
                       f"--seconds {SECONDS:g} --trace T",
            "units": "setup_s, run_s: reference seconds "
                     "(benchmarks/hostspeed.py); peak_rss_mb: MB",
            "commits": {"parent": commit, "change": "working tree"},
            "protocol": f"{len(seeds)} alternating parent/change pairs per "
                        f"workload on seeds {args.seeds}; the side that runs "
                        "first alternates from seed to seed; one process at "
                        "a time",
            "end_to_end_summary": {}, "end_to_end_pairs": {},
        }
        for workload in WORKLOADS:
            pairs = []
            for i, seed in enumerate(seeds):
                order = ("parent", "change") if i % 2 == 0 \
                    else ("change", "parent")
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side] = end_to_end(bench(trees[side], workload,
                                                  seed, 0))
                pairs.append(pair)
                print(f"{workload} seed {seed}: run_s parent "
                      f"{pair['parent']['run_s']:.3f} change "
                      f"{pair['change']['run_s']:.3f}", flush=True)
            record["end_to_end_pairs"][workload] = pairs
            record["end_to_end_summary"][workload] = summarize(pairs)
        if args.traced_seed is not None:
            record["traced"] = {
                workload: traced(trees, workload, args.traced_seed)
                for workload in WORKLOADS}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    for workload, summary in record["end_to_end_summary"].items():
        for name in METRICS:
            s = summary[name]
            print(f"{workload} {name}: {s['median_change_rel']:+.1%} "
                  f"won {s['change_better_pairs']}/{s['pairs']} "
                  f"rule {'holds' if s['pairs_rule_holds'] else 'fails'}")


if __name__ == "__main__":
    main()
