"""The scripts under tools/ import from the package and run on small inputs."""

import importlib.util
import sys
from pathlib import Path

import pytest

from maxshape import DofMap, generate_unit_square

TOOLS = Path(__file__).resolve().parent.parent / "tools"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture
def load_tool(monkeypatch):
    """Import a tools/ script by path; undo its sys.path and environment
    edits afterwards."""
    monkeypatch.setattr(sys, "path", list(sys.path))
    for var in BLAS_VARS:
        monkeypatch.setenv(var, "1")

    def load(name):
        spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module
    return load


def test_bench_pairs_parse_seeds(load_tool):
    bench_pairs = load_tool("bench_pairs")
    assert bench_pairs.parse_seeds("201-203") == [201, 202, 203]
    assert bench_pairs.parse_seeds("3,5") == [3, 5]


def test_bench_pairs_median_metrics(load_tool):
    bench_pairs = load_tool("bench_pairs")
    runs = [{"metrics": {"a.s": {"value": v, "unit": "s"},
                         "a.calls": {"value": c, "unit": "count"}}}
            for v, c in ((0.9, 4), (0.1, 4), (0.3, 5))]
    assert bench_pairs.median_metrics(runs) == {
        "a.s": {"value": 0.3, "unit": "s"},
        "a.calls": {"value": 4, "unit": "count"}}
    assert bench_pairs.median_metrics(runs[:1]) == runs[0]["metrics"]


def test_bench_pairs_host_normalize(load_tool):
    bench_pairs = load_tool("bench_pairs")
    result = {"reference_kernel_s": 2.0 * bench_pairs.REF_S,
              "metrics": {"a.s": {"value": 0.3, "unit": "s"},
                          "a.calls": {"value": 4, "unit": "count"},
                          "time_to_target_s": {"value": 0.5, "unit": "s"}}}
    # a host twice as slow as the reference runs the kernel in 2 REF_S
    bench_pairs.host_normalize([result])
    assert result["reference_scale"] == 0.5
    assert result["metrics"] == {
        "a.s": {"value": 0.15, "unit": "s", "wall_value": 0.3},
        "a.calls": {"value": 4, "unit": "count"},
        "time_to_target_s": {"value": 0.5, "unit": "s"}}
    runs = [result, {"metrics": {
        "a.s": {"value": 0.25, "unit": "s", "wall_value": 0.2},
        "a.calls": {"value": 4, "unit": "count"},
        "time_to_target_s": {"value": 0.7, "unit": "s"}}}]
    assert bench_pairs.median_metrics(runs)["a.s"] == {
        "value": 0.2, "unit": "s", "wall_value": 0.25}


def test_bench_pairs_outlier_gauge_keeps_side_medians(load_tool):
    # Three traced runs of one side on a host at reference speed; the third
    # call's gauge caught a stall and reads the kernel 4 times slower.
    # Scaled by its own gauge that run's 0.4 s would read 0.1 s and pull
    # the side's median from 0.3 to 0.2 s; the side's median gauge keeps
    # every run at scale 1.
    bench_pairs = load_tool("bench_pairs")
    ref = bench_pairs.REF_S
    runs = [{"reference_kernel_s": gauge,
             "metrics": {"a.s": {"value": wall, "unit": "s"}}}
            for gauge, wall in ((ref, 0.2), (ref, 0.3), (4.0 * ref, 0.4))]
    bench_pairs.host_normalize(runs)
    assert [run["reference_scale"] for run in runs] == [1.0, 1.0, 1.0]
    assert [run["reference_kernel_s"] for run in runs] == [ref, ref, 4 * ref]
    assert bench_pairs.median_metrics(runs)["a.s"] == {
        "value": 0.3, "unit": "s", "wall_value": 0.3}


def test_solve_anatomy_smoke(load_tool):
    solve_anatomy = load_tool("solve_anatomy")
    for n, pencil in ((8, 225), (16, 961)):
        row = solve_anatomy.anatomy(n, repeats=2)
        assert row["pencil"] == pencil == DofMap.from_mesh(
            generate_unit_square(n)).free.n
        # bookkeeping is a difference of medians, whose noise can reach 0
        # on two repeats
        assert all(row[column] > 0.0 for column in solve_anatomy.COLUMNS
                   if column != "bookkeeping")
        assert row["bookkeeping"] < row["warm solve"]
        assert row["warm iterations"] >= 1
        # the warm shift rose above the configured one toward the block
        assert row["warm sigma"] > solve_anatomy.SIGMA
        # ncv = 3 k + 8 vectors for k wanted pairs: nev = 8 for the
        # spectrum, which F's pairs packed toward 1/sigma give one implicit
        # restart, and one pass for the index + 2 = 2 of the cold state
        # solve
        assert 0 < row["spectrum applies"] <= 2 * (3 * 8 + 8)
        assert 0 < row["cold state applies"] <= 3 * 2 + 9
        # U's first read makes SuperLU keep CSC copies of L and U
        assert row["inertia read MB"] > 0.0
        table = solve_anatomy.table([row])
        assert table.splitlines()[2].startswith(f"| {n} | {pencil} | ")


def test_output_digests_smoke(load_tool):
    output_digests = load_tool("output_digests")
    case = "fdcheck32 seed 0"
    first, values = output_digests.digests(output_digests.ROOT,
                                           [("fdcheck32", 0)])
    assert list(first) == list(values) == [case]
    error = values[case]["max_rel_error"]
    assert 0.0 < error <= 1e-4
    assert first[case]["max_rel_error"] == error.hex()
    again, _ = output_digests.digests(output_digests.ROOT, [("fdcheck32", 0)])
    assert output_digests.differences(first, again) == []
    moved = {case: {"max_rel_error": (0.5).hex()}}
    assert output_digests.differences(first, moved) == [
        f"{case} max_rel_error: parent {first[case]['max_rel_error']} "
        f"change {(0.5).hex()}"]
    assert output_digests.deviations(values, {case: {"max_rel_error": 0.5}}) \
        == [f"{case} max_rel_error: parent {error:.6e} change 5.000000e-01"]


def test_output_digests_deviations(load_tool):
    output_digests = load_tool("output_digests")
    csv = "k,lambda,step\n0,10,1\n1,9.5,0.25\n"
    parent = {"desk16 seed 0": {"lam": [10.0, 9.0], "J": [1.0, 0.5],
                                "g_Q": [2.0, 1.0]},
              "run64 seed 0": {"iterations_csv": csv}}
    change = {"desk16 seed 0": {"lam": [10.0, 9.0 * (1 + 1e-12)],
                                "J": [1.0, 0.5, 0.25], "g_Q": [2.0, 1.0]},
              "run64 seed 0": {"iterations_csv": csv.replace("0.25", "0.5")}}
    lines = output_digests.deviations(parent, change)
    assert lines[0].startswith("desk16 seed 0 lam: largest relative "
                               "difference 1e-12 over 2 iterates")
    assert lines[1:] == [
        "desk16 seed 0 J: largest relative difference 0 over the first 2 "
        "iterates (parent 2, change 3)",
        "desk16 seed 0 g_Q: largest relative difference 0 over 2 iterates",
        "run64 seed 0 iterations_csv: largest relative difference 0.5 over "
        "6 numbers in 2 rows"]
    assert output_digests.relative_difference(1.0, float("inf")) \
        == float("inf")
    assert output_digests.relative_difference(float("nan"), 1.0) \
        == float("inf")
