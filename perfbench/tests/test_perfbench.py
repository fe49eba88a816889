"""Self-test of the benchmark harness at a tiny size.

Kept out of the package's test suite (pytest collects only ``tests/``); run
it from the repository root with

    python3 -m pytest perfbench/tests
"""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

from tracing import self_times  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCH = json.load(fh)


def run_bench(workload, trace, cwd=ROOT):
    return subprocess.run(
        [
            sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--size", "tiny",
        ],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_printed_with_its_unit(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name


def test_self_time_subtracts_the_union_of_children():
    # name, start, end, parent, job, counts
    spans = [
        ["root", 0.0, 10.0, None, "j", None],
        ["a", 1.0, 4.0, 0, "j", None],
        ["b", 3.0, 6.0, 0, "j", None],  # overlaps a (another thread)
        ["a.child", 2.0, 3.0, 1, "j", None],
        ["other", 11.0, 12.0, None, "j", None],
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0, 1.0])


def test_ensemble_bound_zero_counts_as_failed_operation(tmp_path):
    import jobs

    ctx = jobs.setup("ensemble", jobs.SIZES["tiny"], str(tmp_path))
    res = jobs.ensemble_job(ctx, 5, bound=0.0)
    assert not res.ok
    assert "ensemble exited 2" in res.failures
    assert res.max_distance > 0.0


def test_refuses_to_run_without_the_program(tmp_path):
    proc = run_bench("verify", 0, cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_bias_bound_checks_the_probe_median_not_single_trajectories(tmp_path):
    import jobs
    import worker

    ctx = jobs.setup("trajectory", jobs.SIZES["tiny"], str(tmp_path))
    res = jobs.trajectory_job(ctx, 4)
    assert res.ok and res.bias is not None

    # One trajectory over the bound is counted, not failed.
    q = worker.quality(jobs, "trajectory", ctx, 4, [], [[1e-3, 9e-3], [2e-3]])
    assert q["extremal_over_bound"] == 1
    assert q["extremal_traj"] == 3
    assert all(r.ok for r in q["checked"])

    # A median over the bound is one failed operation.
    q = worker.quality(jobs, "trajectory", ctx, 4, [], [[6e-3, 9e-3], [2e-3]])
    probe = q["checked"][-1]
    assert probe.kind == "extremal-probe" and not probe.ok
