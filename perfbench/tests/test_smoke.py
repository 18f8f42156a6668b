"""Each workload at its smallest size, the correctness gate, and the no-sources exit."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import layers
import run
import workloads


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_smallest_run_is_correct(name, trace):
    result, details = run.run_benchmark(name, seed=3, seconds=0, trace=trace, small=True)
    assert result["correct"], details["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    units = {k: v["unit"] for k, v in result["metrics"].items()}
    assert units == (dict(layers.PER_LAYER) if trace else run.END_TO_END_UNITS)
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    assert details["flips"] == []


def _fake_workload(verdicts):
    suite = workloads.Suite("fake", lambda: (verdicts, []))
    return workloads.Workload("fake", [suite], [], expected_spans=())


def test_unexpected_red_check_is_a_failed_operation():
    result = run.run_pass(_fake_workload([("fake/a", True), ("fake/b", False)]), None, frozenset())
    assert (result.attempted, result.failed) == (1, 1)
    assert result.problems == ["fake: fake/b: FAIL, expected PASS"]


def test_expected_red_check_is_not_a_failure():
    result = run.run_pass(_fake_workload([("fake/b", False)]), None, frozenset({"fake/b"}))
    assert (result.attempted, result.failed, result.problems) == (1, 0, [])


def test_tree_ledger_check_catches_bad_sums_negatives_and_growth():
    # run 0, generations 0..2 of a contamination-free tree, (run_id, n, k, count)
    good = np.array([[0, 0, 1, 1], [0, 1, 2, 1], [0, 1, 0, 1], [0, 2, 3, 1], [0, 2, 0, 3]])
    assert workloads._tree_csv_problems(good, 2, 1, dfs=False, zero=True) == []
    short = good[:-1]
    assert workloads._tree_csv_problems(short, 2, 1, dfs=False, zero=False)
    negative = good.copy()
    negative[3, 2] = -5
    assert workloads._tree_csv_problems(negative, 2, 1, dfs=False, zero=False)
    grows = np.array([[0, 0, 1, 1], [0, 1, 2, 1], [0, 1, 0, 1], [0, 2, 3, 4]])  # 1, 1/2, 1
    assert workloads._tree_csv_problems(grows, 2, 1, dfs=False, zero=True)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    root = Path(run.__file__).resolve().parent.parent
    shutil.copytree(root / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "population", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
