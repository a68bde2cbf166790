"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``.

They run the short mode end to end, show that the output checks reject
corrupted outcomes, and show that the benchmark refuses to run without the
package source.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import pools  # noqa: E402
from reservematch import Matching, Seat  # noqa: E402


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=600
    )


def test_short_mode_runs_every_workload_with_all_checks():
    proc = _run("--workload", "all", "--short")
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] and doc["failed"] == 0
    assert doc["attempted"] == 3 * (9 + 12 + 2)  # one round timed, two traced
    for name in pools.WORKLOADS:
        for metric in ("pools_per_s", "pool_ms_p50", "pool_ms_p90", "as_ms_p50", "peak_rss_mb", "setup_s",
                       "solver.try_force_accept_ratio", "experiment.outside_pools_ms", "trace.overhead_ms"):
            assert f"{name}.{metric}" in doc["metrics"]


def test_without_the_package_source_it_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("--workload", "baseline-sweep", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


@pytest.fixture(scope="module")
def pool():
    workload = pools.WORKLOADS["high-reserve"]
    instance, outcomes, values, best, _ = pools.run_pool(workload.config(0, workload.cells()[5], 0))
    assert pools.pool_problems(instance, outcomes, values, best) == []
    assert checks.optimum_problems(instance, checks.summary(outcomes)) == []
    assert checks.as_property_problems(instance, outcomes["as"].selected) == []
    return instance, outcomes, values


def _with_pairs(outcome, pairs):
    return dataclasses.replace(outcome, matching=Matching(frozenset(pairs)))


def test_structure_check_rejects_a_double_booked_seat(pool):
    instance, outcomes, _ = pool
    pairs = sorted(outcomes["as"].matching.pairs)
    (a, seat), (b, _) = pairs[0], pairs[1]
    broken = _with_pairs(outcomes["as"], [(a, seat), (b, seat), *pairs[2:]])
    assert any("seat is used twice" in p for p in checks.structure_problems(instance, "as", broken))


def test_structure_check_rejects_an_ineligible_seat(pool):
    instance, outcomes, _ = pool
    pairs = sorted(outcomes["pog"].matching.pairs)
    typeless = next(sid for sid, seat in pairs if not instance.students[sid].types)
    broken = [(sid, Seat(1, 1, 99) if sid == typeless else seat) for sid, seat in pairs]
    problems = checks.structure_problems(instance, "pog", _with_pairs(outcomes["pog"], broken))
    assert any("ineligible seat" in p for p in problems)


def test_metric_check_rejects_a_wrong_value(pool):
    instance, outcomes, values = pool
    mine = checks.metric_values(instance, outcomes["as"])
    wrong = dataclasses.replace(values["as"], p2=values["as"].p2 + 1)
    assert checks.metric_problems("as", mine, values["as"]) == []
    assert checks.metric_problems("as", mine, wrong)


def test_optimum_checks_reject_another_rules_selection(pool):
    instance, outcomes, _ = pool
    swapped = {**outcomes, "as": outcomes["pog"]}
    assert checks.optimum_problems(instance, checks.summary(swapped))
    assert checks.as_property_problems(instance, outcomes["pog"].selected)
