"""The benchmark under perfbench/ runs against this checkout's package.

perfbench imports ``ALGORITHMS``, ``SatGenConfig``, ``gen_instance``,
``evaluate``, ``build_graph``, ``RankMaximalMatcher``, ``Matching`` and
``Seat`` from the package root, ``ExperimentSpec``, ``run_experiment`` and
``derive_seed`` from ``experiment`` (whose ``_cell_rows`` it patches), and
``suite_optimum`` from ``metrics``; it reads the ``Instance`` attributes
``priority``, ``acceptable`` and ``students``, and drives the rules from
outside the package, so an API change that breaks it fails here, not only
when the benchmark is next run.  ``tests/test_public_api.py`` checks that each of
these names resolves, and the benchmark's own checker tests run here too.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_short_benchmark_run_is_correct(trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", "baseline-sweep", "--short", "--trace", trace]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    assert doc["correct"] is True and doc["failed"] == 0, proc.stderr[-2000:]
    assert doc["attempted"] > 0 and doc["metrics"]


def test_benchmark_checker_tests_pass():
    # they build Matching(pairs) and Seat and read Instance.students, as the checker does
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "perfbench/test_perfbench.py", "-k", "reject"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:]
    assert re.search(r"\b4 passed\b", proc.stdout), proc.stdout[-2000:]
