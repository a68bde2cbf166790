"""Workloads and the pool operation the benchmark times.

One pool is one operation: the work ``experiment._cell_rows`` does per
replicate, driven from outside the package.  It generates the instance from
a seed made by ``experiment.derive_seed``, runs the six rules, evaluates
each outcome and takes the suite optimum.  Every call into the package is
timed on its own and calibrated against the reference computation.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import calib
import checks
from reservematch import ALGORITHMS, SatGenConfig, evaluate, gen_instance
from reservematch.experiment import derive_seed
from reservematch.metrics import suite_optimum

MASTER_SEED = 1729
OUT = Path(__file__).resolve().parent / "out"  # traces and sweep files


@dataclass(frozen=True)
class Workload:
    name: str
    n_students: int
    capacities: tuple[int, ...]
    factors: tuple[str, ...]
    sweep_seeds_per_cell: int  # replicates per cell of the traced run's sweep

    def cells(self) -> list[tuple[int, str, int, int]]:
        """(factor index, factor, capacity index, capacity), sweep order."""
        return [
            (fi, factor, qi, qc)
            for fi, factor in enumerate(self.factors)
            for qi, qc in enumerate(self.capacities)
        ]

    def config(self, seed: int, cell: tuple[int, str, int, int], replicate: int) -> SatGenConfig:
        """Pool ``replicate`` of a cell.  Benchmark seed 0 yields the pools
        of the paper's sweep (master seed 1729); seed k shifts the master."""
        fi, factor, qi, qc = cell
        return SatGenConfig(
            capacity=qc,
            seed=derive_seed(MASTER_SEED + seed, fi, qi, replicate),
            n_students=self.n_students,
            psi_factor=factor,
        )


# Each workload stresses other layers; README.md gives the measured shares.
WORKLOADS = {
    w.name: w
    for w in (
        # The paper's main grid: small pools, generation and evaluate visible.
        Workload("baseline-sweep", 100, tuple(range(10, 100, 10)), ("1.0",), 4),
        # Reserves above capacity: try_force falls through to exchange and
        # shed chains most often, and the refit fallback can fire.
        Workload("high-reserve", 100, (20, 40, 60, 80), ("2.0", "2.3077", "2.6154"), 4),
        # The quadratic unpinned fill dominates; generation and evaluate are small.
        Workload("large-pool", 800, (400,), ("1.0", "2.0"), 2),
    )
}


class Clock:
    """Times calls into the package against the reference computation.

    Consecutive calls are grouped until they have run for at least
    ``MIN_GROUP_S``; each group is bracketed by reference runs (the one
    after a group is the one before the next), and each call's span
    (name, start, end, scale) carries its group's calibration factor.
    Grouping keeps the reference's share of the run small on pools of
    many short calls without leaving long calls uncalibrated.
    """

    MIN_GROUP_S = 0.002

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, float]] = []
        self._group: list[tuple[str, float, float]] = []
        self._group_s = 0.0
        self._before = calib.measure()

    def call(self, name: str, fn, *args):
        start = perf_counter()
        result = fn(*args)
        end = perf_counter()
        self._group.append((name, start, end))
        self._group_s += end - start
        if self._group_s >= self.MIN_GROUP_S:
            self.close()
        return result

    def close(self) -> list[tuple[str, float, float, float]]:
        """Calibrate the open group; return all spans."""
        if self._group:
            after = calib.measure()
            scale = 2 * calib.NOMINAL_S / (self._before + after)
            self.spans += [(name, start, end, scale) for name, start, end in self._group]
            self._group, self._group_s, self._before = [], 0.0, after
        return self.spans


def run_pool(config: SatGenConfig) -> tuple:
    """The pool operation; returns (instance, outcomes, values, best, spans)."""
    clock = Clock()
    instance = clock.call("datagen.gen_instance", gen_instance, config)
    outcomes = {tag: clock.call(f"algorithms.{tag}", rule, instance) for tag, rule in ALGORITHMS.items()}
    values = {
        tag: clock.call("metrics.evaluate", evaluate, instance, outcome)
        for tag, outcome in outcomes.items()
    }
    best = clock.call("metrics.suite_optimum", suite_optimum, values)
    return instance, outcomes, values, best, clock.close()


def calibrated_s(spans, name: str | None = None) -> float:
    return sum((end - start) * scale for n, start, end, scale in spans if name is None or n == name)


def raw_s(spans) -> float:
    return sum(end - start for _, start, end, _ in spans)


def quantile(values: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of
    all order statistics, most weight near rank p*n.  Pool times on a
    sweep are a mixture of one cluster per cell, and a plain sample
    quantile that falls between two clusters is the mean of two extreme
    pools; this estimate averages the pools around that rank instead."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(values)
    n = len(x)
    weights = np.diff(betainc((n + 1) * p, (n + 1) * (1 - p), np.arange(n + 1) / n))
    return float(weights @ x)


def pool_problems(instance, outcomes, values, best) -> list[str]:
    """Checks run on every pool, outside the timed calls."""
    problems = []
    mine = {}
    for tag, outcome in outcomes.items():
        problems += checks.structure_problems(instance, tag, outcome)
        mine[tag] = checks.metric_values(instance, outcome)
        problems += checks.metric_problems(tag, mine[tag], values[tag])
    want = [max(v[k] for v in mine.values()) for k in range(3)]
    got = [best["p1"], best["p2"], best["p3"]]
    if got[:2] != want[:2] or not math.isclose(got[2], want[2], rel_tol=1e-12):
        problems.append(f"suite_optimum reports {best}, recomputed {want}")
    return problems


def pool_loop(workload, seed: int, seconds: float, min_pools: int, on_pool) -> tuple[int, set[int]]:
    """Run whole rounds (one pool of every cell) until ``seconds`` have
    passed and at least ``min_pools`` pools ran.  ``on_pool(index, result)``
    checks each pool's result and returns its problems.  A pool fails when a
    call raises or a check finds a problem.  Returns (attempted, failed
    pool indices)."""
    cells = workload.cells()
    failed: set[int] = set()
    index = replicate = 0
    end = perf_counter() + seconds
    while replicate == 0 or perf_counter() < end or index < min_pools:
        results = []
        for cell in cells:
            config = workload.config(seed, cell, replicate)
            try:
                results.append((config, run_pool(config)))
            except Exception as exc:  # any raising call fails the pool
                results.append((config, exc))
        # Checks run after the round, not between its pools: with check
        # code between every two pools, the spread of the calibrated pool
        # rate over seeds was twice as wide (4.4% against 2.1%).
        for config, result in results:
            if isinstance(result, Exception):
                problems = [f"{type(result).__name__}: {result}"]
            else:
                problems = on_pool(index, result)
            for p in problems[:3]:
                print(f"pool {index} (seed {config.seed}): {p}", file=sys.stderr)
            if problems:
                failed.add(index)
            index += 1
        replicate += 1
    return index, failed


def result_doc(attempted: int, failed: int, run_problems: list[str], metrics: dict) -> dict:
    for p in run_problems:
        print(f"check: {p}", file=sys.stderr)
    return {
        "correct": failed == 0 and not run_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
