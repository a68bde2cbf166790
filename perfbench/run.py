"""Benchmark of the reservematch sweep work, one pool per operation.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload baseline-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --short      # every workload, few pools, all checks

With ``--trace 0`` the run times pools in a closed loop with one caller and
prints the end-to-end metrics; with ``--trace 1`` it prints the per-layer
metrics of a separate traced run (see ``tracing.py``).  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md for the metrics and the calibration.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MIN_POOLS = 150  # so that well over ten pools lie beyond the 90th percentile
SETUP_RUNS = 9
SAMPLE_POOLS = 16  # pools per run checked against the class-level optimum
PROPERTY_POOLS = 2  # pools per run checked for the defining property of `as`


def _import_package() -> None:
    if not (SRC / "reservematch" / "__init__.py").is_file():
        sys.exit(f"error: no package source under {SRC}")
    sys.path.insert(0, str(SRC))
    import reservematch

    if Path(reservematch.__file__).resolve().parent != SRC / "reservematch":
        sys.exit(f"error: imported reservematch from {reservematch.__file__}, not {SRC}")


SETUP_CODE = """\
import sys
sys.path.insert(0, {src!r})
from reservematch import ALGORITHMS, SatGenConfig, evaluate, gen_instance
from reservematch.metrics import suite_optimum
instance = gen_instance(SatGenConfig(capacity={c.capacity}, seed={c.seed}, n_students={c.n_students}, psi_factor={c.psi_factor!r}))
suite_optimum({{tag: evaluate(instance, rule(instance)) for tag, rule in ALGORITHMS.items()}})
"""


class SetupTimer:
    """Wall time of a fresh interpreter that imports the package and runs
    one warm-up pool.  A first, untimed run fills the bytecode and file
    caches, which users pay once per install, not per run."""

    def __init__(self, config) -> None:
        self.code = SETUP_CODE.format(src=str(SRC), c=config)
        self.times: list[float] = []
        self.problems: list[str] = []
        self._spawn()

    def _spawn(self) -> float:
        start = perf_counter()
        proc = subprocess.run([sys.executable, "-c", self.code], cwd=ROOT, capture_output=True, text=True)
        if proc.returncode != 0:
            self.problems.append(f"setup run failed: {proc.stderr.strip()[-300:]}")
        return perf_counter() - start

    def sample(self) -> None:
        self.times.append(self._spawn())


def timed_run(workload, seed: int, seconds: float, short: bool) -> dict:
    import checks
    import pools

    setup = SetupTimer(workload.config(seed, workload.cells()[0], 0))
    # Set-up samples are spread over the run, between pools, so that they
    # see the same drift of machine speed as the pools do.
    start = perf_counter()
    setup_due = [start + k * seconds / SETUP_RUNS for k in range(1 if short else SETUP_RUNS)]
    pool_ms, as_ms, raw_ms, sampled = [], [], [], []

    def on_pool(index, result):
        while setup_due and perf_counter() >= setup_due[0]:
            setup_due.pop(0)
            setup.sample()
        instance, outcomes, values, best, spans = result
        pool_ms.append(1e3 * pools.calibrated_s(spans))
        as_ms.append(1e3 * pools.calibrated_s(spans, "algorithms.as"))
        raw_ms.append(1e3 * pools.raw_s(spans))
        if short or index < SAMPLE_POOLS:
            sampled.append((index, instance, checks.summary(outcomes)))
        return pools.pool_problems(instance, outcomes, values, best)

    attempted, failed = pools.pool_loop(
        workload, seed, 0 if short else seconds, 0 if short else MIN_POOLS, on_pool
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for _ in setup_due:
        setup.sample()

    # The sampled checks import scipy, so they run after the peak is read.
    for index, instance, summaries in sampled:
        problems = checks.optimum_problems(instance, summaries)
        if short or index < PROPERTY_POOLS:
            problems += checks.as_property_problems(instance, summaries["as"][0])
        for p in problems[:3]:
            print(f"pool {index}: {p}", file=sys.stderr)
        if problems:
            failed.add(index)

    n = len(pool_ms)
    p90 = pools.quantile(pool_ms, 0.9)
    print(
        f"[{workload.name}] pools={attempted} failed={len(failed)} timed={n} "
        f"beyond_p90={sum(t > p90 for t in pool_ms)} optimum_checked={len(sampled)} "
        f"raw_pools_per_s={1e3 * n / sum(raw_ms):.2f}",
        file=sys.stderr,
    )
    metrics = {
        "pools_per_s": (1e3 * n / sum(pool_ms), "pools/s"),
        "pool_ms_p50": (pools.quantile(pool_ms, 0.5), "ms"),
        "pool_ms_p90": (p90, "ms"),
        "as_ms_p50": (pools.quantile(as_ms, 0.5), "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "setup_s": (statistics.median(setup.times), "s"),
    }
    return pools.result_doc(attempted, len(failed), setup.problems, metrics)


def run_all(args) -> dict:
    """Every workload in its own process, so each reports its own peak."""
    from pools import WORKLOADS

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        for trace in (0, 1) if args.short else (args.trace,):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd + (["--short"] if args.short else []), stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"error: {name} --trace {trace} exited with {proc.returncode}")
            doc = json.loads(lines[-1])
            print(f"{name} (trace {trace}): attempted={doc['attempted']} failed={doc['failed']} correct={doc['correct']}")
            for metric, m in doc["metrics"].items():
                print(f"  {metric:34s} {m['value']:12.4f} {m['unit']}")
                total["metrics"][f"{name}.{metric}"] = m
            total["correct"] &= doc["correct"]
            total["attempted"] += doc["attempted"]
            total["failed"] += doc["failed"]
    return total


def main(argv: list[str] | None = None) -> int:
    _import_package()
    from pools import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true", help="one round of pools per workload, every check on")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if args.workload == "all":
        doc = run_all(args)
    else:
        workload = WORKLOADS[args.workload]
        if args.trace:
            import tracing

            doc = tracing.traced_run(workload, args.seed, args.seconds, args.short)
        else:
            doc = timed_run(workload, args.seed, args.seconds, args.short)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
