"""The traced run: per-layer numbers, kept apart from the timed runs.

The run spends the first half of its time on untraced pools and the second
half on the same pools traced, so the tracing overhead is the difference of
the two halves' median pool times.  A traced pool records a span (id,
parent, name, start, end, calibration scale) at each call into the package,
then replays ``as`` and ``pos`` with names from ``reservematch.__all__``
only, so that the engine's steps get spans of their own: ``build_graph``,
the unpinned fill of ``RankMaximalMatcher(graph)``, the ``try_force`` scan,
``matching()`` and the pinned ``RankMaximalMatcher(graph, prefix)``.  Each
replay must select exactly what its rule selected.  Last comes one
``run_experiment`` over a few pools of every cell of the workload's grid,
with jobs=1 and jobs=nproc, whose files are checked.  Spans stay in memory
and are written to ``out/`` at the end.  Reported times are calibrated self
times (a span minus its children), summed over the run.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
from time import perf_counter

import checks
import pools
from reservematch import ALGORITHMS, RankMaximalMatcher, build_graph, gen_instance
from reservematch import experiment
from reservematch.experiment import ExperimentSpec, derive_seed, run_experiment


class Tracer:
    """Spans and counts of one traced run, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [id, parent, name, start, end, scale]
        self.counts: dict[str, int] = {}

    def add(self, parent: int | None, name: str, start: float, end: float | None, scale: float) -> int:
        self.spans.append([len(self.spans), parent, name, start, end, scale])
        return len(self.spans) - 1

    def close(self, span: int) -> None:
        self.spans[span][4] = perf_counter()

    def adopt(self, parent: int, spans) -> None:
        """Record a clock's spans as children of ``parent``."""
        for name, start, end, scale in spans:
            self.add(parent, name, start, end, scale)
            self.count(name)

    def count(self, key: str, k: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + k

    def self_ms(self) -> dict[str, float]:
        """Calibrated self time per span name, in ms."""
        child = [0.0] * len(self.spans)
        for _, parent, _, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out: dict[str, float] = {}
        for i, _, name, start, end, scale in self.spans:
            out[name] = out.get(name, 0.0) + 1e3 * (end - start - child[i]) * scale
        return out

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "name", "start", "end", "scale")
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _scan(matcher, order) -> tuple[list[int], int]:
    """The greedy ``try_force`` scan of ``as``; returns (chosen, calls)."""
    chosen: list[int] = []
    calls = 0
    for sid in order:
        if len(chosen) == matcher.target_size:
            break
        calls += 1
        if matcher.try_force(sid):
            chosen.append(sid)
    return chosen, calls


def replay(tracer: Tracer, parent: int, instance, outcomes) -> list[str]:
    """Replay ``as`` and ``pos`` step by step; return mismatches."""
    problems = []
    clock = pools.Clock()
    graph = clock.call("graph.build_graph", build_graph, instance)
    matcher = clock.call("solver.fill", RankMaximalMatcher, graph)
    chosen, calls = clock.call("solver.try_force_scan", _scan, matcher, instance.acceptable)
    tracer.count("solver.try_force", calls)
    tracer.count("solver.try_force_accepted", len(chosen))
    matching = clock.call("solver.matching", matcher.matching)
    if tuple(chosen) != outcomes["as"].selected or matching != outcomes["as"].matching:
        problems.append("replay of as differs from the rule")

    prefix = outcomes["pos"].selected
    graph = clock.call("graph.build_graph", build_graph, instance, set(prefix))
    matcher = clock.call("solver.pin", RankMaximalMatcher, graph, prefix)
    matching = clock.call("solver.matching", matcher.matching)
    if matcher.matched_students() != prefix or matching != outcomes["pos"].matching:
        problems.append("replay of pos differs from the rule")
    tracer.adopt(parent, clock.close())
    return problems


def sweep_check(tracer: Tracer, workload, seed: int, short: bool) -> list[str]:
    """One traced ``run_experiment(jobs=1)``, checked against recomputed
    values, and a jobs=nproc sweep that must write the same bytes."""
    out = pools.OUT / f"sweep-{workload.name}-{seed}"
    shutil.rmtree(out, ignore_errors=True)
    spec = ExperimentSpec(
        out_dir=out / "jobs1",
        n_students=workload.n_students,
        capacities=workload.capacities,
        psi_factors=workload.factors,
        seeds_per_cell=1 if short else workload.sweep_seeds_per_cell,
        master_seed=pools.MASTER_SEED + seed,
    )
    # Cell spans come from wrapping the module's worker function, which
    # run_experiment looks up at call time when jobs=1.
    cell_rows = experiment._cell_rows
    cells: list[tuple[float, float]] = []

    def traced_cell(args):
        start = perf_counter()
        rows = cell_rows(args)
        cells.append((start, perf_counter()))
        return rows

    clock = pools.Clock()
    experiment._cell_rows = traced_cell
    try:
        clock.call("experiment.run_experiment", run_experiment, spec, 1, False)
    finally:
        experiment._cell_rows = cell_rows
    (name, start, end, scale), = clock.close()
    top = tracer.add(None, name, start, end, scale)
    for start, end in cells:
        tracer.add(top, "experiment.cell", start, end, scale)

    problems = []
    expected = {}
    manifest = json.loads((spec.out_dir / "manifest.json").read_text())
    for cell, written in zip(workload.cells(), manifest["cells"]):
        fi, factor, qi, qc = cell
        seeds = [derive_seed(spec.master_seed, fi, qi, r) for r in range(spec.seeds_per_cell)]
        if written["seeds"] != seeds:
            problems.append(f"manifest: seeds of cell ({factor}, {qc}) differ from derive_seed")
        for r in range(spec.seeds_per_cell):
            instance = gen_instance(workload.config(seed, cell, r))
            if r == 0 and written["total_reserves"] != sum(instance.quotas.rank1) + sum(instance.quotas.rank2):
                problems.append(f"manifest: total_reserves of cell ({factor}, {qc}) is wrong")
            for tag, rule in ALGORITHMS.items():
                outcome = rule(instance)
                expected[(factor, qc, r, tag)] = (checks.metric_values(instance, outcome), outcome.selected)
    problems += checks.sweep_problems(spec.out_dir, expected)

    jobs = os.cpu_count() or 1
    parallel = dataclasses.replace(spec, out_dir=out / f"jobs{jobs}")
    run_experiment(parallel, jobs=jobs, progress=False)
    for name in ("per_instance.csv", "ratios.csv"):
        if (spec.out_dir / name).read_bytes() != (parallel.out_dir / name).read_bytes():
            problems.append(f"{name}: jobs={jobs} output differs from jobs=1")
    return problems


def traced_run(workload, seed: int, seconds: float, short: bool) -> dict:
    untraced_ms: list[float] = []
    traced_ms: list[float] = []
    tracer = Tracer()

    def untraced(index, result):
        instance, outcomes, values, best, spans = result
        untraced_ms.append(1e3 * pools.calibrated_s(spans))
        return pools.pool_problems(instance, outcomes, values, best)

    def traced(index, result):
        instance, outcomes, values, best, spans = result
        # The pool span also covers the reference runs, checks and replays;
        # its self time is the benchmark's own work.
        pool = tracer.add(None, "pool", spans[0][1], None, 1.0)
        tracer.adopt(pool, spans)
        traced_ms.append(1e3 * pools.calibrated_s(spans))
        problems = pools.pool_problems(instance, outcomes, values, best)
        problems += replay(tracer, pool, instance, outcomes)
        tracer.close(pool)
        return problems

    half = 0 if short else seconds / 2
    attempted, failed = pools.pool_loop(workload, seed, half, 0, untraced)
    more, more_failed = pools.pool_loop(workload, seed, half, 0, traced)
    attempted += more
    failed = len(failed) + len(more_failed)
    run_problems = sweep_check(tracer, workload, seed, short)
    tracer.write(pools.OUT / f"trace-{workload.name}-{seed}.jsonl")

    ms = tracer.self_ms()
    c = tracer.counts
    metrics = {
        "datagen.gen_instance_ms": (ms["datagen.gen_instance"], "ms"),
        "datagen.gen_instance_calls": (c["datagen.gen_instance"], "count"),
    }
    for tag in ALGORITHMS:
        metrics[f"algorithms.{tag}_ms"] = (ms[f"algorithms.{tag}"], "ms")
    metrics.update({
        "graph.build_graph_ms": (ms["graph.build_graph"], "ms"),
        "graph.build_graph_calls": (c["graph.build_graph"], "count"),
        "solver.fill_ms": (ms["solver.fill"], "ms"),
        "solver.fill_calls": (c["solver.fill"], "count"),
        "solver.try_force_ms": (ms["solver.try_force_scan"], "ms"),
        "solver.try_force_calls": (c["solver.try_force"], "count"),
        "solver.try_force_accepted": (c["solver.try_force_accepted"], "count"),
        "solver.try_force_accept_ratio": (c["solver.try_force_accepted"] / c["solver.try_force"], "ratio"),
        "solver.pin_ms": (ms["solver.pin"], "ms"),
        "solver.pin_calls": (c["solver.pin"], "count"),
        "solver.matching_ms": (ms["solver.matching"], "ms"),
        "metrics.evaluate_ms": (ms["metrics.evaluate"], "ms"),
        "metrics.suite_optimum_ms": (ms["metrics.suite_optimum"], "ms"),
        "experiment.run_experiment_ms": (ms["experiment.run_experiment"] + ms["experiment.cell"], "ms"),
        "experiment.outside_pools_ms": (ms["experiment.run_experiment"], "ms"),
        "trace.pools": (len(traced_ms), "count"),
        "trace.overhead_ms": (pools.quantile(traced_ms, 0.5) - pools.quantile(untraced_ms, 0.5), "ms"),
    })
    return pools.result_doc(attempted, failed, run_problems, metrics)
