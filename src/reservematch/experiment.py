"""Experiment sweeps: generate pools, run the suite, persist results.

A sweep is a grid of cells, one per (reserve factor, capacity) pair, with a
fixed number of replicate pools per cell.  Replicate seeds derive from the
master seed through ``numpy.random.SeedSequence(master, spawn_key=(factor
index, capacity index, replicate))``, so cells are independent and the
execution order is irrelevant.  Outputs are deterministic byte for byte;
the only run-dependent value is the timestamp inside the manifest.

Files written to the output directory:

* ``per_instance.csv``: one row per (cell, replicate, algorithm) with the
  metric values, suite-relative ratios, and the selected ids (audit trail);
* ``ratios.csv``: one row per (cell, algorithm, metric) with the average
  and worst-case ratios;
* ``plot_{metric}_{case}_psi{factor}.csv``: the paper's per-figure tables,
  one per metric, case (``avg`` or ``worst``) and reserve factor, with a
  row per capacity and a column per algorithm, each value copied from
  ``ratios.csv``;
* ``manifest.json``: the full configuration, derived seeds, and per-cell
  reserve totals.
"""

from __future__ import annotations

import csv
import json
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from . import __version__
from .algorithms import ALGORITHMS
from .datagen import SatGenConfig, SettingsError, gen_instance, gen_quotas, parse_factor
from .metrics import METRICS, evaluate, ratio, suite_optimum
from .model import _is_int

PER_INSTANCE_FIELDS = (
    "psi_factor",
    "qc",
    "replicate",
    "algorithm",
    "p1",
    "p2",
    "p3",
    "p3_min",
    "p3_max",
    "ratio_p1",
    "ratio_p2",
    "ratio_p3",
    "selected",
)
RATIO_FIELDS = ("psi_factor", "qc", "algorithm", "metric", "avg_ratio", "worst_ratio", "n_instances")


@dataclass(frozen=True)
class ExperimentSpec:
    """A sweep definition, checked whole when built (each cell by building its
    :class:`SatGenConfig`); see the module docstring for the output layout."""

    out_dir: Path
    n_students: int = 100
    capacities: tuple[int, ...] = tuple(range(10, 100, 10))
    psi_factors: tuple[str, ...] = ("1.0",)
    seeds_per_cell: int = 100
    master_seed: int = 1729

    def __post_init__(self) -> None:
        # first, as Instance does: a list would stay mutable, and a generator has no length
        for name in ("capacities", "psi_factors"):
            if not isinstance(getattr(self, name), tuple):
                raise SettingsError(f"{name} must be a tuple, got a {type(getattr(self, name)).__name__}")
        if not self.capacities:
            raise SettingsError("no capacities given")
        if not self.psi_factors:
            raise SettingsError("no reserve factors given")
        for factor in self.psi_factors:
            for qc in self.capacities:
                SatGenConfig(capacity=qc, seed=0, n_students=self.n_students, psi_factor=factor)
            # its text names the plot files
            if "/" in str(factor):
                raise SettingsError(f"reserve factor '{factor}' holds a '/', which no plot file name can; give it as a decimal")
            if str(factor) != str(factor).strip():
                raise SettingsError(f"reserve factor {str(factor)!r} has whitespace at an end, which its plot file names would keep")
        if len(set(self.capacities)) != len(self.capacities):
            raise SettingsError("a capacity is given twice")
        # compare values, so "1" and "1.0" count as one factor
        if len({parse_factor(factor) for factor in self.psi_factors}) != len(self.psi_factors):
            raise SettingsError("a reserve factor is given twice")
        if not _is_int(self.seeds_per_cell) or self.seeds_per_cell < 1:
            raise SettingsError("seeds_per_cell must be an integer >= 1")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise SettingsError("master_seed must be an integer >= 0")


def derive_seed(master_seed: int, factor_index: int, capacity_index: int, replicate: int) -> int:
    """Replicate seed for one cell position; stable and collision-free."""
    import numpy as np

    ss = np.random.SeedSequence(master_seed, spawn_key=(factor_index, capacity_index, replicate))
    return int(ss.generate_state(1, np.uint64)[0])


def _cell_rows(args: tuple) -> list[dict]:
    """Run one cell and return its per-instance rows (worker function)."""
    n_students, factor, qc, seeds = args
    rows: list[dict] = []
    for replicate, seed in enumerate(seeds):
        config = SatGenConfig(capacity=qc, seed=seed, n_students=n_students, psi_factor=factor)
        instance = gen_instance(config)
        outcomes = {tag: rule(instance) for tag, rule in ALGORITHMS.items()}
        values = {tag: evaluate(instance, outcome) for tag, outcome in outcomes.items()}
        opts = suite_optimum(values)
        for tag, v in values.items():
            rows.append(
                {
                    "psi_factor": factor,
                    "qc": qc,
                    "replicate": replicate,
                    "algorithm": tag,
                    "p1": v.p1,
                    "p2": v.p2,
                    "p3": f"{v.p3:.6f}",
                    "p3_min": f"{v.p3_min:.6f}",
                    "p3_max": f"{v.p3_max:.6f}",
                    "ratio_p1": f"{ratio(v.p1, opts['p1']):.6f}",
                    "ratio_p2": f"{ratio(v.p2, opts['p2']):.6f}",
                    "ratio_p3": f"{ratio(v.p3, opts['p3']):.6f}",
                    "selected": " ".join(map(str, outcomes[tag].selected)),
                }
            )
    return rows


def _aggregate(rows: Sequence[dict]) -> list[dict]:
    """Collapse per-instance rows into per-cell ratio rows."""
    grouped: dict[tuple, list[dict]] = {}  # cells in first-row order
    for row in rows:
        grouped.setdefault((row["psi_factor"], row["qc"], row["algorithm"]), []).append(row)
    out = []
    for (factor, qc, tag), cell in grouped.items():
        for metric in METRICS:
            values = [float(r[f"ratio_{metric}"]) for r in cell]
            out.append(
                {
                    "psi_factor": factor,
                    "qc": qc,
                    "algorithm": tag,
                    "metric": metric,
                    "avg_ratio": f"{sum(values) / len(values):.6f}",
                    "worst_ratio": f"{min(values):.6f}",
                    "n_instances": len(values),
                }
            )
    return out


def _write_csv(path: Path, fieldnames: Sequence[str], rows: Sequence[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(fieldnames), lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)


def _write_plot_tables(out_dir: Path, ratio_rows: Sequence[dict]) -> dict[str, Path]:
    """Write one wide table per metric, case (``avg`` or ``worst``) and
    reserve factor: a row per capacity, ascending, a column per rule, each
    value the ratio ``ratios.csv`` holds.  Returns the paths by file stem."""
    tables: dict[tuple[str, str], dict[int, dict[str, dict]]] = {}  # (factor, metric) -> qc -> rule -> row
    for row in ratio_rows:
        key = (str(row["psi_factor"]), row["metric"])
        tables.setdefault(key, {}).setdefault(row["qc"], {})[row["algorithm"]] = row
    written = {}
    for (factor, metric), by_qc in tables.items():
        for case in ("avg", "worst"):
            stem = f"plot_{metric}_{case}_psi{factor}"
            written[stem] = out_dir / f"{stem}.csv"
            rows = [{"qc": qc, **{tag: r[f"{case}_ratio"] for tag, r in by_qc[qc].items()}} for qc in sorted(by_qc)]
            _write_csv(written[stem], ("qc", *ALGORITHMS), rows)
    return written


def run_experiment(spec: ExperimentSpec, jobs: int = 1, progress: bool = True) -> dict[str, Path]:
    """Execute a sweep and write its result files.

    Returns the paths of the written files by name; a plot table's name is
    its file stem.  Every cell runs the six rules of ``ALGORITHMS``.  With
    ``jobs > 1`` cells run in separate processes, at most one per cell (a
    single cell runs in this process); rows are assembled in cell order
    either way, so the outputs do not depend on the degree of parallelism.
    ``jobs < 1`` raises :class:`SettingsError` before any cell runs.
    """
    if not _is_int(jobs) or jobs < 1:
        raise SettingsError(f"jobs must be an integer >= 1, got {jobs!r}")
    out_dir = Path(spec.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    cells = []
    manifest_cells = []
    for fi, factor in enumerate(spec.psi_factors):
        for qi, qc in enumerate(spec.capacities):
            seeds = [derive_seed(spec.master_seed, fi, qi, r) for r in range(spec.seeds_per_cell)]
            cells.append((spec.n_students, factor, qc, seeds))
            quotas = gen_quotas(qc, factor)
            reserves = sum(quotas.rank1) + sum(quotas.rank2)
            manifest_cells.append(
                {"psi_factor": factor, "qc": qc, "total_reserves": reserves, "seeds": seeds}
            )

    rows: list[dict] = []
    workers = min(jobs, len(cells))
    with ProcessPoolExecutor(max_workers=workers) if workers > 1 else nullcontext() as pool:
        cell_map = pool.map if pool is not None else map
        for i, cell_rows in enumerate(cell_map(_cell_rows, cells)):
            rows.extend(cell_rows)
            if progress:
                print(f"[sweep] cell {i + 1}/{len(cells)} done", file=sys.stderr)

    per_instance = out_dir / "per_instance.csv"
    ratio_path = out_dir / "ratios.csv"
    manifest_path = out_dir / "manifest.json"
    _write_csv(per_instance, PER_INSTANCE_FIELDS, rows)
    ratio_rows = _aggregate(rows)
    _write_csv(ratio_path, RATIO_FIELDS, ratio_rows)
    tables = _write_plot_tables(out_dir, ratio_rows)
    manifest = {
        "n_students": spec.n_students,
        "capacities": list(spec.capacities),
        "psi_factors": list(spec.psi_factors),
        "seeds_per_cell": spec.seeds_per_cell,
        "master_seed": spec.master_seed,
        "algorithms": list(ALGORITHMS),
        "seed_scheme": "numpy SeedSequence(master_seed, spawn_key=(factor_index, capacity_index, replicate))",
        "cells": manifest_cells,
        "package_version": __version__,
        "created_unix": time.time(),
    }
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return {"per_instance": per_instance, "ratios": ratio_path, **tables, "manifest": manifest_path}

