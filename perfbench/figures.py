"""Reference figures for README.md, printed as markdown.

    python3 perfbench/figures.py

Prints an ``as``/``sy2``/``pos`` scaling curve over the pool size (capacity
n/2, reserve factor 2.0, one pool per size, raw and calibrated seconds), the
raw wall times of the two default sweeps with jobs=1 and jobs=nproc, and the
sha256 of their CSVs.  These are single measurements for reference; nothing
gates on them.
"""

from __future__ import annotations

import hashlib
import os
import shutil
from time import perf_counter

import run

run._import_package()

import calib  # noqa: E402
import pools  # noqa: E402
from reservematch import ALGORITHMS, SatGenConfig, gen_instance  # noqa: E402
from reservematch.experiment import ExperimentSpec, run_experiment  # noqa: E402

SWEEPS = {
    "baseline": {},
    "high-reserve": {"capacities": (20, 40, 60, 80), "psi_factors": ("2.0", "2.3077", "2.6154")},
}


def scaling() -> None:
    print("| n | rule | raw s | calibrated s |\n|---|---|---|---|")
    for n in (100, 400, 1600, 6400):
        instance = gen_instance(SatGenConfig(capacity=n // 2, seed=n, n_students=n, psi_factor=2.0))
        for tag in ("as", "sy2", "pos"):
            clock = pools.Clock()
            clock.call(tag, ALGORITHMS[tag], instance)
            spans = clock.close()
            print(f"| {n} | {tag} | {pools.raw_s(spans):.4f} | {pools.calibrated_s(spans):.4f} |")


def sweeps() -> None:
    jobs = os.cpu_count() or 1
    print(f"\n| sweep | jobs | wall s |\n|---|---|---|")
    digests = []
    for name, fields in SWEEPS.items():
        for j in sorted({1, jobs}):
            out = pools.OUT / "figures" / f"{name}-jobs{j}"
            shutil.rmtree(out, ignore_errors=True)
            start = perf_counter()
            run_experiment(ExperimentSpec(out_dir=out, **fields), jobs=j, progress=False)
            print(f"| {name} | {j} | {perf_counter() - start:.2f} |")
        for csv_name in ("per_instance.csv", "ratios.csv"):
            digest = hashlib.sha256((out / csv_name).read_bytes()).hexdigest()
            digests.append(f"| {name} | {csv_name} | `{digest}` |")
    print("\n| sweep | file | sha256 |\n|---|---|---|")
    print("\n".join(digests))


if __name__ == "__main__":
    print(f"reference run: {1e3 * min(calib.measure() for _ in range(200)):.3f} ms (fastest of 200), "
          f"nominal {1e3 * calib.NOMINAL_S:.3f} ms\n")
    scaling()
    sweeps()
