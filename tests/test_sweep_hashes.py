"""Byte-for-byte pin of the two default sweeps.

The per-instance rows hold every rule's selected ids and metric values, so
these hashes lock the selections of all six rules on 2100 generated pools.
The plot tables are pinned by one digest per sweep over all its
``plot_*.csv`` files, taken in name order, each fed as its name, a newline
and its bytes.
A deliberate change of behaviour must update the pins and explain itself in
CHANGES.md.  The commands that regenerate the files are in
``perfbench/README.md``.
"""

import hashlib

import pytest

from reservematch.experiment import ExperimentSpec, run_experiment

SWEEPS = {
    "baseline": (
        {},
        "55169ad25d50903254fbd49c331bef6943bdf75fef1bba2ccd3815999e9786b6",
        "17944562e94fb32f5c912f5c0c5cbc9e7a13995e95e14af752d8874e3a11115f",
        "a5dd741b7243e2644b2053ecf6a87791157affed74380a475912a3c952668dc4",
    ),
    "high-reserve": (
        {"capacities": (20, 40, 60, 80), "psi_factors": ("2.0", "2.3077", "2.6154")},
        "54bb636c6bf6d9b9f30f6aafa4ada7b88ab2149d119260c7738918bee44a2c68",
        "0ec46be33de1938e10f398cee638e772852825a55b4fc889cafee584b97da6d2",
        "5c3ff29c2b21d4a0cb85833c03fdc312d59f4308d5cf8359c7b8c76873e21c4f",
    ),
}


@pytest.mark.parametrize("name", SWEEPS)
def test_default_sweep_outputs_are_pinned(request, tmp_path, name):
    overrides, per_instance, ratios, plots = SWEEPS[name]
    if overrides:
        out_dir = tmp_path
        run_experiment(ExperimentSpec(out_dir=out_dir, **overrides), progress=False)
    else:
        # the default spec's files are shared with the acceptance criteria
        out_dir, _ = request.getfixturevalue("default_baseline_sweep")
    assert hashlib.sha256((out_dir / "per_instance.csv").read_bytes()).hexdigest() == per_instance
    assert hashlib.sha256((out_dir / "ratios.csv").read_bytes()).hexdigest() == ratios
    tables = sorted(out_dir.glob("plot_*.csv"), key=lambda path: path.name)
    assert len(tables) == 6 * len(overrides.get("psi_factors", ("1.0",)))
    digest = hashlib.sha256()
    for path in tables:
        digest.update(path.name.encode() + b"\n" + path.read_bytes())
    assert digest.hexdigest() == plots
