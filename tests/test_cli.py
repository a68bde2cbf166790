import csv
import json
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import reservematch
from reservematch import ALGORITHMS, Matching, SatGenConfig, SettingsError, load_instance, serialize_instance
from reservematch import experiment
from reservematch.cli import main
from reservematch.experiment import ExperimentSpec, ResultsFormatError, derive_seed, emit_plot_data, run_experiment

from conftest import make_example

# the bytes `run --out` writes on the worked example, one file per rule
RUN_OUT = Path(__file__).parent / "golden" / "run_out"


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(serialize_instance(make_example()), encoding="utf-8")
    return path


def test_gen_writes_instance_and_sidecar(tmp_path):
    out = tmp_path / "pool.json"
    rc = main(["gen", "--capacity", "20", "--seed", "5", "--n", "50", "--out", str(out)])
    assert rc == 0
    inst = load_instance(out)  # an Instance, so checked when built
    assert inst.capacity == 20 and inst.n_students == 50
    meta = json.loads((tmp_path / "pool.json.meta.json").read_text())
    assert meta["seed"] == 5 and meta["capacity"] == 20


@pytest.mark.parametrize(
    "settings",
    [
        ["--n", "0", "--capacity", "1"],
        ["--capacity", "0"],
        ["--capacity", "200"],
        ["--capacity", "10", "--psi-factor", "abc"],
        ["--capacity", "10", "--psi-factor", "0"],
        ["--capacity", "10", "--seed", "-1"],
    ],
)
def test_gen_rejects_bad_settings_as_usage_error(tmp_path, capsys, settings):
    out = tmp_path / "pool.json"
    assert main(["gen", "--seed", "1", "--out", str(out), *settings]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []


def test_run_prints_selection(example_file, capsys):
    rc = main(["run", str(example_file), "--algo", "as"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "selected 1 3 4" in out
    assert "signature 2 1 0" in out


def test_run_sy2(example_file, capsys):
    rc = main(["run", str(example_file), "--algo", "sy2"])
    assert rc == 0
    assert "selected 1 2 3" in capsys.readouterr().out


def test_run_writes_outcome_file(example_file, tmp_path, capsys):
    out = tmp_path / "outcome.json"
    rc = main(["run", str(example_file), "--algo", "pos", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["algorithm"] == "pos"
    assert doc["selected"] == [0, 1, 2]
    assert doc["signature"] == [0, 2, 1]
    assert doc["metrics"]["p2"] == 2


@pytest.mark.parametrize("tag", sorted(ALGORITHMS))
def test_run_out_is_pinned(example_file, tmp_path, tag):
    out = tmp_path / "outcome.json"
    assert main(["run", str(example_file), "--algo", tag, "--out", str(out)]) == 0
    assert out.read_bytes() == (RUN_OUT / f"{tag}.json").read_bytes()


def test_unknown_algorithm_is_usage_error(example_file):
    assert main(["run", str(example_file), "--algo", "bogus"]) == 1


def test_missing_instance_is_runtime_error(tmp_path):
    assert main(["run", str(tmp_path / "nope.json"), "--algo", "as"]) == 2


def test_malformed_instance_is_runtime_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["run", str(bad), "--algo", "as"]) == 2


@pytest.mark.parametrize(
    "field",
    [
        '"capacity": 0',
        '"capacity": true',
        '"capacity": 1, "acceptable": -3',
        '"capacity": 1, "scores": [null, 1]',
        '"capacity": 1, "scores": ["abc", 1]',
        '"capacity": 1, "scores": [true, 1]',
        '"capacity": 1, "scores": [%d, 1]' % 10**400,
        '"capacity": 1, "scores": [1e400, 1]',
        '"capacity": 1, "scores": [NaN, 1]',
    ],
)
def test_invalid_instance_is_runtime_error(tmp_path, capsys, field):
    bad = tmp_path / "bad.json"
    bad.write_text(
        '{%s, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1], []]}' % field,
        encoding="utf-8",
    )
    assert main(["run", str(bad), "--algo", "as"]) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_missing_subcommand_is_usage_error():
    assert main([]) == 1


def test_module_entry_point_prints_usage():
    src = str(Path(reservematch.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-m", "reservematch.cli", "--help"],
                          capture_output=True, text=True, env=env, timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.startswith("usage: reservematch ")


def sweep_args(out_dir, seed="7"):
    return [
        "sweep",
        "--out",
        str(out_dir),
        "--n",
        "30",
        "--qc",
        "5,10",
        "--psi-factors",
        "1.0,2.0",
        "--seeds-per-cell",
        "3",
        "--seed",
        seed,
        "--quiet",
    ]


def test_sweep_outputs_and_determinism(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    assert main(sweep_args(first)) == 0
    assert main(sweep_args(second)) == 0

    for name in ("per_instance.csv", "ratios.csv"):
        assert (first / name).read_bytes() == (second / name).read_bytes()

    # each ratios.csv row is the mean and min of its cell's rounded per-instance ratios
    with open(first / "per_instance.csv", newline="") as fh:
        per_instance = list(csv.DictReader(fh))
    with open(first / "ratios.csv", newline="") as fh:
        aggregated = list(csv.DictReader(fh))
    assert len(aggregated) == 2 * 2 * 6 * 3
    for row in aggregated:
        key = (row["psi_factor"], row["qc"], row["algorithm"])
        cell = [
            float(r["ratio_" + row["metric"]])
            for r in per_instance
            if (r["psi_factor"], r["qc"], r["algorithm"]) == key
        ]
        assert int(row["n_instances"]) == len(cell) == 3
        assert row["avg_ratio"] == f"{sum(cell) / len(cell):.6f}"
        assert row["worst_ratio"] == f"{min(cell):.6f}"
        assert float(row["worst_ratio"]) <= float(row["avg_ratio"])

    m1 = json.loads((first / "manifest.json").read_text())
    m2 = json.loads((second / "manifest.json").read_text())
    m1.pop("created_unix"), m2.pop("created_unix")
    assert m1 == m2
    assert m1["algorithms"] == list(ALGORITHMS)


def test_sweep_different_master_seed_differs(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(sweep_args(a)) == 0
    assert main(sweep_args(b, seed="8")) == 0
    assert (a / "per_instance.csv").read_bytes() != (b / "per_instance.csv").read_bytes()


def test_sweep_rejects_capacity_above_pool(tmp_path):
    rc = main(["sweep", "--out", str(tmp_path / "x"), "--n", "30", "--qc", "50", "--quiet"])
    assert rc == 1


@pytest.mark.parametrize(
    "extra",
    [
        "--psi-factors=1.0,abc",
        "--psi-factors=1.0,0",
        "--psi-factors=-2",
        "--jobs=0",
        "--jobs=-3",
        "--seed=-1",
        "--qc=5,5",
        "--psi-factors=1.0,1.0",
        "--psi-factors=1,1.0",
        "--psi-factors=2,2.0,2.00",
    ],
)
def test_sweep_rejects_bad_input_before_any_cell(tmp_path, extra):
    out = tmp_path / "x"
    rc = main(["sweep", "--out", str(out), "--n", "30", "--qc", "5", "--seeds-per-cell", "1", "--quiet", extra])
    assert rc == 1
    assert not out.exists()


def test_sweep_has_no_algorithm_subset_flag(tmp_path, capsys):
    # every rule is scored against the best of the whole suite, so a sweep runs all six
    out = tmp_path / "x"
    rc = main(["sweep", "--out", str(out), "--n", "30", "--qc", "5", "--seeds-per-cell", "1", "--quiet", "--algos", "as"])
    assert rc == 1
    assert "unrecognized arguments: --algos as" in capsys.readouterr().err
    assert not out.exists()


def test_each_command_checks_its_settings_once(tmp_path, monkeypatch):
    calls = {SatGenConfig: 0, ExperimentSpec: 0}

    def counting(cls):
        check = cls.__post_init__

        def counted(self):
            calls[cls] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counted)

    counting(SatGenConfig)
    counting(ExperimentSpec)
    assert main(["gen", "--capacity", "5", "--seed", "1", "--n", "20", "--out", str(tmp_path / "pool.json")]) == 0
    assert calls == {SatGenConfig: 1, ExperimentSpec: 0}
    calls[SatGenConfig] = 0
    sweep = ["sweep", "--out", str(tmp_path / "sweep"), "--n", "20", "--qc", "5", "--seeds-per-cell", "1", "--quiet"]
    assert main(sweep) == 0
    assert calls[ExperimentSpec] == 1


@pytest.mark.parametrize(
    "settings, message",
    [({"capacities": ()}, "no capacities given"), ({"psi_factors": ()}, "no reserve factors given")],
)
def test_run_experiment_rejects_an_empty_grid(tmp_path, settings, message):
    spec = ExperimentSpec(out_dir=tmp_path / "x", n_students=30, capacities=(5,), seeds_per_cell=1)
    with pytest.raises(SettingsError, match=f"^{message}$"):
        run_experiment(replace(spec, **settings), progress=False)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"capacities": (5, 31)}, "capacity 31 must be an integer in [1, 30]"),
        ({"capacities": (5, 5)}, "a capacity is given twice"),
        ({"psi_factors": ("2", "2.0")}, "a reserve factor is given twice"),
        ({"psi_factors": ("1.0", "-2")}, "psi_factor must be a positive number, got '-2'"),
        ({"n_students": 0}, "n_students must be an integer >= 1, got 0"),
        ({"seeds_per_cell": 0}, "seeds_per_cell must be an integer >= 1"),
        ({"master_seed": -1}, "master_seed must be an integer >= 0"),
        # a list stayed mutable after the checks, and a generator had no length
        ({"capacities": [5]}, "capacities must be a tuple, got a list"),
        ({"psi_factors": ["1.0"]}, "psi_factors must be a tuple, got a list"),
        ({"capacities": (qc for qc in (5,))}, "capacities must be a tuple, got a generator"),
        # the factor's text names a plot file
        ({"psi_factors": ("1.0", "1/2")}, "reserve factor '1/2' holds a '/', which no plot file name can; give it as a decimal"),
    ],
)
def test_a_sweep_spec_checks_itself_when_built(tmp_path, settings, message):
    # each cell's pool settings are checked by building its SatGenConfig
    fields = {"out_dir": tmp_path / "x", "n_students": 30, "capacities": (5,), "seeds_per_cell": 1}
    with pytest.raises(SettingsError, match=f"^{re.escape(message)}$"):
        ExperimentSpec(**{**fields, **settings})


def test_sweep_names_a_capacity_list_that_is_not_integers(tmp_path, capsys):
    out = tmp_path / "x"
    assert main(["sweep", "--out", str(out), "--n", "30", "--qc", "10,x", "--quiet"]) == 1
    assert "not a comma-separated integer list: '10,x'" in capsys.readouterr().err
    assert not out.exists()


def test_run_experiment_rejects_zero_jobs(tmp_path):
    spec = ExperimentSpec(out_dir=tmp_path / "x", n_students=30, capacities=(5,), seeds_per_cell=1)
    with pytest.raises(SettingsError, match="jobs"):
        run_experiment(spec, jobs=0, progress=False)
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "settings",
    [
        {"n_students": 30.0},
        {"capacities": (10.0,)},
        {"capacities": ([5],)},
        {"seeds_per_cell": True},
        {"master_seed": 1.5},
        {"psi_factors": (True,)},
    ],
)
def test_run_experiment_rejects_non_integer_settings(tmp_path, settings):
    # booleans are neither counts, seeds nor reserve factors
    fields = {"out_dir": tmp_path / "x", "n_students": 30, "capacities": (5,), "seeds_per_cell": 1}
    with pytest.raises(SettingsError):
        run_experiment(ExperimentSpec(**{**fields, **settings}), progress=False)
    assert not (tmp_path / "x").exists()


def test_sweep_reports_each_cell_unless_quiet(tmp_path, capsys):
    spec = ExperimentSpec(out_dir=tmp_path / "loud", n_students=30, capacities=(5, 10), seeds_per_cell=1)
    lines = ["[sweep] cell 1/2 done\n", "[sweep] cell 2/2 done\n"]
    run_experiment(spec, progress=True)
    assert capsys.readouterr().err == "".join(lines)
    quiet = ["sweep", "--out", str(tmp_path / "quiet"), "--n", "30", "--qc", "5,10", "--seeds-per-cell", "1", "--quiet"]
    assert main(quiet) == 0
    err = capsys.readouterr().err
    assert err and not any(line in err for line in lines)  # it still names the files it wrote


def test_single_instance_smoke_sweep_is_fast(tmp_path):
    import time

    start = time.perf_counter()
    rc = main(
        ["sweep", "--out", str(tmp_path / "smoke"), "--qc", "50",
         "--seeds-per-cell", "1", "--quiet"]
    )
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert elapsed < 1.0, f"smoke sweep took {elapsed:.2f}s"


def test_manifest_reserves_match_instances(tmp_path):
    out = tmp_path / "sweep"
    assert main(sweep_args(out)) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    from reservematch.datagen import SatGenConfig, gen_instance

    for cell in manifest["cells"]:
        for seed in cell["seeds"]:
            inst = gen_instance(
                SatGenConfig(
                    capacity=cell["qc"],
                    seed=seed,
                    n_students=manifest["n_students"],
                    psi_factor=cell["psi_factor"],
                )
            )
            assert sum(inst.quotas.rank1) + sum(inst.quotas.rank2) == cell["total_reserves"]


def test_derived_seeds_are_independent_of_cell_order():
    assert derive_seed(7, 0, 1, 2) == derive_seed(7, 0, 1, 2)
    assert derive_seed(7, 0, 1, 2) != derive_seed(7, 1, 0, 2)
    assert derive_seed(7, 0, 1, 2) != derive_seed(8, 0, 1, 2)


def test_parallel_sweep_is_byte_identical(tmp_path):
    spec = ExperimentSpec(
        out_dir=tmp_path / "serial",
        n_students=25,
        capacities=(5, 10),
        psi_factors=("1.0",),
        seeds_per_cell=2,
        master_seed=3,
    )
    run_experiment(spec, jobs=1, progress=False)
    spec2 = ExperimentSpec(
        out_dir=tmp_path / "parallel",
        n_students=25,
        capacities=(5, 10),
        psi_factors=("1.0",),
        seeds_per_cell=2,
        master_seed=3,
    )
    run_experiment(spec2, jobs=2, progress=False)
    for name in ("per_instance.csv", "ratios.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "parallel" / name).read_bytes()


def test_a_sweep_starts_at_most_one_worker_per_cell(tmp_path, monkeypatch):
    # a pool starts all its workers at the first submit, so --jobs 64 forked 64 processes for 9 cells
    asked = []

    class InProcessPool:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(experiment, "ProcessPoolExecutor", InProcessPool)
    spec = ExperimentSpec(out_dir=tmp_path / "two", n_students=20, capacities=(5, 10), seeds_per_cell=1)
    run_experiment(spec, jobs=50, progress=False)
    assert asked == [2]
    run_experiment(replace(spec, out_dir=tmp_path / "one", capacities=(5,)), jobs=50, progress=False)
    assert asked == [2]
    assert (tmp_path / "one" / "per_instance.csv").exists()


def test_a_one_cell_sweep_with_many_jobs_matches_a_serial_one(tmp_path):
    # one cell runs in this process whatever --jobs says, and writes the same bytes
    spec = ExperimentSpec(out_dir=tmp_path / "serial", n_students=25, capacities=(5,), seeds_per_cell=2, master_seed=3)
    run_experiment(spec, jobs=1, progress=False)
    run_experiment(replace(spec, out_dir=tmp_path / "jobs4"), jobs=4, progress=False)
    for name in ("per_instance.csv", "ratios.csv"):
        assert (tmp_path / "serial" / name).read_bytes() == (tmp_path / "jobs4" / name).read_bytes()


def test_a_sweep_spec_takes_no_algorithm_subset(tmp_path):
    # every cell runs the whole suite, whose best each rule's ratios are taken against
    with pytest.raises(TypeError, match="algorithms"):
        ExperimentSpec(out_dir=tmp_path / "x", algorithms=("as",))


def test_serial_sweep_runs_each_cell_once(tmp_path, monkeypatch):
    calls = []
    cell_rows = experiment._cell_rows

    def counting(args):
        calls.append(args)
        return cell_rows(args)

    monkeypatch.setattr(experiment, "_cell_rows", counting)
    spec = ExperimentSpec(
        out_dir=tmp_path / "x", n_students=20, capacities=(5, 10), psi_factors=("1.0", "2.0"), seeds_per_cell=1
    )
    run_experiment(spec, 1, False)
    assert [(args[1], args[2]) for args in calls] == [("1.0", 5), ("1.0", 10), ("2.0", 5), ("2.0", 10)]


def test_sweep_never_reads_seat_pairs(example_file, tmp_path, monkeypatch):
    # the rules build seat rows, and evaluate and outcome_to_json read them,
    # so neither a sweep nor `run --out` builds a (student, Seat) pair: none
    # is made by a matching given as pairs, which this property refuses to
    # store, and none is derived from rows
    def refuse(matching):
        raise AssertionError("Matching.pairs was read")

    monkeypatch.setattr(Matching, "pairs", property(refuse))
    spec = ExperimentSpec(
        out_dir=tmp_path / "x", n_students=40, capacities=(5, 20, 40), psi_factors=("1.0", "2.6154"), seeds_per_cell=2
    )
    paths = run_experiment(spec, 1, False)
    assert paths["ratios"].read_text().count("\n") == 1 + 2 * 3 * len(ALGORITHMS) * 3
    for tag in ALGORITHMS:
        out = tmp_path / f"{tag}.json"
        assert main(["run", str(example_file), "--algo", tag, "--out", str(out)]) == 0
        assert out.read_bytes() == (RUN_OUT / f"{tag}.json").read_bytes(), tag


def plotdata_error(tmp_path, capsys, text):
    """Write ``text`` as a results directory's ratios.csv and run plotdata
    on it: the exception the library raises, and the CLI's exit code and
    message."""
    results = tmp_path / "results"
    results.mkdir()
    (results / "ratios.csv").write_text(text, encoding="utf-8")
    with pytest.raises(ResultsFormatError) as caught:
        emit_plot_data(results, "p1", "avg")
    capsys.readouterr()
    assert main(["plotdata", "--results", str(results), "--metric", "p1", "--case", "avg"]) == 2
    return str(caught.value), capsys.readouterr().err


RATIO_HEADER = "psi_factor,qc,algorithm,metric,avg_ratio,worst_ratio,n_instances\n"


def test_plotdata_names_a_missing_column(tmp_path, capsys):
    message, err = plotdata_error(
        tmp_path, capsys, "psi_factor,qc,algorithm,avg_ratio,worst_ratio,n_instances\n1.0,10,as,1.0,1.0,3\n"
    )
    assert "ratios.csv, line 1: no column 'metric'" in message
    assert err == f"error: {message}\n"


def test_plotdata_names_a_missing_rule(tmp_path, capsys):
    text = RATIO_HEADER + "1.0,10,as,p1,1.0,1.0,3\n1.0,10,ehyy,p1,0.5,0.5,3\n1.0,20,as,p1,1.0,1.0,3\n"
    message, err = plotdata_error(tmp_path, capsys, text)
    assert "ratios.csv: no row for rule 'ehyy' at psi_factor 1.0, qc 20, metric 'p1'" in message
    assert err == f"error: {message}\n"


def test_plotdata_names_an_unknown_rule(tmp_path, capsys):
    text = RATIO_HEADER + "1.0,10,as,p1,1.0,1.0,3\n1.0,10,zz,p1,0.5,0.5,3\n"
    message, err = plotdata_error(tmp_path, capsys, text)
    assert "ratios.csv, line 3, column 'algorithm': unknown rule 'zz'" in message
    assert err == f"error: {message}\n"


def test_plotdata_names_a_short_row_and_a_bad_capacity(tmp_path, capsys):
    message, _ = plotdata_error(tmp_path, capsys, RATIO_HEADER + "1.0,10,as,p1\n")
    assert "ratios.csv, line 2: no value in column 'avg_ratio'" in message
    (tmp_path / "results" / "ratios.csv").unlink()
    (tmp_path / "results").rmdir()
    message, _ = plotdata_error(tmp_path, capsys, RATIO_HEADER + "1.0,ten,as,p1,1.0,1.0,3\n")
    assert "ratios.csv, line 2, column 'qc': not a capacity: 'ten'" in message


@pytest.mark.parametrize(
    "row, message",
    [
        ("abc,10,as,p1,1.0,1.0,3", "line 2, column 'psi_factor': not a reserve factor: 'abc'"),
        ("/../../escaped,10,as,p1,1.0,1.0,3", "line 2, column 'psi_factor': not a reserve factor: '/../../escaped'"),
        ("1/2,10,as,p1,1.0,1.0,3", "line 2, column 'psi_factor': a '/' names no plot file: '1/2'"),
        ("1.0,10,as,p1,oops,1.0,3", "line 2, column 'avg_ratio': not a number: 'oops'"),
        ("1.0,10,as,p1,nan,1.0,3", "line 2, column 'avg_ratio': not a number: 'nan'"),
    ],
)
def test_plotdata_names_a_bad_reserve_factor_and_a_bad_ratio(tmp_path, capsys, row, message):
    # the factor named a plot file, and the ratio was copied into the table
    caught, err = plotdata_error(tmp_path, capsys, RATIO_HEADER + row + "\n")
    assert f"ratios.csv, {message}" in caught
    assert err == f"error: {caught}\n"
    assert not list((tmp_path / "results").glob("plot_*"))


def test_plotdata_wide_tables(tmp_path, capsys):
    out = tmp_path / "sweep"
    assert main(sweep_args(out)) == 0
    rc = main(["plotdata", "--results", str(out), "--metric", "p1", "--case", "avg"])
    assert rc == 0
    table = (out / "plot_p1_avg_psi1.0.csv").read_text().splitlines()
    assert table[0] == "qc,as,ehyy,sy1,sy2,pog,pos"
    assert table[1].startswith("5,") and table[2].startswith("10,")
    assert (out / "plot_p1_avg_psi2.0.csv").exists()


def test_plotdata_missing_results_is_runtime_error(tmp_path):
    assert main(["plotdata", "--results", str(tmp_path / "empty"), "--metric", "p1", "--case", "avg"]) == 2


def test_api_emit_plot_data_validates_arguments(tmp_path):
    with pytest.raises(ValueError):
        emit_plot_data(tmp_path, "p9", "avg")
    with pytest.raises(ValueError):
        emit_plot_data(tmp_path, "p1", "median")


def test_plotdata_names_a_metric_without_rows(tmp_path, capsys):
    results = tmp_path / "results"
    results.mkdir()
    (results / "ratios.csv").write_text(RATIO_HEADER + "1.0,10,as,p2,1.0,1.0,3\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"^no rows for metric 'p1' in .*ratios\.csv$"):
        emit_plot_data(results, "p1", "avg")
    assert main(["plotdata", "--results", str(results), "--metric", "p1", "--case", "avg"]) == 2
    assert "no rows for metric 'p1'" in capsys.readouterr().err
