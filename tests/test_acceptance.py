"""Acceptance suite: one test per exit criterion, with a pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and the
reported curves.  The two sweeps (baseline reserves and 1.7x-capacity
reserves) are executed once per session and shared across criteria.
"""

import csv
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import pytest

from reservematch import (
    RankSignature,
    a_s_select,
    build_graph,
    ehyy_select,
    pog_select,
    pos_select,
    signature,
    sy1_select,
    sy2_select,
)
from reservematch.experiment import ExperimentSpec, run_experiment
from reservematch.solver import RankMaximalMatcher

from conftest import make_example
from oracle import MatchingOracle, random_small_instance

GRID = tuple(range(10, 100, 10))
HIGH_GRID = (20, 40, 60, 80)
DIVERSITY = ("as", "ehyy", "sy1", "sy2")


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number} FAIL: {description}")
        raise
    print(f"[acceptance] criterion {number} PASS: {description}")


@dataclass
class Sweep:
    out_dir: Path
    elapsed: float

    def ratio_rows(self) -> list[dict]:
        with open(self.out_dir / "ratios.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def ratio(self, algo: str, metric: str, qc: int) -> tuple[float, float]:
        for row in self.ratio_rows():
            if row["algorithm"] == algo and row["metric"] == metric and int(row["qc"]) == qc:
                return float(row["avg_ratio"]), float(row["worst_ratio"])
        raise KeyError((algo, metric, qc))

    def per_instance(self) -> dict[tuple, dict[str, dict]]:
        with open(self.out_dir / "per_instance.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        grouped: dict[tuple, dict[str, dict]] = {}
        for row in rows:
            grouped.setdefault((row["psi_factor"], int(row["qc"]), int(row["replicate"])), {})[
                row["algorithm"]
            ] = row
        return grouped


@pytest.fixture(scope="module")
def baseline_sweep(default_baseline_sweep) -> Sweep:
    return Sweep(*default_baseline_sweep)


@pytest.fixture(scope="module")
def high_reserve_sweep(tmp_path_factory) -> Sweep:
    spec = ExperimentSpec(
        out_dir=tmp_path_factory.mktemp("high_reserve"),
        capacities=HIGH_GRID,
        psi_factors=("2.6154",),
    )
    start = time.perf_counter()
    run_experiment(spec, jobs=1, progress=False)
    return Sweep(Path(spec.out_dir), time.perf_counter() - start)


def row_signature(row: dict) -> RankSignature:
    p1, p2 = int(row["p1"]), int(row["p2"])
    return RankSignature(p1, p2 - p1, len(row["selected"].split()) - p2)


# ---------------------------------------------------------------------------

def test_criterion_1_golden_worked_example():
    with criterion(1, "six algorithms reproduce the worked example exactly"):
        start = time.perf_counter()
        inst = make_example()
        expected = {
            "as": ((1, 3, 4), RankSignature(2, 1, 0)),
            "ehyy": ((1, 3, 5), RankSignature(2, 1, 0)),
            "sy1": ((0, 3, 4), RankSignature(2, 0, 1)),
            "sy2": ((1, 2, 3), RankSignature(1, 2, 0)),
            "pog": ((0, 1, 2), RankSignature(0, 2, 1)),
            "pos": ((0, 1, 2), RankSignature(0, 2, 1)),
        }
        outcomes = {
            "as": a_s_select(inst),
            "ehyy": ehyy_select(inst),
            "sy1": sy1_select(inst),
            "sy2": sy2_select(inst),
            "pog": pog_select(inst),
            "pos": pos_select(inst),
        }
        for tag, (selected, sig) in expected.items():
            assert outcomes[tag].selected == selected, tag
            assert signature(outcomes[tag].matching) == sig, tag
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_oracle_equivalence():
    with criterion(2, "engine = oracle on 1000 random small instances, under 60s"):
        start = time.perf_counter()
        checked_compat = 0
        for trial in range(1000):
            rnd = random.Random(20_250_801 + trial)
            inst = random_small_instance(rnd)
            graph = build_graph(inst)
            oracle = MatchingOracle(graph)
            top = signature(RankMaximalMatcher(graph).matching())
            assert top == oracle.best_signature(), trial

            # greedy replay: incremental pinning vs the oracle, prefix by prefix
            matcher = RankMaximalMatcher(graph)
            pinned: list[int] = []
            for sid in inst.acceptable:
                if len(pinned) == matcher.target_size:
                    break
                agrees = oracle.compatible(set(pinned) | {sid})
                assert matcher.try_force(sid) == agrees, (trial, sid)
                checked_compat += 1
                if agrees:
                    pinned.append(sid)
            assert tuple(pinned) == oracle.greedy_selection(), trial
            assert a_s_select(inst).selected == tuple(pinned), trial

            # constrained signatures on random pinned sets
            students = list(graph.students)
            for _ in range(2):
                size = rnd.randint(0, min(len(students), inst.capacity))
                forced = frozenset(rnd.sample(students, size))
                constrained = signature(RankMaximalMatcher(graph, forced).matching())
                assert constrained == oracle.best_signature(forced), (trial, forced)
                assert (constrained == top) == oracle.compatible(forced), (trial, forced)
                checked_compat += 1
        elapsed = time.perf_counter() - start
        print(f"[acceptance] criterion 2 detail: {checked_compat} compatibility checks, {elapsed:.1f}s")
        assert elapsed < 60.0, f"took {elapsed:.1f}s"


def test_criterion_3_rank1_equivalence_of_diversity_rules(baseline_sweep):
    with criterion(3, "baseline reserves: P1 avg and worst of as/ehyy/sy1/sy2 = 1.000 +- 0.005"):
        for qc in GRID:
            for tag in DIVERSITY:
                avg, worst = baseline_sweep.ratio(tag, "p1", qc)
                assert abs(avg - 1.0) <= 0.005, (tag, qc, avg)
                assert abs(worst - 1.0) <= 0.005, (tag, qc, worst)


def test_criterion_4_rank12_behaviour(baseline_sweep):
    with criterion(4, "baseline reserves: as/sy2 optimal on P2; ehyy optimal to qc=50 then drops"):
        for qc in GRID:
            for tag in ("as", "sy2"):
                avg, worst = baseline_sweep.ratio(tag, "p2", qc)
                assert abs(avg - 1.0) <= 0.005, (tag, qc)
                assert abs(worst - 1.0) <= 0.005, (tag, qc)
        low = [baseline_sweep.ratio("ehyy", "p2", qc)[1] for qc in GRID if qc <= 50]
        high = [baseline_sweep.ratio("ehyy", "p2", qc)[1] for qc in GRID if qc > 50]
        curve = {qc: round(baseline_sweep.ratio('ehyy', 'p2', qc)[1], 4) for qc in GRID}
        print(f"[acceptance] criterion 4 detail: ehyy worst P2 by qc = {curve}")
        assert all(w >= 0.99 for w in low), low
        assert min(high) < min(low), (low, high)


def test_criterion_5_priority_rules_catch_up(baseline_sweep):
    with criterion(5, "priority rules reach 90% of P1 by qc=30 and 80% of P2 by qc=70 (+-1 step)"):
        for metric, bound, stated in (("p1", 0.90, 30), ("p2", 0.80, 70)):
            curve = {
                qc: min(baseline_sweep.ratio("pog", metric, qc)[0], baseline_sweep.ratio("pos", metric, qc)[0])
                for qc in GRID
            }
            print(f"[acceptance] criterion 5 detail: pog/pos avg {metric} = "
                  f"{ {qc: round(v, 3) for qc, v in curve.items()} }")
            holders = [qc for qc in GRID if all(curve[q] >= bound for q in GRID if q >= qc)]
            assert holders, f"{metric} never stays above {bound}"
            threshold = min(holders)
            assert threshold <= stated + 10, (metric, threshold)


def test_criterion_6_as_equals_sy2_at_baseline(baseline_sweep):
    with criterion(6, "baseline reserves: A-S and SY2 report identical (P1,P2,P3) per instance"):
        mismatches = []
        cells = baseline_sweep.per_instance()
        for key, algs in cells.items():
            a, s = algs["as"], algs["sy2"]
            if (a["p1"], a["p2"], a["p3"]) != (s["p1"], s["p2"], s["p3"]):
                mismatches.append((key, (a["p1"], a["p2"], a["p3"]), (s["p1"], s["p2"], s["p3"])))
        print(f"[acceptance] criterion 6 detail: {len(mismatches)} differing instances of {len(cells)}"
              + (f": {mismatches}" if mismatches else ""))
        assert len(mismatches) <= 0.01 * len(cells), mismatches


def test_criterion_7_high_reserve_worst_cases(high_reserve_sweep):
    with criterion(7, "1.7x reserves: as/sy1 worst P1 = 1, as/sy2/ehyy worst P2 = 1, "
                      "pog = pos reports, sy1 beats them on worst P2"):
        for qc in HIGH_GRID:
            for tag in ("as", "sy1"):
                assert abs(high_reserve_sweep.ratio(tag, "p1", qc)[1] - 1.0) <= 5e-4, (tag, qc)
            for tag in ("as", "sy2", "ehyy"):
                assert abs(high_reserve_sweep.ratio(tag, "p2", qc)[1] - 1.0) <= 5e-4, (tag, qc)

        # pog and pos overlap at figure resolution; their per-instance seat
        # assignments may differ on a few instances (single-pass greedy), so
        # report numbers are compared at the criteria-wide 0.005 tolerance
        max_gap = 0.0
        for qc in HIGH_GRID:
            for metric in ("p1", "p2", "p3"):
                pog = high_reserve_sweep.ratio("pog", metric, qc)
                pos = high_reserve_sweep.ratio("pos", metric, qc)
                max_gap = max(max_gap, abs(pog[0] - pos[0]), abs(pog[1] - pos[1]))
        diverging = sum(
            1
            for algs in high_reserve_sweep.per_instance().values()
            if (algs["pog"]["p1"], algs["pog"]["p2"]) != (algs["pos"]["p1"], algs["pos"]["p2"])
        )
        print(f"[acceptance] criterion 7 detail: max pog/pos report gap {max_gap:.4f}, "
              f"{diverging} diverging instances of {len(high_reserve_sweep.per_instance())}")
        assert max_gap <= 0.005

        for qc in HIGH_GRID:
            sy1 = high_reserve_sweep.ratio("sy1", "p2", qc)[1]
            pog = high_reserve_sweep.ratio("pog", "p2", qc)[1]
            pos = high_reserve_sweep.ratio("pos", "p2", qc)[1]
            assert sy1 > pog and sy1 > pos, (qc, sy1, pog, pos)


def test_criterion_8_structural_properties(baseline_sweep, high_reserve_sweep):
    with criterion(8, "every sweep instance: A-S signature maximal, SY1 rank-1 = A-S, "
                      "SY2 total maximal, priority rules select the prefix, |S*| = qc"):
        for sweep in (baseline_sweep, high_reserve_sweep):
            for (factor, qc, rep), algs in sweep.per_instance().items():
                sig_as = row_signature(algs["as"])
                for tag, row in algs.items():
                    assert sig_as >= row_signature(row), (factor, qc, rep, tag)
                    assert len(row["selected"].split()) == qc, (factor, qc, rep, tag)
                assert algs["sy1"]["p1"] == algs["as"]["p1"], (factor, qc, rep)
                best_p2 = max(int(row["p2"]) for row in algs.values())
                assert int(algs["sy2"]["p2"]) == best_p2, (factor, qc, rep)
                prefix = " ".join(map(str, range(qc)))
                assert algs["pog"]["selected"] == prefix, (factor, qc, rep)
                assert algs["pos"]["selected"] == prefix, (factor, qc, rep)


def test_criterion_9_performance_and_determinism(baseline_sweep, tmp_path):
    with criterion(9, "full baseline sweep under 5 minutes, reruns byte-identical"):
        print(f"[acceptance] criterion 9 detail: sweep took {baseline_sweep.elapsed:.1f}s")
        assert baseline_sweep.elapsed < 300.0
        rerun = ExperimentSpec(out_dir=tmp_path / "rerun")
        run_experiment(rerun, jobs=1, progress=False)
        for name in ("per_instance.csv", "ratios.csv"):
            first = (baseline_sweep.out_dir / name).read_bytes()
            second = (tmp_path / "rerun" / name).read_bytes()
            assert first == second, name


def test_plot_tables_reproduce_figure_headlines(baseline_sweep, high_reserve_sweep, tmp_path):
    # supplementary to the criteria: the wide plot tables show the headline
    # curve shapes directly
    from reservematch.experiment import emit_plot_data

    (path,) = emit_plot_data(baseline_sweep.out_dir, "p1", "avg", tmp_path)
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [int(r["qc"]) for r in rows] == list(GRID)
    for row in rows:
        for tag in DIVERSITY:
            assert abs(float(row[tag]) - 1.0) <= 0.005, (row["qc"], tag)

    (path,) = emit_plot_data(high_reserve_sweep.out_dir, "p3", "worst", tmp_path)
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            assert float(row["pog"]) == 1.0 and float(row["pos"]) == 1.0, row["qc"]
