import random

import pytest

from reservematch import (
    ALGORITHMS,
    Instance,
    QuotaTable,
    Seat,
    Student,
    a_s_select,
    evaluate,
    percentile,
    pog_select,
    ratios,
    run_algorithm,
    total_reserves,
)
from reservematch.algorithms import Outcome
from reservematch.graph import Matching
from reservematch.metrics import METRICS, suite_optimum, true_optimum

from conftest import random_instance


def test_example_a_s_values(example):
    v = evaluate(example, a_s_select(example))
    assert (v.p1, v.p2) == (2, 3)


def test_example_pog_percentiles(example):
    v = evaluate(example, pog_select(example))
    assert v.p3 == pytest.approx(100 * (6 + 5 + 4) / (3 * 6))
    assert v.p3_max == pytest.approx(100.0)
    assert v.p3_min == pytest.approx(100 * 4 / 6)


def test_percentile_definition(example):
    assert percentile(example, 0) == pytest.approx(100.0)
    assert percentile(example, 5) == pytest.approx(100 / 6)


def test_single_student_no_quotas():
    inst = Instance((Student(0),), (0,), 1, QuotaTable((0,), (0,)))
    out = run_algorithm("as", inst)
    v = evaluate(inst, out)
    assert (v.p1, v.p2) == (0, 0)
    assert v.p3 == pytest.approx(100.0)


def test_evaluate_rejects_foreign_students(example):
    bad = Outcome("as", (9,), Matching(frozenset({(9, Seat(0, 3, 0))})))
    with pytest.raises(ValueError):
        evaluate(example, bad)


def test_evaluate_rejects_unknown_seats(example):
    bad = Outcome("as", (1,), Matching(frozenset({(1, Seat(7, 1, 0))})))
    with pytest.raises(ValueError):
        evaluate(example, bad)
    overflow = Outcome("as", (4,), Matching(frozenset({(4, Seat(1, 1, 5))})))
    with pytest.raises(ValueError):
        evaluate(example, overflow)
    # student 0 holds no types, so it may not take a type-1 reserve
    ineligible = Outcome("as", (0,), Matching(frozenset({(0, Seat(1, 1, 0))})))
    with pytest.raises(ValueError, match="does not hold"):
        evaluate(example, ineligible)
    double = Outcome("as", (3, 4), Matching(frozenset({(3, Seat(1, 1, 0)), (4, Seat(1, 1, 0))})))
    with pytest.raises(ValueError, match="used twice"):
        evaluate(example, double)


def test_ratios_on_the_example(example):
    outs = {tag: [run_algorithm(tag, example)] for tag in ALGORITHMS}
    report = ratios([example], outs)
    assert report.avg_ratio("as", "p1") == 1.0
    assert report.worst_ratio("as", "p1") == 1.0
    assert report.avg_ratio("pog", "p1") == 0.0
    assert report.avg_ratio("pog", "p3") == 1.0
    # every metric has a ratio-one algorithm by construction
    for metric in METRICS:
        assert any(report.avg_ratio(tag, metric) == 1.0 for tag in ALGORITHMS)


def test_single_algorithm_suite_is_self_normalized(example):
    report = ratios([example], {"pog": [pog_select(example)]})
    for metric in METRICS:
        assert report.avg_ratio("pog", metric) == 1.0
        assert report.worst_ratio("pog", metric) == 1.0


def test_identical_algorithms_get_identical_reports(example):
    outs = {"a": [a_s_select(example)], "b": [a_s_select(example)]}
    report = ratios([example], outs)
    for metric in METRICS:
        assert report.avg_ratio("a", metric) == report.avg_ratio("b", metric)


def test_ratios_permutation_invariant():
    rnd = random.Random(8)
    instances = [random_instance(rnd) for _ in range(6)]
    outs = {tag: [run_algorithm(tag, inst) for inst in instances] for tag in ALGORITHMS}
    fwd = ratios(instances, outs)
    order = list(range(6))
    rnd.shuffle(order)
    back = ratios(
        [instances[i] for i in order],
        {tag: [outs[tag][i] for i in order] for tag in ALGORITHMS},
    )
    for key, value in fwd.avg.items():
        assert back.avg[key] == pytest.approx(value)
    for key, value in fwd.worst.items():
        assert back.worst[key] == pytest.approx(value)


def test_zero_optimum_counts_as_met():
    inst = Instance(
        tuple(Student(i) for i in range(3)), (0, 1, 2), 2, QuotaTable((0, 1), (0, 0))
    )
    outs = {tag: [run_algorithm(tag, inst)] for tag in ALGORITHMS}
    report = ratios([inst], outs)
    # nobody holds a type, so the reserve optima are zero
    assert report.zero_optimum["p1"] == 1
    assert report.zero_optimum["p2"] == 1
    for tag in ALGORITHMS:
        assert report.avg_ratio(tag, "p1") == 1.0


def test_worst_never_exceeds_average():
    rnd = random.Random(9)
    instances = [random_instance(rnd) for _ in range(10)]
    outs = {tag: [run_algorithm(tag, inst) for inst in instances] for tag in ALGORITHMS}
    report = ratios(instances, outs)
    for key in report.avg:
        assert report.worst[key] <= report.avg[key] + 1e-12


def test_empty_instance_set_rejected():
    with pytest.raises(ValueError):
        ratios([], {})


def test_true_optimum_dominates_suite(example):
    outs = {tag: [run_algorithm(tag, example)] for tag in ALGORITHMS}
    values = {tag: evaluate(example, outs[tag][0]) for tag in ALGORITHMS}
    suite = suite_optimum(values)
    true = true_optimum(example)
    for metric in METRICS:
        assert true[metric] >= suite[metric] - 1e-12
    # the rank-maximal rule achieves the true rank-1 optimum
    report = ratios([example], outs, optimum="true")
    assert report.avg_ratio("as", "p1") == 1.0
    assert report.avg_ratio("sy2", "p2") == 1.0
    assert report.avg_ratio("pog", "p3") == 1.0


def test_metric_bounds_on_random_instances():
    rnd = random.Random(10)
    for _ in range(60):
        inst = random_instance(rnd)
        for tag in ALGORITHMS:
            v = evaluate(inst, run_algorithm(tag, inst))
            assert 0 <= v.p1 <= v.p2 <= inst.capacity
            assert v.p2 <= total_reserves(inst)
            assert v.p1 <= sum(inst.quotas.rank1)
            if v.p3:
                assert v.p3_min <= v.p3 <= v.p3_max <= 100.0
