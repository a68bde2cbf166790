import random
import re
from dataclasses import replace

import pytest

from reservematch import (
    ALGORITHMS,
    Instance,
    OutcomeError,
    QuotaTable,
    Seat,
    Student,
    a_s_select,
    evaluate,
    pog_select,
    run_algorithm,
)
from reservematch.algorithms import Outcome
from reservematch.graph import Matching
from reservematch.metrics import METRICS, ratio, suite_optimum

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
    # a lone selected student's percentile is p3, p3_min and p3_max at once;
    # the top student scores 100 and the last of six scores 100/6
    for sid, pct in ((0, 100.0), (5, 100 / 6)):
        out = Outcome("as", (sid,), Matching(frozenset({(sid, Seat(0, 3, 0))})))
        v = evaluate(example, out)
        assert (v.p3, v.p3_min, v.p3_max) == pytest.approx((pct, pct, pct))


def test_single_student_no_quotas():
    inst = Instance((Student(0),), (0,), 1, QuotaTable((0,), (0,)))
    out = run_algorithm("as", inst)
    v = evaluate(inst, out)
    assert (v.p1, v.p2) == (0, 0)
    assert v.p3 == pytest.approx(100.0)


def test_evaluate_rejects_foreign_students(example):
    # a fractional id is no student, on a universal seat or on a reserve seat,
    # and neither is a float or a bool equal to a student's id, whether it is
    # matched or only selected, nor a selected entry that cannot be hashed
    for sid, matched, seat in (
        (9, 9, Seat(0, 3, 0)),
        (0.5, 0.5, Seat(0, 3, 0)),
        (0.5, 0.5, Seat(1, 1, 0)),
        (4.0, 4.0, Seat(0, 3, 0)),
        (4.0, 4.0, Seat(1, 1, 0)),
        (True, True, Seat(0, 3, 0)),
        (4.0, 4, Seat(0, 3, 0)),
        (True, 1, Seat(0, 3, 0)),
        ([1], 1, Seat(0, 3, 0)),
    ):
        bad = Outcome("as", (sid,), Matching(frozenset({(matched, seat)})))
        with pytest.raises(OutcomeError, match=re.escape(f"unknown student {sid}")):
            evaluate(example, bad)


def test_evaluate_rejects_unknown_seats(example):
    bad = Outcome("as", (1,), Matching(frozenset({(1, Seat(7, 1, 0))})))
    with pytest.raises(OutcomeError, match="unknown seat"):
        evaluate(example, bad)
    # a seat type or rank that is a float or a bool is no seat, even where it
    # equals one: student 4 holds type 1, and student 0 may take a universal seat
    for sid, seat in (
        (4, Seat(1.0, 1, 0)),
        (4, Seat(True, 1, 0)),
        (4, Seat(1, 1.0, 0)),
        (4, Seat(1, True, 0)),
        (0, Seat(False, 3, 0)),
        (0, Seat(0, 3.0, 0)),
    ):
        with pytest.raises(OutcomeError, match="unknown seat"):
            evaluate(example, Outcome("as", (sid,), Matching(frozenset({(sid, seat)}))))
    for index in (5, False):
        overflow = Outcome("as", (4,), Matching(frozenset({(4, Seat(1, 1, index))})))
        with pytest.raises(OutcomeError, match="out of range"):
            evaluate(example, overflow)
    # index 0.5 is no seat, so type 1's one rank-1 seat would hold two students
    between = Outcome("as", (3, 4), Matching(frozenset({(3, Seat(1, 1, 0)), (4, Seat(1, 1, 0.5))})))
    with pytest.raises(OutcomeError, match="out of range"):
        evaluate(example, between)
    # nor is a non-integer index a universal seat, even an integral float or a bool
    for index in (0.5, 2.0, True):
        floating = Outcome("as", (0,), Matching(frozenset({(0, Seat(0, 3, index))})))
        with pytest.raises(OutcomeError, match="invalid universal seat"):
            evaluate(example, floating)
    # student 0 holds no types, so it may not take a type-1 reserve
    ineligible = Outcome("as", (0,), Matching(frozenset({(0, Seat(1, 1, 0))})))
    with pytest.raises(OutcomeError, match="does not hold"):
        evaluate(example, ineligible)
    double = Outcome("as", (3, 4), Matching(frozenset({(3, Seat(1, 1, 0)), (4, Seat(1, 1, 0))})))
    with pytest.raises(OutcomeError, match="used twice"):
        evaluate(example, double)
    # four valid seats, but the capacity is three
    seats = {(0, Seat(0, 3, 0)), (1, Seat(4, 2, 0)), (3, Seat(2, 1, 0)), (4, Seat(1, 1, 0))}
    crowded = Outcome("as", (0, 1, 3, 4), Matching(frozenset(seats)))
    with pytest.raises(OutcomeError, match="capacity"):
        evaluate(example, crowded)
    late = Outcome("as", (5,), Matching(frozenset({(5, Seat(2, 1, 0))})))
    with pytest.raises(OutcomeError, match="cutoff"):
        evaluate(replace(example, acceptable_count=2), late)
    # student 0 listed twice among the selected would weight p3 twice
    repeated = Outcome("as", (0, 0, 1), Matching(frozenset({(0, Seat(0, 3, 0)), (1, Seat(4, 2, 0))})))
    with pytest.raises(OutcomeError, match="entries"):
        evaluate(example, repeated)


def suite_relative(instance, tags):
    """Per-instance ratio of each (algorithm, metric) to the suite's best."""
    values = {tag: evaluate(instance, run_algorithm(tag, instance)) for tag in tags}
    opts = suite_optimum(values)
    return {(tag, m): ratio(v.value(m), opts[m]) for tag, v in values.items() for m in METRICS}


def test_ratios_on_the_example(example):
    r = suite_relative(example, ALGORITHMS)
    assert r[("as", "p1")] == 1.0
    assert r[("pog", "p1")] == 0.0
    assert r[("pog", "p3")] == 1.0
    # every metric has a ratio-one algorithm by construction
    for metric in METRICS:
        assert any(r[(tag, metric)] == 1.0 for tag in ALGORITHMS)


def test_single_algorithm_suite_is_self_normalized(example):
    r = suite_relative(example, ["pog"])
    for metric in METRICS:
        assert r[("pog", metric)] == 1.0


def test_zero_optimum_counts_as_met():
    inst = Instance(
        tuple(Student(i) for i in range(3)), (0, 1, 2), 2, QuotaTable((0, 1), (0, 0))
    )
    values = {tag: evaluate(inst, run_algorithm(tag, inst)) for tag in ALGORITHMS}
    opts = suite_optimum(values)
    # nobody holds a type, so the reserve optima are zero
    assert opts["p1"] == 0 and opts["p2"] == 0
    for tag in ALGORITHMS:
        assert ratio(values[tag].p1, opts["p1"]) == 1.0
        assert ratio(values[tag].p2, opts["p2"]) == 1.0


def test_metric_bounds_on_random_instances():
    rnd = random.Random(10)
    for _ in range(60):
        inst = random_instance(rnd)
        for tag in ALGORITHMS:
            v = evaluate(inst, run_algorithm(tag, inst))
            assert 0 <= v.p1 <= v.p2 <= inst.capacity
            assert v.p2 <= sum(inst.quotas.rank1) + sum(inst.quotas.rank2)
            assert v.p1 <= sum(inst.quotas.rank1)
            if v.p3:
                assert v.p3_min <= v.p3 <= v.p3_max <= 100.0
