import random
import re
from dataclasses import replace

import pytest

from reservematch import (
    ALGORITHMS,
    Instance,
    OutcomeError,
    QuotaTable,
    SatGenConfig,
    Seat,
    a_s_select,
    evaluate,
    gen_instance,
    pog_select,
)
from reservematch.algorithms import Outcome, outcome_to_json
from reservematch.graph import Matching, signature
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
        out = Outcome("as", (sid,), Matching(rows={(0, 3): [sid]}))
        v = evaluate(example, out)
        assert (v.p3, v.p3_min, v.p3_max) == pytest.approx((pct, pct, pct))


def test_single_student_no_quotas():
    inst = Instance((frozenset(),), 1, QuotaTable((0,), (0,)))
    out = ALGORITHMS["as"](inst)
    v = evaluate(inst, out)
    assert (v.p1, v.p2) == (0, 0)
    assert v.p3 == pytest.approx(100.0)


def test_evaluate_rejects_foreign_students(example):
    # a fractional id is no student, in the universal pool or in a reserve
    # pool, and neither is a float or a bool equal to a student's id, whether
    # it is matched or only selected, nor a selected entry that cannot be
    # hashed; an id past either end of the pool is none, and of two such the
    # smaller is named
    for sid, matched, pool in (
        (9, 9, (0, 3)),
        (-1, -1, (0, 3)),
        (-1, -1, (1, 1)),
        (0.5, 0.5, (0, 3)),
        (0.5, 0.5, (1, 1)),
        (4.0, 4.0, (0, 3)),
        (4.0, 4.0, (1, 1)),
        (True, True, (0, 3)),
        (4.0, 4, (0, 3)),
        (True, 1, (0, 3)),
        ([1], 1, (0, 3)),
    ):
        bad = Outcome("as", (sid,), Matching(rows={pool: [matched]}))
        with pytest.raises(OutcomeError, match=re.escape(f"unknown student {sid}")):
            evaluate(example, bad)
    both = Outcome("as", (-3, 9), Matching(rows={(0, 3): [9, -3]}))
    with pytest.raises(OutcomeError, match=re.escape("unknown student -3") + "$"):
        evaluate(example, both)


def test_evaluate_rejects_a_student_below_the_cutoff(example):
    late = Outcome("as", (5,), Matching(rows={(2, 1): [5]}))
    with pytest.raises(OutcomeError, match="student 5 is below the acceptability cutoff 2"):
        evaluate(replace(example, acceptable_count=2), late)


@pytest.mark.parametrize(
    "selected, rows, message",
    [
        # type 1 has one rank-1 seat
        ((3, 4), {(1, 1): [3, 4]}, "pool t1:r1 holds 2 students for 1 seats"),
        # type 3 has no rank-1 seat at all
        ((2,), {(3, 1): [2]}, "pool t3:r1 holds 1 students for 0 seats"),
        # the universal pool has rank 3 and ``capacity`` seats
        ((0,), {(0, 1): [0]}, "unknown pool t0:r1"),
        ((0,), {(0, 2): [0]}, "unknown pool t0:r2"),
        ((0, 1, 2, 3), {(0, 3): [0, 1, 2, 3]}, "pool t0:r3 holds 4 students for 3 seats"),
        # four students, each in a pool with room, but the capacity is three
        ((0, 1, 3, 4), {(0, 3): [0], (4, 2): [1], (2, 1): [3], (1, 1): [4]}, "outcome seats 4 students at capacity 3"),
        # unknown pools, and keys whose fields are no ints even where they equal one
        ((4,), {(7, 1): [4]}, "unknown pool t7:r1"),
        ((4,), {(1, 3): [4]}, "unknown pool t1:r3"),
        ((4,), {(True, 1): [4]}, "unknown pool (True, 1)"),
        ((4,), {(1.0, 1): [4]}, "unknown pool (1.0, 1)"),
        ((4,), {(1, 1.0): [4]}, "unknown pool (1, 1.0)"),
        ((0,), {(False, 3): [0]}, "unknown pool (False, 3)"),
        ((4,), {1: [4]}, "unknown pool 1"),
        # a row is in seat order: a set or an iterator is no row
        ((4,), {(1, 1): {4}}, "pool t1:r1 holds a set, not a sequence in seat order"),
        ((3, 4), {(0, 3): iter([3, 4])}, "pool t0:r3 holds a list_iterator, not a sequence in seat order"),
        # student 0 holds no types, and student 2 holds type 3 only
        ((0,), {(1, 1): [0]}, "student 0 does not hold the type of pool t1:r1"),
        ((1, 2), {(4, 2): [1], (3, 2): [2], (2, 1): []}, None),
        ((2, 4), {(1, 1): [4], (4, 2): [2]}, "student 2 does not hold the type of pool t4:r2"),
        # one student in two rows, or twice in one
        ((4,), {(1, 1): [4], (0, 3): [4]}, "student 4 is matched twice"),
        ((0,), {(0, 3): [0, 0]}, "student 0 is matched twice"),
        # ids that are no ints, or no student's
        ((4,), {(0, 3): [4.0]}, "unknown student 4.0"),
        ((1,), {(0, 3): [True]}, "unknown student True"),
        ((4,), {(1, 1): [4.0]}, "unknown student 4.0"),
        ((9,), {(0, 3): [9]}, "unknown student 9"),
        ((9,), {(1, 1): [9]}, "unknown student 9"),
        # student 0 listed twice among the selected would weight p3 twice
        ((0, 0, 1), {(0, 3): [0], (4, 2): [1]}, "outcome selects 3 entries for 2 matched students"),
    ],
)
def test_evaluate_checks_seat_rows(example, selected, rows, message):
    outcome = Outcome("as", selected, Matching(rows=rows))
    if message is None:
        assert evaluate(example, outcome).p2 == 2
        return
    with pytest.raises(OutcomeError, match=re.escape(message)):
        evaluate(example, outcome)


def test_a_matching_takes_pairs_or_rows():
    with pytest.raises(TypeError):
        Matching()
    with pytest.raises(TypeError):
        Matching(frozenset(), rows={})
    # pairs given are kept as given, and they have no rows
    pairs = frozenset({(3, Seat(1, 1, 0)), (4, Seat(0, 3, 1))})
    m = Matching(pairs)
    assert m.pairs is pairs and m.rows is None and len(m.pairs) == 2
    # rows give their pairs seat by seat; matchings with equal pairs are equal
    rows = Matching(rows={(1, 1): (3,), (0, 3): (5, 4)})
    assert rows.pairs == pairs | {(5, Seat(0, 3, 0))} and rows.rows is not None and len(rows.pairs) == 3
    assert rows == Matching(rows.pairs) and rows != m
    assert Matching(rows={(1, 1): [3], (0, 3): [], (2, 1): []}) == Matching(frozenset({(3, Seat(1, 1, 0))}))


def generated_pools():
    """Generated pools at n = 30, 100 and 800 under every factor of the
    paper's sweeps, with a random capacity each."""
    rnd = random.Random(21)
    for n, count in ((30, 4), (100, 4), (800, 1)):
        for factor in ("1.0", "2.0", "2.6154"):
            for _ in range(count):
                capacity = rnd.randint(1, n)
                yield gen_instance(SatGenConfig(capacity=capacity, seed=rnd.randrange(2**32), n_students=n, psi_factor=factor))


def test_evaluate_refuses_a_swap_onto_a_type_not_held_on_generated_pools():
    # every rule builds seat rows; a student moved onto a reserve seat of a
    # type it lacks (swapped with the student there, who may lack the type
    # of its new pool too) is refused
    moved = 0
    for instance in generated_pools():
        for tag, rule in ALGORITHMS.items():
            outcome = rule(instance)
            rows = outcome.matching.rows
            assert rows is not None, tag
            for (t, rank), row in rows.items():
                stray = next((sid for sid in outcome.selected if t and t not in instance.type_sets[sid]), None)
                if not row or stray is None or stray in row:
                    continue
                # swap ``stray`` with the first student of the row
                first = row[0]
                swapped = {key: [stray if sid == first else first if sid == stray else sid for sid in r]
                           for key, r in rows.items()}
                with pytest.raises(OutcomeError, match="does not hold the type of pool"):
                    evaluate(instance, replace(outcome, matching=Matching(rows=swapped)))
                moved += 1
                break
    assert moved > 100


def suite_relative(instance, tags):
    """Per-instance ratio of each (algorithm, metric) to the suite's best."""
    values = {tag: evaluate(instance, ALGORITHMS[tag](instance)) for tag in tags}
    opts = suite_optimum(values)
    return {(tag, m): ratio(getattr(v, m), opts[m]) for tag, v in values.items() for m in METRICS}


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
        (frozenset(),) * 3, 2, QuotaTable((0, 1), (0, 0))
    )
    values = {tag: evaluate(inst, ALGORITHMS[tag](inst)) for tag in ALGORITHMS}
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
            v = evaluate(inst, ALGORITHMS[tag](inst))
            assert 0 <= v.p1 <= v.p2 <= inst.capacity
            assert v.p2 <= sum(inst.quotas.rank1) + sum(inst.quotas.rank2)
            assert v.p1 <= sum(inst.quotas.rank1)
            if v.p3:
                assert v.p3_min <= v.p3 <= v.p3_max <= 100.0


def test_evaluate_rejects_a_selection_that_is_not_the_matched_set(example):
    # student 1 holds the seat, student 2 is selected in its place
    out = Outcome("as", (2,), Matching(rows={(0, 3): [1]}))
    with pytest.raises(OutcomeError, match="^selected students and matched students disagree$"):
        evaluate(example, out)


def test_empty_outcome_scores_zero(example):
    for matching in (Matching(rows={}), Matching(rows={(1, 1): [], (0, 3): ()})):
        v = evaluate(example, Outcome("as", (), matching))
        assert (v.p1, v.p2, v.p3, v.p3_min, v.p3_max) == (0, 0, 0.0, 0.0, 0.0)


def test_a_matching_without_rows_is_refused_by_every_reader(example):
    # rows are the one seating form read: evaluate, signature and
    # outcome_to_json each refuse a matching given as pairs with a
    # ValueError, not an AttributeError
    out = Outcome("as", (0,), Matching(frozenset({(0, Seat(0, 3, 0))})))
    with pytest.raises(OutcomeError, match=re.escape("has no seat rows: build it with Matching(rows=...)")):
        evaluate(example, out)
    rowless = re.escape("signature counts seat rows: build the matching with Matching(rows=...)")
    with pytest.raises(ValueError, match=rowless):
        signature(out.matching)
    with pytest.raises(ValueError, match=rowless):
        outcome_to_json(out)


@pytest.mark.parametrize("rows, kind", [([], "list"), (5, "int"), ((((0, 3), [0]),), "tuple")])
def test_rows_that_are_no_mapping_are_refused_by_every_reader(example, rows, kind):
    # once an AttributeError ("'list' object has no attribute 'items'")
    out = Outcome("as", (0,), Matching(rows=rows))
    with pytest.raises(OutcomeError, match=re.escape(f"outcome's seat rows are a {kind}, not a mapping of pools to rows")):
        evaluate(example, out)
    nomap = re.escape(f"signature counts seat rows: a {kind} is no mapping of pools to rows")
    with pytest.raises(ValueError, match=nomap):
        signature(out.matching)
    with pytest.raises(ValueError, match=nomap):
        outcome_to_json(out)


@pytest.mark.parametrize("selected, kind", [(None, "NoneType"), (5, "int"), ({0}, "set"), (iter([0]), "list_iterator")])
def test_a_selection_that_is_no_sequence_is_refused(example, selected, kind):
    # the selected students are listed in priority order, which a set or an
    # iterator does not have; None and 5 once raised a TypeError
    out = Outcome("as", selected, Matching(rows={(0, 3): [0]}))
    with pytest.raises(OutcomeError, match=re.escape(f"outcome's selection is a {kind}, not a sequence in priority order")):
        evaluate(example, out)
