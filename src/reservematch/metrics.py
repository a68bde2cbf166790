"""Diversity and merit metrics, and the per-instance ratio to the suite's best.

Three per-outcome values are tracked: ``p1`` counts filled rank-1 reserves,
``p2`` counts filled reserves across both ranks (universal seats never
count), and ``p3`` is the mean priority percentile of the selected
students, where the top-priority student scores 100.  Each value is
normalized by the best value any algorithm in the suite achieved on the
same instance; the sweep averages and minimizes those ratios per cell.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .algorithms import Outcome
from .model import Instance, UNIVERSAL_TYPE

METRICS = ("p1", "p2", "p3")


@dataclass(frozen=True)
class MetricValues:
    """Metric values of one outcome.

    ``p3_min`` and ``p3_max`` are the percentiles of the worst and best
    selected students; they are reported for auditing only.
    """

    p1: int
    p2: int
    p3: float
    p3_min: float
    p3_max: float

    def value(self, metric: str) -> float:
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}")
        return getattr(self, metric)


class OutcomeError(ValueError):
    """An outcome that is not a valid seating of its instance."""


def evaluate(instance: Instance, outcome: Outcome) -> MetricValues:
    """Metric values of an outcome produced on this instance, and the one
    check that the outcome is a valid seating.

    Raises :class:`OutcomeError` when it is not: more students than the
    capacity, unknown students (any id, matched or selected, that is not an
    ``int``, too) or seats (any seat type, rank or index that is not an
    ``int``, too), a student or seat used twice, a reserved seat whose
    type the student does not hold, a student below the acceptability
    cutoff, or selected students that differ from the matched ones or list
    a student twice.  How many students a rule must select is not checked.
    """
    students = instance.students
    n = len(students)
    capacity = instance.capacity
    rank1, rank2 = instance.quotas.rank1, instance.quotas.rank2
    n_types = len(rank1)
    position = instance._rank_of
    if len(outcome.matching) > capacity:
        raise OutcomeError(f"outcome seats {len(outcome.matching)} students at capacity {capacity}")
    p1 = 0
    p2 = 0
    matched = set()
    taken = set()
    for sid, seat in outcome.matching.pairs:
        # 4.0 and True hash like students 4 and 1, but no id is a float or a bool
        if type(sid) is not int or sid not in position:
            raise OutcomeError(f"outcome references unknown student {sid}")
        if sid in matched:
            raise OutcomeError(f"student {sid} is matched twice")
        if seat in taken:
            raise OutcomeError(f"seat {seat.label()} is used twice")
        matched.add(sid)
        taken.add(seat)
        t, rank, index = seat
        # like ids, no seat field is a bool or a float: Seat(True, 1, 0) is no seat
        if type(t) is not int or type(rank) is not int:
            raise OutcomeError(f"outcome references unknown seat {seat}")
        if t == UNIVERSAL_TYPE:
            if rank != 3 or type(index) is not int or not 0 <= index < capacity:
                raise OutcomeError(f"invalid universal seat {seat}")
        else:
            if not 1 <= t < n_types or rank not in (1, 2):
                raise OutcomeError(f"outcome references unknown seat {seat}")
            # a non-integer index would be one more seat in a full pool
            if type(index) is not int or not 0 <= index < (rank1[t] if rank == 1 else rank2[t]):
                raise OutcomeError(f"seat index out of range: {seat}")
            if t not in students[sid].types:
                raise OutcomeError(f"student {sid} does not hold the type of seat {seat.label()}")
            if rank == 1:
                p1 += 1
            p2 += 1
    selected = outcome.selected
    # before the set is built: an entry that cannot be hashed is no student either
    for sid in selected:
        if type(sid) is not int:
            raise OutcomeError(f"outcome references unknown student {sid}")
    if matched != set(selected):
        raise OutcomeError("selected students and matched students disagree")
    if len(selected) != len(matched):
        raise OutcomeError(f"outcome selects {len(selected)} entries for {len(matched)} matched students")
    cut = instance.acceptable_count
    if cut is not None:
        for sid in selected:
            if position[sid] >= cut:
                raise OutcomeError(f"student {sid} is below the acceptability cutoff {cut}")

    if selected:
        pcts = [100.0 * (n - position[sid]) / n for sid in selected]
        p3 = sum(pcts) / len(pcts)
        p3_min, p3_max = min(pcts), max(pcts)
    else:
        p3 = p3_min = p3_max = 0.0
    return MetricValues(p1, p2, p3, p3_min, p3_max)


def suite_optimum(values: Mapping[str, MetricValues]) -> dict[str, float]:
    """Best value per metric over one instance's outcomes."""
    return {m: max(v.value(m) for v in values.values()) for m in METRICS}


def ratio(value: float, optimum: float) -> float:
    """Per-instance performance ratio; a zero optimum counts as met."""
    if optimum == 0:
        return 1.0
    return value / optimum
