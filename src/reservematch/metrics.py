"""Diversity and merit metrics, plus cross-algorithm ratio reports.

Three per-outcome values are tracked: ``p1`` counts filled rank-1 reserves,
``p2`` counts filled reserves across both ranks (universal seats never
count), and ``p3`` is the mean priority percentile of the selected
students, where the top-priority student scores 100.  Reports normalize
each value by the best value any algorithm in the suite achieved on the
same instance, then aggregate the ratios as a mean and a minimum.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from .algorithms import Outcome
from .graph import build_graph
from .model import Instance, QuotaTable, UNIVERSAL_TYPE
from .solver import max_signature

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


def percentile(instance: Instance, sid: int) -> float:
    """Priority percentile in (0, 100]; the top student scores 100."""
    n = instance.n_students
    return 100.0 * (n - instance.priority_position(sid)) / n


def evaluate(instance: Instance, outcome: Outcome) -> MetricValues:
    """Metric values of an outcome produced on this instance.

    Raises ``ValueError`` when the outcome is not a valid seating: unknown
    students or seats, a student or seat used twice, a reserved seat whose
    type the student does not hold, or selected students that differ from
    the matched ones.
    """
    n = instance.n_students
    quotas = instance.quotas
    p1 = 0
    p2 = 0
    matched = set()
    taken = set()
    for sid, seat in outcome.matching.pairs:
        if not 0 <= sid < n:
            raise ValueError(f"outcome references unknown student {sid}")
        if sid in matched:
            raise ValueError(f"student {sid} is matched twice")
        if seat in taken:
            raise ValueError(f"seat {seat.label()} is used twice")
        matched.add(sid)
        taken.add(seat)
        if seat.type == UNIVERSAL_TYPE:
            if seat.rank != 3 or not 0 <= seat.index < instance.capacity:
                raise ValueError(f"invalid universal seat {seat}")
        else:
            if not 1 <= seat.type < instance.n_types or seat.rank not in (1, 2):
                raise ValueError(f"outcome references unknown seat {seat}")
            if not 0 <= seat.index < quotas.quota(seat.type, seat.rank):
                raise ValueError(f"seat index out of range: {seat}")
            if seat.type not in instance.student(sid).types:
                raise ValueError(f"student {sid} does not hold the type of seat {seat.label()}")
            if seat.rank == 1:
                p1 += 1
            p2 += 1
    if matched != set(outcome.selected):
        raise ValueError("selected students and matched students disagree")

    if outcome.selected:
        pcts = [percentile(instance, sid) for sid in outcome.selected]
        p3 = sum(pcts) / len(pcts)
        p3_min, p3_max = min(pcts), max(pcts)
    else:
        p3 = p3_min = p3_max = 0.0
    return MetricValues(p1, p2, p3, p3_min, p3_max)


@dataclass(frozen=True)
class RatioReport:
    """Average and worst-case performance ratios per algorithm and metric."""

    algorithms: tuple[str, ...]
    n_instances: int
    avg: dict[tuple[str, str], float]
    worst: dict[tuple[str, str], float]
    zero_optimum: dict[str, int]

    def avg_ratio(self, algorithm: str, metric: str) -> float:
        return self.avg[(algorithm, metric)]

    def worst_ratio(self, algorithm: str, metric: str) -> float:
        return self.worst[(algorithm, metric)]


def suite_optimum(values: Mapping[str, MetricValues]) -> dict[str, float]:
    """Best value per metric over one instance's outcomes."""
    return {m: max(v.value(m) for v in values.values()) for m in METRICS}


def true_optimum(instance: Instance) -> dict[str, float]:
    """Best attainable value per metric, independent of the suite.

    ``p1`` is the rank-1 count of the rank-maximal matching, ``p2`` the best
    reserve fill with both ranks merged, and ``p3`` the mean percentile of
    the top-capacity prefix.
    """
    opt_p1 = max_signature(build_graph(instance)).rank1
    merged = QuotaTable(
        tuple(a + b for a, b in zip(instance.quotas.rank1, instance.quotas.rank2)),
        (0,) * instance.n_types,
    )
    opt_p2 = max_signature(build_graph(replace(instance, quotas=merged))).rank1
    pool = instance.acceptable
    top = pool[: min(instance.capacity, len(pool))]
    opt_p3 = sum(percentile(instance, sid) for sid in top) / len(top) if top else 0.0
    return {"p1": float(opt_p1), "p2": float(opt_p2), "p3": opt_p3}


def ratio(value: float, optimum: float) -> float:
    """Per-instance performance ratio; a zero optimum counts as met."""
    if optimum == 0:
        return 1.0
    return value / optimum


def ratios(
    instances: Sequence[Instance],
    outcomes: Mapping[str, Sequence[Outcome]],
    *,
    optimum: str = "suite",
) -> RatioReport:
    """Aggregate performance ratios over a set of instances.

    ``outcomes`` maps each algorithm tag to one outcome per instance, in
    instance order.  ``optimum`` selects the normalizer: ``"suite"`` uses
    the best value achieved by the given algorithms on each instance (so on
    every instance at least one algorithm scores ratio one), ``"true"``
    computes the absolute optimum per instance instead.
    """
    if not instances:
        raise ValueError("empty instance set")
    if optimum not in ("suite", "true"):
        raise ValueError(f"optimum must be 'suite' or 'true', got {optimum!r}")
    algorithms = tuple(outcomes)
    for tag, outs in outcomes.items():
        if len(outs) != len(instances):
            raise ValueError(f"algorithm {tag!r} has {len(outs)} outcomes for {len(instances)} instances")

    per_ratio: dict[tuple[str, str], list[float]] = {
        (a, m): [] for a in algorithms for m in METRICS
    }
    zero_opt = {m: 0 for m in METRICS}
    for i, instance in enumerate(instances):
        values = {a: evaluate(instance, outcomes[a][i]) for a in algorithms}
        opts = suite_optimum(values) if optimum == "suite" else true_optimum(instance)
        for m in METRICS:
            if opts[m] == 0:
                zero_opt[m] += 1
            for a in algorithms:
                per_ratio[(a, m)].append(ratio(values[a].value(m), opts[m]))

    avg = {key: sum(r) / len(r) for key, r in per_ratio.items()}
    worst = {key: min(r) for key, r in per_ratio.items()}
    return RatioReport(algorithms, len(instances), avg, worst, zero_opt)
