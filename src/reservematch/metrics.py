"""Diversity and merit metrics, and the per-instance ratio to the suite's best.

Three per-outcome values are tracked: ``p1`` counts filled rank-1 reserves,
``p2`` counts filled reserves across both ranks (universal seats never
count), and ``p3`` is the mean priority percentile of the selected
students, where the top-priority student scores 100; all three are read
off the matching's seat rows.  Each value is normalized by the best value
any algorithm in the suite achieved on the same instance; the sweep
averages and minimizes those ratios per cell.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, repeat
from operator import attrgetter, contains

from .algorithms import Outcome
from .model import Instance, StudentId, TypeId, UNIVERSAL_TYPE, _ids_and_percentiles, _strays, gather

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


class OutcomeError(ValueError):
    """An outcome that is not a valid seating of its instance."""


def _pool_label(t: object, rank: object) -> str:
    return f"t{t}:r{rank}"


def evaluate(instance: Instance, outcome: Outcome) -> MetricValues:
    """Metric values of an outcome produced on this instance, and the one
    check that the seat rows of its matching are a valid seating.

    Raises :class:`OutcomeError` for a matching whose rows are missing or no
    mapping, a selection that is no sequence, more students than the capacity,
    unknown students (any id, matched or selected, that is not exactly an
    ``int``, too), a student matched twice, an unknown pool (any type or rank
    that is not exactly an ``int``, too), a row that is no sequence, a pool
    holding more students than it has seats, a reserved seat whose type the
    student does not hold, a student below the acceptability cutoff, or
    selected students that differ from the matched ones or list a student
    twice.  How many students a rule must select is not checked.
    """
    capacity = instance.capacity
    rank1, rank2 = instance.quotas.rank1, instance.quotas.rank2
    n_types = len(rank1)
    percentile = _ids_and_percentiles(len(instance.type_sets))[1]
    rows = outcome.matching.rows
    if rows is None:
        raise OutcomeError("outcome's matching has no seat rows: build it with Matching(rows=...)")
    if not isinstance(rows, Mapping):
        raise OutcomeError(f"outcome's seat rows are a {type(rows).__name__}, not a mapping of pools to rows")
    p1 = 0
    p2 = 0
    reserved: list[tuple[TypeId, int, Sequence[StudentId]]] = []
    for key, row in rows.items():
        # a pool key is a (type, rank) of ints: (True, 1) is no pool
        if type(key) is not tuple or len(key) != 2 or _strays(key):
            raise OutcomeError(f"outcome references unknown pool {key!r}")
        t, rank = key
        # a row lists its students in seat order: a set or an iterator has none
        if not isinstance(row, Sequence):
            raise OutcomeError(f"pool {_pool_label(t, rank)} holds a {type(row).__name__}, not a sequence in seat order")
        if t == UNIVERSAL_TYPE and rank == 3:
            seats = capacity
        elif 1 <= t < n_types and rank in (1, 2):
            seats = rank1[t] if rank == 1 else rank2[t]
            reserved.append((t, rank, row))
            if rank == 1:
                p1 += len(row)
            p2 += len(row)
        else:
            raise OutcomeError(f"outcome references unknown pool {_pool_label(t, rank)}")
        if len(row) > seats:
            raise OutcomeError(f"pool {_pool_label(t, rank)} holds {len(row)} students for {seats} seats")
    seated = [*chain.from_iterable(rows.values())]
    if len(seated) > capacity:
        raise OutcomeError(f"outcome seats {len(seated)} students at capacity {capacity}")
    if _strays(seated):
        raise OutcomeError(f"outcome references unknown student {_strays(seated)[0]!r}")
    matched = set(seated)
    if not percentile.keys() >= matched:
        raise OutcomeError(f"outcome references unknown student {min(matched - percentile.keys())}")
    if len(matched) != len(seated):
        twice = next(sid for sid, count in Counter(seated).items() if count > 1)
        raise OutcomeError(f"student {twice} is matched twice")
    for t, rank, row in reserved:
        if not all(map(contains, gather(instance.type_sets, row), repeat(t))):
            for sid in row:
                if t not in instance.type_sets[sid]:
                    raise OutcomeError(f"student {sid} does not hold the type of pool {_pool_label(t, rank)}")

    selected = outcome.selected
    if not isinstance(selected, Sequence):
        raise OutcomeError(f"outcome's selection is a {type(selected).__name__}, not a sequence in priority order")
    # before the set is built: an entry that cannot be hashed is no student either
    if _strays(selected):
        raise OutcomeError(f"outcome references unknown student {_strays(selected)[0]!r}")
    if matched != set(selected):
        raise OutcomeError("selected students and matched students disagree")
    if len(selected) != len(matched):
        raise OutcomeError(f"outcome selects {len(selected)} entries for {len(matched)} matched students")
    cut = instance.acceptable_count
    # an id is a position, so a student below the cutoff has an id of at least it
    if cut is not None and matched and max(matched) >= cut:
        below = next(sid for sid in selected if sid >= cut)
        raise OutcomeError(f"student {below} is below the acceptability cutoff {cut}")

    if selected:
        pcts = gather(percentile, selected)
        p3 = sum(pcts) / len(pcts)
        p3_min, p3_max = min(pcts), max(pcts)
    else:
        p3 = p3_min = p3_max = 0.0
    return MetricValues(p1, p2, p3, p3_min, p3_max)


def suite_optimum(values: Mapping[str, MetricValues]) -> dict[str, float]:
    """Best value per metric over one instance's outcomes."""
    best: dict[str, float] = {}
    for m in METRICS:
        best[m] = max(map(attrgetter(m), values.values()))
    return best


def ratio(value: float, optimum: float) -> float:
    """Per-instance performance ratio; a zero optimum counts as met."""
    if optimum == 0:
        return 1.0
    return value / optimum
