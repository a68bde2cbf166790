"""The selection rules under comparison.

All six rules share one interface: they take an instance and return an
:class:`Outcome` holding the selected students (in priority order) and the
seat matching that justifies the selection.  They are pure functions of the
instance.

Tags used throughout the package and the CLI:

==========  ========================================================
``as``      greedy highest-priority selection subject to keeping the
            matching rank-maximal across both reserve ranks
``ehyy``    pass-based greedy: rank-1 seats first, then rank-2, then
            fill to capacity
``sy1``     rank-maximal selection with rank-2 reserves removed
``sy2``     rank-maximal selection with both ranks merged into one
``pog``     top-capacity students by priority, seated by ``ehyy``'s
            passes
``pos``     same students as ``pog``, seats assigned optimally
==========  ========================================================
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import compress
from typing import Any, Callable, Sequence

from .graph import Matching, _build, signature
from .model import Instance, QuotaTable, StudentId, TypeId, UNIVERSAL_TYPE, gather
from .solver import RankMaximalMatcher


@dataclass(frozen=True)
class Outcome:
    """Result of one selection rule on one instance."""

    algorithm: str
    selected: tuple[StudentId, ...]
    matching: Matching


def _greedy_scan(instance: Instance, quotas: QuotaTable | None = None) -> tuple[list[int], RankMaximalMatcher]:
    """Scan students by priority, pinning each one whose selection keeps the
    rank signature maximal under ``quotas`` (by default the instance's),
    until the capacity is reached.  The scan runs inside the engine
    (:meth:`RankMaximalMatcher.select`), over the graph's positions, which
    are the acceptable students in priority order; returns the chosen
    positions and the matcher."""
    matcher = RankMaximalMatcher(_build(instance, None, quotas))
    return matcher.select(), matcher


def _ids(instance: Instance, positions: list[int]) -> tuple[StudentId, ...]:
    return gather(instance.acceptable, positions)


def a_s_select(instance: Instance) -> Outcome:
    """Highest-priority students compatible with a rank-maximal matching."""
    chosen, matcher = _greedy_scan(instance)
    return Outcome("as", _ids(instance, chosen), matcher.matching())


def sy1_select(instance: Instance) -> Outcome:
    """Drop the rank-2 reserves, then select rank-maximally.

    The returned matching uses rank-1 and universal seats only.
    """
    reduced = QuotaTable(instance.quotas.rank1, (0,) * instance.n_types)
    chosen, matcher = _greedy_scan(instance, reduced)
    return Outcome("sy1", _ids(instance, chosen), matcher.matching())


def sy2_select(instance: Instance) -> Outcome:
    """Merge both reserve ranks into one and select rank-maximally.

    The selected students are then re-seated on the original two-rank seats
    by the engine, on a graph of those students alone, built from the
    positions the merged scan chose, so every one of them is matched.
    That matching realizes the same total reserve fill as the
    merged optimum (re-seating a fixed student set never loses merged
    seats) while reporting honest per-rank counts: rank-1 seats are used as
    well as the selected set allows.
    """
    merged = QuotaTable(
        tuple(a + b for a, b in zip(instance.quotas.rank1, instance.quotas.rank2)),
        (0,) * instance.n_types,
    )
    chosen, _ = _greedy_scan(instance, merged)
    graph = _build(instance, chosen, None)
    return Outcome("sy2", graph.students, RankMaximalMatcher(graph).matching())


def _greedy_seats(instance: Instance, pool: Sequence[StudentId]) -> tuple[tuple[StudentId, ...], Matching]:
    """Seat up to ``min(capacity, len(pool))`` students of ``pool`` in three
    passes down it: unfilled rank-1 seats, then unfilled rank-2 seats, then
    universal seats.  Returns the seated students, in ``pool`` order, and
    their seat rows, one for each pool that seats a student.

    A student eligible for several open seats takes the lowest-numbered
    type.  A reserve pass ends once its seats are full.
    """
    target = min(instance.capacity, len(pool))
    types_of = instance.type_sets
    seated = [False] * len(pool)
    count = 0
    rows: dict[tuple[TypeId, int], list[StudentId]] = {}

    n_types = instance.n_types
    for rank, quota in ((1, instance.quotas.rank1), (2, instance.quotas.rank2)):
        left = list(quota)  # open seats per type
        taken: list[list[StudentId]] = []  # per type, its seats' students in seat order
        for _ in quota:
            taken.append([])
        open_seats = sum(quota)
        closed: set[frozenset[int]] = set()  # type sets with no open seat; seats only fill
        for i, sid in enumerate(pool):
            if count == target or not open_seats:
                break
            types = types_of[sid]
            if seated[i] or types in closed:
                continue
            t = n_types  # the lowest held type with an open seat, if below n_types
            for u in types:
                if u < t and left[u] > 0:
                    t = u
            if t == n_types:
                closed.add(types)
                continue
            taken[t].append(sid)
            seated[i] = True
            count += 1
            left[t] -= 1
            open_seats -= 1
        for t, row in enumerate(taken):
            if row:
                rows[t, rank] = row

    universal: list[StudentId] = []
    for i, sid in enumerate(pool):
        if count == target:
            break
        if not seated[i]:
            universal.append(sid)
            seated[i] = True
            count += 1
    if universal:
        rows[UNIVERSAL_TYPE, 3] = universal
    return tuple(compress(pool, seated)), Matching(rows=rows)


def ehyy_select(instance: Instance) -> Outcome:
    """Three greedy passes down the priority list: unfilled rank-1 seats,
    then unfilled rank-2 seats, then plain fill to capacity; ties between
    open seats go to the lowest-numbered type."""
    return Outcome("ehyy", *_greedy_seats(instance, instance.acceptable))


def pog_select(instance: Instance) -> Outcome:
    """Top students by priority, seated by ``ehyy``'s passes.  With every
    student of the prefix seated, each one takes an open rank-1 seat of
    one of its types if any, else an open rank-2 seat, else a universal
    seat."""
    pool = instance.acceptable
    prefix = pool[: min(instance.capacity, len(pool))]
    return Outcome("pog", *_greedy_seats(instance, prefix))


def pos_select(instance: Instance) -> Outcome:
    """Same students as ``pog``, but re-seated rank-maximally."""
    graph = _build(instance, range(min(instance.capacity, len(instance.acceptable))), None)
    return Outcome("pos", graph.students, RankMaximalMatcher(graph).matching())


ALGORITHMS: dict[str, Callable[[Instance], Outcome]] = {
    "as": a_s_select,
    "ehyy": ehyy_select,
    "sy1": sy1_select,
    "sy2": sy2_select,
    "pog": pog_select,
    "pos": pos_select,
}


def outcome_to_json(outcome: Outcome) -> str:
    """Serialize an outcome: tag, selected ids in priority order, each
    seated student as (student, type, rank, place in its seat row), and the
    signature triple.  A matching without rows raises ``ValueError``."""
    rank_signature = signature(outcome.matching)
    doc: dict[str, Any] = {
        "algorithm": outcome.algorithm,
        "selected": list(outcome.selected),
        "matching": sorted(
            [sid, t, rank, i] for (t, rank), row in outcome.matching.rows.items() for i, sid in enumerate(row)
        ),
        "signature": list(rank_signature),
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"

