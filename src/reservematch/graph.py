"""Bipartite graph of students versus ranked reserved seats.

Seats come in three ranks: rank 1 and rank 2 seats belong to real diversity
types according to the quota table, and the universal type contributes
exactly ``capacity`` rank-3 seats that every student may take.  Seats of the
same type and rank are interchangeable, so the graph stores them as pools
with a capacity, and students who reach the same pools as classes.
A matching keeps one row of students per (type, rank) pool, in seat order,
the one form the library reads.  :class:`Seat` objects appear only when a
matching's ``pairs`` are read.

A graph covers the acceptable pool, grouped once per instance, or the
students at positions a rule chose, grouped afresh.  A sweep builds
several graphs per pool over the same few quota tables, so the pool list,
and the pools each type reaches, come from one table per (quota table,
capacity) in a small bounded cache.  Those tables are shared, so they are
read only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import chain, repeat
from typing import Mapping, NamedTuple, Sequence

from .model import Instance, QuotaTable, StudentId, TypeId, UNIVERSAL_TYPE, _strays, gather, group_by_types


class Seat(NamedTuple):
    type: TypeId
    rank: int
    index: int  # 0-based ordinal within (type, rank)


class SeatPool(NamedTuple):
    type: TypeId
    rank: int
    capacity: int


class RankSignature(NamedTuple):
    """How many matched seats a matching uses at each rank.

    Tuple comparison gives the intended lexicographic order: more rank-1
    seats always beats any number of lower-rank seats.
    """

    rank1: int
    rank2: int
    rank3: int


class Matching:
    """A seating of students, each student and each seat used at most once.

    ``rows[type, rank]`` lists the students of that pool in seat order, so
    ``rows[type, rank][i]`` sits on seat ``i``, and a pool that seats no one
    may have no row; the rules build this form, and the library reads no
    other.  ``pairs``, the same seating as ``(student, Seat)`` pairs, is
    derived, with seats of its own, when first read.  ``Matching(pairs)``
    keeps the pairs exactly as given and has no rows (``rows`` is
    ``None``), so :func:`signature`, :func:`~reservematch.metrics.evaluate` and
    :func:`~reservematch.algorithms.outcome_to_json` refuse it with a
    ``ValueError``.  Matchings are equal when their pairs are.  Read only.
    """

    def __init__(
        self,
        pairs: frozenset[tuple[StudentId, Seat]] | None = None,
        *,
        rows: Mapping[tuple[TypeId, int], Sequence[StudentId]] | None = None,
    ):
        if (pairs is None) == (rows is None):
            raise TypeError("a Matching takes either pairs or rows")
        if pairs is not None:
            self.pairs = pairs
        self.rows = rows

    @cached_property
    def pairs(self) -> frozenset[tuple[StudentId, Seat]]:
        pairs: list[tuple[StudentId, Seat]] = []
        for (t, rank), row in self.rows.items():
            pairs += zip(row, map(Seat, repeat(t), repeat(rank), range(len(row))))
        return frozenset(pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        return self.pairs == other.pairs

    def __repr__(self) -> str:
        if self.rows is None:
            return f"Matching({self.pairs!r})"
        return f"Matching(rows={self.rows!r})"


def signature(matching: Matching) -> RankSignature:
    """Count matched seats by rank; universal-type seats count as rank 3.
    Raises ``ValueError`` unless its rows are a mapping whose keys are
    (type, rank) pairs of exactly ``int`` values, the universal type at
    rank 3 and any other type at rank 1 or 2, and whose rows are sequences."""
    rows = matching.rows
    if rows is None:
        raise ValueError("signature counts seat rows: build the matching with Matching(rows=...)")
    if not isinstance(rows, Mapping):
        raise ValueError(f"signature counts seat rows: a {type(rows).__name__} is no mapping of pools to rows")
    counts = [0, 0, 0]
    for key, row in rows.items():
        # as evaluate: (None, 3), (True, 1), (1, 3) and (0, 1) are no pools; a rank of 0 would count as rank 3
        if type(key) is not tuple or len(key) != 2 or _strays(key) or key[1] not in ((3,) if key[0] == UNIVERSAL_TYPE else (1, 2)):
            raise ValueError(f"signature counts seat rows: pool {key!r} is no (type, rank) pair of ints"
                             " with rank 3 for the universal type and 1 or 2 for any other")
        # as evaluate: a row lists its students in seat order, and a set or an iterator has none
        if not isinstance(row, Sequence):
            raise ValueError(f"signature counts seat rows: pool {key!r} holds a {type(row).__name__}, not a sequence in seat order")
        counts[key[1] - 1] += len(row)
    return RankSignature(*counts)


@dataclass(frozen=True)
class ReservationGraph:
    """Students on one side, seat pools on the other.

    ``students`` is the participating subset in priority order.  ``pools``
    is ordered by (rank, type) with the universal pool last.  ``classes``
    holds one ``(pool indices, member positions)`` pair per distinct set of
    usable pools (always including the universal pool): members are
    ascending positions in ``students``, and classes are ordered by their
    first member.  ``cap`` bounds the size of any matching taken on this
    graph.
    """

    students: tuple[StudentId, ...]
    cap: int
    pools: tuple[SeatPool, ...]
    classes: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]

    @property
    def universal_pool(self) -> int:
        return len(self.pools) - 1


# A pool asks for three tables (its own, sy1's and sy2's), so 64 hold every
# table of a grid of up to 21 cells even when its pools take the cells in
# turn, as perfbench's loop does; the paper's grids have 9 and 12 cells.
@lru_cache(maxsize=64)
def _pool_table(quotas: QuotaTable, capacity: int) -> tuple[tuple[SeatPool, ...], dict[TypeId, tuple[int, ...]]]:
    """The pools of a graph under ``quotas`` and ``capacity``: one per
    (type, rank) with a positive quota, ordered by (rank, type), then the
    universal pool; and the indices of the reserve pools of each type that
    has any.  Tables are found by value, so equal quota tables share one;
    they are read only."""
    pools: list[SeatPool] = []
    pools_of_type: dict[TypeId, tuple[int, ...]] = {}
    for rank, quota in ((1, quotas.rank1), (2, quotas.rank2)):
        for t in range(1, quotas.n_types):
            q = quota[t]
            if q > 0:
                pools_of_type[t] = (*pools_of_type.get(t, ()), len(pools))
                pools.append(SeatPool(t, rank, q))
    pools.append(SeatPool(UNIVERSAL_TYPE, 3, capacity))
    return tuple(pools), pools_of_type


def build_graph(instance: Instance, subset: set[StudentId] | None = None) -> ReservationGraph:
    """Construct the reservation graph for a subset of students.

    ``subset`` defaults to the acceptable pool, whose grouping by type set
    the instance caches (:attr:`Instance.type_groups`).  A subset is
    checked for ids that are unknown or repeated; its ids, sorted, are its
    positions in the priority list, so it may reach past the acceptability
    cutoff.  The rules pass the positions they built, and other quota
    tables, to :func:`_build`, unchecked.
    """
    positions = None
    if subset is not None:
        if _strays(subset):
            raise ValueError(f"subset contains unknown students: {sorted(_strays(subset), key=repr)}")
        positions = sorted(subset)
        n = instance.n_students
        if positions and not 0 <= positions[0] <= positions[-1] < n:
            raise ValueError(f"subset contains unknown students: {sorted({sid for sid in positions if not 0 <= sid < n})}")
        if len(set(positions)) != len(positions):
            repeated = sorted({sid for sid, after in zip(positions, positions[1:]) if sid == after})
            raise ValueError(f"subset repeats students: {repeated}")
    return _build(instance, positions, None)


def _build(instance: Instance, positions: Sequence[int] | None, quotas: QuotaTable | None) -> ReservationGraph:
    """The graph of :func:`build_graph` over the students at ``positions``
    of the priority list, trusted and grouped afresh, or over the
    acceptable pool from its cached grouping for ``None``, under ``quotas``
    (by default the instance's).  Pools come from the shared table of
    ``quotas`` and ``capacity`` (:func:`_pool_table`), looked up once per
    type set; type sets that reach the same pools share one class.
    """
    if positions is None:
        members = instance.acceptable
        by_types = instance.type_groups
    else:
        members = gather(instance.priority, positions)
        by_types = group_by_types(instance.type_sets, members)
    if quotas is None:
        quotas = instance.quotas

    pools, pools_of_type = _pool_table(quotas, instance.capacity)
    universal = len(pools) - 1
    by_adj: dict[tuple[int, ...], list[list[int]]] = {}
    for types, group in by_types.items():
        eligible: list[int] = []
        for t in types:
            eligible += pools_of_type.get(t, ())
        eligible.sort()
        by_adj.setdefault((*eligible, universal), []).append(group)
    # a group is ascending, so only a class of several groups is sorted
    classes = tuple((adj, tuple(groups[0] if len(groups) == 1 else sorted(chain.from_iterable(groups))))
                    for adj, groups in by_adj.items())
    return ReservationGraph(members, instance.capacity, pools, classes)
