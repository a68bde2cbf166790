"""Bipartite graph of students versus ranked reserved seats.

Seats come in three ranks: rank 1 and rank 2 seats belong to real diversity
types according to the quota table, and the universal type contributes
exactly ``capacity`` rank-3 seats that every student may take.  Seats of the
same type and rank are interchangeable, so the graph stores them as pools
with a capacity; individual :class:`Seat` objects are materialized only in
matchings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .model import Instance, StudentId, TypeId, UNIVERSAL_TYPE


class Seat(NamedTuple):
    type: TypeId
    rank: int
    index: int  # 0-based ordinal within (type, rank)

    def label(self) -> str:
        return f"t{self.type}:r{self.rank}:{self.index}"


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


@dataclass(frozen=True)
class Matching:
    """A set of (student, seat) pairs, each side used at most once."""

    pairs: frozenset[tuple[StudentId, Seat]]

    def __len__(self) -> int:
        return len(self.pairs)


def signature(matching: Matching) -> RankSignature:
    """Count matched seats by rank; universal-type seats count as rank 3."""
    counts = [0, 0, 0]
    for _, seat in matching.pairs:
        counts[seat.rank - 1] += 1
    return RankSignature(*counts)


@dataclass(frozen=True)
class ReservationGraph:
    """Students on one side, seat pools on the other.

    ``students`` is the participating subset in priority order.  ``pools``
    is ordered by (rank, type) with the universal pool last, and
    ``adjacency`` maps each student to the indices of the pools it may use
    (always including the universal pool).  ``cap`` bounds the size of any
    matching taken on this graph.
    """

    students: tuple[StudentId, ...]
    cap: int
    pools: tuple[SeatPool, ...]
    adjacency: dict[StudentId, tuple[int, ...]]

    @property
    def universal_pool(self) -> int:
        return len(self.pools) - 1

    @property
    def seat_count(self) -> int:
        return sum(p.capacity for p in self.pools)

    def edges(self) -> Iterator[tuple[StudentId, Seat]]:
        """Seat-level adjacency, mostly useful for debugging and tests."""
        for sid in self.students:
            for pi in self.adjacency[sid]:
                pool = self.pools[pi]
                for i in range(pool.capacity):
                    yield sid, Seat(pool.type, pool.rank, i)


def build_graph(instance: Instance, subset: set[StudentId] | None = None) -> ReservationGraph:
    """Construct the reservation graph for a subset of students.

    ``subset`` defaults to the acceptable pool.  Pools are created for every
    (type, rank) with a positive quota, plus the universal pool with
    ``capacity`` rank-3 seats.  Adjacency is built once per distinct type
    set and the tuple is shared by every student who holds that set.
    """
    if subset is None:
        members = list(instance.acceptable)
    else:
        members = [sid for sid in instance.priority if sid in subset]
        if len(members) != len(subset):
            unknown = set(subset) - set(members)
            raise ValueError(f"subset contains unknown students: {sorted(unknown)}")

    pools: list[SeatPool] = []
    pool_of_type: dict[tuple[TypeId, int], int] = {}
    for rank in (1, 2):
        for t in range(1, instance.n_types):
            q = instance.quotas.quota(t, rank)
            if q > 0:
                pool_of_type[(t, rank)] = len(pools)
                pools.append(SeatPool(t, rank, q))
    universal = len(pools)
    pools.append(SeatPool(UNIVERSAL_TYPE, 3, instance.capacity))

    by_types: dict[frozenset[TypeId], tuple[int, ...]] = {}
    adjacency: dict[StudentId, tuple[int, ...]] = {}
    for sid in members:
        types = instance.student(sid).types
        if types not in by_types:
            eligible = sorted(
                pool_of_type[(t, rank)] for rank in (1, 2) for t in types if (t, rank) in pool_of_type
            )
            by_types[types] = (*eligible, universal)
        adjacency[sid] = by_types[types]

    return ReservationGraph(tuple(members), instance.capacity, tuple(pools), adjacency)
