"""Brute-force reference implementations for small instances.

Everything here enumerates matchings exhaustively and is deliberately naive;
it exists to certify the engine and the selection rules before they are
trusted at scale.  Inputs are bounded so the enumeration stays small.
"""

from __future__ import annotations

import random

from reservematch import (
    InfeasibleForcedError,
    Instance,
    QuotaTable,
    RankSignature,
    ReservationGraph,
    build_graph,
)
from reservematch.model import StudentId, gather

MAX_STUDENTS = 10
MAX_SEATS = 12


class SizeLimitError(ValueError):
    """The graph is too large for exhaustive enumeration."""


def _check_bounds(graph: ReservationGraph) -> None:
    if len(graph.students) > MAX_STUDENTS:
        raise SizeLimitError(
            f"{len(graph.students)} students exceed the enumeration bound of {MAX_STUDENTS}"
        )
    seats = sum(pool.capacity for pool in graph.pools)
    if seats > MAX_SEATS:
        raise SizeLimitError(f"{seats} seats exceed the enumeration bound of {MAX_SEATS}")


class MatchingOracle:
    """Answers rank-maximality queries by exhaustive enumeration.

    One pass over all matchings of size at most the cap records, for every
    subset of matched students, the lexicographically best signature any
    matching covering exactly that subset achieves.  Queries then reduce to
    scans over at most 2^n entries.
    """

    def __init__(self, graph: ReservationGraph):
        _check_bounds(graph)
        self._graph = graph
        self._best: dict[int, RankSignature] = {}
        self._enumerate()

    def _enumerate(self) -> None:
        graph = self._graph
        n = len(graph.students)
        adj: list[tuple[int, ...]] = [()] * n
        for pools, members in graph.classes:
            for i in members:
                adj[i] = pools
        capacity = [p.capacity for p in graph.pools]
        rank = [p.rank for p in graph.pools]
        used = [0] * len(graph.pools)
        counts = [0, 0, 0]
        best = self._best
        cap = graph.cap

        def recurse(i: int, mask: int, size: int) -> None:
            if i == n:
                sig = RankSignature(*counts)
                prev = best.get(mask)
                if prev is None or sig > prev:
                    best[mask] = sig
                return
            recurse(i + 1, mask, size)
            if size < cap:
                for p in adj[i]:
                    if used[p] < capacity[p]:
                        used[p] += 1
                        counts[rank[p] - 1] += 1
                        recurse(i + 1, mask | (1 << i), size + 1)
                        counts[rank[p] - 1] -= 1
                        used[p] -= 1

        recurse(0, 0, 0)

    def _mask(self, students: set[StudentId] | frozenset[StudentId]) -> int:
        index = {sid: i for i, sid in enumerate(self._graph.students)}
        mask = 0
        for sid in students:
            if sid not in index:
                raise ValueError(f"student {sid} is not in the graph")
            mask |= 1 << index[sid]
        return mask

    def best_signature(self, forced: set[StudentId] | frozenset[StudentId] = frozenset()) -> RankSignature:
        """Lexicographic maximum signature over matchings covering ``forced``."""
        want = self._mask(set(forced))
        best: RankSignature | None = None
        for mask, sig in self._best.items():
            if mask & want == want and (best is None or sig > best):
                best = sig
        if best is None:
            raise InfeasibleForcedError(
                f"no matching of size <= {self._graph.cap} covers all forced students"
            )
        return best

    def compatible(self, forced: set[StudentId] | frozenset[StudentId]) -> bool:
        if len(set(forced)) > self._graph.cap:
            return False
        return self.best_signature(forced) == self.best_signature()

    def greedy_selection(self) -> tuple[StudentId, ...]:
        """Replay the priority-greedy scan against the enumerated optimum."""
        target = min(self._graph.cap, len(self._graph.students))
        top = self.best_signature()
        chosen: list[StudentId] = []
        for sid in self._graph.students:
            if len(chosen) == target:
                break
            if self.best_signature(set(chosen) | {sid}) == top:
                chosen.append(sid)
        return tuple(chosen)


def oracle_as_select(instance: Instance) -> tuple[StudentId, ...]:
    """Exhaustive replay of the priority-greedy rank-maximal selection."""
    return MatchingOracle(build_graph(instance)).greedy_selection()


def random_small_instance(
    rnd: random.Random,
    *,
    max_students: int = 8,
    max_types: int = 4,
    max_capacity: int = 4,
) -> Instance:
    """Random instance inside the enumeration bounds, for property tests.

    Type membership is independent with probability one half; quotas are
    uniform in [0, 2] per (type, rank) and redrawn until the total seat
    count (universal seats included) fits the enumeration limit.  The
    type sets are drawn, then shuffled into priority order.
    """
    n = rnd.randint(1, max_students)
    m = rnd.randint(1, max_types)
    capacity = rnd.randint(1, max_capacity)
    while True:
        rank1 = [rnd.randint(0, 2) for _ in range(m)]
        rank2 = [rnd.randint(0, 2) for _ in range(m)]
        if sum(rank1) + sum(rank2) + capacity <= MAX_SEATS:
            break
    type_sets = tuple(
        frozenset(t for t in range(1, m + 1) if rnd.random() < 0.5)
        for _ in range(n)
    )
    order = list(range(n))
    rnd.shuffle(order)
    return Instance(
        type_sets=gather(type_sets, order),
        capacity=capacity,
        quotas=QuotaTable((0, *rank1), (0, *rank2)),
    )
