"""Rank-maximal matching engine with a global size cap and pinned students.

The engine keeps a matching of students onto seat pools that maximizes the
rank signature (rank-1 count first, then rank-2, then rank-3)
lexicographically, subject to a size cap and to "forced" students that
must stay matched.

Seats of equal type and rank are interchangeable, and so are students with
equal type sets: a signature depends only on how many students of each
*class* (students sharing one adjacency tuple, as ``build_graph`` groups
them) sit in each pool.  So the engine solves a min-cost flow S -> class
-> pool -> T of value equal to the target size.  S -> class carries the
class's matched count, at least its number of pinned students; pool -> T
is capped by the pool's seats and costs -B^2, -B or 0 for ranks 1, 2 and
3, with B = target size + 1, which orders costs like signatures.
Construction routes the pinned units first, then the rest, by successive
shortest paths.  Every S -> T path costs the weight of its last pool, so
each rank is one max-flow stage into that rank's free pools, best rank
first.

Pinning a student whose class has a matched unpinned unit only raises the
class's lower bound.  Otherwise the class must gain a unit at zero cost.
Potentials computed once after construction give every residual arc a
non-negative reduced cost; when every student is pinned, no search can run
and none are computed.  The difference between the current optimal
flow and an optimal flow that also covers the student is a circulation of
zero cost, so it splits into residual cycles of zero cost, made only of
arcs of zero reduced cost, and one of them enters the class from S.  One
search over those arcs for a cycle S -> class ~> S is therefore exact, and
pushing a unit around it keeps the potentials valid.

A class whose search fails (or whose potential differs from that of S) is
rejected from then on in O(1).  Pins only add lower bounds, so the set of
optimal flows that meet them only shrinks: if none of them gives the class
one more unit now, none will after further pins.  A failed search changes
no state, so skipping it leaves every flow and matching as it was.
"""

from __future__ import annotations

from collections import Counter
from itertools import islice
from typing import Iterable, Iterator

from .graph import Matching, ReservationGraph, Seat, seat_row
from .model import StudentId


class InfeasibleForcedError(ValueError):
    """More students were pinned than the size cap allows."""


class RankMaximalMatcher:
    """Incremental rank-maximal matching over a reservation graph.

    Flow nodes: the graph's classes ``0..k-1``, pools, S, T.
    Each class matches its pinned students, then its highest-priority
    unpinned ones, so identical inputs give identical matchings.
    """

    def __init__(self, graph: ReservationGraph, forced: Iterable[StudentId] = ()):
        self._graph = graph
        students = graph.students
        self._index = {sid: i for i, sid in enumerate(students)}
        self.target_size = min(graph.cap, len(students))
        b = self.target_size + 1
        self._rank_weight = (-b * b, -b, 0)
        self._weight = [self._rank_weight[p.rank - 1] for p in graph.pools]

        self._adj = [adj for adj, _ in graph.classes]
        self._members = [members for _, members in graph.classes]
        self._class_of = [0] * len(students)
        for c, members in enumerate(self._members):
            for i in members:
                self._class_of[i] = c
        k = len(self._members)
        self._source = k + len(graph.pools)
        self._sink = self._source + 1

        self._pinned = [False] * len(students)
        # lower bound of S -> class, and the flow on it
        self._n_pinned = [0] * k
        for sid in forced:
            i = self._index.get(sid)
            if i is None:
                raise ValueError(f"forced student {sid} is not in the graph")
            if not self._pinned[i]:
                self._pinned[i] = True
                self._n_pinned[self._class_of[i]] += 1
        self._flow = [0] * k
        self._load: list[Counter[int]] = [Counter() for _ in graph.pools]  # class -> units
        self._used = [0] * len(graph.pools)
        n_forced = sum(self._n_pinned)
        if n_forced > graph.cap:
            raise InfeasibleForcedError(f"cannot pin {n_forced} students with a cap of {graph.cap}")

        self._dead = [False] * k  # classes try_force can no longer grow
        self._ceiling = list(self._n_pinned)  # upper bound of S -> class
        self._route(n_forced, pinned=True)
        self._ceiling = [len(members) for members in self._members]
        self._route(self.target_size - n_forced, pinned=False)
        # with every student pinned, try_force never searches
        self._potential = self._potentials() if n_forced < len(students) else []

    def _arcs(self, u: int) -> Iterator[tuple[int, int, int]]:
        """Residual arcs ``(head, cost, capacity)`` leaving node ``u``."""
        k, s, t = len(self._members), self._source, self._sink
        if u < k:
            if self._flow[u] > self._n_pinned[u]:
                yield s, 0, self._flow[u] - self._n_pinned[u]
            for p in self._adj[u]:
                yield k + p, 0, len(self._members[u])
        elif u < s:
            p = u - k
            free = self._graph.pools[p].capacity - self._used[p]
            if free:
                yield t, self._weight[p], free
            for c, units in list(self._load[p].items()):
                if units:
                    yield c, 0, units
        elif u == s:
            for c in range(k):
                if self._ceiling[c] > self._flow[c]:
                    yield c, 0, self._ceiling[c] - self._flow[c]
        else:
            for p, used in enumerate(self._used):
                if used:
                    yield k + p, -self._weight[p], used

    def _apply(self, u: int, v: int, units: int) -> None:
        """Push ``units`` along the residual arc ``u -> v``."""
        k, s, t = len(self._members), self._source, self._sink
        if u == s:
            self._flow[v] += units
        elif v == s:
            self._flow[u] -= units
        elif t in (u, v):
            return  # pool usage follows its class arcs
        elif u < k:
            self._load[v - k][u] += units
            self._used[v - k] += units
        else:
            self._load[u - k][v] -= units
            self._used[u - k] -= units

    def _route(self, amount: int, pinned: bool) -> None:
        """Send ``amount`` more units from S for the pinned or the unpinned
        students by successive shortest paths: a max-flow stage into the
        free rank-1 pools, one into the rank-2 pools, then the universal
        pool directly, highest-priority students first.

        A stage's paths have zero reduced cost when only T has a potential,
        the weight.  Dead ends stay closed for the rest of a round of
        searches; a round that finds nothing ends the stage.
        """
        for weight in self._rank_weight[:2]:
            pi = [0] * self._sink + [weight]
            pushed = amount
            while amount and pushed:
                seen: set[int] = set()
                pushed = 0
                while amount and (units := self._push(self._source, self._sink, amount, seen, pi)):
                    amount -= units
                    pushed += units
        # units each class already routed in this phase
        base = [0] * len(self._flow) if pinned else self._n_pinned
        skip = [f - b for f, b in zip(self._flow, base)]
        fill: Counter[int] = Counter()  # units per class, in order of first use
        for i, c in enumerate(self._class_of):
            if not amount:
                break
            if self._pinned[i] != pinned:
                continue
            if skip[c]:
                skip[c] -= 1
                continue
            fill[c] += 1
            amount -= 1
        universal = len(self._members) + self._graph.universal_pool
        for c, units in fill.items():
            self._apply(self._source, c, units)
            self._apply(c, universal, units)

    def _push(self, start: int, goal: int, limit: int, seen: set[int], pi: list[int]) -> int:
        """Push up to ``limit`` units from ``start`` to ``goal`` along one
        path of zero reduced cost under ``pi``, depth first around the nodes
        in ``seen``, which gains the dead ends; returns the units pushed."""
        seen.add(start)
        stack = [(start, limit, self._arcs(start))]
        while stack:
            u, room, arcs = stack[-1]
            for v, cost, cap in arcs:
                if v not in seen and cost + pi[u] == pi[v]:
                    break
            else:
                stack.pop()
                continue
            units = min(room, cap)
            if v == goal:
                path = [node for node, _, _ in stack] + [v]
                for a, b in zip(path, path[1:]):
                    self._apply(a, b, units)
                seen.difference_update(path)
                return units
            seen.add(v)
            stack.append((v, units, self._arcs(v)))
        return 0

    def _potentials(self) -> list[int]:
        """Bellman-Ford distances from a virtual root joined to every node
        at cost 0: residual arcs have non-negative reduced costs."""
        dist = [0] * (self._sink + 1)
        changed = True
        while changed:
            changed = False
            for u in range(len(dist)):
                for v, cost, _ in self._arcs(u):
                    if dist[u] + cost < dist[v]:
                        dist[v] = dist[u] + cost
                        changed = True
        return dist

    def _chosen(self, c: int) -> list[int]:
        """Matched members of class ``c``, in priority order."""
        extra = self._flow[c] - self._n_pinned[c]
        unpinned = [i for i in self._members[c] if not self._pinned[i]]
        return sorted([i for i in self._members[c] if self._pinned[i]] + unpinned[:extra])

    def matched_students(self) -> tuple[StudentId, ...]:
        matched = sorted(i for c in range(len(self._members)) for i in self._chosen(c))
        return tuple(self._graph.students[i] for i in matched)

    def matching(self) -> Matching:
        """Materialize seat-level pairs: each class fills its pools in pool
        order, and seats within a pool are indexed in priority order.  The
        seats come from :func:`~reservematch.graph.seat_row`, shared by
        every matching."""
        seated: list[list[int]] = [[] for _ in self._graph.pools]
        for c, adj in enumerate(self._adj):
            chosen = iter(self._chosen(c))
            for p in adj:
                seated[p].extend(islice(chosen, self._load[p][c]))
        students = self._graph.students
        pairs: list[tuple[StudentId, Seat]] = []
        for pool, row in zip(self._graph.pools, seated):
            row.sort()
            seats = seat_row(pool.type, pool.rank, min(pool.capacity, self.target_size))
            pairs.extend(zip([students[i] for i in row], seats))
        return Matching(frozenset(pairs))

    def try_force(self, sid: StudentId) -> bool:
        """Pin ``sid`` if doing so preserves the current rank signature.

        Returns ``True`` and updates the matching when a signature-preserving
        matching covering all pinned students plus ``sid`` exists; otherwise
        leaves the state untouched and returns ``False``.  An id outside
        the graph raises ``ValueError``.
        """
        try:
            i = self._index[sid]
        except KeyError:
            raise ValueError(f"forced student {sid} is not in the graph") from None
        if self._pinned[i]:
            return True
        c = self._class_of[i]
        if self._dead[c]:
            return False
        if self._flow[c] == self._n_pinned[c]:
            # look for a cycle S -> c ~> S of zero reduced cost
            s, pi = self._source, self._potential
            if pi[s] != pi[c] or not self._push(c, s, 1, set(), pi):
                self._dead[c] = True
                return False
            self._apply(s, c, 1)
        self._pinned[i] = True
        self._n_pinned[c] += 1
        return True


def rank_maximal_matching(
    graph: ReservationGraph, forced: Iterable[StudentId] = ()
) -> Matching:
    """Rank-maximal matching of size at most the graph cap that matches
    every student in ``forced``.

    With ``forced`` empty this is the unconstrained rank-maximal matching.
    Raises :class:`InfeasibleForcedError` when more than ``cap`` students
    are forced; any smaller set is feasible thanks to the universal seats.
    """
    return RankMaximalMatcher(graph, forced).matching()
