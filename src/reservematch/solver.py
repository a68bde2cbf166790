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
first.  The arcs into T of a stage's pools form a cut, so a stage stops
once their seats are taken, and one that starts with none free runs no
search.

Pinning a student whose class has a matched unpinned unit only raises the
class's lower bound.  Otherwise the class must gain a unit at zero cost.
Potentials computed once after construction give every residual arc a
non-negative reduced cost; when every student is matched, every pin takes
a matched unit, so no search can run and none are computed.  The
difference between the current optimal flow and an optimal flow that also
covers the student is a circulation of zero cost, so it splits into
residual cycles of zero cost, made only of arcs of zero reduced cost, and
one of them enters the class from S.  One search over those arcs for a
cycle S -> class ~> S is therefore exact, and pushing a unit around it
keeps the potentials valid.  Every search walks a table of the arcs of zero
reduced cost, and one builder makes it: for each construction stage under
the stage's potential, and once after construction for all the pins that
follow.  One depth-first search finds every path; a construction stage
pushes its bottleneck, and a pin one unit.

A class whose search fails (or whose potential differs from that of S) is
rejected from then on in O(1).  Pins only add lower bounds, so the set of
optimal flows that meet them only shrinks: if none of them gives the class
one more unit now, none will after further pins.  A failed search changes
no state, so skipping it leaves every flow and matching as it was.

A class that needs a second unit right after its search succeeded often
gets it from the same cycle, so the scan pushes the last cycle again,
unsearched, when the class needing the unit is the one that pushed last
(no other class has pushed since) and every arc of the cycle still has
residual.  That is exactly the cycle the search would find.  Between the
two pushes only O(1) pins happened, and failed searches, which change
nothing.  A pin takes residual from a class's arc to S, and a search ends
at the first class it reaches whose arc to S is admissible and has
residual, so the pinned arc is the cycle's last arc, which the residual
test covers, or one the search never reads.  The first push took residual
only from the cycle's arcs and opened only their reverses, each leading
back to the node before it on the cycle, which is on the search stack
whenever the search stands at its tail; an arc crossed for the first time
lists its reverse last.  So the depth-first search meets the same arcs in
the same order and returns the same cycle.  A push by another class moves
residual elsewhere and can open arcs the search tries earlier, so the last
cycle is dropped then; a failed search does not replace it.

The rules' greedy scan runs inside the engine: ``select`` walks the
graph's positions in priority order through one pin loop, and
``try_force`` is the same loop on one student.  The map from ids to
positions is built only when a caller pins by id, through ``forced`` or
``try_force``.
"""

from __future__ import annotations

from functools import cached_property
from itertools import accumulate
from typing import Iterable, Sequence

from .graph import Matching, ReservationGraph
from .model import StudentId, TypeId, _is_int, gather


class InfeasibleForcedError(ValueError):
    """More students were pinned than the size cap allows."""


class RankMaximalMatcher:
    """Incremental rank-maximal matching over a reservation graph.

    Flow nodes: the graph's classes ``0..k-1``, pools ``k..k+P-1``, S, T.
    Residual arcs come in pairs ``e``, ``e ^ 1``: S -> class ``c`` is arc
    ``2c``, pool ``p`` -> T is arc ``2(k + p)``, and each class's arcs to
    its pools follow, in ``adj`` order, each before its reverse.
    Each class matches its pinned students, then its highest-priority
    unpinned ones, so identical inputs give identical matchings.

    ``RankMaximalMatcher(graph, forced).matching()`` is a rank-maximal
    matching of size at most the graph cap that matches every student in
    ``forced``; with ``forced`` empty it is the unconstrained one.
    Construction raises :class:`InfeasibleForcedError` when more than
    ``cap`` students are forced; any smaller set is feasible thanks to the
    universal seats.
    """

    def __init__(self, graph: ReservationGraph, forced: Iterable[StudentId] = ()):
        self._graph = graph
        students = graph.students
        self.target_size = min(graph.cap, len(students))
        b = self.target_size + 1
        self._rank_weight = (-b * b, -b, 0)

        self._adj = [adj for adj, _ in graph.classes]
        self._members = [members for _, members in graph.classes]
        class_of = self._class_of = [0] * len(students)
        for c, members in enumerate(self._members):
            for i in members:
                class_of[i] = c
        k, n_pools = len(self._members), len(graph.pools)
        s = self._source = k + n_pools
        t = self._sink = s + 1

        self._pinned = [False] * len(students)
        pins = [0] * k
        for sid in forced:
            i = self._position(sid)
            if not self._pinned[i]:
                self._pinned[i] = True
                pins[self._class_of[i]] += 1
        n_forced = sum(pins)
        if n_forced > graph.cap:
            raise InfeasibleForcedError(f"cannot pin {n_forced} students with a cap of {graph.cap}")

        # Residual capacities: S -> class is its ceiling less its flow, and
        # class -> S its flow less its pins (negative until the pinned units
        # are routed); pool -> T is the free seats, T -> pool the used ones;
        # class -> pool is the class size less the class's load on the pool,
        # and pool -> class is that load.
        head: list[int] = []
        cost: list[int] = []
        res: list[int] = []
        for c in range(k):
            head += (c, s)
            cost += (0, 0)
            res += (pins[c], -pins[c])
        for p, pool in enumerate(graph.pools):
            weight = self._rank_weight[pool.rank - 1]
            head += (t, k + p)
            cost += (weight, -weight)
            res += (pool.capacity, 0)
        for c, (adj, members) in enumerate(graph.classes):
            for p in adj:
                head += (k + p, c)
                cost += (0, 0)
                res += (len(members), 0)
        self._head, self._cost, self._res = head, cost, res
        # class c's arcs to its pools lie in range(_class_arc[c], _class_arc[c + 1], 2)
        self._class_arc = [2 * (k + n_pools + j) for j in accumulate(map(len, self._adj), initial=0)]
        # Arcs leaving each node, in search order: a class tries S, then its
        # pools; a pool tries T, then its classes in the order units first
        # reached them; S tries classes by index, T pools by index.
        self._out = [[2 * c + 1, *range(self._class_arc[c], self._class_arc[c + 1], 2)] for c in range(k)]
        self._out += [[2 * (k + p)] for p in range(n_pools)]
        self._out += [list(range(0, 2 * k, 2)), list(range(2 * k + 1, 2 * (k + n_pools), 2))]
        self._unlisted = set(range(2 * (k + n_pools), len(head), 2))  # class -> pool, never crossed

        self._table: list[list[int]] = [[] for _ in self._out]  # _augment lists new arcs here too
        self._dead = [False] * k  # classes try_force can no longer grow
        if n_forced:
            self._route(n_forced, pinned=True)
        for c, members in enumerate(self._members):
            self._res[2 * c] += len(members) - pins[c]  # the ceiling rises to the class size
        self._route(self.target_size - n_forced, pinned=False)
        # with every student matched, try_force never searches
        if self.target_size < len(students):
            self._potential = self._potentials()
            self._admit(self._potential)

    @cached_property
    def _index(self) -> dict[StudentId, int]:
        # built only when a caller pins by id: the scan walks positions
        return {sid: i for i, sid in enumerate(self._graph.students)}

    def _position(self, sid: StudentId) -> int:
        """Position of ``sid`` in the graph, which holds only ids that
        are exactly an ``int`` (:func:`~reservematch.model._is_int`)."""
        i = self._index.get(sid) if _is_int(sid) else None
        if i is None:
            raise ValueError(f"forced student {sid} is not in the graph")
        return i

    def _admit(self, pi: list[int]) -> None:
        """Keep, per node, the arcs of zero reduced cost under ``pi``: the
        only arcs a search may take until the potentials change.  A
        construction stage's ``pi`` is 0 everywhere but at T, its weight."""
        head, cost = self._head, self._cost
        table: list[list[int]] = []
        for u, arcs in enumerate(self._out):
            row: list[int] = []
            for e in arcs:
                if cost[e] + pi[u] == pi[head[e]]:
                    row.append(e)
            table.append(row)
        self._table = table

    def _augment(self, path: list[int], units: int) -> None:
        """Push ``units`` along the arcs of ``path``.  A unit crossing a
        class -> pool arc for the first time lists its reverse at the pool,
        in the admissible table too: the reverse of an arc of zero reduced
        cost has zero reduced cost."""
        res = self._res
        for e in path:
            res[e] -= units
            res[e ^ 1] += units
            if e in self._unlisted:
                self._unlisted.remove(e)
                pool = self._head[e]
                self._out[pool].append(e ^ 1)
                self._table[pool].append(e ^ 1)

    def _route(self, amount: int, pinned: bool) -> None:
        """Send ``amount`` more units from S for the pinned or the unpinned
        students by successive shortest paths: a max-flow stage into the
        free rank-1 pools, one into the rank-2 pools, then the universal
        pool directly, highest-priority students first.

        A stage's paths have zero reduced cost when only T has a potential,
        the weight: every arc that does not touch T, and a pool's arcs to
        and from T when the pool has that weight.  So each path ends on the
        arc to T of such a pool, and the stage is over once their free seats
        are taken: it runs no search then, and none at all when it starts
        with none free.
        Dead ends stay closed for the rest of a round of searches, so each
        path found is taken back out of them, and a round that finds
        nothing ends the stage too.
        """
        res, head, cost, k = self._res, self._head, self._cost, len(self._members)
        before = res[1 : 2 * k : 2]  # flow of each class above its pins
        for weight in self._rank_weight[:2]:
            if not amount:
                break
            free = 0
            for e in range(2 * k, 2 * self._source, 2):  # pool -> T
                if cost[e] == weight:
                    free += res[e]
            if not free:
                continue
            self._admit([0] * self._sink + [weight])
            pushed = amount
            while amount and free and pushed:
                seen: set[int] = set()
                pushed = 0
                while amount and free and (path := self._search(self._source, self._sink, seen)):
                    units = amount
                    seen.discard(self._source)
                    for e in path:
                        if res[e] < units:
                            units = res[e]
                        seen.discard(head[e])
                    self._augment(path, units)
                    amount -= units
                    free -= units
                    pushed += units
        # units each class already routed in this phase
        skip = [after - b for after, b in zip(res[1 : 2 * k : 2], before)]
        fill: dict[int, int] = {}  # units per class, in order of first use
        pinned_at = self._pinned
        for i, c in enumerate(self._class_of):
            if not amount:
                break
            if pinned_at[i] != pinned:
                continue
            if skip[c]:
                skip[c] -= 1
                continue
            fill[c] = fill.get(c, 0) + 1
            amount -= 1
        # every class reaches the universal pool last
        to_sink = 2 * (k + self._graph.universal_pool)
        for c, units in fill.items():
            self._augment([2 * c, self._class_arc[c + 1] - 2, to_sink], units)

    def _search(self, start: int, goal: int, seen: set[int]) -> list[int] | None:
        """The arcs of one path with residual from ``start`` to ``goal`` in
        the admissible table, found depth first around the nodes in
        ``seen``, or ``None``.  The search only finds: ``seen`` gains every
        node it enters but ``goal``, the dead ends and the path's nodes,
        and the caller pushes what it needs along the path."""
        res, head, table = self._res, self._head, self._table
        seen.add(start)
        path: list[int] = []  # the arcs from start to the node on top
        arcs = [iter(table[start])]
        while arcs:
            for e in arcs[-1]:
                v = head[e]
                if res[e] > 0 and v not in seen:
                    break
            else:
                arcs.pop()
                if path:
                    path.pop()
                continue
            path.append(e)
            if v == goal:
                return path
            seen.add(v)
            arcs.append(iter(table[v]))
        return None

    def _potentials(self) -> list[int]:
        """Bellman-Ford distances from a virtual root joined to every node
        at cost 0: residual arcs have non-negative reduced costs."""
        head, cost, res = self._head, self._cost, self._res
        dist = [0] * (self._sink + 1)
        changed = True
        while changed:
            changed = False
            for u, arcs in enumerate(self._out):
                for e in arcs:
                    v = head[e]
                    if res[e] > 0 and dist[u] + cost[e] < dist[v]:
                        dist[v] = dist[u] + cost[e]
                        changed = True
        return dist

    def _chosen(self, c: int) -> Sequence[int]:
        """Matched members of class ``c``, in priority order: its pinned
        members and its ``extra`` highest-priority unpinned ones.  Its size
        less the residuals of its arcs from and to S counts its pins.  When
        they are its first members, as every scan from an unpinned start
        leaves them (see :meth:`_pin_in_order`), the matched members are a
        slice; otherwise one pass picks them."""
        res, members, pinned = self._res, self._members[c], self._pinned
        extra = res[2 * c + 1]
        pins = len(members) - res[2 * c] - extra
        if all(gather(pinned, members[:pins])):
            return members[: pins + extra]
        chosen: list[int] = []
        for i in members:
            if pinned[i]:
                chosen.append(i)
            elif extra:
                chosen.append(i)
                extra -= 1
        return chosen

    def matched_students(self) -> tuple[StudentId, ...]:
        matched = sorted(i for c in range(len(self._members)) for i in self._chosen(c))
        return tuple(self._graph.students[i] for i in matched)

    def matching(self) -> Matching:
        """The seat rows of the current flow: each class fills its pools in
        pool order, a slice of its matched members per pool, and each
        pool's row lists its students in priority order, which is seat
        order; empty pools get no row.  No
        :class:`~reservematch.graph.Seat` is built until the matching's
        ``pairs`` are read."""
        res, class_arc = self._res, self._class_arc
        seated: list[list[int]] = [[] for _ in self._graph.pools]
        for c, adj in enumerate(self._adj):
            chosen = self._chosen(c)
            start = 0
            for p, load in zip(adj, res[class_arc[c] + 1 : class_arc[c + 1] : 2]):
                seated[p] += chosen[start : start + load]
                start += load
        students = self._graph.students
        rows: dict[tuple[TypeId, int], list[StudentId]] = {}
        for pool, row in zip(self._graph.pools, seated):
            if row:
                row.sort()
                rows[pool.type, pool.rank] = list(gather(students, row))
        return Matching(rows=rows)

    def _pin_in_order(self, positions: Iterable[int], room: int) -> list[int]:
        """Pin each student of ``positions`` in turn whose pin preserves the
        current rank signature, until ``room`` are chosen; an already pinned
        student counts as chosen.  Returns the chosen positions.  A rejected
        student leaves the flow and the matching as they were.  The last
        cycle found is pushed again, unsearched, while its class is the
        last to have pushed and each of its arcs has residual (see the
        module docstring).  Positions come in priority order and a rejected
        class takes no later pin, so after a scan from an unpinned start
        each class's pinned members are its first ones."""
        chosen: list[int] = []
        if not room:
            return chosen
        pinned, dead, class_of, res = self._pinned, self._dead, self._class_of, self._res
        last, cycle = -1, []  # the class that pushed last, and its path c ~> S
        for i in positions:
            if not pinned[i]:
                c = class_of[i]
                if dead[c]:
                    continue
                back = 2 * c + 1  # the arc c -> S
                if res[back]:
                    res[back] -= 1  # pin a matched unpinned unit
                else:
                    # a cycle S -> c ~> S of zero reduced cost brings c the unit to pin
                    if c != last or not all(map(res.__getitem__, cycle)):
                        s, pi = self._source, self._potential
                        if pi[s] != pi[c] or not (path := self._search(c, s, set())):
                            dead[c] = True
                            continue
                        last, cycle = c, path
                    self._augment(cycle, 1)
                    res[back - 1] -= 1
                pinned[i] = True
            chosen.append(i)
            room -= 1
            if not room:
                break
        return chosen

    def select(self) -> list[int]:
        """The greedy scan of the rules: pin the students in priority order
        whenever the pin preserves the rank signature, until ``target_size``
        are pinned.  Returns the positions in the graph of every pinned
        student, ascending; pins made earlier count, in their place."""
        return self._pin_in_order(range(len(self._graph.students)), self.target_size)

    def try_force(self, sid: StudentId) -> bool:
        """Pin ``sid`` if doing so preserves the current rank signature: the
        scan of :meth:`select` on one student.

        Returns ``True`` and updates the matching when a signature-preserving
        matching covering all pinned students plus ``sid`` exists; otherwise
        leaves the state untouched and returns ``False``.  An id outside
        the graph raises ``ValueError``.
        """
        return bool(self._pin_in_order((self._position(sid),), 1))
