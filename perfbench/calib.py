"""The fixed reference computation that compute timings are scaled by.

On a shared machine the speed available to one process drifts by tens of
percent within a minute, so raw timings do not repeat.  Immediately before
and after each timed call the benchmark runs this reference, pure-Python
work of the engine's kind (dict, set, deque and sort operations over a fixed
graph), and scales the call's time by ``NOMINAL_S`` over the mean of the two
reference times.  Calibrated times read
as seconds on a machine where the reference takes exactly ``NOMINAL_S``.
"""

from __future__ import annotations

import random
from collections import deque
from time import perf_counter

NOMINAL_S = 0.001


def _make_graph(n_nodes: int = 240, n_groups: int = 24) -> tuple[list, list]:
    rng = random.Random(230209449)
    adj = [tuple(sorted(rng.sample(range(n_groups), 3))) for _ in range(n_nodes)]
    members: list[set[int]] = [set() for _ in range(n_groups)]
    for node, groups in enumerate(adj):
        members[groups[0]].add(node)
    return adj, members


_ADJ, _MEMBERS = _make_graph()
_SOURCES = range(0, len(_ADJ), 9)


def reference() -> int:
    """Breadth-first searches through the fixed graph; returns the number
    of nodes reached, which is the same on every call."""
    reached = 0
    for source in _SOURCES:
        came = {source: None}
        queue = deque([source])
        scanned: set[int] = set()
        while queue:
            x = queue.popleft()
            for g in _ADJ[x]:
                if g in scanned:
                    continue
                scanned.add(g)
                for y in sorted(_MEMBERS[g]):
                    if y not in came:
                        came[y] = (x, g)
                        queue.append(y)
        reached += len(came)
    return reached


def measure() -> float:
    """Seconds one reference run takes now."""
    t0 = perf_counter()
    reference()
    return perf_counter() - t0
