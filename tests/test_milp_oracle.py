"""An integer-programming oracle for the engine on n=100 pools.

The enumeration oracle in ``tests/oracle.py`` stops at 10 students.
This one states rank-maximal matching directly as a 0/1 program solved by
HiGHS through ``scipy.optimize.milp``: one variable per (student, eligible
pool) with weight B^2, B or 1 for ranks 1, 2 and 3 (B = target size + 1,
so the order is lexicographic), at most one pool per student, the pool
capacities, the size cap, and one equality row per pinned student.  It
shares nothing with the engine beyond the reservation graph.
"""

import random

import numpy as np
import pytest

optimize = pytest.importorskip("scipy.optimize")
sparse = pytest.importorskip("scipy.sparse")

from reservematch import (
    Instance,
    QuotaTable,
    RankMaximalMatcher,
    RankSignature,
    SatGenConfig,
    a_s_select,
    build_graph,
    gen_instance,
    signature,
)
from reservematch.model import gather


def milp_signature(graph, pinned=()) -> RankSignature:
    """Best signature of a matching within the cap that covers ``pinned``."""
    students = graph.students
    cols = sorted((i, p) for adj, members in graph.classes for i in members for p in adj)
    b = min(graph.cap, len(students)) + 1
    weight = {1: b * b, 2: b, 3: 1}
    n, m = len(students), len(graph.pools)
    row = [i for i, _ in cols] + [n + p for _, p in cols] + [n + m] * len(cols)
    col = list(range(len(cols))) * 3
    a = sparse.csr_array((np.ones(len(row)), (row, col)), shape=(n + m + 1, len(cols)))
    pinned_rows = {students.index(sid) for sid in pinned}
    lower = [1 if i in pinned_rows else 0 for i in range(n)] + [0] * (m + 1)
    upper = [1] * n + [pool.capacity for pool in graph.pools] + [graph.cap]
    result = optimize.milp(
        c=-np.array([weight[graph.pools[p].rank] for _, p in cols], dtype=float),
        constraints=optimize.LinearConstraint(a, lower, upper),
        integrality=np.ones(len(cols)),
        bounds=optimize.Bounds(0, 1),
        options={"mip_rel_gap": 0},
    )
    assert result.status == 0, result.message
    counts = [0, 0, 0]
    for (_, p), x in zip(cols, result.x):
        counts[graph.pools[p].rank - 1] += round(x)
    return RankSignature(*counts)


def assert_engine_matches_oracle(inst) -> None:
    graph = build_graph(inst)
    top = milp_signature(graph)
    assert signature(RankMaximalMatcher(graph).matching()) == top

    # the greedy definition of ``as``, answered by the oracle alone
    chosen: list[int] = []
    for sid in inst.acceptable:
        if len(chosen) == min(inst.capacity, len(inst.acceptable)):
            break
        if milp_signature(graph, chosen + [sid]) == top:
            chosen.append(sid)
    assert a_s_select(inst).selected == tuple(chosen)


# high-reserve pools: reserves at 1.3x and 1.7x the capacity
@pytest.mark.parametrize(
    ("psi_factor", "capacity", "seed"),
    [("2.0", 40, 9101), ("2.6154", 30, 9102), ("2.6154", 60, 9103)],
)
def test_engine_matches_the_milp_oracle_at_n100(psi_factor, capacity, seed):
    assert_engine_matches_oracle(
        gen_instance(SatGenConfig(capacity=capacity, seed=seed, n_students=100, psi_factor=psi_factor))
    )


def hand_built_pool(seed: int) -> Instance:
    """Random pool with up to 7 sparse types and reserves near the cap."""
    rnd = random.Random(seed)
    n, m = rnd.randint(5, 150), rnd.randint(1, 7)
    cap = rnd.randint(1, n)
    p = rnd.choice([0.1, 0.3, 0.5])
    type_sets = tuple(frozenset(t for t in range(1, m + 1) if rnd.random() < p) for _ in range(n))
    hi = max(1, cap // m * 2)
    rank1 = tuple(rnd.randint(0, hi) for _ in range(m))
    rank2 = tuple(rnd.randint(0, hi) for _ in range(m))
    order = list(range(n))
    rnd.shuffle(order)
    acceptable = rnd.choice([None, None, rnd.randint(0, n)])
    return Instance(gather(type_sets, order), cap, QuotaTable((0, *rank1), (0, *rank2)), acceptable)


# In both pools no rank-maximal matching uses a universal seat.  A
# seat-level chain search once rejected the compatible student that ``as``
# must pick last in both.
@pytest.mark.parametrize("seed", [438, 551])
def test_engine_matches_the_milp_oracle_without_universal_seats(seed):
    inst = hand_built_pool(seed)
    assert signature(RankMaximalMatcher(build_graph(inst)).matching()).rank3 == 0
    assert_engine_matches_oracle(inst)
