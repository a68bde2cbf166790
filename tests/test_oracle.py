import random
from itertools import combinations

import pytest

from reservematch import (
    Instance,
    QuotaTable,
    RankSignature,
    build_graph,
)
from reservematch.solver import InfeasibleForcedError

from oracle import (
    MatchingOracle,
    SizeLimitError,
    oracle_as_select,
    random_small_instance,
)


def two_by_two() -> Instance:
    # two students, two seats of distinct (type, rank) classes, everyone eligible
    return Instance(
        type_sets=(frozenset({1, 2}), frozenset({1, 2})),
        capacity=2,
        quotas=QuotaTable((0, 1, 0), (0, 0, 1)),
    )


def test_two_by_two_matching_count():
    oracle = MatchingOracle(build_graph(two_by_two(), {0, 1}))
    # the 2x2 complete bipartite graph of reserved seats has two perfect
    # matchings, so every student set, the full one included, is covered
    # with both reserved seats filled
    assert oracle.best_signature() == RankSignature(1, 1, 0)
    assert oracle.best_signature({0}) == RankSignature(1, 1, 0)
    assert oracle.best_signature({1}) == RankSignature(1, 1, 0)
    assert oracle.best_signature({0, 1}) == RankSignature(1, 1, 0)
    assert oracle.compatible({0, 1})


def test_enumeration_contains_the_five_rank_maximal_matchings(example):
    oracle = MatchingOracle(build_graph(example))
    best = oracle.best_signature()
    maximal = {
        frozenset(s) for s in combinations(range(6), 3) if oracle.best_signature(set(s)) == best
    }
    # student sets of the five known rank-maximal matchings
    expected = [{1, 3, 4}, {1, 3, 5}, {2, 3, 4}, {2, 3, 5}, {3, 4, 5}]
    assert best == RankSignature(2, 1, 0)
    # the enumeration also finds the sets that seat students 4 and 5 on both
    # rank-1 seats
    assert {frozenset(s) for s in expected} <= maximal
    assert maximal - {frozenset(s) for s in expected} == {frozenset({1, 4, 5}), frozenset({2, 4, 5})}


def test_enumeration_without_edges_uses_universal_seats_only():
    inst = Instance(
        type_sets=(frozenset(),) * 4,
        capacity=3,
        quotas=QuotaTable((0, 1), (0, 1)),
    )
    oracle = MatchingOracle(build_graph(inst))
    for size in range(4):
        for forced in combinations(range(4), size):
            assert oracle.best_signature(set(forced)) == RankSignature(0, 0, 3)
    with pytest.raises(InfeasibleForcedError):
        oracle.best_signature({0, 1, 2, 3})  # the cap binds


def test_enumeration_has_no_duplicates_and_valid_matchings(example):
    rnd = random.Random(21)
    instances = [example] + [random_small_instance(rnd) for _ in range(40)]
    for inst in instances:
        g = build_graph(inst)
        oracle = MatchingOracle(g)
        seats = [0, 0, 0]
        for pool in g.pools:
            seats[pool.rank - 1] += pool.capacity
        top = oracle.best_signature()
        for size in range(len(g.students) + 1):
            for forced in combinations(g.students, size):
                try:
                    sig = oracle.best_signature(set(forced))
                except InfeasibleForcedError:
                    continue
                # a real matching: within the cap and the seats of each rank,
                # covering every forced student, never beating the optimum
                assert size <= sum(sig) <= g.cap
                assert all(c <= s for c, s in zip(sig, seats))
                assert sig <= top
                for sid in set(g.students) - set(forced):
                    try:
                        assert oracle.best_signature({*forced, sid}) <= sig
                    except InfeasibleForcedError:
                        pass


def test_size_limits_enforced():
    big = Instance(
        type_sets=(frozenset(),) * 11,
        capacity=1,
        quotas=QuotaTable((0,), (0,)),
    )
    with pytest.raises(SizeLimitError, match="11 students"):
        MatchingOracle(build_graph(big))
    wide = Instance(
        type_sets=(frozenset(),),
        capacity=2,
        quotas=QuotaTable((0, 6), (0, 5)),
    )
    with pytest.raises(SizeLimitError):
        MatchingOracle(build_graph(wide))


def test_oracle_signature_example(example):
    oracle = MatchingOracle(build_graph(example))
    assert oracle.best_signature() == RankSignature(2, 1, 0)
    assert oracle.best_signature({0, 1, 2}) == RankSignature(0, 2, 1)


def test_oracle_signature_universal_only():
    inst = Instance(
        type_sets=(frozenset(),) * 5,
        capacity=3,
        quotas=QuotaTable((0, 2), (0, 0)),
    )
    assert MatchingOracle(build_graph(inst)).best_signature() == RankSignature(0, 0, 3)


def test_oracle_infeasible_forced(example):
    oracle = MatchingOracle(build_graph(example))
    with pytest.raises(InfeasibleForcedError):
        oracle.best_signature({0, 1, 2, 3})


def test_oracle_greedy_example(example):
    assert oracle_as_select(example) == (1, 3, 4)


def test_oracle_greedy_zero_quotas():
    inst = Instance(
        type_sets=(frozenset({1}),) * 5,
        capacity=2,
        quotas=QuotaTable((0, 0), (0, 0)),
    )
    assert oracle_as_select(inst) == (0, 1)


def test_random_small_instances_are_valid_and_in_bounds():
    rnd = random.Random(77)
    for _ in range(100):
        inst = random_small_instance(rnd)  # an Instance, so checked when built
        g = build_graph(inst)
        assert len(g.students) <= 8
        assert sum(p.capacity for p in g.pools) <= 12
