import random

import pytest

from reservematch import Matching, RankSignature, Seat, build_graph, signature

from conftest import random_instance


def test_example_graph_shape(example):
    g = build_graph(example)
    assert g.seat_count == 7  # 4 reserved + 3 universal
    assert g.cap == 3
    assert [tuple(p) for p in g.pools] == [(1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1), (0, 3, 3)]


def test_example_adjacency(example):
    g = build_graph(example)
    seats_of = lambda sid: {seat for s, seat in g.edges() if s == sid}
    # student 3 reaches both rank-1 seats and the type-3 rank-2 seat
    assert {(s.type, s.rank) for s in seats_of(3)} == {(1, 1), (2, 1), (3, 2), (0, 3)}
    # the untyped student only reaches the three universal seats
    assert seats_of(0) == {Seat(0, 3, 0), Seat(0, 3, 1), Seat(0, 3, 2)}


def test_empty_subset(example):
    g = build_graph(example, set())
    assert g.students == ()
    assert g.seat_count == 7
    assert list(g.edges()) == []


def test_single_student_subset(example):
    g = build_graph(example, {0})
    assert g.students == (0,)
    assert len(list(g.edges())) == 3  # universal seats only


def test_subset_must_be_known(example):
    with pytest.raises(ValueError):
        build_graph(example, {99})


def test_signature_counts():
    m = Matching(frozenset({(4, Seat(1, 1, 0)), (3, Seat(2, 1, 0)), (0, Seat(0, 3, 0))}))
    assert signature(m) == RankSignature(2, 0, 1)
    assert signature(Matching(frozenset())) == RankSignature(0, 0, 0)
    sy2_example = Matching(
        frozenset({(1, Seat(4, 2, 0)), (2, Seat(3, 2, 0)), (3, Seat(1, 1, 0))})
    )
    assert signature(sy2_example) == RankSignature(1, 2, 0)


def test_signature_order_is_lexicographic():
    assert RankSignature(1, 0, 0) > RankSignature(0, 5, 5)
    assert RankSignature(2, 1, 0) > RankSignature(2, 0, 9)
    assert RankSignature(2, 1, 1) > RankSignature(2, 1, 0)


def test_pools_cover_quotas():
    rnd = random.Random(11)
    for _ in range(40):
        inst = random_instance(rnd)
        g = build_graph(inst)
        for t in range(1, inst.n_types):
            for rank in (1, 2):
                q = inst.quotas.quota(t, rank)
                pool = [p for p in g.pools if p.type == t and p.rank == rank]
                assert (len(pool) == 1 and pool[0].capacity == q) if q else not pool
        universal = [p for p in g.pools if p.rank == 3]
        assert universal == [(0, 3, inst.capacity)]
