import random
import re
from dataclasses import replace

import pytest

from reservematch import (
    Instance,
    Matching,
    QuotaTable,
    RankMaximalMatcher,
    RankSignature,
    SatGenConfig,
    Seat,
    SeatPool,
    build_graph,
    gen_instance,
    signature,
)
from reservematch.algorithms import Outcome, outcome_to_json
from reservematch.graph import _build, _pool_table

from conftest import random_instance
from test_solver import rule_tables


def test_example_graph_shape(example):
    g = build_graph(example)
    assert sum(p.capacity for p in g.pools) == 7  # 4 reserved + 3 universal
    assert g.cap == 3
    assert [tuple(p) for p in g.pools] == [(1, 1, 1), (2, 1, 1), (3, 2, 1), (4, 2, 1), (0, 3, 3)]


def pools_of(g, sid):
    i = g.students.index(sid)
    return [g.pools[p] for adj, members in g.classes if i in members for p in adj]


def test_example_adjacency(example):
    g = build_graph(example)
    # student 3 reaches both rank-1 seats and the type-3 rank-2 seat
    assert {(p.type, p.rank) for p in pools_of(g, 3)} == {(1, 1), (2, 1), (3, 2), (0, 3)}
    # the untyped student only reaches the three universal seats
    assert pools_of(g, 0) == [(0, 3, 3)]


def test_empty_subset(example):
    g = build_graph(example, set())
    assert g.students == ()
    assert sum(p.capacity for p in g.pools) == 7
    assert g.classes == ()


def test_single_student_subset(example):
    g = build_graph(example, {0})
    assert g.students == (0,)
    assert g.classes == (((g.universal_pool,), (0,)),)  # universal seats only
    assert g.pools[g.universal_pool].capacity == 3


def test_subset_must_be_known(example):
    # True and 2.0 hash like students 1 and 2, but no id is a bool or a float
    for subset in ({99}, {True, 2.0}, {0, 1.0}, {3, True}):
        with pytest.raises(ValueError, match="subset contains unknown students"):
            build_graph(example, subset)


def test_subset_must_not_repeat_a_student(example):
    with pytest.raises(ValueError, match=r"subset repeats students: \[0\]"):
        build_graph(example, [0, 0, 1])


@pytest.mark.parametrize("subset, problem", [
    # an id is a position, so the sorted subset's ends bound it to 0..n-1
    ([-1], "subset contains unknown students: [-1]"),
    ([6], "subset contains unknown students: [6]"),
    ([-1, 0, 6], "subset contains unknown students: [-1, 6]"),
    ([7, 2], "subset contains unknown students: [7]"),
    ([5, 5, -2], "subset contains unknown students: [-2]"),
    ([1, 0, 1], "subset repeats students: [1]"),
])
def test_subset_ids_are_positions_in_range(example, subset, problem):
    with pytest.raises(ValueError, match="^" + re.escape(problem) + "$"):
        build_graph(example, subset)
    # in range and unrepeated, the order it comes in does not matter
    kept = sorted({sid for sid in subset if 0 <= sid < example.n_students})
    assert build_graph(example, kept[::-1]) == build_graph(example, set(kept)) == _build(example, kept, None)


def test_signature_counts():
    m = Matching(rows={(1, 1): [4], (2, 1): [3], (0, 3): [0], (3, 2): []})
    assert signature(m) == RankSignature(2, 0, 1)
    assert signature(Matching(rows={})) == RankSignature(0, 0, 0)
    sy2_example = Matching(rows={(4, 2): [1], (3, 2): [2], (1, 1): [3]})
    assert signature(sy2_example) == RankSignature(1, 2, 0)


@pytest.mark.parametrize(
    "key", [(1, 0), (1, True), (1, 5), (1, 2.0), (1,), 5, (None, 3), (True, 1), ("a", 1), (1.0, 2), (1, 3), (0, 1), (0, 2)]
)
def test_signature_refuses_a_rank_it_cannot_count(key):
    # rank 0 was counted as rank 3 and True as rank 1; 5 raised an
    # IndexError and 2.0 a TypeError; a type of None, True, "a" or 1.0 was
    # counted, and outcome_to_json wrote it as given; (1, 3) was counted as
    # rank 3 and (0, 1) and (0, 2) as rank 1 and 2, though no instance has them
    message = re.escape(
        f"signature counts seat rows: pool {key!r} is no (type, rank) pair of ints"
        " with rank 3 for the universal type and 1 or 2 for any other"
    )
    with pytest.raises(ValueError, match=message):
        signature(Matching(rows={(0, 3): [0], key: [1]}))
    with pytest.raises(ValueError, match=message):
        outcome_to_json(Outcome("as", (0, 1), Matching(rows={(0, 3): [0], key: [1]})))


@pytest.mark.parametrize("row", [iter([1]), None, {1}], ids=["iterator", "None", "set"])
def test_signature_refuses_a_row_that_is_no_sequence(row):
    # an iterator or None raised a TypeError, and a set was counted and
    # written with its students in arbitrary seat order
    message = re.escape(f"signature counts seat rows: pool (1, 1) holds a {type(row).__name__}, not a sequence in seat order")
    with pytest.raises(ValueError, match=message):
        signature(Matching(rows={(0, 3): [0], (1, 1): row}))
    with pytest.raises(ValueError, match=message):
        outcome_to_json(Outcome("as", (0, 1), Matching(rows={(0, 3): [0], (1, 1): row})))


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
            for rank, quota in ((1, inst.quotas.rank1), (2, inst.quotas.rank2)):
                q = quota[t]
                pool = [p for p in g.pools if p.type == t and p.rank == rank]
                assert (len(pool) == 1 and pool[0].capacity == q) if q else not pool
        universal = [p for p in g.pools if p.rank == 3]
        assert universal == [(0, 3, inst.capacity)]


def grouped_by_pools(inst, g):
    """Classes recomputed from the instance: students grouped by the pools
    their types reach, in student order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for i, sid in enumerate(g.students):
        types = inst.students[sid].types
        adj = tuple(p for p, pool in enumerate(g.pools) if pool.rank == 3 or pool.type in types)
        groups.setdefault(adj, []).append(i)
    return tuple((adj, tuple(members)) for adj, members in groups.items())


def test_classes_partition_students_by_pools(example):
    rnd = random.Random(12)
    merged = 0
    cases = [(example, None), (example, {1, 3, 5})]
    for _ in range(200):
        inst = random_instance(rnd, max_types=5)
        subset = None if rnd.random() < 0.5 else set(rnd.sample(inst.priority, rnd.randint(0, inst.n_students)))
        cases.append((inst, subset))
    for inst, subset in cases:
        g = build_graph(inst, subset)
        assert g.classes == grouped_by_pools(inst, g)
        merged += len(g.classes) < len({inst.students[sid].types for sid in g.students})
    assert merged  # some type sets reached the same pools


def test_type_sets_reaching_the_same_pools_merge_in_priority_order():
    # type 3 has no seat at either rank, so {1} and {1, 3}, {2} and {2, 3},
    # and {} and {3} each form one class; the positions of {1, 3} (0, 6)
    # and {1} (2, 7) interleave, so the merged class must be sorted, while a
    # class of one type set keeps its group
    inst = Instance(
        type_sets=tuple(map(frozenset, ({1, 3}, (), {1}, {2, 3}, {3}, {2}, {1, 3}, {1}))),
        capacity=4,
        quotas=QuotaTable((0, 1, 1, 0), (0, 0, 1, 0)),
    )
    g = _build(inst, None, None)
    assert g.classes == (((0, 3), (0, 2, 6, 7)), ((3,), (1, 4)), ((1, 2, 3), (3, 5)))
    assert g.classes == grouped_by_pools(inst, g)
    # over chosen positions, grouped afresh: {1, 3} at 0 and 3, {1} at 1 and 4
    g = _build(inst, [0, 2, 3, 6, 7], None)
    assert g.classes == (((0, 3), (0, 1, 3, 4)), ((1, 2, 3), (2,)))
    assert g.classes == grouped_by_pools(inst, g)


def test_a_quota_table_matches_a_replaced_instance():
    # one instance serves graphs under several tables: its own, the tables
    # sy1 and sy2 build, and one with the ranks swapped; each must equal the
    # graph of a fresh instance that holds the table, over the acceptable
    # pool and over chosen positions, with cutoffs and with types that have
    # no seats
    rnd = random.Random(13)
    for _ in range(200):
        inst = random_instance(rnd, max_types=5)
        if rnd.random() < 0.5:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        q, zeros = inst.quotas, (0,) * inst.n_types
        tables = (
            QuotaTable(q.rank1, zeros),
            QuotaTable(tuple(a + b for a, b in zip(q.rank1, q.rank2)), zeros),
            QuotaTable(q.rank2, q.rank1),
            q,
        )
        for quotas in tables:
            positions = sorted(rnd.sample(range(inst.n_students), rnd.randint(0, inst.n_students)))
            subset = set(map(inst.priority.__getitem__, positions))
            assert _build(inst, None, quotas) == build_graph(replace(inst, quotas=quotas))
            assert _build(inst, positions, quotas) == build_graph(replace(inst, quotas=quotas), subset)
        assert build_graph(inst) == build_graph(replace(inst, quotas=q))


def test_positions_graph_equals_the_subset_graph(example):
    # any ascending positions give the graph of the students there, classes
    # ordered by their first member there, which may differ from the order
    # of the cached groups: on generated pools, on the positions sy2's
    # merged scan chooses, on the prefixes pos takes (cut at 0, 1, half the
    # capacity, the capacity and n on generated pools, at every k on the
    # example and on hand-built pools), and on hand-built pools with
    # cutoffs and shuffled priorities
    rnd = random.Random(22)
    cases = [(example, range(k)) for k in range(7)]
    for n, factor in ((30, "1.0"), (100, "2.0"), (800, "2.6154")):
        inst = gen_instance(SatGenConfig(capacity=n // 2, seed=rnd.randrange(2**32), n_students=n, psi_factor=factor))
        merged = rule_tables(inst)[2]
        cases.append((inst, RankMaximalMatcher(_build(inst, None, merged)).select()))
        cases += [(inst, sorted(rnd.sample(range(n), rnd.randint(0, n)))) for _ in range(5)]
        q = rnd.randint(1, n)
        inst = gen_instance(SatGenConfig(capacity=q, seed=rnd.randrange(2**32), n_students=n, psi_factor=factor))
        cases += [(inst, range(k)) for k in (0, 1, q // 2, q, n)]
    for _ in range(300):
        inst = random_instance(rnd, max_students=20, max_types=5)
        if rnd.random() < 0.5:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        k = len(inst.acceptable)
        cases.append((inst, sorted(rnd.sample(range(k), rnd.randint(0, k)))))
        cases += [(inst, range(j)) for j in range(k + 1)]
    reordered = 0
    for inst, positions in cases:
        g = _build(inst, positions, None)
        assert g == build_graph(inst, set(map(inst.acceptable.__getitem__, positions)))
        chosen = set(positions)
        firsts = [min(chosen.intersection(group)) for group in inst.type_groups.values() if not chosen.isdisjoint(group)]
        reordered += firsts != sorted(firsts)
    assert reordered > 20


def reference_pools(quotas, capacity):
    """The pools of a graph, built from the table without any cache."""
    reserve = [SeatPool(t, rank, q) for rank, row in ((1, quotas.rank1), (2, quotas.rank2)) for t, q in enumerate(row) if t and q > 0]
    return (*reserve, SeatPool(0, 3, capacity))


def test_id_subset_graph_equals_its_positions_graph():
    # an id subset becomes its ascending positions, so its graph equals the
    # positions' graph, and both hold the students in priority order
    # grouped by the pools they reach: for the empty subset, a prefix of
    # the acceptable pool, a longer prefix, a subset reaching past the
    # cutoff and the whole priority list; on
    # generated pools and on hand-built ones with shuffled priorities and
    # cutoffs
    rnd = random.Random(24)
    pools = []
    for n, factor in ((30, "1.0"), (100, "2.0"), (400, "2.6154")):
        pools.append(gen_instance(SatGenConfig(capacity=rnd.randint(1, n), seed=rnd.randrange(2**32), n_students=n, psi_factor=factor)))
    for _ in range(200):
        inst = random_instance(rnd, max_types=5)
        if rnd.random() < 0.5:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        pools.append(inst)
    past = 0
    for inst in pools:
        n, cut = inst.n_students, len(inst.acceptable)
        cases = [[], list(range(rnd.randint(0, cut))), list(range(n))]
        cases.append(sorted(rnd.sample(range(n), rnd.randint(0, n))))
        if cut < n:
            cases.append(list(range(rnd.randint(cut + 1, n))))
            cases.append(sorted({*rnd.sample(range(n), rnd.randint(0, n)), rnd.randrange(cut, n)}))
        for positions in cases:
            ids = tuple(map(inst.priority.__getitem__, positions))
            g = build_graph(inst, set(ids))
            assert g == _build(inst, positions, None)
            assert g.students == ids
            assert g.pools == reference_pools(inst.quotas, inst.capacity)
            assert g.classes == grouped_by_pools(inst, g)
            past += bool(positions) and positions[-1] >= cut
    assert past > 100


def test_pool_tables_are_shared_and_equal_a_fresh_build():
    # the pools come from one table per (quota table, capacity), shared by
    # every graph under them; a graph on it equals one built with the cache
    # emptied and the reference pools and classes, under all three rules'
    # tables, with types that have no seat at one or both ranks
    a = gen_instance(SatGenConfig(capacity=40, seed=1, n_students=100, psi_factor="2.0"))
    b = gen_instance(SatGenConfig(capacity=40, seed=2, n_students=100, psi_factor="2.0"))
    assert build_graph(a).pools is build_graph(b).pools
    rnd = random.Random(23)
    cases = [a]
    for _ in range(200):
        inst = random_instance(rnd, max_types=5)
        if rnd.random() < 0.5:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        cases.append(inst)
    empty_rank = 0
    for inst in cases:
        for quotas in rule_tables(inst):
            g = _build(inst, None, quotas)
            _pool_table.cache_clear()
            assert g == _build(inst, None, quotas)
            assert g.pools == reference_pools(quotas, inst.capacity)
            assert g.classes == grouped_by_pools(inst, g)
            empty_rank += any(a == 0 or b == 0 for a, b in zip(quotas.rank1[1:], quotas.rank2[1:]))
    assert empty_rank > 100


def test_matching_repr_shows_the_form_it_was_built_from():
    assert repr(Matching(rows={(1, 1): [4], (0, 3): [0, 5]})) == "Matching(rows={(1, 1): [4], (0, 3): [0, 5]})"
    pairs = frozenset({(4, Seat(1, 1, 0))})
    assert repr(Matching(pairs)) == "Matching(frozenset({(4, Seat(type=1, rank=1, index=0))}))"


def test_a_matching_equals_no_other_kind_of_object():
    m = Matching(rows={(0, 3): [0]})
    assert m.__eq__(object()) is NotImplemented
    assert (m == object()) is False
    assert m != m.pairs  # not even its own pairs


def test_signature_counts_rows():
    m = Matching(rows={(1, 1): [4], (2, 1): (3,), (3, 2): [], (0, 3): [0, 5]})
    assert signature(m) == RankSignature(2, 0, 2)
