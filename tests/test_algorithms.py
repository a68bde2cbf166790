import random
from dataclasses import replace

import pytest

from reservematch import (
    ALGORITHMS,
    Instance,
    OutcomeError,
    QuotaTable,
    RankMaximalMatcher,
    RankSignature,
    SatGenConfig,
    Seat,
    a_s_select,
    build_graph,
    ehyy_select,
    evaluate,
    gen_instance,
    pog_select,
    pos_select,
    signature,
    sy1_select,
    sy2_select,
)
from reservematch.algorithms import Outcome
from reservematch.graph import Matching

from conftest import check_outcome, random_instance
from oracle import oracle_as_select, random_small_instance
from test_rule_goldens import many_class_instance


# ---------------------------------------------------------------------------
# golden outcomes on the worked example

def test_golden_a_s(example):
    out = a_s_select(example)
    assert out.selected == (1, 3, 4)
    assert signature(out.matching) == RankSignature(2, 1, 0)
    assert out.matching.pairs == frozenset(
        {(1, Seat(4, 2, 0)), (3, Seat(2, 1, 0)), (4, Seat(1, 1, 0))}
    )


def test_golden_ehyy(example):
    out = ehyy_select(example)
    assert out.selected == (1, 3, 5)
    assert signature(out.matching) == RankSignature(2, 1, 0)
    assert out.matching.pairs == frozenset(
        {(1, Seat(4, 2, 0)), (3, Seat(1, 1, 0)), (5, Seat(2, 1, 0))}
    )


def test_golden_sy1(example):
    out = sy1_select(example)
    assert out.selected == (0, 3, 4)
    assert signature(out.matching) == RankSignature(2, 0, 1)
    assert out.matching.pairs == frozenset(
        {(0, Seat(0, 3, 0)), (3, Seat(2, 1, 0)), (4, Seat(1, 1, 0))}
    )


def test_golden_sy2(example):
    out = sy2_select(example)
    assert out.selected == (1, 2, 3)
    assert signature(out.matching) == RankSignature(1, 2, 0)
    assert out.matching.pairs == frozenset(
        {(1, Seat(4, 2, 0)), (2, Seat(3, 2, 0)), (3, Seat(1, 1, 0))}
    )


def test_golden_priority_only(example):
    pog = pog_select(example)
    pos = pos_select(example)
    expected = frozenset({(0, Seat(0, 3, 0)), (1, Seat(4, 2, 0)), (2, Seat(3, 2, 0))})
    for out in (pog, pos):
        assert out.selected == (0, 1, 2)
        assert signature(out.matching) == RankSignature(0, 2, 1)
        assert out.matching.pairs == expected


# ---------------------------------------------------------------------------
# degenerate cases

def zero_quota_instance(n=6, capacity=3) -> Instance:
    return Instance((frozenset({1}),) * n, capacity, QuotaTable((0, 0), (0, 0)))


def test_zero_quotas_select_the_priority_prefix():
    inst = zero_quota_instance()
    prefix = (0, 1, 2)
    for tag in ALGORITHMS:
        out = ALGORITHMS[tag](inst)
        assert out.selected == prefix, tag
        check_outcome(inst, out)
    assert pog_select(inst).matching.pairs == pos_select(inst).matching.pairs


def test_single_student():
    inst = Instance((frozenset({1}),), 1, QuotaTable((0, 1), (0, 0)))
    for tag in ALGORITHMS:
        out = ALGORITHMS[tag](inst)
        assert out.selected == (0,)
        check_outcome(inst, out)


def test_capacity_beyond_pool_selects_everyone():
    inst = Instance(
        (frozenset(), frozenset({1})),
        5,
        QuotaTable((0, 1), (0, 0)),
    )
    for tag in ALGORITHMS:
        out = ALGORITHMS[tag](inst)
        assert set(out.selected) == {0, 1}
        check_outcome(inst, out)


def test_acceptability_cutoff_restricts_selection(example):
    cut = Instance(
        example.type_sets, example.capacity, example.quotas, acceptable_count=2
    )
    for tag in ALGORITHMS:
        out = ALGORITHMS[tag](cut)
        assert set(out.selected) == {0, 1}, tag
        check_outcome(cut, out)


def test_check_outcome_rejects_a_student_matched_twice(example):
    # the right number of the right students, but student 0 holds two seats
    rows = {(0, 3): [0, 0], (4, 2): [1]}
    with pytest.raises(OutcomeError, match="matched twice"):
        check_outcome(replace(example, acceptable_count=2), Outcome("as", (0, 1), Matching(rows=rows)))


@pytest.mark.parametrize("tag", ALGORITHMS)
def test_an_outcome_that_seats_a_student_twice_ends_in_a_typed_error(tag):
    # ids are priority positions, so a repeated student can come only as a
    # rule's outcome that seats one id twice, which evaluate refuses naming
    # the student with a ValueError subclass
    inst = Instance((frozenset({1}), frozenset({1}), frozenset()), 2, QuotaTable((0, 1), (0, 1)))
    out = ALGORITHMS[tag](inst)
    assert out.selected == (0, 1), tag
    rows = {key: [1 if sid == 0 else sid for sid in row] for key, row in out.matching.rows.items()}
    with pytest.raises(ValueError, match=r"\bstudent 1\b") as raised:
        evaluate(inst, Outcome(tag, (1, 1), Matching(rows=rows)))
    assert type(raised.value) is not ValueError


# ---------------------------------------------------------------------------
# determinism

def test_determinism_of_all_defaults(example):
    for tag in ALGORITHMS:
        a = ALGORITHMS[tag](example)
        b = ALGORITHMS[tag](example)
        assert a.selected == b.selected and a.matching.pairs == b.matching.pairs


# ---------------------------------------------------------------------------
# greedy passes that end before the priority list does

def types_instance(types, rank1, rank2, capacity, acceptable_count=None) -> Instance:
    """Students 0..n-1 in priority order holding the given type sets."""
    return Instance(
        type_sets=tuple(map(frozenset, types)),
        capacity=capacity,
        quotas=QuotaTable(rank1, rank2),
        acceptable_count=acceptable_count,
    )


def test_greedy_rules_when_rank1_seats_fill_early():
    # both rank-1 seats are taken by students 0 and 1; six students remain
    inst = types_instance([{1}, {1, 2}, {2}, {1}, {2}, set(), {1}, {2}], (0, 1, 1), (0, 1, 0), 5)
    expected = frozenset({
        (0, Seat(1, 1, 0)), (1, Seat(2, 1, 0)), (2, Seat(0, 3, 0)),
        (3, Seat(1, 2, 0)), (4, Seat(0, 3, 1)),
    })
    for rule in (ehyy_select, pog_select):
        out = rule(inst)
        assert out.selected == (0, 1, 2, 3, 4)
        assert out.matching.pairs == expected
        check_outcome(inst, out)


def test_type_set_closed_at_rank1_stays_open_at_rank2():
    # {1} closes at rank 1 with student 0; student 1 then takes the rank-2 seat
    inst = types_instance([{1}, {1}, {1}, {2}], (0, 1, 1), (0, 1, 0), 3)
    ehyy = ehyy_select(inst)
    assert ehyy.selected == (0, 1, 3)
    assert ehyy.matching.pairs == frozenset({(0, Seat(1, 1, 0)), (3, Seat(2, 1, 0)), (1, Seat(1, 2, 0))})
    pog = pog_select(inst)
    assert pog.selected == (0, 1, 2)
    assert pog.matching.pairs == frozenset({(0, Seat(1, 1, 0)), (1, Seat(1, 2, 0)), (2, Seat(0, 3, 0))})


def test_greedy_rules_stop_at_the_acceptability_cutoff():
    inst = types_instance([{1}, {1}, {1}, {2}], (0, 1, 1), (0, 1, 0), 3, acceptable_count=2)
    for rule in (ehyy_select, pog_select):
        out = rule(inst)
        assert out.selected == (0, 1)
        assert out.matching.pairs == frozenset({(0, Seat(1, 1, 0)), (1, Seat(1, 2, 0))})
        check_outcome(inst, out)


def naive_pog(inst):
    """Each student of the top-capacity prefix takes an open rank-1 seat of
    its lowest such type, else an open rank-2 seat, else a universal seat."""
    prefix = inst.acceptable[: min(inst.capacity, len(inst.acceptable))]
    used = {1: [0] * inst.n_types, 2: [0] * inst.n_types}
    universal = 0
    pairs = set()
    for sid in prefix:
        seat = None
        for rank, quota in ((1, inst.quotas.rank1), (2, inst.quotas.rank2)):
            for t in sorted(inst.students[sid].types):
                if used[rank][t] < quota[t]:
                    seat = Seat(t, rank, used[rank][t])
                    used[rank][t] += 1
                    break
            if seat is not None:
                break
        if seat is None:
            seat = Seat(0, 3, universal)
            universal += 1
        pairs.add((sid, seat))
    return Outcome("pog", prefix, Matching(frozenset(pairs)))


def naive_ehyy(inst):
    """Three full scans of the pool: open rank-1 seats, open rank-2 seats,
    then universal seats, each scan seating students until the target."""
    pool = inst.acceptable
    target = min(inst.capacity, len(pool))
    seat_of = {}
    for rank, quota in ((1, inst.quotas.rank1), (2, inst.quotas.rank2)):
        used = [0] * inst.n_types
        for sid in pool:
            if sid in seat_of or len(seat_of) == target:
                continue
            open_types = [t for t in sorted(inst.students[sid].types) if used[t] < quota[t]]
            if open_types:
                t = open_types[0]
                seat_of[sid] = Seat(t, rank, used[t])
                used[t] += 1
    for sid in pool:
        if sid not in seat_of and len(seat_of) < target:
            seat_of[sid] = Seat(0, 3, sum(seat.rank == 3 for seat in seat_of.values()))
    selected = tuple(sorted(seat_of))
    return Outcome("ehyy", selected, Matching(frozenset(seat_of.items())))


def test_greedy_rules_match_naive_passes():
    rnd = random.Random(46)
    for i in range(400):
        inst = random_instance(rnd, max_students=30, max_types=5, max_capacity=35)
        if i % 3 == 0:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        assert pog_select(inst) == naive_pog(inst)
        assert ehyy_select(inst) == naive_ehyy(inst)


# ---------------------------------------------------------------------------
# cross-algorithm properties on random instances

def test_structural_invariants_on_random_instances():
    rnd = random.Random(42)
    for _ in range(150):
        inst = random_instance(rnd)
        outs = {tag: ALGORITHMS[tag](inst) for tag in ALGORITHMS}
        for tag, out in outs.items():
            check_outcome(inst, out)

        sigs = {tag: signature(out.matching) for tag, out in outs.items()}
        # the rank-maximal rule dominates everything lexicographically
        assert all(sigs["as"] >= s for s in sigs.values())
        # dropping rank-2 reserves never changes the achievable rank-1 count
        assert sigs["sy1"].rank1 == sigs["as"].rank1
        # the greedy rank-1 pass sits between the optimum and the
        # prefix-restricted greedy
        assert sigs["as"].rank1 >= sigs["ehyy"].rank1 >= sigs["pog"].rank1
        # merging ranks maximizes the total reserve fill
        sy2_total = sigs["sy2"].rank1 + sigs["sy2"].rank2
        assert all(sy2_total >= s.rank1 + s.rank2 for s in sigs.values())
        # ... and reaches the best fill of the merged reserves
        merged = QuotaTable(
            tuple(a + b for a, b in zip(inst.quotas.rank1, inst.quotas.rank2)), (0,) * inst.n_types
        )
        merged_graph = build_graph(replace(inst, quotas=merged))
        assert sy2_total == signature(RankMaximalMatcher(merged_graph).matching()).rank1
        # the priority-only rules agree on the selected prefix
        prefix = inst.acceptable[: min(inst.capacity, len(inst.acceptable))]
        assert outs["pog"].selected == prefix
        assert outs["pos"].selected == prefix
        # optimal re-seating never hurts
        assert sigs["pos"] >= sigs["pog"]


def test_a_s_matches_oracle_replay():
    rnd = random.Random(43)
    for _ in range(200):
        inst = random_small_instance(rnd)
        assert a_s_select(inst).selected == oracle_as_select(inst)


def test_ehyy_equals_a_s_when_everyone_holds_every_type():
    rnd = random.Random(44)
    for _ in range(100):
        n = rnd.randint(1, 10)
        m = rnd.randint(1, 3)
        all_types = frozenset(range(1, m + 1))
        inst = Instance(
            type_sets=(all_types,) * n,
            capacity=rnd.randint(1, 6),
            quotas=QuotaTable(
                (0, *(rnd.randint(0, 2) for _ in range(m))),
                (0, *(rnd.randint(0, 2) for _ in range(m))),
            ),
        )
        assert ehyy_select(inst).selected == a_s_select(inst).selected


def relabeled(inst, rnd):
    """The instance with its real types permuted, quotas and names moving
    with them."""
    m = inst.n_types - 1
    old_type = [0, *rnd.sample(range(1, m + 1), m)]  # new type id -> old
    new_type = [0] * (m + 1)
    for t, old in enumerate(old_type):
        new_type[old] = t
    q = inst.quotas
    return replace(
        inst,
        type_sets=tuple(frozenset(new_type[t] for t in types) for types in inst.type_sets),
        quotas=QuotaTable(tuple(q.rank1[t] for t in old_type), tuple(q.rank2[t] for t in old_type)),
        type_names=None if inst.type_names is None else tuple(inst.type_names[t - 1] for t in old_type[1:]),
    )


def test_label_free_rules_commute_with_relabeling():
    # as, sy1, sy2 and pos are defined by priority, type sets and quotas
    # alone, so renumbering the types keeps their answer, its signature and
    # its metrics; ehyy and pog break ties by type number, so only
    # pos >= pog is checked for them
    rnd = random.Random(45)
    pools = [many_class_instance()[0]]
    for factor in ("1.0", "2.0", "2.6154"):
        for n, count in ((30, 4), (100, 4), (400, 4), (1600, 1), (6400, 1)):
            for _ in range(count):
                config = SatGenConfig(capacity=rnd.randint(1, n), seed=rnd.randrange(2**32), n_students=n, psi_factor=factor)
                pools.append(gen_instance(config))
    for inst in pools:
        other = relabeled(inst, rnd)  # an Instance, so checked when built
        for select in (a_s_select, sy1_select, sy2_select, pos_select):
            a, b = select(inst), select(other)
            assert b.selected == a.selected, a.algorithm
            assert signature(b.matching) == signature(a.matching), a.algorithm
            assert evaluate(other, b) == evaluate(inst, a), a.algorithm
        for each in (inst, other):
            assert signature(pos_select(each).matching) >= signature(pog_select(each).matching)
