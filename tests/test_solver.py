import random
from dataclasses import replace

import pytest

from reservematch import (
    Instance,
    QuotaTable,
    RankSignature,
    SatGenConfig,
    Seat,
    build_graph,
    gen_instance,
    signature,
)
from reservematch.graph import _build
from reservematch.model import gather
from reservematch.solver import InfeasibleForcedError, RankMaximalMatcher

from conftest import make_example, random_instance
from oracle import MatchingOracle, random_small_instance
from test_rule_goldens import many_class_instance


def is_compatible(graph, forced) -> bool:
    """Fresh-solve reference for ``try_force``: whether some matching keeps
    the unconstrained rank-maximal signature while matching every student
    in ``forced``."""
    try:
        constrained = RankMaximalMatcher(graph, forced).matching()
    except InfeasibleForcedError:
        return False
    return signature(constrained) == signature(RankMaximalMatcher(graph).matching())


def test_unconstrained_signature(example):
    assert signature(RankMaximalMatcher(build_graph(example)).matching()) == RankSignature(2, 1, 0)


def test_forced_final_matching_is_unique(example):
    g = build_graph(example)
    m = RankMaximalMatcher(g, {1, 3, 4}).matching()
    # the only rank-maximal seating of these three students
    assert m.pairs == frozenset(
        {(1, Seat(4, 2, 0)), (3, Seat(2, 1, 0)), (4, Seat(1, 1, 0))}
    )


def test_forcing_the_top_three_drops_a_rank_one_seat(example):
    g = build_graph(example)
    assert signature(RankMaximalMatcher(g, {0, 1, 2}).matching()) == RankSignature(0, 2, 1)


def test_forced_students_always_matched(example):
    g = build_graph(example)
    for forced in ({0}, {0, 5}, {2, 4}, {0, 1, 2}):
        m = RankMaximalMatcher(g, forced).matching()
        assert forced <= {sid for sid, _ in m.pairs}


def test_infeasible_when_forced_exceeds_cap(example):
    g = build_graph(example)
    with pytest.raises(InfeasibleForcedError):
        RankMaximalMatcher(g, {0, 1, 2, 3}).matching()
    assert not is_compatible(g, {0, 1, 2, 3})


def test_compatibility_examples(example):
    g = build_graph(example)
    assert is_compatible(g, set())
    assert is_compatible(g, {1})
    assert not is_compatible(g, {1, 2})


def test_matching_size_is_min_of_cap_and_students(example):
    g = build_graph(example)
    assert len(RankMaximalMatcher(g).matching()) == 3
    small = build_graph(example, {0, 1})
    assert len(RankMaximalMatcher(small).matching()) == 2


def test_determinism(example):
    g = build_graph(example)
    a = RankMaximalMatcher(g, {0, 1}).matching()
    b = RankMaximalMatcher(build_graph(make_example()), {0, 1}).matching()
    assert a.pairs == b.pairs


def test_signature_matches_oracle_on_random_instances():
    rnd = random.Random(210)
    for _ in range(150):
        inst = random_small_instance(rnd)
        g = build_graph(inst)
        assert signature(RankMaximalMatcher(g).matching()) == MatchingOracle(g).best_signature()


def test_forced_signature_and_compatibility_match_oracle():
    rnd = random.Random(211)
    for _ in range(150):
        inst = random_small_instance(rnd)
        g = build_graph(inst)
        oracle = MatchingOracle(g)
        students = list(g.students)
        for _ in range(4):
            size = rnd.randint(0, min(len(students), inst.capacity))
            forced = frozenset(rnd.sample(students, size))
            m = RankMaximalMatcher(g, forced).matching()
            assert forced <= {sid for sid, _ in m.pairs}
            assert signature(m) == oracle.best_signature(forced)
            assert is_compatible(g, forced) == oracle.compatible(forced)


def test_forcing_never_improves_the_signature():
    rnd = random.Random(212)
    for _ in range(100):
        inst = random_small_instance(rnd)
        g = build_graph(inst)
        top = signature(RankMaximalMatcher(g).matching())
        students = list(g.students)
        size = rnd.randint(0, min(len(students), inst.capacity))
        forced = frozenset(rnd.sample(students, size))
        constrained = signature(RankMaximalMatcher(g, forced).matching())
        assert constrained <= top
        assert is_compatible(g, forced) == (constrained == top)


def test_try_force_agrees_with_naive_compatibility():
    # the incremental pinning used by the greedy rules must answer exactly
    # like a fresh constrained solve, state updates included; the generated
    # pools have few classes, so most of them are rejected many times
    rnd = random.Random(213)
    instances = [random_small_instance(rnd) for _ in range(150)]
    instances += [
        gen_instance(SatGenConfig(capacity=capacity, seed=seed, psi_factor=factor))
        for capacity in (20, 60)
        for factor in (1.0, 2.6154)
        for seed in (5, 6)
    ]
    for inst in instances:
        g = build_graph(inst)
        top = signature(RankMaximalMatcher(g).matching())
        matcher = RankMaximalMatcher(g)
        pinned: list[int] = []
        for sid in inst.acceptable:
            if len(pinned) == matcher.target_size:
                break
            expected = is_compatible(g, pinned + [sid])
            got = matcher.try_force(sid)
            assert got == expected
            if got:
                pinned.append(sid)
                assert signature(matcher.matching()) == top
                assert set(pinned) <= set(matcher.matched_students())


def high_reserve_instance(rnd: random.Random):
    """Sparse membership, reserves well above the cap: stresses the
    reconfiguration chains (free-slot entry repaid elsewhere)."""
    n = rnd.randint(2, 8)
    m = rnd.randint(1, 3)
    cap = rnd.randint(1, 3)
    while True:
        rank1 = [rnd.randint(0, 3) for _ in range(m)]
        rank2 = [rnd.randint(0, 3) for _ in range(m)]
        reserves = sum(rank1) + sum(rank2)
        if reserves and reserves + cap <= 12:
            break
    type_sets = tuple(
        frozenset(t for t in range(1, m + 1) if rnd.random() < 0.35)
        for _ in range(n)
    )
    order = list(range(n))
    rnd.shuffle(order)
    return Instance(gather(type_sets, order), cap, QuotaTable((0, *rank1), (0, *rank2)))


# 466 and 714 start with pools where pinning needs a zero-cost cycle through
# T: the student enters a free seat of some rank while a seat of the same
# rank is released elsewhere; keep them pinned alongside a spread of
# ordinary seeds
@pytest.mark.parametrize("base", [55_000, 55_200, 55_400, 55_466, 55_714])
def test_try_force_matches_oracle_in_the_high_reserve_regime(base):
    for offset in range(60):
        rnd = random.Random(base + offset)
        inst = high_reserve_instance(rnd)
        g = build_graph(inst)
        oracle = MatchingOracle(g)
        top = signature(RankMaximalMatcher(g).matching())
        assert top == oracle.best_signature()
        matcher = RankMaximalMatcher(g)
        pinned: list[int] = []
        for sid in inst.acceptable:
            if len(pinned) == matcher.target_size:
                break
            want = oracle.compatible(set(pinned) | {sid})
            assert matcher.try_force(sid) == want
            if want:
                pinned.append(sid)
                assert signature(matcher.matching()) == top
        assert tuple(pinned) == oracle.greedy_selection()


def test_matcher_seats_are_well_formed(example):
    g = build_graph(example)
    m = RankMaximalMatcher(g).matching()
    seats = [seat for _, seat in m.pairs]
    assert len(set(seats)) == len(seats)
    for sid, seat in m.pairs:
        pool = [p for p in g.pools if p.type == seat.type and p.rank == seat.rank]
        assert pool and 0 <= seat.index < pool[0].capacity


def test_forced_student_outside_the_graph_is_rejected(example):
    g = build_graph(example, {0, 1, 4})
    # 3 falls between the graph's ids; True and 1.0 hash like student 1,
    # but no id is a bool or a float
    for forced in ([3], [0, 99], [-1], [True], [0, 1.0]):
        with pytest.raises(ValueError, match="not in the graph"):
            RankMaximalMatcher(g, forced)
    for sid in (3, -1, True, 1.0):
        with pytest.raises(ValueError, match=f"forced student {sid} is not in the graph"):
            RankMaximalMatcher(g).try_force(sid)


def test_duplicate_forced_ids_count_once(example):
    g = build_graph(example)
    # four entries but two students: within the cap of 3
    assert RankMaximalMatcher(g, [1, 3, 1, 3]).matching() == RankMaximalMatcher(g, [1, 3]).matching()
    assert RankMaximalMatcher(g, [0, 0, 0, 0, 5]).matching() == RankMaximalMatcher(g, [0, 5]).matching()


def test_try_force_with_everyone_pinned_accepts(example):
    rnd = random.Random(214)
    cases = [(example, (1, 3, 4))]
    for _ in range(50):
        inst = random_small_instance(rnd)
        cases.append((inst, inst.acceptable[: inst.capacity]))
    for inst, chosen in cases:
        g = build_graph(inst, set(chosen))
        matcher = RankMaximalMatcher(g, chosen)
        before = matcher.matching()
        assert all(matcher.try_force(sid) for sid in chosen)
        assert matcher.matching() == before
        assert matcher.matched_students() == g.students


@pytest.mark.parametrize(
    "forced, matched",
    [
        ((), (0, 1, 2, 3)),  # no pins: the top four by priority
        ((2, 3, 4, 5), (2, 3, 4, 5)),  # every matched unit pinned
        ((5,), (0, 1, 2, 5)),  # the last member pinned, then the top three
    ],
)
def test_a_class_matches_its_pins_then_its_top_members(forced, matched):
    # one class of six students holding type 1, whose two rank-1 seats come
    # before the universal ones; the cap of four leaves two unmatched
    inst = Instance(
        type_sets=(frozenset({1}),) * 6,
        capacity=4,
        quotas=QuotaTable((0, 2), (0, 0)),
    )
    g = build_graph(inst)
    assert len(g.classes) == 1
    matchers = [RankMaximalMatcher(g, forced)]
    if len(forced) == 1:  # the scan's way to the same pin
        matchers.append(RankMaximalMatcher(g))
        assert matchers[1].try_force(forced[0])
    for matcher in matchers:
        assert matcher.matched_students() == matched
        # the class fills the rank-1 pool first; each pool seats by priority
        assert matcher.matching().pairs == {
            (matched[0], Seat(1, 1, 0)),
            (matched[1], Seat(1, 1, 1)),
            (matched[2], Seat(0, 3, 0)),
            (matched[3], Seat(0, 3, 1)),
        }


def scan_by_try_force(matcher, students) -> tuple:
    """The rules' scan as a caller pinning by id runs it: one ``try_force``
    per student, in priority order, until the target size is chosen."""
    chosen = []
    for sid in students:
        if len(chosen) == matcher.target_size:
            break
        if matcher.try_force(sid):
            chosen.append(sid)
    return tuple(chosen)


def rule_tables(inst) -> list:
    """The quota tables the scanning rules select under: the instance's
    (``as``), rank 2 dropped (``sy1``) and both ranks merged (``sy2``)."""
    q = inst.quotas
    zero = (0,) * q.n_types
    return [q, QuotaTable(q.rank1, zero), QuotaTable(tuple(map(sum, zip(q.rank1, q.rank2))), zero)]


def test_select_equals_the_try_force_scan(example):
    # the engine's scan over positions, which pushes a class's last cycle
    # again unsearched, must choose, seat and leave residuals exactly like
    # the per-student pins, which search every time: on generated pools up
    # to n=6400 under all three rules' tables, on the many-class golden
    # pool and a hand-built pool of 1,450 classes, on hand-built
    # pools with cutoffs, up to 10 types and shuffled priorities, and
    # after pins made at construction
    rnd = random.Random(215)
    cases = [
        (gen_instance(SatGenConfig(capacity=capacity, seed=seed, psi_factor=factor)), (), None)
        for capacity in (20, 60)
        for factor in (1.0, 2.6154)
        for seed in (7, 8)
    ]
    for _ in range(300):
        inst = random_instance(rnd, max_students=30, max_types=10, max_capacity=12)
        if rnd.random() < 0.5:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        cases.append((inst, (), None))
    late = gen_instance(SatGenConfig(capacity=20, seed=9, psi_factor=2.6154))
    cases += [(example, (5,), None), (late, late.acceptable[-3:], None)]
    large = [many_class_instance()[0], many_type_instance()]
    for n in (800, 6400):
        for factor in ("1.0", "2.0", "2.6154"):
            large.append(gen_instance(SatGenConfig(capacity=n // 2, seed=n + 1, n_students=n, psi_factor=factor)))
    cases += [(inst, (), quotas) for inst in large for quotas in rule_tables(inst)]
    rejected = 0
    for inst, forced, quotas in cases:
        g = _build(inst, None, quotas)
        fast, slow = RankMaximalMatcher(g, forced), RankMaximalMatcher(g, forced)
        chosen = tuple(map(g.students.__getitem__, fast.select()))
        assert chosen == scan_by_try_force(slow, g.students)
        assert fast.matching().rows == slow.matching().rows
        assert fast._res == slow._res
        assert set(forced) <= set(chosen)
        rejected += chosen != g.students[: len(chosen)]
    assert rejected > 50  # a quarter of the scans skip a student


def many_type_instance() -> Instance:
    """1,600 students each holding each of 16 types with probability 0.3,
    capacity 800 and 20 seats per type and rank: 1,450 classes."""
    rnd = random.Random(0)
    type_sets = tuple(frozenset(t for t in range(1, 17) if rnd.random() < 0.3) for _ in range(1600))
    return Instance(type_sets, 800, QuotaTable((0,) + (20,) * 16, (0,) + (20,) * 16))


def chosen_in_one_pass(matcher, c) -> tuple:
    """Reference for ``_chosen``: the pinned members of class ``c`` and its
    first ``extra`` unpinned ones, picked in one pass over its members."""
    pinned, extra = matcher._pinned, matcher._res[2 * c + 1]
    chosen = []
    for i in matcher._members[c]:
        if pinned[i] or extra:
            extra -= not pinned[i]
            chosen.append(i)
    return tuple(chosen)


def test_matched_members_equal_the_one_pass_pick():
    # _chosen slices a class whose pins are its first members and picks
    # any other one in one pass; both must give the reference pick, after
    # select() and after seeded random try_force orders, from an unpinned
    # start and from one with half the cap pinned, on generated pools up to
    # n=800 under all three rules' tables and on hand-built pools with
    # cutoffs and shuffled priorities
    rnd = random.Random(233)
    graphs = []
    for n, factor in ((30, "1.0"), (100, "2.6154"), (800, "2.0")):
        inst = gen_instance(SatGenConfig(capacity=n // 2, seed=rnd.randrange(2**32), n_students=n, psi_factor=factor))
        graphs += [_build(inst, None, quotas) for quotas in rule_tables(inst)]
    for _ in range(150):
        inst = random_instance(rnd, max_students=20, max_types=5, max_capacity=10)
        if rnd.random() < 0.5:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        graphs.append(build_graph(inst))
    sliced = picked = 0
    for g in graphs:
        half = rnd.sample(g.students, min(g.cap, len(g.students)) // 2)
        for forced in ((), half):
            by_scan = RankMaximalMatcher(g, forced)
            by_scan.select()
            by_pins = RankMaximalMatcher(g, forced)
            order = list(g.students)
            rnd.shuffle(order)
            for sid in order[: rnd.randint(0, len(order))]:
                by_pins.try_force(sid)
            for matcher in (RankMaximalMatcher(g, forced), by_scan, by_pins):
                for c, members in enumerate(matcher._members):
                    pins = sum(matcher._pinned[i] for i in members)
                    if all(matcher._pinned[i] for i in members[:pins]):
                        sliced += 1
                    else:
                        picked += 1
                    assert tuple(matcher._chosen(c)) == chosen_in_one_pass(matcher, c)
            if not forced:  # a scan from an unpinned start pins a prefix of each class
                assert all(all(by_scan._pinned[i] for i in m[: sum(map(by_scan._pinned.__getitem__, m))])
                           for m in by_scan._members)
    assert sliced > 2000 and picked > 200
