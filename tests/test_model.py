import json
import random
import re
from dataclasses import FrozenInstanceError, replace
from itertools import chain
from operator import is_

import pytest

from reservematch import (
    ALGORITHMS,
    Instance,
    QuotaTable,
    SatGenConfig,
    Student,
    build_graph,
    evaluate,
    gen_instance,
    parse_instance,
    serialize_instance,
)
from reservematch.model import InstanceFormatError, _percentile_table, gather

from conftest import Id, Ids, make_example, random_instance


def exactly(*problems):
    """A ``match`` pattern for the message that lists just these problems."""
    return "^" + re.escape("invalid instance: " + "; ".join(problems)) + "$"


def test_example_is_valid(example):
    # building an instance checks every field
    assert replace(example) == example


def test_capacity_must_be_positive(example):
    for capacity in (0, True):
        with pytest.raises(InstanceFormatError, match="capacity"):
            Instance(example.type_sets, capacity, example.quotas)


def test_priority_must_be_permutation(example):
    # the priority is the ids in order, a permutation by construction; a
    # priority passed where the capacity now stands shifts the quota table
    # into the cutoff's place, and construction refuses it
    assert example.priority == (0, 1, 2, 3, 4, 5)
    assert sorted(example.priority) == list(range(example.n_students))
    for priority in ((0, 1, 2, 3, 4), (0, 1, 2, 3, 4, 5), (5, 4, 3, 2, 1, 0)):
        with pytest.raises(InstanceFormatError, match=exactly("quotas: must be a QuotaTable, got a int")):
            Instance(example.type_sets, priority, 3, example.quotas)


@pytest.mark.parametrize("source", ["generated", "parsed", "hand-built", "cut"])
def test_priority_entries_are_student_ids(source):
    # however an instance is built, its priority holds the ids 0..n-1 in
    # order as exact ints, its students carry those ids, and its acceptable
    # students are a prefix of them
    generated = gen_instance(SatGenConfig(capacity=40, seed=4, n_students=100))
    inst = {
        "generated": lambda: generated,
        "parsed": lambda: parse_instance(serialize_instance(generated)),
        "hand-built": lambda: random_instance(random.Random(7)),
        "cut": lambda: replace(generated, acceptable_count=37),
    }[source]()
    n = inst.n_students
    assert inst.priority == tuple(range(n))
    assert all(type(sid) is int for sid in inst.priority)
    assert [s.id for s in inst.students] == list(inst.priority)
    cut = n if inst.acceptable_count is None else inst.acceptable_count
    assert inst.acceptable == inst.priority[:cut]


def test_a_repeated_student_at_capacity_one_is_refused():
    # an old-style priority that repeats student 0 is refused when the
    # instance is built, and so is a subset that repeats them when a graph
    # is built on it
    with pytest.raises(InstanceFormatError, match=exactly("quotas: must be a QuotaTable, got a int")):
        Instance((frozenset(), frozenset()), (0, 0), 1, QuotaTable((0,), (0,)))
    inst = Instance((frozenset(), frozenset()), 1, QuotaTable((0,), (0,)))
    with pytest.raises(ValueError, match=re.escape("subset repeats students: [0]")):
        build_graph(inst, [0, 0])


@pytest.mark.parametrize("quotas, problem", [
    # a float quota once reached the graph, which served it the table of
    # the integer 2 if that was built first
    (QuotaTable((0, 2.0), (0, 0)), "quotas: rank-1 count for type 1 must be a non-negative integer"),
    (QuotaTable((0, 1), (0, None)), "quotas: rank-2 count for type 1 must be a non-negative integer"),
    # a list row built, made as, sy1, sy2 and pos raise TypeError in the
    # graph's table cache, and stayed mutable; the others raised
    # AttributeError
    (QuotaTable([0, 1], [0, 0]), "quotas: rank1 must be a tuple, got a list; quotas: rank2 must be a tuple, got a list"),
    (QuotaTable((0, 1), [0, 0]), "quotas: rank2 must be a tuple, got a list"),
    (((0, 1), (0, 0)), "quotas: must be a QuotaTable, got a tuple"),
    (None, "quotas: must be a QuotaTable, got a NoneType"),
])
def test_quota_entries_are_integers(quotas, problem):
    with pytest.raises(InstanceFormatError, match=exactly(problem)):
        Instance((frozenset({1}), frozenset()), 1, quotas)


def test_universal_type_quota_must_be_zero(example):
    with pytest.raises(InstanceFormatError, match="universal"):
        Instance(example.type_sets, 3, QuotaTable((1, 1, 1, 0, 0), (0, 0, 0, 1, 1)))


def test_undeclared_types_reported(example):
    type_sets = example.type_sets[:3] + (frozenset({9}),) + example.type_sets[4:]
    with pytest.raises(InstanceFormatError, match="undeclared"):
        Instance(type_sets, 3, example.quotas)


def test_undeclared_type_reported_once_for_many_students():
    # 1,000 students all hold type 2 and the universal type 0, but only
    # type 1 is declared: one message per type id, not one per student
    doc = {"capacity": 10, "types": ["t1"], "quotas": {"rank1": [1], "rank2": [0]},
           "students": [[2, 0]] * 1000}
    with pytest.raises(InstanceFormatError) as info:
        parse_instance(json.dumps(doc))
    message = str(info.value)
    assert len(message) < 300, message
    assert "type 2 is undeclared; 1000 student(s) hold it, first student 0" in message
    assert "type 0 is the universal type, which must not be listed; 1000 student(s)" in message


@pytest.mark.parametrize("type_id", [True, 1.0, Ids.ID1, Id(1)])
def test_non_integer_type_ids_reported(example, type_id):
    # {True}, {1.0} and the sets of int twins equal {1}, a declared type
    # that student 4 holds, yet no file can hold them
    type_sets = example.type_sets[:5] + (frozenset({type_id}),)
    problem = f"students: type id {type_id!r} is not an integer; 1 student(s) hold it, first student 5"
    with pytest.raises(InstanceFormatError, match=exactly(problem)):
        Instance(type_sets, 3, example.quotas)


def test_non_integer_type_ids_reported_once_for_many_students():
    # 1,000 students each hold {True, 5}, and the last one also 2.5: one
    # message per bad id, not one per student
    type_sets = [frozenset({True, 5})] * 1000
    type_sets[-1] = frozenset({True, 5, 2.5})
    with pytest.raises(InstanceFormatError) as info:
        Instance(tuple(type_sets), 3, QuotaTable((0, 1), (0, 0)))
    message = str(info.value)
    assert len(message) < 300, message
    assert "type id True is not an integer; 1000 student(s) hold it, first student 0" in message
    assert "type id 2.5 is not an integer; 1 student(s) hold it, first student 999" in message


def test_negative_quota_reported(example):
    for rank1 in ((0, -1, 1, 0, 0), (0, True, 1, 0, 0)):
        with pytest.raises(InstanceFormatError, match="non-negative"):
            Instance(example.type_sets, 3, QuotaTable(rank1, (0, 0, 0, 1, 1)))


def test_priority_round_trip():
    # a file lists the students in priority order, so parsing it gives
    # every student their id back
    rnd = random.Random(5)
    for _ in range(30):
        inst = random_instance(rnd)
        parsed = parse_instance(serialize_instance(inst))
        assert parsed.type_sets == inst.type_sets
        assert parsed.priority is inst.priority == tuple(range(inst.n_students))


def test_acceptable_cutoff():
    inst = make_example()
    cut = Instance(inst.type_sets, 3, inst.quotas, acceptable_count=2)
    assert cut.acceptable == (0, 1)
    assert 0 in cut.acceptable and 2 not in cut.acceptable


EXAMPLE_DOC = """\
{
  "capacity": 3,
  "quotas": {
    "rank1": [1, 1, 0, 0],
    "rank2": [0, 0, 1, 1]
  },
  "students": [[], [4], [3], [1, 2, 3], [1], [2, 3]],
  "types": ["t1", "t2", "t3", "t4"]
}
"""


def test_parse_example_document(example):
    inst = parse_instance(EXAMPLE_DOC)
    assert inst == example


def test_serialize_then_parse_is_identity(example):
    assert parse_instance(serialize_instance(example)) == example


def test_serialize_permutes_into_priority_order(example):
    # ids are priority positions, so the permutation into priority order is
    # the identity: a shuffled pool's students are written in id order,
    # scores with them, and parse back with the same ids
    order = (3, 0, 5, 1, 4, 2)
    shuffled = Instance(
        type_sets=gather(example.type_sets, order),
        capacity=3,
        quotas=example.quotas,
        type_names=example.type_names,
        scores=(6.0, 5.5, 4.0, 3.25, 2.0, 1.0),
    )
    doc = json.loads(serialize_instance(shuffled))
    assert doc["students"] == [sorted(shuffled.type_sets[sid]) for sid in shuffled.priority]
    assert doc["scores"] == list(shuffled.scores)
    relabeled = parse_instance(serialize_instance(shuffled))
    assert relabeled == shuffled
    assert [relabeled.students[i].types for i in range(6)] == [example.type_sets[old] for old in order]


def test_a_parsed_pool_shares_its_type_sets():
    # one object per distinct type set, so Instance checks each set once
    # and not once per student
    inst = gen_instance(SatGenConfig(capacity=50, seed=3))
    parsed = parse_instance(serialize_instance(inst))
    assert len(set(map(id, parsed.type_sets))) <= 8
    assert parsed == inst


def test_parse_then_serialize_is_stable():
    canonical = serialize_instance(parse_instance(EXAMPLE_DOC))
    assert serialize_instance(parse_instance(canonical)) == canonical


def test_unnamed_types_parse_back_named(example):
    unnamed = replace(example, type_names=None)
    parsed = parse_instance(serialize_instance(unnamed))
    assert parsed != unnamed
    assert parsed == replace(unnamed, type_names=("t1", "t2", "t3", "t4"))


@pytest.mark.parametrize("scores", [
    (9.5, 8.0, 7.25, 6.0, 5.0, 1.0),
    (9, 8, 7, 6.5, 5, 1),
    # finite scores whose sum overflows a float
    (1e308, 1e308, 1.7e308, -1e308, 0.0, 5e-324),
])
def test_roundtrip_with_scores_and_cutoff(example, scores):
    inst = Instance(
        example.type_sets,
        example.capacity,
        example.quotas,
        acceptable_count=4,
        type_names=example.type_names,
        scores=scores,
    )
    assert parse_instance(serialize_instance(inst)) == inst


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[1, 2]",
        '{"capacity": 3, "types": [], "quotas": {"rank1": [], "rank2": []}}',
        '{"capacity": 3, "types": ["a"], "quotas": {"rank1": [1], "rank2": [1, 2]}, "students": []}',
        '{"capacity": 3, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[2]]}',
        '{"capacity": 3, "types": ["a"], "quotas": {"rank1": [-1], "rank2": [0]}, "students": [[1]]}',
        # problems only the Instance's own check reports
        '{"capacity": 0, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1]]}',
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1]], "acceptable": -3}',
        # type names are strings
        '{"capacity": 1, "types": [1], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1]]}',
        # JSON booleans are not integers
        '{"capacity": true, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1]]}',
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [true], "rank2": [0]}, "students": [[1]]}',
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[true]]}',
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1]], "acceptable": false}',
        # scores must be numbers
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1], [], []], "scores": [null, 1, 2]}',
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1], [], []], "scores": ["abc", 1, 2]}',
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1], [], []], "scores": [true, 1, 2]}',
        # an integer score too large for a float
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1], [], []], "scores": [%d, 1, 2]}'
        % 10**400,
        # non-finite scores: JSON reads 1e400 as infinity and accepts NaN
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1], [], []], "scores": [1e400, 1, 2]}',
        '{"capacity": 1, "types": ["a"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1], [], []], "scores": [NaN, 1, 2]}',
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(InstanceFormatError):
        parse_instance(text)


def test_parse_names_a_type_name_that_is_no_string():
    # the Instance the file builds refuses it, as it refuses a hand-built one
    text = '{"capacity": 1, "types": [null, {"a": 1}], "quotas": {"rank1": [1, 0], "rank2": [0, 0]}, "students": [[1]]}'
    with pytest.raises(InstanceFormatError, match=exactly("type_names[0] must be a string, got None")):
        parse_instance(text)


def test_percentile_table_is_shared_per_size():
    # generated, parsed and hand-built instances of one size share one
    # priority tuple and one percentile table, whose values are
    # 100 (n - id) / n bit for bit and whose keys are that tuple's objects;
    # every rule selects and seats those objects too, so evaluate finds its
    # keys by identity.  n is past the small ints that CPython shares, so
    # a table or a selection built from fresh ints fails here
    n = 400
    rnd = random.Random(33)
    a = gen_instance(SatGenConfig(capacity=100, seed=1, n_students=n))
    b = gen_instance(SatGenConfig(capacity=300, seed=2, n_students=n, psi_factor="2.0"))
    hand_built = Instance(
        tuple(frozenset(t for t in (1, 2, 3, 4) if rnd.random() < 0.3) for _ in range(n)),
        150,
        QuotaTable((0, 20, 10, 5, 0), (0, 10, 10, 0, 5)),
        acceptable_count=320,
    )
    ids, table = a.priority, _percentile_table(n)
    assert ids == tuple(range(n))
    assert [x.hex() for x in table.values()] == [(100.0 * (n - sid) / n).hex() for sid in range(n)]
    assert all(map(is_, table, ids))
    for inst in (a, b, parse_instance(serialize_instance(b)), hand_built):
        assert inst.priority is ids and _percentile_table(inst.n_students) is table
        for rule in ALGORITHMS.values():
            out = rule(inst)
            seated = [*chain.from_iterable(out.matching.rows.values())]
            assert all(map(is_, out.selected, gather(ids, out.selected))), out.algorithm
            assert all(map(is_, seated, gather(ids, seated))), out.algorithm
    assert _percentile_table(n + 1) is not table


def test_percentile_table_of_hand_built_instances():
    # instances with cutoffs read the table of their size, over every
    # student, and evaluate's p3 is the mean of its entries over the
    # selection
    rnd = random.Random(31)
    for _ in range(100):
        inst = random_instance(rnd, max_students=20)
        if rnd.random() < 0.5:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        n = inst.n_students
        assert _percentile_table(n) == {sid: 100.0 * (n - sid) / n for sid in range(n)}
        for rule in ALGORITHMS.values():
            out = rule(inst)
            pcts = [100.0 * (n - sid) / n for sid in out.selected]
            assert evaluate(inst, out).p3 == (sum(pcts) / len(pcts) if pcts else 0.0)


@pytest.mark.parametrize("seq", [
    (10, 11, 12, 13, 14),
    [10, 11, 12, 13, 14],
    {0: 10, 1: 11, 2: 12, 3: 13, 4: 14},
], ids=["tuple", "list", "dict"])
@pytest.mark.parametrize("indices", [[], range(0), [3], range(2, 3), [4, 0, 2], range(1, 5), [2, 2]])
def test_gather_equals_the_generator(seq, indices):
    # itemgetter returns a bare item for one index; gather still a tuple
    assert gather(seq, indices) == tuple(seq[i] for i in indices)
    assert type(gather(seq, indices)) is tuple


def test_types_of_lists_each_student_type_set_by_id():
    # the student view holds the instance's own type sets, and the grouping
    # built from them equals one built from the view: on generated pools
    # and on hand-built ones with shuffled priorities and cutoffs
    rnd = random.Random(32)
    pools = [
        gen_instance(SatGenConfig(capacity=n // 2, seed=rnd.randrange(2**32), n_students=n, psi_factor=factor))
        for n, factor in ((30, "1.0"), (100, "2.0"), (400, "2.6154"))
    ]
    for _ in range(200):
        inst = random_instance(rnd, max_types=5)
        if rnd.random() < 0.5:
            inst = replace(inst, acceptable_count=rnd.randint(0, inst.n_students))
        pools.append(inst)
    for inst in pools:
        assert all(inst.type_sets[s.id] is s.types for s in inst.students)
        expected: dict = {}
        for pos, sid in enumerate(inst.acceptable):
            expected.setdefault(inst.students[sid].types, []).append(pos)
        assert inst.type_groups == expected
        assert list(inst.type_groups) == list(expected)


@pytest.mark.parametrize("type_id", [True, 1.0])
def test_a_non_integer_type_id_is_found_among_shared_type_sets(type_id):
    # a generated pool's students share a few type set objects, which the
    # check tests once each; {True} and {1.0} equal {1} but are objects of
    # their own, so one is found between students who hold {1}
    inst = gen_instance(SatGenConfig(capacity=50, seed=4, n_students=100))
    holders = [sid for sid, types in enumerate(inst.type_sets) if types == {1}]
    sid = holders[len(holders) // 2]
    type_sets = (*inst.type_sets[:sid], frozenset({type_id}), *inst.type_sets[sid + 1:])
    problem = f"students: type id {type_id!r} is not an integer; 1 student(s) hold it, first student {sid}"
    with pytest.raises(InstanceFormatError, match=exactly(problem)):
        replace(inst, type_sets=type_sets)


def test_type_set_that_is_not_a_frozenset_reported(example):
    # a set is unhashable, so grouping by type set would raise TypeError;
    # the check counts such entries by kind and names the first of each
    type_sets = (frozenset(), {4}, {3}, [1, 2, 3], frozenset({1}), {2, 3})
    problems = (
        "type_sets: 1 entry(s) are a list, not a frozenset; first type_sets[3]",
        "type_sets: 3 entry(s) are a set, not a frozenset; first type_sets[1]",
    )
    with pytest.raises(InstanceFormatError, match=exactly(*problems)):
        Instance(type_sets, 3, example.quotas)


def test_rules_never_build_the_student_view():
    # the pool path reads type_sets alone; the view, once read, lists
    # Student(i, type_sets[i]) for every id and cannot be replaced
    generated = gen_instance(SatGenConfig(capacity=40, seed=3, n_students=100, psi_factor="2.0"))
    for inst in (generated, parse_instance(serialize_instance(generated)), parse_instance(EXAMPLE_DOC)):
        for rule in ALGORITHMS.values():
            evaluate(inst, rule(inst))
        assert "students" not in vars(inst)
        assert inst.students == tuple(Student(i, inst.type_sets[i]) for i in range(inst.n_students))
        assert "students" in vars(inst)
        with pytest.raises(FrozenInstanceError):
            inst.students = ()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"quotas": QuotaTable((), ())}, "quotas: must cover at least the universal type"),
        ({"type_names": ("t1",)}, "type_names: must name every non-universal type"),
        ({"scores": (1.0, 2.0)}, "scores: must have one entry per student"),
        # a list is refused, not converted: it would stay mutable
        ({"type_sets": list(make_example().type_sets)}, "type_sets: must be a tuple, got a list"),
        # a cutoff past the last position, which no student holds
        ({"acceptable_count": 7}, "acceptable_count: must be an integer in [0, 6], got 7"),
        ({"type_names": ["t1", "t2", "t3", "t4"], "scores": [1.0] * 6},
         "type_names: must be a tuple, got a list; scores: must be a tuple, got a list"),
        # what a file cannot hold: these built, and their files did not parse
        ({"type_names": (7,)}, "type_names[0] must be a string, got 7"),
        ({"scores": (None, 1.0, 2.0, 3.0, 4.0, 5.0)}, "scores[0] must be a finite number, got None"),
        ({"scores": (6, 5, True, 3, 2, 1)}, "scores[2] must be a finite number, got True"),
        ({"scores": (6.0, float("nan"), 4, 3, 2, 1)}, "scores[1] must be a finite number, got nan"),
        ({"scores": (6, 5, 4, 3, 2, -float("inf"))}, "scores[5] must be a finite number, got -inf"),
        ({"scores": (10**400, 5, 4, 3, 2, 1)}, "scores[0] must be a finite number"),
    ],
)
def test_validate_reports_table_lengths(example, change, message):
    # with no type slots, the students' types are undeclared as well
    with pytest.raises(InstanceFormatError, match=re.escape(message)):
        replace(example, **change)


@pytest.mark.parametrize(
    "doc, message",
    [
        ({"types": "t1"}, "field 'types' must be list"),
        ({"quotas": {"rank1": [1]}}, "quotas must contain rank1 and rank2 arrays"),
        ({"students": [[1], 2]}, r"students\[1\] must be a list of type ids"),
        ({"scores": 5}, "scores must be a list"),
    ],
)
def test_parse_names_a_field_of_the_wrong_shape(doc, message):
    base = {"capacity": 1, "types": ["t1"], "quotas": {"rank1": [1], "rank2": [0]}, "students": [[1], []]}
    with pytest.raises(InstanceFormatError, match=f"^{message}$"):
        parse_instance(json.dumps({**base, **doc}))
