"""Seeded fuzzing of the records that check themselves when built, and of
the ids that ``evaluate`` and ``build_graph`` are handed.

Each case changes one scalar or one entry of a valid ``Instance``,
``SatGenConfig`` or ``ExperimentSpec``.  Building the result either raises
the record's ``ValueError`` subclass with a message that names the changed
field, or yields a record that every rule and ``evaluate`` run on and that
survives the file format.  An id of a valid outcome or subset changed to
its int twin is refused with a ``ValueError`` that names it.  A seated
student of a valid outcome moved to another pool, or replaced by another
student, gives an outcome that ``evaluate`` refuses exactly when a count
apart from it finds the seating invalid, and otherwise scores as that
count does.  Any other exception, a ``TypeError``, ``IndexError`` or
``KeyError`` above all, fails the test.
"""

import math
import random
from dataclasses import replace

import pytest

from reservematch import (
    ALGORITHMS,
    InstanceFormatError,
    Matching,
    OutcomeError,
    QuotaTable,
    SatGenConfig,
    SettingsError,
    build_graph,
    evaluate,
    gen_instance,
    parse_instance,
    serialize_instance,
)
from reservematch.algorithms import Outcome
from reservematch.experiment import ExperimentSpec, run_experiment

from conftest import Id, Ids, random_instance

PROBES = (0, -1, 2.0, True, None)


def twin(rnd, value):
    """An object equal to the int ``value`` that is not an ``int``: a
    member of an ``int`` subclass or of an ``IntEnum``."""
    return rnd.choice((Id, Ids))(value)


def run_rules(instance):
    for rule in ALGORITHMS.values():
        evaluate(instance, rule(instance))


def assert_round_trips(instance):
    """``instance`` survives its file as README's "Files" says: exactly,
    but for unnamed types, which come back named t1..tk."""
    names = instance.type_names or tuple(f"t{t}" for t in range(1, instance.n_types))
    assert parse_instance(serialize_instance(instance)) == replace(instance, type_names=names)


def changed_entry(rnd, entries, values):
    """``entries`` with one entry, at a random index, set to a value drawn
    from ``values``."""
    entries = list(entries)
    entries[rnd.randrange(len(entries))] = rnd.choice(values)
    return tuple(entries)


def instance_change(rnd, inst):
    """One changed field of ``inst`` as (fields for ``replace``, the word a
    refusal must name)."""
    n, m = inst.n_students, inst.n_types - 1
    kind = rnd.randrange(9)
    if kind == 0:  # a scalar, the cutoff included
        field = rnd.choice(("capacity", "acceptable_count"))
        return {field: rnd.choice((*PROBES, n + 1, "1"))}, field
    if kind == 1:  # a non-integer, negative or universal quota entry
        rank = rnd.choice(("rank1", "rank2"))
        row = list(getattr(inst.quotas, rank))
        t = rnd.randrange(len(row))
        row[t] = rnd.choice((*PROBES, 1, float(row[t]), "1"))
        return {"quotas": replace(inst.quotas, **{rank: tuple(row)})}, "quotas"
    if kind == 2:  # an undeclared or non-integer type id
        sid = rnd.randrange(n)
        extra = rnd.choice((0, -1, m + 1, True, 1.0, 2.5, "1", None))
        type_sets = (*inst.type_sets[:sid], inst.type_sets[sid] | {extra}, *inst.type_sets[sid + 1:])
        return {"type_sets": type_sets}, "students"
    if kind == 3:  # a type set that is not a frozenset
        sid = rnd.randrange(n)
        entry = rnd.choice((set, list, tuple, sorted, lambda ts: None))(inst.type_sets[sid])
        return {"type_sets": (*inst.type_sets[:sid], entry, *inst.type_sets[sid + 1:])}, "type_sets"
    if kind == 4 and any(inst.type_sets):  # an int twin of a type id; with none held, the last kind
        sid = rnd.choice([sid for sid, types in enumerate(inst.type_sets) if types])
        t = rnd.choice(sorted(inst.type_sets[sid]))
        type_sets = (*inst.type_sets[:sid], inst.type_sets[sid] - {t} | {twin(rnd, t)}, *inst.type_sets[sid + 1:])
        return {"type_sets": type_sets}, "students"
    if kind == 5:  # a list in place of a tuple field or a quota row, or quotas that are no QuotaTable
        field = rnd.choice(("type_sets", "type_names", "scores", "quotas"))
        if field == "quotas":
            q = inst.quotas
            return {"quotas": rnd.choice((QuotaTable(list(q.rank1), q.rank2), QuotaTable(q.rank1, list(q.rank2)),
                                          (q.rank1, q.rank2), None))}, "quotas"
        return {field: list(getattr(inst, field) or ())}, field
    if kind == 6:  # a type name that is no string
        return {"type_names": changed_entry(rnd, inst.type_names, (7, None, b"t1", 1.5))}, "type_names"
    if kind == 7:  # a score that is no finite number
        values = (None, "1", True, math.nan, math.inf, -math.inf, 10**400, 7, 0.5)
        return {"scores": changed_entry(rnd, inst.scores, values)}, "scores"
    # rank tables of unequal length
    q = inst.quotas
    table = QuotaTable(q.rank1 + (0,), q.rank2) if rnd.random() < 0.5 else QuotaTable(q.rank1, q.rank2[:-1])
    return {"quotas": table}, "quotas"


def test_a_changed_instance_is_refused_or_works():
    rnd = random.Random(2910)
    refused = built = 0
    for _ in range(1500):
        base = random_instance(rnd, max_students=10)
        if rnd.random() < 0.3:
            base = replace(base, acceptable_count=rnd.randint(0, base.n_students))
        base = replace(base, type_names=tuple(f"type {t}" for t in range(1, base.n_types)),
                       scores=tuple(rnd.uniform(0, 100) for _ in range(base.n_students)))
        fields, name = instance_change(rnd, base)
        try:
            inst = replace(base, **fields)
        except InstanceFormatError as exc:
            assert name in str(exc), (fields, str(exc))
            refused += 1
            continue
        run_rules(inst)
        assert_round_trips(inst)
        built += 1
    assert refused > 1000 and built > 100


def test_a_changed_pool_setting_is_refused_or_works():
    rnd = random.Random(2911)
    refused = built = 0
    for _ in range(400):
        n = rnd.randint(1, 20)
        fields = {"capacity": rnd.randint(1, n), "seed": rnd.randrange(2**32), "n_students": n,
                  "psi_factor": rnd.choice(("1.0", "2.6154", 2, 0.5))}
        field = rnd.choice(list(fields))
        fields[field] = rnd.choice((*PROBES, "abc", [2]) if field == "psi_factor" else PROBES)
        try:
            config = SatGenConfig(**fields)
        except SettingsError as exc:
            assert field in str(exc), (fields, str(exc))
            refused += 1
            continue
        inst = gen_instance(config)
        run_rules(inst)
        assert_round_trips(inst)
        built += 1
    assert refused > 250 and built > 20


def test_a_changed_sweep_setting_is_refused_or_works(tmp_path):
    rnd = random.Random(2912)
    names = {"n_students": "n_students", "capacities": "capacit", "psi_factors": "factor",
             "seeds_per_cell": "seeds_per_cell", "master_seed": "master_seed"}
    refused = built = 0
    for case in range(300):
        n = rnd.randint(2, 8)
        fields = {
            "n_students": n,
            "capacities": tuple(rnd.sample(range(1, n + 1), rnd.randint(1, 2))),
            "psi_factors": tuple(rnd.sample(("1.0", "2.0", "2.6154"), rnd.randint(1, 2))),
            "seeds_per_cell": 1,
            "master_seed": rnd.randrange(1000),
        }
        field = rnd.choice(list(fields))
        value = fields[field]
        if isinstance(value, tuple):  # an entry changed, repeated or all dropped
            how = rnd.randrange(3)
            if how == 0:
                value = changed_entry(rnd, value, (*PROBES, "x", [1]))
            elif how == 1:
                value = (*value, value[0])
            else:
                value = ()
        else:
            value = rnd.choice(PROBES)
        fields[field] = value
        try:
            spec = ExperimentSpec(out_dir=tmp_path / str(case), **fields)
        except SettingsError as exc:
            assert names[field] in str(exc), (fields, str(exc))
            refused += 1
            continue
        run_experiment(spec, progress=False)
        built += 1
    assert refused > 200 and built > 5


def test_an_id_changed_to_its_int_twin_is_refused():
    # one id of a valid outcome's seat rows, pool keys or selection, or of a
    # build_graph subset, becomes an object equal to it that is no int; it
    # is refused and named, never matched to the student it equals
    rnd = random.Random(2913)
    for _ in range(300):
        inst = random_instance(rnd, max_students=10)
        outcome = rnd.choice(list(ALGORITHMS.values()))(inst)
        rows = {key: list(row) for key, row in outcome.matching.rows.items()}
        selected = outcome.selected  # never empty: no cutoff, capacity >= 1
        where = rnd.randrange(4)
        if where == 0:  # a seated student
            key = rnd.choice([key for key, row in rows.items() if row])
            i = rnd.randrange(len(rows[key]))
            rows[key][i] = stray = twin(rnd, rows[key][i])
        elif where == 1:  # a pool key's type or rank
            key = rnd.choice(list(rows))
            at = rnd.randrange(2)
            stray = twin(rnd, key[at])
            rows[(stray, key[1]) if at == 0 else (key[0], stray)] = rows.pop(key)
        elif where == 2:  # a selected student
            selected = changed_entry(rnd, selected, [twin(rnd, rnd.choice(selected))])
            stray = next(sid for sid in selected if type(sid) is not int)
        else:  # one id of a subset
            sid = rnd.choice(selected)
            stray = twin(rnd, sid)
            with pytest.raises(ValueError) as info:
                build_graph(inst, set(selected) - {sid} | {stray})
        if where < 3:
            with pytest.raises(OutcomeError) as info:
                evaluate(inst, Outcome(outcome.algorithm, selected, Matching(rows=rows)))
        assert repr(stray) in str(info.value)


def seating_problem(inst, rows):
    """Why ``rows`` is no valid seating of ``inst``, or ``None``; counted
    apart from ``evaluate``."""
    quotas = {(0, 3): inst.capacity}
    for t in range(1, inst.n_types):
        quotas[(t, 1)], quotas[(t, 2)] = inst.quotas.rank1[t], inst.quotas.rank2[t]
    seated = [sid for row in rows.values() for sid in row]
    if len(seated) > inst.capacity or len(set(seated)) < len(seated):
        return "over capacity or twice"
    if not set(seated) <= set(inst.acceptable):
        return "unknown or below the cutoff"
    for (t, rank), row in rows.items():
        if (t, rank) not in quotas or len(row) > quotas[(t, rank)]:
            return "unknown or overfull pool"
        if rank < 3 and any(t not in inst.type_sets[sid] for sid in row):
            return "type not held"
    return None


def test_a_moved_or_replaced_seat_is_refused_or_counted():
    # one seated student of a valid outcome moves to another pool, or is
    # replaced by another student, seated, unseated, below the cutoff or
    # past either end of the pool (-1 or n); the selection follows the
    # rows, and evaluate refuses the outcome iff it is no valid seating,
    # and otherwise counts p1, p2 and p3 as the rows and 100·(n − id)/n
    # over the selection give them
    rnd = random.Random(2914)
    refused = counted = 0
    for _ in range(600):
        inst = random_instance(rnd, max_students=10)
        n = inst.n_students
        if rnd.random() < 0.3:
            inst = replace(inst, acceptable_count=rnd.randint(0, n))
        outcome = rnd.choice(list(ALGORITHMS.values()))(inst)
        rows = {key: list(row) for key, row in outcome.matching.rows.items()}
        seats = [(key, i) for key, row in rows.items() for i in range(len(row))]
        if not seats:  # a cutoff of 0
            continue
        key, i = rnd.choice(seats)
        if n == 1 or rnd.random() < 0.5:  # to another pool, reserved or universal
            pools = [(0, 3), *((t, rank) for t in range(1, inst.n_types) for rank in (1, 2))]
            to = rnd.choice([pool for pool in pools if pool != key])
            rows.setdefault(to, []).append(rows[key].pop(i))
        else:
            rows[key][i] = rnd.choice([sid for sid in range(-1, n + 1) if sid != rows[key][i]])
        selected = tuple(sorted(sid for row in rows.values() for sid in row))
        problem = seating_problem(inst, rows)
        try:
            values = evaluate(inst, Outcome(outcome.algorithm, selected, Matching(rows=rows)))
        except OutcomeError as exc:
            assert problem is not None, (rows, str(exc))
            refused += 1
            continue
        assert problem is None, (rows, problem)
        assert values.p1 == sum(len(row) for (_, rank), row in rows.items() if rank == 1)
        assert values.p2 == sum(len(row) for (_, rank), row in rows.items() if rank < 3)
        assert values.p3 == pytest.approx(sum(100 * (n - sid) / n for sid in selected) / len(selected))
        counted += 1
    assert refused > 100 and counted > 100
