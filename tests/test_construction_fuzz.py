"""Seeded fuzzing of the records that check themselves when built.

Each case changes one scalar or one entry of a valid ``Instance``,
``SatGenConfig`` or ``ExperimentSpec``.  Building the result either raises
the record's ``ValueError`` subclass with a message that names the changed
field, or yields a record that every rule and ``evaluate`` run on.  Any
other exception, a ``TypeError``, ``IndexError`` or ``KeyError`` above all,
fails the test.
"""

import random
from dataclasses import replace

from reservematch import (
    ALGORITHMS,
    InstanceFormatError,
    QuotaTable,
    SatGenConfig,
    SettingsError,
    evaluate,
    gen_instance,
)
from reservematch.experiment import ExperimentSpec, run_experiment

from conftest import random_instance

PROBES = (0, -1, 2.0, True, None)


def run_rules(instance):
    for rule in ALGORITHMS.values():
        evaluate(instance, rule(instance))


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
    kind = rnd.randrange(6)
    if kind == 0:  # a scalar, the cutoff included
        field = rnd.choice(("capacity", "acceptable_count"))
        return {field: rnd.choice((*PROBES, n + 1, "1"))}, field
    if kind == 1:  # a repeated, extra or non-integer priority entry
        priority = inst.priority
        how = rnd.randrange(3)
        if how == 0 and n > 1:
            return {"priority": changed_entry(rnd, priority, priority)}, "priority"
        if how == 1:
            return {"priority": (*priority, rnd.choice((n, priority[0])))}, "priority"
        return {"priority": changed_entry(rnd, priority, (*PROBES[1:], 1.0, "0"))}, "priority"
    if kind == 2:  # a non-integer, negative or universal quota entry
        rank = rnd.choice(("rank1", "rank2"))
        row = list(getattr(inst.quotas, rank))
        t = rnd.randrange(len(row))
        row[t] = rnd.choice((*PROBES, 1, float(row[t]), "1"))
        return {"quotas": replace(inst.quotas, **{rank: tuple(row)})}, "quotas"
    if kind == 3:  # an undeclared or non-integer type id
        sid = rnd.randrange(n)
        extra = rnd.choice((0, -1, m + 1, True, 1.0, 2.5, "1", None))
        type_sets = (*inst.type_sets[:sid], inst.type_sets[sid] | {extra}, *inst.type_sets[sid + 1:])
        return {"type_sets": type_sets}, "students"
    if kind == 4:  # a type set that is not a frozenset
        sid = rnd.randrange(n)
        entry = rnd.choice((set, list, tuple, sorted, lambda ts: None))(inst.type_sets[sid])
        return {"type_sets": (*inst.type_sets[:sid], entry, *inst.type_sets[sid + 1:])}, "type_sets"
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
        fields, name = instance_change(rnd, base)
        try:
            inst = replace(base, **fields)
        except InstanceFormatError as exc:
            assert name in str(exc), (fields, str(exc))
            refused += 1
            continue
        run_rules(inst)
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
        run_rules(gen_instance(config))
        built += 1
    assert refused > 250 and built > 20


def test_a_changed_sweep_setting_is_refused_or_works(tmp_path):
    rnd = random.Random(2912)
    names = {"n_students": "n_students", "capacities": "capacit", "psi_factors": "factor",
             "seeds_per_cell": "seeds_per_cell", "master_seed": "master_seed", "algorithms": "algorithm"}
    refused = built = 0
    for case in range(300):
        n = rnd.randint(2, 8)
        fields = {
            "n_students": n,
            "capacities": tuple(rnd.sample(range(1, n + 1), rnd.randint(1, 2))),
            "psi_factors": tuple(rnd.sample(("1.0", "2.0", "2.6154"), rnd.randint(1, 2))),
            "seeds_per_cell": 1,
            "master_seed": rnd.randrange(1000),
            "algorithms": tuple(rnd.sample(list(ALGORITHMS), rnd.randint(1, 3))),
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
