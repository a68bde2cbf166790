"""Pins of every rule's output on three generated pools.

The sweep hashes cover only n=100 pools and only the default ``ehyy``.
This test adds the two ``large-pool`` benchmark pools (n=800, capacity 400,
factors 1.0 and 2.0) and one n=100 pool at factor 2.6154, and pins, per
pool: the serialized instance, the serialized outcome of all six rules, and
the exact ``evaluate`` values.
No generated pool has two type sets with the same pools (every type has a
positive rank-1 quota), so one hand-built instance pins all six rules where
such type sets share a class.  A second one, with 292 classes, pins the
engine rules where a pool's classes arrive in an order other than class
order.  Both draw their type sets, then shuffle them into priority order,
and their pins name each student by their place in the draw
(``with_old_ids``).  A deliberate change of behaviour must update the pins and explain
itself in CHANGES.md.
"""

import hashlib
import random

import pytest

from reservematch import (
    ALGORITHMS,
    Instance,
    QuotaTable,
    SatGenConfig,
    build_graph,
    evaluate,
    gen_instance,
)
from reservematch.algorithms import outcome_to_json
from reservematch.experiment import derive_seed
from reservematch.model import gather, serialize_instance

from conftest import with_old_ids

# name: (n_students, capacity, psi_factor, seed)
POOLS = {
    "large-1.0": (800, 400, "1.0", derive_seed(1729, 0, 0, 0)),
    "large-2.0": (800, 400, "2.0", derive_seed(1729, 1, 0, 0)),
    "small-2.6154": (100, 80, "2.6154", derive_seed(1729, 2, 3, 0)),
}

INSTANCE = {
    "large-1.0": "1a21fb0c1f7a1d362aa47983c853312ccf11387d217e14034e701ea176d435d8",
    "large-2.0": "a268753c4a608b398d18cf7692de9c7e1e3beaedb3a413b61001b870de97990d",
    "small-2.6154": "a1a43f60ceabc5ce0ccbd9b061712314d6fb992fff5712804fe79bb8ed2d6cb9",
}

# name: {tag: (sha256 of outcome_to_json, repr of evaluate)}
RULES = {
    "large-1.0": {
        "as": ("f44c4f6629d2b625a935183b7e5903a5971bc57d926ce4fc01d62d06a0954e57",
               "MetricValues(p1=120, p2=260, p3=70.395625, p3_min=34.375, p3_max=100.0)"),
        "ehyy": ("e044041da8289e86532a42ab9c772c98ed8655b6ada11edc01bf9b2a55534a5f",
                 "MetricValues(p1=120, p2=260, p3=70.35, p3_min=31.375, p3_max=100.0)"),
        "sy1": ("275765fab3bf52da6acea2ca7e0d73f0033225bd75606c2787ab77febd96e9d1",
                "MetricValues(p1=120, p2=120, p3=75.0625, p3_min=50.125, p3_max=100.0)"),
        "sy2": ("dba726acdadde988aef0574dff66fb463099dd7987166b6699fe5131c90a4457",
                "MetricValues(p1=120, p2=260, p3=70.395625, p3_min=34.375, p3_max=100.0)"),
        "pog": ("30be7b8f3c3dd5596cccab70c3b7055929217b8ba599611f30b6f1e40bc3509a",
                "MetricValues(p1=120, p2=175, p3=75.0625, p3_min=50.125, p3_max=100.0)"),
        "pos": ("d8fb9ea4f5c53f2f1bf491a11b80cf34f6c914e7563223acb7c373219f880c94",
                "MetricValues(p1=120, p2=175, p3=75.0625, p3_min=50.125, p3_max=100.0)"),
    },
    "large-2.0": {
        "as": ("44bc5bc0a7508b53545aaae9d875cf12272bfa990963bb0e2eae494f634fb481",
               "MetricValues(p1=240, p2=400, p3=48.935, p3_min=14.125, p3_max=99.75)"),
        "ehyy": ("7ad38989a114893495f53b51ae5aede7157689ad9fd45f5a4d93878b9fec63d9",
                 "MetricValues(p1=240, p2=400, p3=48.935, p3_min=14.125, p3_max=99.75)"),
        "sy1": ("ed1813b5e50c6d384f53b96d66e0a812d746fc7888f7cfde0c63d9edd20237c1",
                "MetricValues(p1=240, p2=240, p3=72.7859375, p3_min=39.0, p3_max=100.0)"),
        "sy2": ("14e8c4b2f35daf2f7bac571090fdcc89434fcbbb50ca124d3e6d4fe0e5340f82",
                "MetricValues(p1=240, p2=400, p3=48.935, p3_min=14.125, p3_max=99.75)"),
        "pog": ("41d3c79af57026da1aa5ad06e8261b9fe667a6d6c872669cf354489696ecc460",
                "MetricValues(p1=181, p2=181, p3=75.0625, p3_min=50.125, p3_max=100.0)"),
        "pos": ("f70eac4744ad48ad07cf75dd55b125f3388508ecb0823a94b4e67b2a6ad34087",
                "MetricValues(p1=181, p2=181, p3=75.0625, p3_min=50.125, p3_max=100.0)"),
    },
    "small-2.6154": {
        "as": ("b66dbd3a6d2ecafa2687e3fb6d93af76ed0e1e1a250c1e212e6ecf5fa8da66bd",
               "MetricValues(p1=62, p2=62, p3=51.5375, p3_min=1.0, p3_max=100.0)"),
        "ehyy": ("b5a9e67c496b5b174ab8fe504105b1f3c62e7a7edf2a764956e2d6ce49092d29",
                 "MetricValues(p1=60, p2=62, p3=51.5375, p3_min=1.0, p3_max=100.0)"),
        "sy1": ("bb0c3daf8300c6a816bfcf71a7bb0feaffc8b98dcd9609db7b4c895451f13b52",
                "MetricValues(p1=62, p2=62, p3=51.5375, p3_min=1.0, p3_max=100.0)"),
        "sy2": ("0359e97bf25ca6defc93121b89d4d10eb293f73c48692d29b89c1676303e8df7",
                "MetricValues(p1=62, p2=62, p3=51.5375, p3_min=1.0, p3_max=100.0)"),
        "pog": ("462e0679174a759a4f7b0e40916f9c1fbacc5106beff66bc28465e32c12f50ea",
                "MetricValues(p1=44, p2=44, p3=60.5, p3_min=21.0, p3_max=100.0)"),
        "pos": ("42d1e57a2b27ec884b7276db9775513d12345797456a3cc699ed6c913f4e3ede",
                "MetricValues(p1=44, p2=44, p3=60.5, p3_min=21.0, p3_max=100.0)"),
    },
}

def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", POOLS)
def test_rule_outputs_are_pinned(name):
    n, capacity, factor, seed = POOLS[name]
    instance = gen_instance(SatGenConfig(capacity=capacity, seed=seed, n_students=n, psi_factor=factor))
    assert sha256(serialize_instance(instance)) == INSTANCE[name]
    for tag, rule in ALGORITHMS.items():
        outcome = rule(instance)
        assert (sha256(outcome_to_json(outcome)), repr(evaluate(instance, outcome))) == RULES[name][tag], tag


# tag: (sha256 of outcome_to_json, repr of evaluate) on merged_instance()
MERGED = {
    "as": ("5a7e06b50b3836317ed90658f72064ebc8b7cd2c7eccadf0528edc09fe558278",
           "MetricValues(p1=8, p2=12, p3=75.41666666666667, p3_min=50.0, p3_max=100.0)"),
    "ehyy": ("27c530f259eba73d2b979169d9831ff310193c1e994658e81f9cc1d436ddff6b",
             "MetricValues(p1=8, p2=12, p3=74.79166666666667, p3_min=42.5, p3_max=100.0)"),
    "sy1": ("587bc8ac16a7829e66c4689e603256ba58c07bed26dff78db16586181fbb7942",
            "MetricValues(p1=8, p2=8, p3=85.625, p3_min=67.5, p3_max=100.0)"),
    "sy2": ("6db73e935cd384127ecf2c5a96be060224f4e60d802ebe2f65a6724ea8db4db1",
            "MetricValues(p1=8, p2=12, p3=75.41666666666667, p3_min=50.0, p3_max=100.0)"),
    "pog": ("2f652c078f9733695b84dcb95d549ee978a990adcff0c18401d027bf8f8b56fb",
            "MetricValues(p1=7, p2=7, p3=86.25, p3_min=72.5, p3_max=100.0)"),
    "pos": ("a907b92d78488ad0acd427a64f301dda9dd1aeef0bdeed3b3313525db12adcd3",
            "MetricValues(p1=7, p2=7, p3=86.25, p3_min=72.5, p3_max=100.0)"),
}


def merged_instance() -> tuple[Instance, list[int]]:
    """40 students, shuffled into priority order, with a cutoff at 34, and
    each one's place in the draw; type 4 has no seats at either rank, so
    {1, 4} reaches the same pools as {1}."""
    rnd = random.Random(2024)
    n = 40
    type_sets = tuple(
        frozenset(t for t in (1, 2, 3, 4) if rnd.random() < 0.25) for _ in range(n)
    )
    old = list(range(n))
    rnd.shuffle(old)
    instance = Instance(
        type_sets=gather(type_sets, old),
        capacity=12,
        quotas=QuotaTable((0, 3, 3, 2, 0), (0, 2, 2, 0, 0)),
        acceptable_count=34,
    )
    return instance, old


def test_merged_class_outputs_are_pinned():
    instance, old = merged_instance()
    graph = build_graph(instance)
    type_sets = {instance.students[sid].types for sid in graph.students}
    assert len(graph.classes) < len(type_sets)  # some type sets share pools
    for tag, rule in ALGORITHMS.items():
        outcome = rule(instance)
        assert (sha256(outcome_to_json(with_old_ids(outcome, old))), repr(evaluate(instance, outcome))) == MERGED[tag], tag


# tag: (sha256 of outcome_to_json, repr of evaluate) on many_class_instance()
MANY_CLASS = {
    "as": ("256b1fd6c513e2fb56d2044b72c81ce5c1137b05846ee1b6490376571dbc5da3",
           "MetricValues(p1=30, p2=30, p3=96.375, p3_min=92.75, p3_max=100.0)"),
    "sy1": ("f0c5fb904622f1d7bd881fe7607378210e1a43c785b72f6a8d6083acc8c365dc",
            "MetricValues(p1=30, p2=30, p3=96.375, p3_min=92.75, p3_max=100.0)"),
    "sy2": ("29c135fcd7f77a44e5489b8348ddda6eb62cc7e44cd4cdefe506aa078ed4022d",
            "MetricValues(p1=30, p2=30, p3=96.375, p3_min=92.75, p3_max=100.0)"),
    "pos": ("0705147892bf289be7bd123220a1e9efcfeb4ff2b48dbd25a8f02984cc64a0e1",
            "MetricValues(p1=30, p2=30, p3=96.375, p3_min=92.75, p3_max=100.0)"),
}


def many_class_instance() -> tuple[Instance, list[int]]:
    """400 students, shuffled into priority order, with a cutoff at 360,
    each holding each of 12 types with probability 0.3, against 30 seats
    and reserves of 2-4 (rank 1) and 1-3 (rank 2) per type; and each
    student's place in the draw."""
    rnd = random.Random(4242)
    n = 400
    type_sets = tuple(
        frozenset(t for t in range(1, 13) if rnd.random() < 0.3) for _ in range(n)
    )
    old = list(range(n))
    rnd.shuffle(old)
    instance = Instance(
        type_sets=gather(type_sets, old),
        capacity=30,
        quotas=QuotaTable((0, 2, 2, 2, 2, 4, 3, 2, 4, 3, 3, 3, 4), (0, 1, 2, 1, 2, 2, 1, 1, 1, 2, 2, 1, 3)),
        acceptable_count=360,
    )
    return instance, old


def test_many_class_outputs_are_pinned():
    instance, old = many_class_instance()
    assert len(build_graph(instance).classes) >= 100
    for tag, (digest, values) in MANY_CLASS.items():
        outcome = ALGORITHMS[tag](instance)
        assert (sha256(outcome_to_json(with_old_ids(outcome, old))), repr(evaluate(instance, outcome))) == (digest, values), tag
