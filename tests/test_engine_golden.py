"""One digest over the engine's observable behaviour, step by step.

The rule goldens pin a handful of pools; this test pins 200 seeded ones, so
a refactor of ``solver.py`` that moves any seat, any ``try_force`` answer or
the order in which a pool's classes fill shows up here.  Half the instances
are generated pools (n from 30 to 400, reserve factors 1.0 to 2.6154); the
other half are hand-built, with type sets shuffled into priority order,
cutoffs, types that have no seats at one or both ranks, and up to 10
types, so many classes.  A hand-built instance's students are named in the
digest by their place in the draw (``with_old_ids``).

Per instance, the digest covers all six rules' ``outcome_to_json`` and a
trace of one :class:`RankMaximalMatcher` on the instance's graph: every
``try_force`` answer under a seeded pin order, with ``matched_students()``
and ``matching()`` read at checkpoints, once from an unpinned start and once
from a start that pins half the target size.  A deliberate change of
behaviour must update the digest and explain itself in CHANGES.md.
"""

import hashlib
import random

from reservematch import ALGORITHMS, Instance, Outcome, QuotaTable, SatGenConfig, build_graph, gen_instance
from reservematch.algorithms import outcome_to_json
from reservematch.model import gather
from reservematch.solver import RankMaximalMatcher

from conftest import with_old_ids

SEED = 20260418
N_GENERATED = 100
N_HAND_BUILT = 100
FACTORS = ("1.0", "1.5", "2.0", "2.3077", "2.6154")
CHECKPOINT = 16  # read the matching every this many pins, and at the end
DIGEST = "a60d0c1225a69f85fe88f8b2608628a2474f808d991a1612a3d45fc1713bfcd4"


def generated_instance(rnd: random.Random) -> tuple[Instance, tuple[int, ...]]:
    """A generated pool, and its ids, which are their own names."""
    # n log-uniform on [30, 400], so small pools, the paper's size, dominate
    n = round(30 * (400 / 30) ** rnd.random())
    config = SatGenConfig(capacity=rnd.randint(1, n), seed=rnd.randrange(2**32), n_students=n,
                          psi_factor=rnd.choice(FACTORS))
    instance = gen_instance(config)
    return instance, instance.priority


def hand_built_instance(rnd: random.Random) -> tuple[Instance, tuple[int, ...]]:
    """A hand-built instance, and each student's place in the draw, by id."""
    n = rnd.randint(1, 120)
    m = rnd.randint(1, 10)
    p = rnd.uniform(0.1, 0.6)
    type_sets = tuple(frozenset(t for t in range(1, m + 1) if rnd.random() < p) for _ in range(n))
    old = list(range(n))
    rnd.shuffle(old)
    # about one type in four has no seat at a given rank
    quotas = QuotaTable(
        (0, *(rnd.choice((0, 1, 2, 3, 4)) if rnd.random() < 0.75 else 0 for _ in range(m))),
        (0, *(rnd.choice((0, 1, 2, 3)) if rnd.random() < 0.75 else 0 for _ in range(m))),
    )
    cutoff = rnd.randint(1, n) if rnd.random() < 0.5 else None
    instance = Instance(type_sets=gather(type_sets, old), capacity=rnd.randint(1, n),
                        quotas=quotas, acceptable_count=cutoff)
    return instance, tuple(old)


def trace(instance: Instance, old: tuple[int, ...], rnd: random.Random, lines: list[str]) -> None:
    graph = build_graph(instance)
    order = rnd.sample(graph.students, len(graph.students))
    half = order[: min(graph.cap, len(order)) // 2]
    for forced, pins in (((), order), (half, order[len(half):])):
        matcher = RankMaximalMatcher(graph, forced)
        answers = []
        for step, sid in enumerate(pins, start=1):
            answers.append("1" if matcher.try_force(sid) else "0")
            if step % CHECKPOINT == 0 or step == len(pins):
                named = with_old_ids(Outcome("trace", matcher.matched_students(), matcher.matching()), old)
                pairs = sorted((sid, *seat) for sid, seat in named.matching.pairs)
                lines.append(f"{''.join(answers)} {named.selected} {pairs}")
                answers = []


def engine_digest() -> str:
    rnd = random.Random(SEED)
    instances = [generated_instance(rnd) for _ in range(N_GENERATED)]
    instances += [hand_built_instance(rnd) for _ in range(N_HAND_BUILT)]
    h = hashlib.sha256()
    for instance, old in instances:
        lines: list[str] = []
        for rule in ALGORITHMS.values():
            lines.append(outcome_to_json(with_old_ids(rule(instance), old)))
        trace(instance, old, rnd, lines)
        h.update("\n".join(lines).encode())
    return h.hexdigest()


def test_engine_behaviour_is_pinned():
    assert engine_digest() == DIGEST
