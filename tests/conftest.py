import random
import time
from enum import IntEnum
from pathlib import Path

import pytest

from reservematch import Instance, Matching, Outcome, QuotaTable, evaluate
from reservematch.experiment import ExperimentSpec, run_experiment
from reservematch.model import gather


def make_example() -> Instance:
    """The six-student worked instance used across the golden tests.

    Students 0..5 in priority order; capacity 3; one rank-1 seat each for
    types 1 and 2, one rank-2 seat each for types 3 and 4.
    """
    return Instance(
        type_sets=(
            frozenset(),
            frozenset({4}),
            frozenset({3}),
            frozenset({1, 2, 3}),
            frozenset({1}),
            frozenset({2, 3}),
        ),
        capacity=3,
        quotas=QuotaTable((0, 1, 1, 0, 0), (0, 0, 0, 1, 1)),
        type_names=("t1", "t2", "t3", "t4"),
    )


@pytest.fixture
def example() -> Instance:
    return make_example()


class Id(int):
    """An ``int`` subclass: equal to, and hashing like, the int it copies."""


# int twins of the ids 0..63, as IntEnum members
Ids = IntEnum("Ids", [(f"ID{i}", i) for i in range(64)])


@pytest.fixture(scope="session")
def default_baseline_sweep(tmp_path_factory) -> tuple[Path, float]:
    """The default baseline sweep, run once per session for every test that
    reads it: its output directory and its wall time in seconds."""
    out_dir = tmp_path_factory.mktemp("baseline")
    start = time.perf_counter()
    run_experiment(ExperimentSpec(out_dir=out_dir), jobs=1, progress=False)
    return out_dir, time.perf_counter() - start


def random_instance(rnd: random.Random, *, max_students: int = 12, max_types: int = 4,
                    max_quota: int = 3, max_capacity: int = 6) -> Instance:
    """Random instance for algorithm property tests (no oracle bounds)."""
    n = rnd.randint(1, max_students)
    m = rnd.randint(1, max_types)
    capacity = rnd.randint(1, max_capacity)
    type_sets = tuple(
        frozenset(t for t in range(1, m + 1) if rnd.random() < 0.5)
        for _ in range(n)
    )
    order = list(range(n))
    rnd.shuffle(order)
    return Instance(
        type_sets=gather(type_sets, order),
        capacity=capacity,
        quotas=QuotaTable(
            (0, *(rnd.randint(0, max_quota) for _ in range(m))),
            (0, *(rnd.randint(0, max_quota) for _ in range(m))),
        ),
    )


def with_old_ids(outcome: Outcome, old) -> Outcome:
    """``outcome`` with student ``i`` named ``old[i]`` in its selection and
    its seat rows.  The golden tests build some instances by drawing type
    sets and shuffling them into priority order, ``old[i]`` being the draw
    index of the student at position ``i``, and their pins name each
    student by that index."""
    rows = {pool: list(gather(old, row)) for pool, row in outcome.matching.rows.items()}
    return Outcome(outcome.algorithm, gather(old, outcome.selected), Matching(rows=rows))


def check_outcome(instance: Instance, outcome) -> None:
    """Check that ``outcome`` is a valid seating (``evaluate`` raises
    ``OutcomeError`` otherwise) that selects what every rule must: the
    capacity, or every acceptable student when there are fewer."""
    evaluate(instance, outcome)
    assert len(outcome.selected) == min(instance.capacity, len(instance.acceptable))
