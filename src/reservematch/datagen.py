"""Seeded synthetic applicant pools.

Pools mimic a standardized-test admission setting: three overlapping
disadvantage types drawn with conditional probabilities, test scores from a
truncated normal whose mean drops with the types held (harmonically
discounted so overlaps do not stack linearly), quotas proportional to the
selection capacity, and a priority order by descending score.

Streams are consumed in a fixed order (all type draws, then all score
draws), so one integer seed pins an instance bit for bit.  Cells of an
experiment derive independent seeds via ``numpy.random.SeedSequence`` spawn
keys; see :mod:`reservematch.experiment`.

A sweep generates thousands of pools of one size, and a generated student
is only an id and one of 8 type sets.  So what every pool would rebuild is
built once per process: one row of :class:`Student` objects per type set,
grown to the largest size requested (students are frozen, so pools share
them), a table of the 8 score means, the parsed form of the reserve
factors in use, and one priority tuple per pool size, which lets the pools
of a size share their percentile table (see :mod:`reservematch.model`).

numpy is imported by the functions that draw, not by the module, so
loading the package to read an instance or run a rule does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import TYPE_CHECKING, Sequence

from .model import Instance, QuotaTable, Student, StudentId, _is_int

if TYPE_CHECKING:
    import numpy as np

DEFAULT_TYPE_NAMES = ("minority", "low_parent_edu", "low_income")

# Membership model: type 1 is unconditional; type 2 depends on type 1;
# type 3 depends on how many of the first two are held.
P_TYPE1 = 0.39
P_TYPE2_GIVEN_T1 = 0.64
P_TYPE2_OTHERWISE = 0.30
P_TYPE3_GIVEN_BOTH = 0.30
P_TYPE3_GIVEN_ONE = 0.26
P_TYPE3_GIVEN_NONE = 0.10

# Score model: a normal truncated to [SCORE_LOWER, SCORE_UPPER] whose mean
# drops from SCORE_MEAN by the per-type penalties (see ``score_mean``).
SCORE_MEAN = 1135.0
SCORE_SD = 211.0
SCORE_LOWER = 0.0
SCORE_UPPER = 1600.0
SCORE_PENALTIES = (172, 171, 86)

# Quota fractions of the capacity per (type, rank); scaled by the reserve
# factor and rounded half-up.  Summing to 0.65 means the baseline setting
# reserves 65% of the capacity across both ranks.
BASE_QUOTA_FRACTIONS: tuple[tuple[Fraction, Fraction], ...] = (
    (Fraction(15, 100), Fraction(20, 100)),
    (Fraction(10, 100), Fraction(10, 100)),
    (Fraction(5, 100), Fraction(5, 100)),
)


class SettingsError(ValueError):
    """A generation or sweep setting that is out of range or of the wrong type."""


@dataclass(frozen=True)
class SatGenConfig:
    """Parameters for one generated applicant pool."""

    capacity: int
    seed: int
    n_students: int = 100
    psi_factor: float | int | str | Fraction = "1.0"

    def check(self) -> None:
        """Raise :class:`SettingsError` unless every field is valid."""
        n = self.n_students
        if not _is_int(n) or n < 1:
            raise SettingsError(f"n_students must be an integer >= 1, got {n!r}")
        if not _is_int(self.capacity) or not 1 <= self.capacity <= n:
            raise SettingsError(f"capacity {self.capacity!r} must be an integer in [1, {n}]")
        if not _is_int(self.seed) or self.seed < 0:
            raise SettingsError(f"seed must be an integer >= 0, got {self.seed!r}")
        parse_factor(self.psi_factor)


def parse_factor(value: float | int | str | Fraction) -> Fraction:
    """A reserve factor as an exact fraction; raises :class:`SettingsError`
    unless it is a positive number; booleans are not.  Floats go through
    their decimal repr so 2.3077 means exactly 2.3077."""
    try:
        return _parse_factor(value)
    except TypeError:  # unhashable, so not a number
        raise SettingsError(f"psi_factor must be a positive number, got {value!r}") from None


# Typed, so True is not served the entry of 1.  A pool parses its factor in
# SatGenConfig.check() and again in gen_quotas; a sweep uses a few factors.
@lru_cache(maxsize=64, typed=True)
def _parse_factor(value: float | int | str | Fraction) -> Fraction:
    try:
        factor = Fraction(str(value) if isinstance(value, float) else value)
        if factor > 0 and not isinstance(value, bool):
            return factor
    except (TypeError, ValueError, ZeroDivisionError):
        pass
    raise SettingsError(f"psi_factor must be a positive number, got {value!r}")


# The 8 possible type sets, indexed by a 3-bit code: bit k-1 set iff type k is held.
_TYPE_SETS = tuple(frozenset(t for t in (1, 2, 3) if code >> (t - 1) & 1) for code in range(8))

# One row of students per type set: row[i] is Student(i, type set).
_STUDENT_ROWS: dict[frozenset[int], tuple[Student, ...]] = {}


def _student_rows(n: int) -> dict[frozenset[int], tuple[Student, ...]]:
    """The student rows, each at least ``n`` long.  A longer request
    replaces every row whole, so no reader sees a student at the wrong id."""
    if len(_STUDENT_ROWS.get(_TYPE_SETS[0], ())) < n:
        _STUDENT_ROWS.update({ts: tuple([Student(i, ts) for i in range(n)]) for ts in _TYPE_SETS})
    return _STUDENT_ROWS


@lru_cache(maxsize=8)
def _priority(n: int) -> tuple[StudentId, ...]:
    """The priority of every generated pool of ``n`` students."""
    return tuple(range(n))


def gen_types(seed: int | np.random.Generator, n: int) -> list[frozenset[int]]:
    """Draw type sets for ``n`` students per the conditional model.

    Students with equal type sets share one frozenset object.
    """
    import numpy as np

    if not _is_int(n) or n < 1:
        raise ValueError("n must be an integer >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random((n, 3))
    t1 = u[:, 0] < P_TYPE1
    t2 = u[:, 1] < np.where(t1, P_TYPE2_GIVEN_T1, P_TYPE2_OTHERWISE)
    p3 = np.where(
        t1 & t2,
        P_TYPE3_GIVEN_BOTH,
        np.where(t1 ^ t2, P_TYPE3_GIVEN_ONE, P_TYPE3_GIVEN_NONE),
    )
    t3 = u[:, 2] < p3
    codes = t1 + 2 * t2 + 4 * t3
    return [_TYPE_SETS[c] for c in codes.tolist()]


def score_mean(types: frozenset[int]) -> float:
    """Expected (pre-truncation) score: each held type's penalty is divided
    by its 1-based position among the held types, heaviest penalty first,
    and rounded up."""
    held = [SCORE_PENALTIES[t - 1] for t in (1, 2, 3) if t in types]
    reduction = sum(-(-p // k) for k, p in enumerate(held, start=1))
    return SCORE_MEAN - reduction


_SCORE_MEANS = {ts: score_mean(ts) for ts in _TYPE_SETS}


def gen_scores(seed: int | np.random.Generator, type_sets: Sequence[frozenset[int]]) -> np.ndarray:
    """Truncated-normal scores, one per type set.

    Sampling rejects draws outside the domain and redraws; at the default
    parameters the acceptance rate is essentially one, and the sample mean
    stays within a point of the analytic truncated mean.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    mean_of = _SCORE_MEANS
    if not mean_of.keys() >= set(type_sets):  # a type beyond 1-3
        mean_of = {ts: score_mean(ts) for ts in set(type_sets)}
    means = np.array([mean_of[ts] for ts in type_sets], dtype=float)
    scores = rng.normal(means, SCORE_SD)
    bad = (scores < SCORE_LOWER) | (scores > SCORE_UPPER)
    while bad.any():
        scores[bad] = rng.normal(means[bad], SCORE_SD)
        bad = (scores < SCORE_LOWER) | (scores > SCORE_UPPER)
    return scores


def gen_quotas(capacity: int, psi_factor: float | int | str | Fraction = 1) -> QuotaTable:
    """Quota table proportional to the capacity.

    Each baseline fraction is scaled by ``psi_factor`` and by the capacity,
    then rounded half-up (so a 0.05 share of capacity 30 yields 2 seats).
    The arithmetic is exact, decimal factors like 2.3077 included, and done
    in integers: a fraction a/b of num/den seats rounds to
    (2·a·num + b·den) // (2·b·den).
    """
    if not _is_int(capacity) or capacity < 1:
        raise ValueError("capacity must be an integer >= 1")
    factor = parse_factor(psi_factor)
    num, den = factor.numerator * capacity, factor.denominator
    rows: tuple[list[int], list[int]] = ([0], [0])
    for fractions in BASE_QUOTA_FRACTIONS:
        for row, f in zip(rows, fractions):
            b = f.denominator * den
            row.append((2 * f.numerator * num + b) // (2 * b))
    return QuotaTable(tuple(rows[0]), tuple(rows[1]))


def gen_instance(config: SatGenConfig) -> Instance:
    """Assemble a full instance from a config.

    Students are relabeled so ids follow the priority order (descending
    score, generation index breaking the measure-zero ties), which is also
    the order used by the instance file format.  ``config.check()`` makes
    the result valid by construction.
    """
    import numpy as np

    config.check()
    rng = np.random.default_rng(config.seed)
    n = config.n_students
    type_sets = gen_types(rng, n)
    scores = gen_scores(rng, type_sets)
    order = np.lexsort((np.arange(n), -scores))
    rows = _student_rows(n)
    students = tuple([rows[type_sets[j]][i] for i, j in enumerate(order.tolist())])
    return Instance(
        students=students,
        priority=_priority(n),
        capacity=config.capacity,
        quotas=gen_quotas(config.capacity, config.psi_factor),
        type_names=DEFAULT_TYPE_NAMES,
        scores=tuple(scores[order].tolist()),
    )
