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

Each student is drawn as a 3-bit type-set code, so a pool is one numpy
array of codes, and every per-student input comes from that array in bulk:
score means by indexing a table of the 8 means, the priority order by a
stable argsort of the scores, and the type set of every student
(``Instance.type_sets``, in priority order) by one gather from the 8 type
sets, which the pools share.  A pool is grouped by type set
(``Instance.type_groups``) before it is returned, so generation pays for
the grouping, not the first rule.  The parsed reserve factors are kept
too.

numpy is imported by the functions that draw, not by the module, so
loading the package to read an instance or run a rule does not load it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import TYPE_CHECKING

from .model import Instance, QuotaTable, _is_int, gather

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
    """Parameters for one generated applicant pool; bad fields raise :class:`SettingsError`."""

    capacity: int
    seed: int
    n_students: int = 100
    psi_factor: float | int | str | Fraction = "1.0"

    def __post_init__(self) -> None:
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
# building its SatGenConfig and again in gen_quotas; a sweep uses a few factors.
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
_TYPE_SETS = tuple(frozenset(compress((1, 2, 3), (code & 1, code & 2, code & 4))) for code in range(8))


def _draw_codes(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw the type-set codes of ``n`` students per the conditional model."""
    import numpy as np

    u = rng.random((n, 3))
    t1 = u[:, 0] < P_TYPE1
    t2 = u[:, 1] < np.where(t1, P_TYPE2_GIVEN_T1, P_TYPE2_OTHERWISE)
    p3 = np.where(
        t1 & t2,
        P_TYPE3_GIVEN_BOTH,
        np.where(t1 ^ t2, P_TYPE3_GIVEN_ONE, P_TYPE3_GIVEN_NONE),
    )
    t3 = u[:, 2] < p3
    return t1 + 2 * t2 + 4 * t3


def score_mean(types: frozenset[int]) -> float:
    """Expected (pre-truncation) score: each held type's penalty is divided
    by its 1-based position among the held types, heaviest penalty first,
    and rounded up."""
    held = [SCORE_PENALTIES[t - 1] for t in (1, 2, 3) if t in types]
    reduction = sum(-(-p // k) for k, p in enumerate(held, start=1))
    return SCORE_MEAN - reduction


@lru_cache(maxsize=1)
def _score_means() -> np.ndarray:
    """The score mean of each code, read only."""
    import numpy as np

    means = np.array([score_mean(ts) for ts in _TYPE_SETS])
    means.setflags(write=False)
    return means


def _draw_scores(rng: np.random.Generator, codes: np.ndarray) -> np.ndarray:
    """Truncated-normal scores, one per type-set code.

    Sampling rejects draws outside the domain and redraws; at the default
    parameters the acceptance rate is essentially one, and the sample mean
    stays within a point of the analytic truncated mean.
    """
    means = _score_means()[codes]
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
        raise SettingsError(f"capacity must be an integer >= 1, got {capacity!r}")
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

    Students are numbered in priority order (descending score, generation
    index breaking the measure-zero ties), as :class:`Instance` requires.
    A config is valid once built, so the instance is too.  Its
    ``type_groups`` is read before it is returned, so the grouping is
    timed as generation's.
    """
    import numpy as np

    rng = np.random.default_rng(config.seed)
    codes = _draw_codes(rng, config.n_students)
    scores = _draw_scores(rng, codes)
    order = np.argsort(-scores, kind="stable")
    instance = Instance(
        type_sets=gather(_TYPE_SETS, codes[order].tolist()),
        capacity=config.capacity,
        quotas=gen_quotas(config.capacity, config.psi_factor),
        type_names=DEFAULT_TYPE_NAMES,
        scores=tuple(scores[order].tolist()),
    )
    instance.type_groups  # grouped here, so no rule's time includes it
    return instance
