"""Domain model for a single-school selection instance.

An instance bundles the applicant pool, its capacity, and a two-rank quota
table over diversity types.  The school's strict priority order is the
order of the ids: student ``i`` is the one at position ``i``, so position 0
is the highest priority, and an id is a position wherever the library
reads one.  Type id 0 is reserved for the universal type that every
student implicitly holds; real diversity types are numbered from 1.
Student ``i`` is the type set ``Instance.type_sets[i]``; the
:class:`Student` objects of ``Instance.students`` are a view that no rule
reads.  Instances are immutable, safe to share across worker processes,
and valid by construction: bad fields raise :class:`InstanceFormatError`.

The pools of a sweep share their size.  So the ids ``0..n-1``
(``Instance.priority``) are one tuple per size, and the priority
percentiles that ``evaluate`` reads are one table per size whose keys are
that tuple's objects; both are kept in small bounded caches, shared by
every instance of that size, and read only.  The rules return ids taken
from the shared tuple, so a table lookup finds its key by identity.

The pool path looks students up in bulk, never one element at a time
through a bound ``__getitem__``: :func:`gather` takes any number of
entries of a sequence, such as ``type_sets``, in one C call.

``students`` and ``type_groups`` are ``functools.cached_property``
caches.  Every graph over the acceptable pool starts from ``type_groups``,
which :func:`reservematch.datagen.gen_instance` reads before it returns a
pool; a graph over chosen positions groups its students afresh with the
same :func:`group_by_types`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import filterfalse
from operator import is_, itemgetter
from typing import Any, Collection, Sequence

UNIVERSAL_TYPE = 0

StudentId = int
TypeId = int


# slotted: the view of an n-student pool is n objects, none with a __dict__
@dataclass(frozen=True, slots=True)
class Student:
    """One applicant of :attr:`Instance.students`: an id plus the real types they hold.

    The universal type is implicit and never listed in ``types``.
    """

    id: StudentId
    types: frozenset[TypeId] = frozenset()


@dataclass(frozen=True)
class QuotaTable:
    """Per-type seat counts at ranks 1 and 2, indexed by type id.

    Index 0 belongs to the universal type and must be zero at both ranks.
    Rank-1 counts play the role of minimum quotas, rank-2 counts the role of
    maximum quotas; both are soft goals, never feasibility constraints.
    """

    rank1: tuple[int, ...]
    rank2: tuple[int, ...]

    @property
    def n_types(self) -> int:
        """Number of type slots, universal type included."""
        return len(self.rank1)


class InstanceFormatError(ValueError):
    """Raised when an instance document cannot be parsed, or an
    :class:`Instance` is built from fields that do not form one."""


@dataclass(frozen=True)
class Instance:
    """A selection problem: students in priority order, capacity, and quotas.

    ``type_sets[i]`` holds the real types of student ``i``, the student at
    position ``i`` of the priority order; position 0 is the highest
    priority.  ``acceptable_count`` optionally cuts the priority list: only
    the first ``acceptable_count`` students may be selected (``None`` means
    everyone is acceptable, which is the only case the experiments
    exercise).  ``scores`` carries the raw priority scores when the
    instance came from a generator; it is informational.  The
    sequences are tuples, and so are the rows of ``quotas``, a
    :class:`QuotaTable`.  Construction raises :class:`InstanceFormatError`,
    listing every problem (only those of a field of the wrong kind, if
    any), unless the fields form a valid instance.
    """

    type_sets: tuple[frozenset[TypeId], ...]
    capacity: int
    quotas: QuotaTable
    acceptable_count: int | None = None
    type_names: tuple[str, ...] | None = None
    scores: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        # first: the checks below read these as sequences, and a list would stay mutable
        kinds = {"type_sets": tuple, "type_names": (tuple, type(None)), "scores": (tuple, type(None))}
        shapes = [f"{name}: must be a tuple, got a {type(getattr(self, name)).__name__}"
                  for name, kind in kinds.items() if not isinstance(getattr(self, name), kind)]
        quotas = self.quotas
        if not isinstance(quotas, QuotaTable):
            shapes.append(f"quotas: must be a QuotaTable, got a {type(quotas).__name__}")
        else:
            shapes += [f"quotas: {rank} must be a tuple, got a {type(row).__name__}"
                       for rank, row in (("rank1", quotas.rank1), ("rank2", quotas.rank2)) if not isinstance(row, tuple)]
        if shapes:
            raise InstanceFormatError("invalid instance: " + "; ".join(shapes))
        errors: list[str] = []
        n = self.n_students

        if not _is_int(self.capacity) or self.capacity < 1:
            errors.append(f"capacity: must be an integer >= 1, got {self.capacity!r}")

        if len(quotas.rank1) != len(quotas.rank2):
            errors.append("quotas: rank1 and rank2 must have equal length")
        else:
            if quotas.n_types < 1:
                errors.append("quotas: must cover at least the universal type")
            elif quotas.rank1[UNIVERSAL_TYPE] != 0 or quotas.rank2[UNIVERSAL_TYPE] != 0:
                errors.append("quotas: universal type must have zero quota at both ranks")
            for rank, counts in ((1, quotas.rank1), (2, quotas.rank2)):
                for t, c in enumerate(counts):
                    if not _is_int(c) or c < 0:
                        errors.append(f"quotas: rank-{rank} count for type {t} must be a non-negative integer")

        declared = set(range(1, quotas.n_types))
        # each distinct type set once (a generated pool's students share 8),
        # if each entry is the first equal one ({True} == {1}); on a problem,
        # per student: (problem, entry kind, odd id's repr or id) -> [count, first]
        try:
            first = set(self.type_sets)
            first = dict(zip(first, first))
            fine = all(map(is_, self.type_sets, gather(first, self.type_sets)))
        except TypeError:  # an unhashable entry
            fine = False
        if not (fine and all(isinstance(ts, frozenset) and not _strays(ts) and declared.issuperset(ts) for ts in first)):
            found: dict[tuple[int, Any], list[int]] = {}
            for sid, types in enumerate(self.type_sets):
                if not isinstance(types, frozenset):
                    found.setdefault((0, type(types).__name__), [0, sid])[0] += 1
                    continue
                odd = list(map(repr, _strays(types)))
                for t in odd or types - declared:
                    found.setdefault((1 if odd else 2, t), [0, sid])[0] += 1
            for (problem, key), (count, sid) in sorted(found.items()):
                if problem == 0:
                    errors.append(f"type_sets: {count} entry(s) are a {key}, not a frozenset; first type_sets[{sid}]")
                elif problem == 1:
                    errors.append(f"students: type id {key} is not an integer; {count} student(s) hold it, first student {sid}")
                else:
                    what = "the universal type, which must not be listed" if key == UNIVERSAL_TYPE else "undeclared"
                    errors.append(f"students: type {key} is {what}; {count} student(s) hold it, first student {sid}")

        cut = self.acceptable_count
        if cut is not None and (not _is_int(cut) or not 0 <= cut <= n):
            errors.append(f"acceptable_count: must be an integer in [0, {n}], got {cut!r}")

        # only what a file can hold, so that serialize_instance's output parses back
        names = self.type_names
        if names is not None:
            if len(names) != quotas.n_types - 1:
                errors.append("type_names: must name every non-universal type")
            bad = next((i for i, name in enumerate(names) if not isinstance(name, str)), None)
            if bad is not None:
                errors.append(f"type_names[{bad}] must be a string, got {names[bad]!r}")

        scores = self.scores
        if scores is not None:
            if len(scores) != n:
                errors.append("scores: must have one entry per student")
            # C passes for a generator's floats: a finite sum has finite terms
            if not ({float}.issuperset(map(type, scores)) and math.isfinite(sum(scores))):
                for i, x in enumerate(scores):
                    if not (_is_int(x) or isinstance(x, float)) or not abs(x) <= sys.float_info.max:
                        errors.append(f"scores[{i}] must be a finite number, got {x!r}")
                        break

        if errors:
            raise InstanceFormatError("invalid instance: " + "; ".join(errors))

    @property
    def n_students(self) -> int:
        return len(self.type_sets)

    @property
    def n_types(self) -> int:
        return self.quotas.n_types

    @cached_property
    def students(self) -> tuple[Student, ...]:
        """Each student as a :class:`Student`, by id; built when first read."""
        return tuple(map(Student, range(len(self.type_sets)), self.type_sets))

    @cached_property
    def type_groups(self) -> dict[frozenset[TypeId], list[int]]:
        """Positions in ``acceptable`` grouped by type set, each group
        ascending and the groups in order of their first member.  Every
        graph over the acceptable pool starts from this grouping, whatever
        its quotas, so an instance computes it once; a generated instance
        has computed it already.  Read only."""
        return group_by_types(self.type_sets, self.acceptable)

    @property
    def priority(self) -> tuple[StudentId, ...]:
        """Every student, highest priority first: the ids ``0..n-1``, one
        tuple shared by the instances of a size."""
        return _ids(len(self.type_sets))

    @property
    def acceptable(self) -> tuple[StudentId, ...]:
        """Acceptable students, highest priority first."""
        return self.priority[: self.acceptable_count]


@lru_cache(maxsize=8)
def _ids(n: int) -> tuple[StudentId, ...]:
    """The ids of ``n`` students, ``0..n-1``: the priority of every
    instance of that size.  Read only."""
    return tuple(range(n))


@lru_cache(maxsize=8)
def _percentile_table(n: int) -> dict[StudentId, float]:
    """The priority percentile of each of ``n`` students, the top one
    scoring 100.  Its keys are the objects of :func:`_ids`, which the
    rules' selections hold, so a lookup matches them by identity.  Read
    only."""
    return {sid: 100.0 * (n - sid) / n for sid in _ids(n)}


def gather(seq: Any, indices: Sequence[Any]) -> tuple[Any, ...]:
    """``tuple(seq[i] for i in indices)``, in one ``itemgetter`` call; with
    a single index ``itemgetter`` returns the bare item, so that case is
    wrapped here."""
    if len(indices) > 1:
        return itemgetter(*indices)(seq)
    if indices:
        return (seq[indices[0]],)
    return ()


def group_by_types(type_sets: Sequence[frozenset[TypeId]], members: Sequence[StudentId]) -> dict[frozenset[TypeId], list[int]]:
    """Positions in ``members`` grouped by the type set of the student there,
    as ``type_sets`` lists them by id (:attr:`Instance.type_sets`), each group
    ascending and the groups in order of their first member."""
    groups: dict[frozenset[TypeId], list[int]] = {}
    for i, types in enumerate(gather(type_sets, members)):
        groups.setdefault(types, []).append(i)
    return groups


def _is_int(value: Any) -> bool:
    """Whether a value is exactly an ``int``: True, 4.0 and an ``IntEnum``
    member hash like the integers they equal, but no id or count is one."""
    return type(value) is int


def _strays(values: Collection[Any]) -> list[Any]:
    """The entries of ``values`` that fail :func:`_is_int`, in order; one C
    pass, which hashes no entry, when there are none."""
    return [] if {int}.issuperset(map(type, values)) else list(filterfalse(_is_int, values))


def _require(doc: dict[str, Any], key: str, kind: type = object) -> Any:
    if key not in doc:
        raise InstanceFormatError(f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise InstanceFormatError(f"field {key!r} must be {kind.__name__}")
    return value


def parse_instance(text: str) -> Instance:
    """Parse the JSON instance format.

    Document fields: ``capacity`` (int), ``types`` (list of names for the
    real types; type id k names ``types[k-1]``), ``quotas`` (object with
    ``rank1``/``rank2`` integer arrays parallel to ``types``), ``students``
    (array of type-id lists, array order = priority order), and optionally
    ``scores`` (floats, priority order) and ``acceptable`` (int cutoff).
    Student ``i`` is the ``i``-th entry of ``students``.  Raises
    :class:`InstanceFormatError` on malformed JSON, a missing field or one
    of the wrong JSON kind, a type id that is not an integer (booleans
    included), and a score that is not a number or too large for a float,
    which conversion would hide; the :class:`Instance` it builds reports
    any other problem, such as a type name that is not a string.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InstanceFormatError("document must be a JSON object")

    capacity = _require(doc, "capacity")
    names = _require(doc, "types", list)
    quotas_doc = _require(doc, "quotas", dict)
    students_doc = _require(doc, "students", list)

    rank1 = quotas_doc.get("rank1")
    rank2 = quotas_doc.get("rank2")
    if not isinstance(rank1, list) or not isinstance(rank2, list):
        raise InstanceFormatError("quotas must contain rank1 and rank2 arrays")

    for i, entry in enumerate(students_doc):
        if not isinstance(entry, list):
            raise InstanceFormatError(f"students[{i}] must be a list of type ids")
        # before the frozensets: they need hashable ids and merge true into 1
        for t in entry:
            if not _is_int(t):
                raise InstanceFormatError(f"students[{i}]: type id {t!r} is not an integer")
    # one object per distinct type set, so Instance checks each set once
    first: dict[frozenset[TypeId], frozenset[TypeId]] = {}
    type_sets = tuple(first.setdefault(ts, ts) for ts in map(frozenset, students_doc))

    scores = None
    if "scores" in doc:
        raw = doc["scores"]
        if not isinstance(raw, list):
            raise InstanceFormatError("scores must be a list")
        converted = []
        for i, x in enumerate(raw):
            if not (_is_int(x) or isinstance(x, float)):
                raise InstanceFormatError(f"scores[{i}] must be a number, got {x!r}")
            try:
                converted.append(float(x))
            except OverflowError:
                raise InstanceFormatError(f"scores[{i}] is too large for a float") from None
        scores = tuple(converted)

    return Instance(
        type_sets=type_sets,
        capacity=capacity,
        quotas=QuotaTable((0, *rank1), (0, *rank2)),
        acceptable_count=doc.get("acceptable"),
        type_names=tuple(names),
        scores=scores,
    )


def serialize_instance(instance: Instance) -> str:
    """Render an instance in the JSON format accepted by ``parse_instance``.

    Students are written in priority order, which is id order, and types
    by name.  Parsing the output reproduces the instance exactly, except
    that unnamed types come back named ``t1..tk``.
    """
    names = instance.type_names or [f"t{t}" for t in range(1, instance.n_types)]
    doc: dict[str, Any] = {
        "capacity": instance.capacity,
        "types": names,
        "quotas": {
            "rank1": list(instance.quotas.rank1[1:]),
            "rank2": list(instance.quotas.rank2[1:]),
        },
        "students": [sorted(types) for types in instance.type_sets],
    }
    if instance.scores is not None:
        doc["scores"] = list(instance.scores)
    if instance.acceptable_count is not None:
        doc["acceptable"] = instance.acceptable_count
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_instance(path: Any) -> Instance:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_instance(fh.read())


def save_instance(instance: Instance, path: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_instance(instance))
