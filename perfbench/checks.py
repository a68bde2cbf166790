"""Output checks computed apart from the package.

Nothing here calls the package's engine or metrics.  Structural checks and
metric values are recomputed from an outcome's seats; optima come from a
small flow program over (type-set class x seat pool) solved by scipy's
HiGHS.  Students with equal type sets are interchangeable for the rank
signature, so the class-level program is exact: a class count between the
pinned and the total number of its students can always be realised by
choosing the pinned students first.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

UNIVERSAL = 0


# ----------------------------------------------------------------------
# structure and metric values


def structure_problems(instance, tag: str, outcome) -> list[str]:
    """Violations of the invariants every rule's outcome must satisfy."""
    problems = []
    pool = instance.acceptable
    target = min(instance.capacity, len(pool))
    selected = outcome.selected
    if len(selected) != target:
        problems.append(f"{tag}: selected {len(selected)} students, expected {target}")
    if len(set(selected)) != len(selected):
        problems.append(f"{tag}: a student is selected twice")
    if tag in ("pog", "pos") and tuple(selected) != tuple(pool[:target]):
        problems.append(f"{tag}: selection is not the top-priority prefix")
    matched = [sid for sid, _ in outcome.matching.pairs]
    if len(set(matched)) != len(matched) or set(matched) != set(selected):
        problems.append(f"{tag}: matched students differ from the selected students")
    seats = [seat for _, seat in outcome.matching.pairs]
    if len(set(seats)) != len(seats):
        problems.append(f"{tag}: a seat is used twice")
    quotas = instance.quotas
    for sid, seat in outcome.matching.pairs:
        if seat.type == UNIVERSAL:
            ok = seat.rank == 3 and 0 <= seat.index < instance.capacity
        else:
            ok = (
                seat.rank in (1, 2)
                and 1 <= seat.type < quotas.n_types
                and seat.type in instance.students[sid].types
                and 0 <= seat.index < (quotas.rank1 if seat.rank == 1 else quotas.rank2)[seat.type]
            )
        if not ok:
            problems.append(f"{tag}: student {sid} holds an ineligible seat {tuple(seat)}")
            break
    return problems


def metric_values(instance, outcome) -> tuple[int, int, float, float, float]:
    """(p1, p2, p3, p3_min, p3_max) recomputed from the outcome's seats."""
    p1 = sum(1 for _, seat in outcome.matching.pairs if seat.rank == 1 and seat.type != UNIVERSAL)
    p2 = sum(1 for _, seat in outcome.matching.pairs if seat.rank in (1, 2) and seat.type != UNIVERSAL)
    n = len(instance.students)
    position = {sid: pos for pos, sid in enumerate(instance.priority)}
    pcts = [100.0 * (n - position[sid]) / n for sid in outcome.selected]
    if not pcts:
        return p1, p2, 0.0, 0.0, 0.0
    return p1, p2, sum(pcts) / len(pcts), min(pcts), max(pcts)


def metric_problems(tag: str, mine, reported) -> list[str]:
    """Compare recomputed values with the package's ``MetricValues``."""
    theirs = (reported.p1, reported.p2, reported.p3, reported.p3_min, reported.p3_max)
    if mine[:2] != theirs[:2] or not all(
        math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-9) for a, b in zip(mine[2:], theirs[2:])
    ):
        return [f"{tag}: evaluate reports {theirs}, recomputed {mine}"]
    return []


def signature_of(outcome) -> tuple[int, int, int]:
    counts = Counter(seat.rank for _, seat in outcome.matching.pairs)
    return counts[1], counts[2], counts[3]


# ----------------------------------------------------------------------
# class-level optimum


def class_optimum(instance, rank1, rank2, members, pinned=()) -> tuple[int, int, int]:
    """Lexicographically largest (rank-1, rank-2, rank-3) seat counts over
    matchings of at most ``capacity`` students from ``members`` that match
    every pinned student.  ``rank1``/``rank2`` are quota tuples indexed by
    type id; the universal pool holds ``capacity`` rank-3 seats.

    The program is a flow (classes to pools under a total cap), so its
    linear relaxation has integral vertices; the solution is checked to be
    integral rather than assumed."""
    import numpy as np
    from scipy.optimize import linprog

    cap = instance.capacity
    sizes = Counter(instance.students[sid].types for sid in members)
    pins = Counter(instance.students[sid].types for sid in pinned)
    classes = sorted(sizes, key=sorted)
    pools = [(t, 1, q) for t, q in enumerate(rank1) if t and q > 0]
    pools += [(t, 2, q) for t, q in enumerate(rank2) if t and q > 0]
    pools.append((UNIVERSAL, 3, cap))

    variables = [
        (c, p) for c, types in enumerate(classes) for p, (t, _, _) in enumerate(pools)
        if t == UNIVERSAL or t in types
    ]
    var_pool = np.array([p for _, p in variables])
    var_class = np.array([c for c, _ in variables])
    weight = {1: (cap + 1) ** 2, 2: cap + 1, 3: 1}
    objective = np.array([-weight[pools[p][1]] for p in var_pool], dtype=float)
    in_pool = (var_pool[None, :] == np.arange(len(pools))[:, None]).astype(float)
    in_class = (var_class[None, :] == np.arange(len(classes))[:, None]).astype(float)
    a_ub = np.vstack([in_pool, in_class, -in_class, np.ones((1, len(variables)))])
    b_ub = np.concatenate([
        [q for _, _, q in pools],
        [sizes[c] for c in classes],
        [-pins[c] for c in classes],
        [cap],
    ])
    result = linprog(objective, A_ub=a_ub, b_ub=b_ub, bounds=(0, None), method="highs")
    if result.status != 0:
        raise RuntimeError(f"class-level program failed: {result.message}")
    x = np.round(result.x)
    if np.abs(result.x - x).max() > 1e-6:
        raise RuntimeError("class-level program returned a fractional vertex")
    counts = [0, 0, 0]
    for p, xv in zip(var_pool, x):
        counts[pools[p][1] - 1] += int(xv)
    return tuple(counts)


def summary(outcomes) -> dict[str, tuple[tuple[int, ...], tuple[int, int, int]]]:
    """What the optimum checks need of each outcome: selection and signature."""
    return {tag: (tuple(o.selected), signature_of(o)) for tag, o in outcomes.items()}


def optimum_problems(instance, summaries) -> list[str]:
    """Signatures each engine rule must reach, against the class-level
    optimum of its own seat table.  ``summaries`` is :func:`summary`'s."""
    q1, q2 = instance.quotas.rank1, instance.quotas.rank2
    zero = (0,) * len(q1)
    merged = tuple(a + b for a, b in zip(q1, q2))
    pool = instance.acceptable
    problems = []

    def expect(tag, got, want):
        if tuple(got) != tuple(want):
            problems.append(f"{tag}: reached {tuple(got)}, optimum is {tuple(want)}")

    expect("as", summaries["as"][1], class_optimum(instance, q1, q2, pool))
    expect("sy1", summaries["sy1"][1], class_optimum(instance, q1, zero, pool))
    chosen, sig = summaries["sy2"]
    expect("sy2 merged", (sig[0] + sig[1],), class_optimum(instance, merged, zero, pool)[:1])
    expect("sy2 re-seat", sig, class_optimum(instance, q1, q2, chosen, chosen))
    chosen, sig = summaries["pos"]
    expect("pos", sig, class_optimum(instance, q1, q2, chosen, chosen))
    return problems


def as_property_problems(instance, selected) -> list[str]:
    """The defining property of ``as``: scanning by priority, a student is
    chosen exactly when pinning it on top of the students chosen before it
    keeps the unconstrained optimum.  Checked up to the last chosen one."""
    q1, q2 = instance.quotas.rank1, instance.quotas.rank2
    pool = instance.acceptable
    best = class_optimum(instance, q1, q2, pool)
    chosen = set(selected)
    before: list[int] = []
    problems = []
    last = max((pool.index(s) for s in chosen), default=-1)
    for sid in pool[: last + 1]:
        keeps = class_optimum(instance, q1, q2, pool, [*before, sid]) == best
        if keeps != (sid in chosen):
            verb = "skipped" if keeps else "chose"
            problems.append(f"as: {verb} student {sid} against the pinned optimum")
        if sid in chosen:
            before.append(sid)
    return problems


# ----------------------------------------------------------------------
# sweep outputs


def _ratio(value: float, best: float) -> float:
    return 1.0 if best == 0 else value / best


def sweep_problems(out_dir: Path, expected: dict) -> list[str]:
    """Check ``per_instance.csv`` against values recomputed from the
    outcomes in ``expected`` (keyed by (psi_factor, qc, replicate, tag)),
    and ``ratios.csv`` against means and minima of ``per_instance.csv``."""
    problems = []
    with open(out_dir / "per_instance.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    keys = [(r["psi_factor"], int(r["qc"]), int(r["replicate"]), r["algorithm"]) for r in rows]
    if sorted(keys) != sorted(expected):
        return ["per_instance.csv: rows differ from the swept pools"]
    best: dict[tuple, list[float]] = {}
    for (factor, qc, rep, _), (values, _) in expected.items():
        b = best.setdefault((factor, qc, rep), [0.0, 0.0, 0.0])
        for k in range(3):
            b[k] = max(b[k], values[k])
    for row, key in zip(rows, keys):
        (p1, p2, p3, p3_min, p3_max), selected = expected[key]
        b = best[key[:3]]
        want = {
            "p1": str(p1), "p2": str(p2), "p3": f"{p3:.6f}",
            "p3_min": f"{p3_min:.6f}", "p3_max": f"{p3_max:.6f}",
            "ratio_p1": f"{_ratio(p1, b[0]):.6f}", "ratio_p2": f"{_ratio(p2, b[1]):.6f}",
            "ratio_p3": f"{_ratio(p3, b[2]):.6f}", "selected": " ".join(map(str, selected)),
        }
        for field, value in want.items():
            if row[field] != value:
                problems.append(f"per_instance.csv {key} {field}: {row[field]!r} != {value!r}")
                break
    cells: dict[tuple, list[dict]] = {}
    for row in rows:
        cells.setdefault((row["psi_factor"], row["qc"], row["algorithm"]), []).append(row)
    want_ratios = []
    for (factor, qc, tag), cell in cells.items():
        for metric in ("p1", "p2", "p3"):
            values = [float(r[f"ratio_{metric}"]) for r in cell]
            want_ratios.append(
                [factor, qc, tag, metric, f"{sum(values) / len(values):.6f}",
                 f"{min(values):.6f}", str(len(values))]
            )
    with open(out_dir / "ratios.csv", newline="", encoding="utf-8") as fh:
        got = [list(r.values()) for r in csv.DictReader(fh)]
    if got != want_ratios:
        problems.append("ratios.csv: differs from the mean and min of per_instance.csv")
    return problems
