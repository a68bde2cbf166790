import dataclasses
import hashlib
import math
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import reservematch
from reservematch import (
    ALGORITHMS,
    gen_instance,
    gen_quotas,
    parse_instance,
    serialize_instance,
)
from reservematch.algorithms import outcome_to_json
from reservematch.datagen import (
    BASE_QUOTA_FRACTIONS,
    P_TYPE1,
    P_TYPE2_GIVEN_T1,
    P_TYPE2_OTHERWISE,
    P_TYPE3_GIVEN_BOTH,
    P_TYPE3_GIVEN_NONE,
    P_TYPE3_GIVEN_ONE,
    SCORE_LOWER,
    SCORE_MEAN,
    SCORE_PENALTIES,
    SCORE_SD,
    SCORE_UPPER,
    SatGenConfig,
    SettingsError,
    _TYPE_SETS,
    _draw_codes,
    _draw_scores,
    parse_factor,
    score_mean,
)


def test_import_loads_no_numpy():
    # numpy is loaded by the first draw, so reading an instance or running
    # a rule never pays for it
    src = str(Path(reservematch.__file__).parents[1])
    code = f"import sys; sys.path.insert(0, {src!r}); import reservematch; print('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


# ---------------------------------------------------------------------------
# quotas

def test_quotas_baseline_capacity_100():
    q = gen_quotas(100)
    assert q.rank1 == (0, 15, 10, 5)
    assert q.rank2 == (0, 20, 10, 5)
    assert sum(q.rank1) + sum(q.rank2) == 65


def test_quotas_doubling():
    q = gen_quotas(100, 2)
    assert q.rank1 == (0, 30, 20, 10)
    assert q.rank2 == (0, 40, 20, 10)
    assert sum(q.rank1) + sum(q.rank2) == 130


def test_quotas_tiny_capacity_rounds_to_zero():
    q = gen_quotas(1)
    assert q.rank1 == (0, 0, 0, 0)
    assert q.rank2 == (0, 0, 0, 0)


def test_quotas_round_half_up():
    q = gen_quotas(30)
    assert q.rank1[1] == 5  # 4.5 rounds up
    assert q.rank1[3] == 2  # 1.5 rounds up
    assert q.rank2[3] == 2


def test_quotas_decimal_factor_is_exact():
    # 0.15 * 2.3077 * 80 = 27.6924 -> 28, etc.
    q = gen_quotas(80, 2.3077)
    assert q.rank1 == (0, 28, 18, 9)
    assert q.rank2 == (0, 37, 18, 9)


def test_quotas_match_exact_rational_rounding():
    for factor in ("0.5", 1.0, 2, 2.0, 2.3077, "2.6154", Fraction(1, 3), 7):
        x = parse_factor(factor)
        for capacity in range(1, 401):
            expected = [[0], [0]]
            for fractions in BASE_QUOTA_FRACTIONS:
                for row, f in zip(expected, fractions):
                    row.append(math.floor(f * x * capacity + Fraction(1, 2)))
            q = gen_quotas(capacity, factor)
            assert [list(q.rank1), list(q.rank2)] == expected, (factor, capacity)


def test_pools_of_a_cell_share_one_quota_table():
    # equal factors parse to one fraction, so they give one table
    assert gen_quotas(30, "2.0") == gen_quotas(30, 2) == gen_quotas(30, Fraction(4, 2))
    a, b = (gen_instance(SatGenConfig(capacity=40, seed=seed, psi_factor="2.6154")) for seed in (1, 2))
    assert a.quotas == b.quotas
    # capacities 30 and 31 round to one table at factor 2; 32 does not
    assert gen_quotas(30, 2) != gen_quotas(32, 2)


def test_quotas_reject_bad_inputs():
    # the capacity must be an integer >= 1, and booleans are not; like
    # every other setting, a bad one raises SettingsError
    for capacity in (0, -1, 2.5, 10.0, True, None):
        with pytest.raises(SettingsError, match=re.escape(f"capacity must be an integer >= 1, got {capacity!r}")):
            gen_quotas(capacity)
    with pytest.raises(SettingsError):
        gen_quotas(10, 0)
    # an unhashable factor, and True after the equal factor 1 was used
    with pytest.raises(SettingsError):
        gen_quotas(10, [2])
    gen_quotas(10, 1)
    with pytest.raises(SettingsError):
        gen_quotas(10, True)


# ---------------------------------------------------------------------------
# types

def draw_codes(seed, n):
    return _draw_codes(np.random.default_rng(seed), n)


def draw_scores(seed, codes):
    return _draw_scores(np.random.default_rng(seed), np.asarray(codes))


def test_types_deterministic_per_seed():
    assert draw_codes(99, 1000).tolist() == draw_codes(99, 1000).tolist()


def test_type_marginals_match_the_conditional_model():
    n = 100_000
    codes = draw_codes(2024, n)
    # bit k-1 of a code is set iff type k is held
    f1, f2, f3 = ((codes >> k & 1).sum() / n for k in range(3))
    t2_marginal = P_TYPE1 * P_TYPE2_GIVEN_T1 + (1 - P_TYPE1) * P_TYPE2_OTHERWISE
    p_both = P_TYPE1 * P_TYPE2_GIVEN_T1
    p_one = P_TYPE1 * (1 - P_TYPE2_GIVEN_T1) + (1 - P_TYPE1) * P_TYPE2_OTHERWISE
    p_none = (1 - P_TYPE1) * (1 - P_TYPE2_OTHERWISE)
    t3_marginal = (
        p_both * P_TYPE3_GIVEN_BOTH + p_one * P_TYPE3_GIVEN_ONE + p_none * P_TYPE3_GIVEN_NONE
    )
    assert abs(f1 - P_TYPE1) < 0.01
    assert abs(f2 - t2_marginal) < 0.01
    assert abs(f3 - t3_marginal) < 0.01


def test_type_conditional_spot_check():
    n = 100_000
    codes = draw_codes(7, n)
    with_t1 = codes[codes & 1 == 1]
    frac = (with_t1 & 2 == 2).sum() / len(with_t1)
    assert abs(frac - P_TYPE2_GIVEN_T1) < 0.015


# ---------------------------------------------------------------------------
# scores

def test_score_mean_reductions():
    assert score_mean(frozenset()) == 1135
    assert score_mean(frozenset({1})) == 1135 - 172
    assert score_mean(frozenset({2})) == 1135 - 171
    assert score_mean(frozenset({3})) == 1135 - 86
    # harmonic discount: 172 + ceil(171/2) + ceil(86/3) = 172 + 86 + 29
    assert score_mean(frozenset({1, 2, 3})) == 1135 - 287
    assert score_mean(frozenset({2, 3})) == 1135 - 171 - 43
    assert score_mean(frozenset({1, 3})) == 1135 - 172 - 43


def test_score_mean_matches_exact_rational_ceiling():
    for code in range(8):
        types = frozenset(t for t in (1, 2, 3) if code >> (t - 1) & 1)
        held = [SCORE_PENALTIES[t - 1] for t in (1, 2, 3) if t in types]
        expected = SCORE_MEAN - sum(math.ceil(Fraction(p, k)) for k, p in enumerate(held, start=1))
        assert score_mean(types) == expected and type(score_mean(types)) is float, types


def test_scores_respect_the_domain():
    scores = draw_scores(5, [7] * 20_000)
    assert scores.min() >= 0.0
    assert scores.max() <= 1600.0


def test_scores_of_type_sets_outside_the_model():
    # types beyond 1-3 carry no penalty, and held model types still count
    assert score_mean(frozenset({4})) == score_mean(frozenset())
    assert score_mean(frozenset({1, 5})) == score_mean(frozenset({1}))


def test_empty_type_sample_mean_matches_truncnorm_oracle():
    # independent oracle: numerically integrated truncated-normal mean
    stats = pytest.importorskip("scipy.stats")
    a = (SCORE_LOWER - SCORE_MEAN) / SCORE_SD
    b = (SCORE_UPPER - SCORE_MEAN) / SCORE_SD
    oracle = stats.truncnorm.mean(a, b, loc=SCORE_MEAN, scale=SCORE_SD)
    assert abs(oracle - 1127.4735) < 0.001  # frozen oracle value
    sample = draw_scores(123, [0] * 100_000)
    assert abs(sample.mean() - oracle) < 3.0


def test_single_score_wrapper_deterministic():
    # a one-element draw, as the former single-score wrapper made it
    first = draw_scores(11, [1])
    assert first.shape == (1,)
    assert first[0] == draw_scores(11, [1])[0]


# ---------------------------------------------------------------------------
# whole instances

def test_instance_pinned_reserve_total():
    inst = gen_instance(SatGenConfig(capacity=50, seed=7))
    # per-quota half-up rounding at capacity 50: 8+10+5+5+3+3
    assert inst.quotas.rank1 == (0, 8, 5, 3)
    assert inst.quotas.rank2 == (0, 10, 5, 3)
    assert sum(inst.quotas.rank1) + sum(inst.quotas.rank2) == 34


def test_instances_validate_across_seeds():
    # every generated instance is checked when built: here over the
    # benchmark's shapes (n, capacities, reserve factors, seeds)
    shapes = [(100, range(10, 100, 10), ("1.0", "2.6154"), 25), (800, [400], ("1.0", "2.0"), 10)]
    for n, capacities, factors, seeds in shapes:
        for capacity in capacities:
            for factor in factors:
                for seed in range(seeds):
                    config = SatGenConfig(capacity=capacity, seed=seed, n_students=n, psi_factor=factor)
                    inst = gen_instance(config)  # raises if invalid
                    assert inst.n_students == n


@pytest.mark.parametrize(
    "settings, message",
    [
        ({"n_students": 0}, "n_students must be an integer >= 1, got 0"),
        ({"capacity": 11}, "capacity 11 must be an integer in [1, 10]"),
        ({"seed": -1}, "seed must be an integer >= 0, got -1"),
        ({"psi_factor": "0"}, "psi_factor must be a positive number, got '0'"),
    ],
)
def test_a_pool_config_checks_itself_when_built(settings, message):
    with pytest.raises(SettingsError, match=f"^{re.escape(message)}$"):
        SatGenConfig(**{"capacity": 5, "seed": 1, "n_students": 10, **settings})


def test_instance_determinism():
    a = gen_instance(SatGenConfig(capacity=40, seed=99, psi_factor="2.0"))
    b = gen_instance(SatGenConfig(capacity=40, seed=99, psi_factor="2.0"))
    assert a == b


def test_priority_is_descending_score():
    inst = gen_instance(SatGenConfig(capacity=10, seed=3))
    assert inst.priority == tuple(range(100))
    scores = inst.scores
    assert all(scores[i] >= scores[i + 1] for i in range(99))


def test_generated_instance_roundtrips():
    inst = gen_instance(SatGenConfig(capacity=20, seed=12, n_students=40))
    assert parse_instance(serialize_instance(inst)) == inst


def test_config_validation():
    for settings in (
        {"capacity": 0, "seed": 1},
        {"capacity": 101, "seed": 1},
        {"capacity": 10, "seed": 1, "psi_factor": -1},
        # non-integer counts and seeds; booleans are not numbers here
        {"capacity": 2.0, "seed": 1},
        {"capacity": True, "seed": 1},
        {"capacity": 10, "seed": 1.5},
        {"capacity": 10, "seed": 1, "n_students": 100.0},
        {"capacity": 10, "seed": 1, "psi_factor": True},
        {"capacity": 10, "seed": 1, "psi_factor": [2]},
    ):
        with pytest.raises(SettingsError):
            gen_instance(SatGenConfig(**settings))


# sizes in an order that grows and shrinks n, so state kept between calls
# of gen_instance must not leak from one pool into the next
GOLDEN_SIZES = (800, 100, 800, 1, 30, 2, 100, 800, 1, 100, 30, 2)
GOLDEN_FACTORS = ("1.0", 2.3077, "2.6154", Fraction(1, 3), 7)
INSTANCES_DIGEST = "0816fce28a329a50a148cacb2838d5149c4e51d39203d7de7dc2994c4847a8f3"


def golden_configs():
    # 60 configs: every size slot meets every factor once (lcm of 12 and 5)
    for k in range(60):
        n = GOLDEN_SIZES[k % len(GOLDEN_SIZES)]
        capacity = (1, max(1, n // 3), n)[k % 3]
        yield SatGenConfig(capacity=capacity, seed=7919 * k + 3, n_students=n,
                           psi_factor=GOLDEN_FACTORS[k % len(GOLDEN_FACTORS)])


def test_generated_instances_are_pinned():
    digest = hashlib.sha256()
    for config in golden_configs():
        inst = gen_instance(config)
        digest.update(serialize_instance(inst).encode())
        # each student's type set is one of the eight shared ones, not a copy
        assert set(map(id, inst.type_sets)) <= set(map(id, _TYPE_SETS)), config
    assert digest.hexdigest() == INSTANCES_DIGEST


def test_generated_caches_equal_the_lazy_ones():
    # gen_instance reads type_groups before it returns the pool; a copy
    # computes it lazily from its type sets, and every rule selects the
    # same on both
    for config in golden_configs():
        inst = gen_instance(config)
        assert "type_groups" in vars(inst), config
        lazy = dataclasses.replace(inst)
        assert "type_groups" not in vars(lazy)
        assert list(inst.type_groups.items()) == list(lazy.type_groups.items()), config
        for tag, rule in ALGORITHMS.items():
            assert outcome_to_json(rule(inst)) == outcome_to_json(rule(lazy)), (config, tag)
