import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richwords import (EnumerationConfig, FunctionSpec,
                       HypothesisNotVerifiedError, InputError, OmegaParams,
                       ROUND_DOWN, ROUND_UP, SeedGapError,
                       check_composition_bound, check_jensen,
                       check_p_monotonicity, check_product_bound,
                       composition_bound_sweep, compositions_count,
                       count_rich, identity_spec, omega,
                       power_spec, recurrence_bound, seed_table_from_counts,
                       sqrt_spec, x_over_ln_spec)

from . import oracles


# -- compositions -----------------------------------------------------------


def test_compositions_count_small():
    assert compositions_count(5, 3) == 6
    assert compositions_count(10, 4) == 84
    assert compositions_count(7, 1) == 1
    assert compositions_count(7, 7) == 1
    assert compositions_count(3, 5) == 0


def test_compositions_count_matches_enumeration():
    for n in range(1, 10):
        for p in range(1, n + 1):
            assert compositions_count(n, p) == \
                sum(1 for _ in oracles.compositions(n, p))


def test_compositions_count_validation():
    with pytest.raises(InputError):
        compositions_count(5, 0)
    with pytest.raises(InputError):
        compositions_count(5, 2.5)


def test_composition_bound_examples():
    assert check_composition_bound(10, 3)
    assert check_composition_bound(300, 300)
    assert check_composition_bound(1, 1)


def test_composition_bound_sweep_clean():
    assert composition_bound_sweep(120) == []


def test_composition_bound_is_tightish():
    # the bound is within a factor e^L of the exact sum for L = n
    n = 30
    lhs = sum(compositions_count(n, p) for p in range(1, n + 1))
    assert lhs == 2 ** (n - 1)
    rhs = math.e ** n  # (e*n/L)^L at L = n
    assert lhs <= rhs


def test_composition_bound_validation():
    with pytest.raises(InputError):
        check_composition_bound(5, 0)
    with pytest.raises(InputError):
        check_composition_bound(5, 6)


# -- omega ------------------------------------------------------------------


def _identity_params(q=2):
    return OmegaParams(q=q, c1=1.0, c2=1.0, phi=identity_spec(),
                       psi=identity_spec())


def test_omega_exponent_identity_pair():
    p = _identity_params()
    assert abs(float(omega(math.e, p).log_q) - 2.0) < 1e-12
    assert abs(float(omega(1.0, p).log_q) - 1.0) < 1e-12


def test_omega_respects_rounding_tag():
    p = _identity_params()
    up = omega(10.0, p, ROUND_UP)
    down = omega(10.0, p, ROUND_DOWN)
    assert down.log_q < up.log_q
    assert up.rounding == ROUND_UP


def test_omega_rejects_below_one():
    with pytest.raises(InputError):
        omega(0.5, _identity_params())


# -- seed tables ------------------------------------------------------------


def _counts(q, n):
    table = count_rich(q, n, EnumerationConfig(with_max_luf=False))
    return {m: e.count for m, e in table.entries.items()}


def test_seed_table_roundtrip():
    seeds = seed_table_from_counts(_counts(2, 6), 2)
    assert set(seeds.entries) == set(range(1, 7))
    assert seeds.entries[6].provenance == "exact-seed"
    # seed exponents certify from above
    assert float(seeds.entries[6].value.log_q) >= math.log2(64)


def test_seed_gap_detection():
    counts = _counts(2, 5)
    del counts[3]
    seeds = seed_table_from_counts(counts, 2)
    with pytest.raises(SeedGapError) as exc:
        recurrence_bound(seeds, lambda n: n, 8)
    assert exc.value.missing_index == 3


def test_seed_table_empty_rejected():
    seeds = seed_table_from_counts({}, 2)
    with pytest.raises(SeedGapError):
        recurrence_bound(seeds, lambda n: n, 4)


# -- the recurrence ---------------------------------------------------------


def test_recurrence_hand_checked_value():
    # seeds R(1) = 2; tau(2) = 2.  B(2) = g(2) + g(1)*g(1) with
    # g(m) = B(ceil(m/2)) = 2, so B(2) = 2 + 4 = 6.
    seeds = seed_table_from_counts({1: 2}, 2)
    table = recurrence_bound(seeds, lambda n: n, 2)
    assert abs(float(table.entries[2].value.log_q) - math.log2(6)) < 1e-12


def test_recurrence_tau_one_chain():
    # tau = 1 collapses the recurrence to B(n) = B(ceil(n/2))
    seeds = seed_table_from_counts({1: 2}, 2)
    table = recurrence_bound(seeds, lambda n: 1, 16, "const:1")
    for n in range(2, 17):
        assert abs(float(table.entries[n].value.log_q) - 1.0) < 1e-9


def test_recurrence_matches_exact_oracle():
    # the log-domain engine must dominate the exact-integer mirror and
    # stay within the nudge budget of it
    for n_seed in (1, 2, 3, 6):
        seeds_counts = _counts(2, n_seed)
        seeds = seed_table_from_counts(seeds_counts, 2)
        for tau in (lambda n: n, lambda n: 2, lambda n: max(1, n // 2)):
            exact = oracles.recurrence_table_exact(seeds_counts, tau, 12)
            table = recurrence_bound(seeds, tau, 12)
            for n in range(1, 13):
                got = float(table.entries[n].value.log_q)
                want = math.log2(exact[n])
                assert got >= want - 1e-12, (n_seed, n)
                assert got <= want + 1e-9, (n_seed, n)


def test_recurrence_direct_composition_sum_agrees():
    # independent summation order over explicit compositions
    seeds_counts = _counts(2, 2)
    tau = lambda n: n
    direct = oracles.recurrence_direct_sum(seeds_counts, tau, 7)
    conv = oracles.recurrence_table_exact(seeds_counts, tau, 7)[7]
    assert direct == conv


def test_recurrence_truncates_to_requested_range():
    seeds = seed_table_from_counts(_counts(2, 8), 2)
    table = recurrence_bound(seeds, lambda n: n, 5)
    assert set(table.entries) == set(range(1, 6))
    assert all(e.provenance == "exact-seed" for e in table.entries.values())


def test_recurrence_entries_grow_with_seed_values():
    # inflating a seed can only raise downstream bounds
    base_counts = _counts(2, 3)
    bumped = dict(base_counts)
    bumped[3] = bumped[3] * 3
    t1 = recurrence_bound(seed_table_from_counts(base_counts, 2),
                          lambda n: n, 10)
    t2 = recurrence_bound(seed_table_from_counts(bumped, 2),
                          lambda n: n, 10)
    for n in range(4, 11):
        assert t2.entries[n].value.log_q >= t1.entries[n].value.log_q


def test_recurrence_rejects_bad_tau():
    seeds = seed_table_from_counts(_counts(2, 2), 2)
    with pytest.raises(InputError):
        recurrence_bound(seeds, lambda n: 0, 5)
    with pytest.raises(InputError):
        recurrence_bound(seeds, lambda n: 1.5, 5)


# -- product bound / p-monotonicity / jensen --------------------------------


def test_product_bound_worked_example():
    # n=5, p=2, parts (1,4): sqrt-free identity pair
    assert check_product_bound(5, 2, [1, 4], _identity_params())


def test_product_bound_rejects_bad_composition():
    with pytest.raises(InputError):
        check_product_bound(5, 2, [1, 3], _identity_params())
    with pytest.raises(InputError):
        check_product_bound(5, 3, [1, 4], _identity_params())
    with pytest.raises(InputError):
        check_product_bound(5, 2, [0, 5], _identity_params())


def test_product_bound_randomized():
    params = _identity_params()
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(2, 120)
        p = rng.randint(1, n)
        if p == 1:
            parts = [n]
        else:
            cuts = sorted(rng.sample(range(1, n), p - 1))
            edges = [0] + cuts + [n]
            parts = [edges[i + 1] - edges[i] for i in range(p)]
        assert check_product_bound(n, p, parts, params), (n, p, parts)


def test_p_monotonicity_ladder():
    params = _identity_params()
    for p in range(1, 11):
        assert check_p_monotonicity(100.0, p, params)


def test_p_monotonicity_rejects_bad_p():
    with pytest.raises(InputError):
        check_p_monotonicity(100.0, 0, _identity_params())


def test_jensen_sqrt_example():
    # sqrt(1) + sqrt(4) = 3 <= 2*sqrt(2.5) ~ 3.16
    assert check_jensen(sqrt_spec(), [1.0, 4.0])


def test_jensen_refuses_convex_function():
    with pytest.raises(HypothesisNotVerifiedError):
        check_jensen(power_spec(2.0), [1.0, 4.0])


def test_jensen_refuses_decreasing_function():
    with pytest.raises(HypothesisNotVerifiedError):
        check_jensen(FunctionSpec(a=1.0, b=-0.25, domain_min=1.0),
                     [2.0, 3.0])


def test_jensen_x_over_lnx():
    assert check_jensen(x_over_ln_spec(), [9.0, 100.0, 4096.0])


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1.0, 1e6), min_size=2, max_size=6))
def test_jensen_sqrt_property(xs):
    assert check_jensen(sqrt_spec(), xs)


def test_hypothesis_failure_carries_report():
    params = OmegaParams(q=2, c1=1.0, c2=1.0, phi=power_spec(2.0),
                         psi=identity_spec())
    with pytest.raises(HypothesisNotVerifiedError) as exc:
        check_product_bound(8, 2, [4, 4], params)
    assert exc.value.report is not None
