import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richwords import (ExponentFunction, FunctionSpec,
                       HypothesisNotVerifiedError, InputError, VerifiedRange,
                       check_jensen, check_p_monotonicity,
                       check_product_bound, composition_bound_sweep,
                       count_rich, parse_function_spec, recurrence_bound,
                       seed_table_from_counts)
from richwords.bounds import _E_DEN, _E_NUM, _composition_pair_holds

from . import oracles
from .oracles import check_composition_bound, compositions_count

IDENTITY = parse_function_spec("identity")


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


def test_composition_bound_sweep_matches_mpmath_oracle():
    n_max = 150
    failures = set(composition_bound_sweep(n_max))
    for n in range(1, n_max + 1):
        for L in range(1, n + 1):
            assert ((n, L) not in failures) == check_composition_bound(n, L)


@pytest.mark.parametrize("n, L", [(30, 10), (100, 40), (600, 600)])
def test_composition_pair_exact_edge(n, L):
    # the largest lhs the exact test passes; both sit inside the float
    # margin, so the exact fallback decides them
    edge = (_E_NUM * n) ** L // (_E_DEN * L) ** L
    assert _composition_pair_holds(edge, n, L)
    assert not _composition_pair_holds(edge + 1, n, L)


def test_e_lower_rational_is_below_e():
    with mpmath.workprec(200):
        assert mpmath.mpf(_E_NUM) / _E_DEN < mpmath.e


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


def _identity_params(x_lo=1.0, x_hi=61.0):
    return VerifiedRange(ExponentFunction(IDENTITY, IDENTITY, c1=1.0,
                                          c2=1.0), x_lo=x_lo, x_hi=x_hi)


# -- seed tables ------------------------------------------------------------


def _counts(q, n):
    table = count_rich(q, n, with_max_luf=False)
    return {m: count for m, (count, _) in table.items()}


def test_seed_table_roundtrip():
    seeds = seed_table_from_counts(_counts(2, 6), 2)
    assert list(seeds) == list(range(1, 7))
    # seed exponents certify from above
    assert float(seeds[6].log_q) >= math.log2(64)


@pytest.mark.parametrize("count", [0, -4, "8", 2.0])
def test_seed_count_must_be_a_positive_integer(count):
    counts = _counts(2, 4)
    counts[3] = count
    with pytest.raises(InputError,
                       match=f"seed count at n=3 must be a positive integer, "
                             f"got {count!r}"):
        seed_table_from_counts(counts, 2)


def test_seed_gap_detection():
    counts = _counts(2, 5)
    del counts[3]
    seeds = seed_table_from_counts(counts, 2)
    with pytest.raises(InputError,
                       match=r"^seed table has no entry for n=3$"):
        recurrence_bound(seeds, lambda n: n, 8)


def test_seed_table_empty_rejected():
    seeds = seed_table_from_counts({}, 2)
    with pytest.raises(InputError,
                       match=r"^seed table has no entry for n=1$"):
        recurrence_bound(seeds, lambda n: n, 4)


# -- the recurrence ---------------------------------------------------------


def test_recurrence_hand_checked_value():
    # seeds R(1) = 2; tau(2) = 2.  B(2) = g(2) + g(1)*g(1) with
    # g(m) = B(ceil(m/2)) = 2, so B(2) = 2 + 4 = 6.
    seeds = seed_table_from_counts({1: 2}, 2)
    table = recurrence_bound(seeds, lambda n: n, 2)
    assert abs(float(table[2].log_q) - math.log2(6)) < 1e-12
    assert recurrence_bound({1: 2}, lambda n: n, 2) == {1: 2, 2: 6}


def test_recurrence_tau_one_chain():
    # tau = 1 collapses the recurrence to B(n) = B(ceil(n/2))
    seeds = seed_table_from_counts({1: 2}, 2)
    table = recurrence_bound(seeds, lambda n: 1, 16)
    for n in range(2, 17):
        assert abs(float(table[n].log_q) - 1.0) < 1e-9


@pytest.mark.parametrize("q, n_max, n_seeds", [
    (2, 12, (1, 2, 3, 6)), (2, 40, (10,)), (2, 60, (10,)),
    # the pair sums' odd and even boundaries: the first rows past one
    # seed, and tops of both parities
    (3, 1, (1,)), (3, 2, (1,)), (3, 3, (1,)), (3, 13, (1,)), (3, 41, (1,)),
    # the half-length rows: n + p of both parities on every row, seed
    # lengths of both parities, and tables of odd and even length
    (2, 21, (1, 2, 5)), (2, 22, (4, 7)), (3, 20, (2, 3)), (4, 15, (1, 4)),
    (4, 16, (3, 6))])
def test_recurrence_matches_exact_oracle(q, n_max, n_seeds):
    # on int seeds the engine is the exact-integer mirror; the log-domain
    # engine must dominate it and stay within the nudge budget of it
    # tau >= n on every row sums the geometric series; any row below n
    # (the boundary tau, n - 1 on one row only) takes the convolution rows
    for n_seed in n_seeds:
        seeds_counts = _counts(q, n_seed)
        seeds = seed_table_from_counts(seeds_counts, q)
        for tau in (lambda n: n, lambda n: n + 3,
                    lambda n: n - 1 if n == n_max - 2 else n,
                    lambda n: n - 1 if n == n_max else n,
                    lambda n: 1, lambda n: 2, lambda n: 3,
                    lambda n: n_max, lambda n: max(1, n // 2),
                    # p_cap = n_max - 1, and p = n - 1 on every row
                    lambda n: max(1, n_max - 1), lambda n: max(1, n - 1)):
            exact = oracles.recurrence_table_exact(seeds_counts, tau, n_max)
            assert recurrence_bound(seeds_counts, tau, n_max) == {
                n: exact[n] for n in range(1, n_max + 1)}
            if n_max > 41:  # the int check reaches further
                continue
            table = recurrence_bound(seeds, tau, n_max)
            with mpmath.workprec(256):
                for n in range(1, n_max + 1):
                    got = table[n].log_q
                    want = mpmath.log(exact[n]) / mpmath.log(q)
                    # at or above the exact row, up to the 256-bit log
                    assert got >= want * (1 - mpmath.mpf(2) ** -240), (
                        n_max, n_seed, n)
                    assert got <= want + 1e-9, (n_max, n_seed, n)


def _logvalue_ops(monkeypatch):
    """A one-item list counting LogValue additions and multiplications."""
    from richwords.logvalue import LogValue

    ops = [0]

    def counted(op):
        def wrapper(self, other):
            ops[0] += 1
            return op(self, other)
        return wrapper

    monkeypatch.setattr(LogValue, "__add__", counted(LogValue.__add__))
    monkeypatch.setattr(LogValue, "__mul__", counted(LogValue.__mul__))
    return ops


def test_recurrence_convolves_the_rows_over_half_the_length(monkeypatch):
    # the benchmark's two tables, from exact seeds to 10 at q = 2.  The
    # series reads its convolutions through pair sums (3,540 operations
    # summed term by term); the rows sum binomial-weighted convolution
    # powers of B over half the length, where the full-length rows took
    # 29,084 operations term by term and 14,969 through pair sums
    ops = _logvalue_ops(monkeypatch)
    seeds = seed_table_from_counts(_counts(2, 10), 2)
    for tau, n_max, most in ((lambda n: n, 60, 1858),
                             (lambda n: 4, 100, 8112)):
        ops[0] = 0
        recurrence_bound(seeds, tau, n_max)
        assert ops[0] <= most, (n_max, ops[0])


def test_seeds_that_reach_n_max_take_no_operation(monkeypatch):
    # the seeds are every row, so neither order runs: the series used to
    # take 218 operations at n_max = 20 and drop every result
    ops = _logvalue_ops(monkeypatch)
    seeds = seed_table_from_counts(_counts(2, 20), 2)
    for tau in (lambda n: n, lambda n: 4):
        for n_max in (1, 12, 20):
            table = recurrence_bound(seeds, tau, n_max)
            assert table == {n: seeds[n] for n in range(1, n_max + 1)}
    assert ops[0] == 0


class _Tally(int):
    """An int whose + and * only count themselves: the engine's operation
    count without the arithmetic.  As a subclass of int it also takes the
    int engine's binomial weights, int * _Tally included."""

    ops = 0

    def _op(self, other):
        _Tally.ops += 1
        return self

    __add__ = __radd__ = __mul__ = __rmul__ = _op


# operations of the full-length rows read through pair sums, from exact
# seeds to 10 at q = 2: tau const:2, 4, 8, 25, n_max - 1 and ceil(ln n) + 1
_PAIR_SUM_ROWS_OPS = {
    100: (5089, 14969, 33567, 96587, 173954, 24405),
    200: (20189, 59969, 137167, 431387, 1362954, 117968)}


def _op_guard_taus(n_max):
    return [lambda n, k=k: k for k in (2, 4, 8, 25, n_max - 1)] + [
        lambda n: math.ceil(math.log(n)) + 1]


def test_tally_counts_as_logvalue_operations(monkeypatch):
    ops = _logvalue_ops(monkeypatch)
    seeds = seed_table_from_counts(_counts(2, 10), 2)
    for tau in _op_guard_taus(30):
        ops[0] = _Tally.ops = 0
        recurrence_bound(seeds, tau, 30)
        recurrence_bound(dict.fromkeys(range(1, 11), _Tally(1)), tau, 30)
        assert _Tally.ops == ops[0] > 0


@pytest.mark.parametrize("n_max", sorted(_PAIR_SUM_ROWS_OPS))
def test_half_length_rows_never_take_more_operations(n_max):
    # no cap, small or up to n_max - 1, costs more than the full-length
    # rows did
    seeds = dict.fromkeys(range(1, 11), _Tally(1))
    for tau, before in zip(_op_guard_taus(n_max), _PAIR_SUM_ROWS_OPS[n_max]):
        _Tally.ops = 0
        recurrence_bound(seeds, tau, n_max)
        assert _Tally.ops <= before, (tau(n_max), _Tally.ops, before)


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
    assert table == {n: seeds[n] for n in range(1, 6)}


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
        assert t2[n].log_q >= t1[n].log_q


def test_tau_n_rows_never_beat_the_trivial_bound():
    # summing every part count overcounts too much to beat q^n: from exact
    # binary seeds up to 10, every tau = n row to 60 lies above n.  A cap
    # of 4 parts first falls below n at n = 25, but its rows are only
    # conditional, and the condition is false: binary rich words of
    # length 14 need 5 palindromes, so const:4 is not a valid cap
    seeds = seed_table_from_counts(_counts(2, 10), 2)
    table = recurrence_bound(seeds, lambda n: n, 60)
    exponents = {n: table[n].log_q for n in range(11, 61)}
    assert all(exponents[n] > n for n in exponents)
    assert 17.86 < exponents[11] < 17.87
    assert 100.88 < exponents[60] < 100.89
    capped = recurrence_bound(seeds, lambda n: 4, 25)
    assert [n for n in range(11, 26)
            if capped[n].log_q < n] == [25]


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
    gate = VerifiedRange(parse_function_spec("sqrt"), 1.0, 4.0)
    assert check_jensen(gate, [1.0, 4.0])


def test_jensen_refuses_convex_function():
    with pytest.raises(HypothesisNotVerifiedError):
        VerifiedRange(parse_function_spec("power:2"), 1.0, 4.0)


def test_jensen_refuses_decreasing_function():
    with pytest.raises(HypothesisNotVerifiedError):
        VerifiedRange(FunctionSpec(a=1.0, b=-0.25, domain_min=1.0), 2.0, 3.0)


def test_jensen_x_over_lnx():
    gate = VerifiedRange(parse_function_spec("x-over-lnx"), 9.0, 4096.0)
    assert check_jensen(gate, [9.0, 100.0, 4096.0])


# one gate for every drawn list: each lies in [1, 1e6]
_SQRT_GATE = VerifiedRange(parse_function_spec("sqrt"), 1.0, 1e6)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1.0, 1e6), min_size=2, max_size=6))
def test_jensen_sqrt_property(xs):
    assert check_jensen(_SQRT_GATE, xs)


def test_jensen_mean_that_rounds_out_of_a_one_point_range_is_kept():
    # seven copies of x average, in floats, to one ulp above x
    x = 10.4253
    assert math.fsum([x] * 7) / 7 > x
    assert check_jensen(VerifiedRange(parse_function_spec("sqrt@2"), x, x),
                        [x] * 7)


def test_jensen_point_outside_the_range_is_refused():
    gate = VerifiedRange(parse_function_spec("x-over-lnx"), 9.0, 4096.0)
    assert check_jensen(gate, [9.0, 4096.0])
    # 8 is below the range, though inside the floor; 5000 is above it
    for xs in ([8.0, 100.0], [100.0, 5000.0]):
        with pytest.raises(HypothesisNotVerifiedError, match="outside"):
            check_jensen(gate, xs)


def test_hypothesis_failure_carries_report():
    with pytest.raises(HypothesisNotVerifiedError) as exc:
        VerifiedRange(ExponentFunction(parse_function_spec("power:2"),
                                       IDENTITY, c1=1.0, c2=1.0),
                      x_lo=2.0, x_hi=3.0)
    assert exc.value.report is not None


def test_psi_above_identity_inside_the_hull_is_refused():
    # psi = 0.8*ln(x)**3 is below x at 8 and at 50 but above it near 10.9
    with pytest.raises(HypothesisNotVerifiedError) as exc:
        VerifiedRange(ExponentFunction(parse_function_spec("x-over-lnx"),
                                       FunctionSpec(0.8, 0.0, c=3.0),
                                       c1=0.1, c2=10.0),
                      x_lo=8.0, x_hi=50.0)
    assert not exc.value.report["psi_leq_x_ok"]
    assert 8.0 < exc.value.report["witness"]["psi_leq_x_fails_at"] < 50.0


def test_construction_always_verifies(hypothesis_scans):
    # a range is required, and it is verified before the object exists
    with pytest.raises(TypeError, match="x_lo"):
        VerifiedRange(ExponentFunction(IDENTITY, IDENTITY))
    with pytest.raises(HypothesisNotVerifiedError):
        VerifiedRange(ExponentFunction(parse_function_spec("power:2"),
                                       IDENTITY),
                      x_lo=1.0, x_hi=1e9)
    params = _identity_params()
    assert len(hypothesis_scans) == 2  # one per construction
    assert check_product_bound(120, 3, [40, 40, 40], params)
    assert check_p_monotonicity(100.0, 4, params)
    assert len(hypothesis_scans) == 2  # the checks never verify again


def test_argument_outside_the_range_is_refused():
    params = _identity_params(x_lo=2.0, x_hi=10.0)
    assert check_product_bound(8, 2, [4, 4], params)  # asks 2, 2 and 3
    # ceil(1/2) = 1 lies below the range, ceil(40/2) = 20 above it
    with pytest.raises(HypothesisNotVerifiedError, match="outside"):
        check_product_bound(4, 2, [1, 3], params)
    with pytest.raises(HypothesisNotVerifiedError, match="outside"):
        check_product_bound(40, 2, [20, 20], params)
    # 100/2 + 1 = 51 above it
    with pytest.raises(HypothesisNotVerifiedError, match="outside"):
        check_p_monotonicity(100.0, 1, params)
