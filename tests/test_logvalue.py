import math
import random

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richwords import InputError, LogValue, ROUND_UP
from richwords.logvalue import (_LN_CACHE, GUARD_BITS, PRECISION_BITS, _mag,
                                _nudged)

from . import oracles


def test_from_int_roundtrip():
    v = LogValue.from_int(1024, 2)
    assert abs(float(v.log_q) - 10.0) < 1e-30


def test_from_int_rejects_nonpositive():
    with pytest.raises(InputError):
        LogValue.from_int(0, 2)
    with pytest.raises(InputError):
        LogValue.from_int(-3, 2)


def test_base_validation():
    with pytest.raises(InputError):
        LogValue(mpmath.mpf(1), 1)
    with pytest.raises(InputError):
        LogValue(mpmath.mpf(1), 0)
    cached = set(_LN_CACHE)
    for q in (1, 0, -2, 2.0):
        with pytest.raises(InputError):
            LogValue.from_int(5, q)
    assert set(_LN_CACHE) == cached


def test_mul_adds_exponents():
    a = LogValue(mpmath.mpf(3), 2)
    b = LogValue(mpmath.mpf("4.5"), 2)
    assert abs(float((a * b).log_q) - 7.5) < 1e-30


def test_add_matches_float_math():
    a = LogValue.from_int(932, 2)
    b = LogValue.from_int(488, 2)
    assert abs(float((a + b).log_q) - math.log2(1420)) < 1e-12


def test_mixed_bases_rejected():
    a = LogValue.from_int(2, 2)
    b = LogValue.from_int(2, 3)
    with pytest.raises(InputError):
        a * b
    with pytest.raises(InputError):
        a + b


def test_from_int_rejects_other_roundings():
    assert LogValue.from_int(2, 2, ROUND_UP).log_q > 1
    for rounding in ("down", "nearest", "UP", None):
        with pytest.raises(InputError, match="rounding"):
            LogValue.from_int(2, 2, rounding)


@settings(max_examples=200)
@given(st.lists(st.integers(1, 10**12), min_size=2, max_size=8))
def test_up_sum_dominates_exact(ints):
    """Round-up accumulation must never undershoot the exact value."""
    acc = LogValue.from_int(ints[0], 2, ROUND_UP)
    for x in ints[1:]:
        acc = acc + LogValue.from_int(x, 2, ROUND_UP)
    lower, _ = oracles.log2_bracket(sum(ints))
    assert acc.log_q > lower


@settings(max_examples=200)
@given(st.lists(st.integers(1, 10**9), min_size=2, max_size=8))
def test_up_product_never_undershoots(ints):
    acc = LogValue.from_int(ints[0], 2, ROUND_UP)
    exact = ints[0]
    for x in ints[1:]:
        acc = acc * LogValue.from_int(x, 2, ROUND_UP)
        exact *= x
    lower, _ = oracles.log2_bracket(exact)
    assert acc.log_q > lower


@given(st.integers(1, 10**15), st.integers(1, 10**15))
def test_add_commutes_to_the_ulp(x, y):
    a = LogValue.from_int(x, 2, ROUND_UP) + LogValue.from_int(y, 2, ROUND_UP)
    b = LogValue.from_int(y, 2, ROUND_UP) + LogValue.from_int(x, 2, ROUND_UP)
    assert abs(a.log_q - b.log_q) < mpmath.mpf(2) ** -90


def test_addition_associativity_within_tolerance():
    xs = [17, 5, 90001, 3]
    left = LogValue.from_int(xs[0], 2, ROUND_UP)
    for x in xs[1:]:
        left = left + LogValue.from_int(x, 2, ROUND_UP)
    right = LogValue.from_int(xs[-1], 2, ROUND_UP)
    for x in reversed(xs[:-1]):
        right = LogValue.from_int(x, 2, ROUND_UP) + right
    assert abs(left.log_q - right.log_q) < mpmath.mpf(2) ** -90


# -- the kernel against the 400-bit oracles ------------------------------


def _exponent(rng):
    # a float plus bits below its last place, so the exponent has ~120 bits
    return (mpmath.mpf(rng.uniform(-60, 400))
            + mpmath.ldexp(rng.getrandbits(64), -100))


def _random_pairs():
    rng = random.Random(20261018)
    return [(rng.choice((2, 3, 7)), _exponent(rng), _exponent(rng))
            for _ in range(150)]


def _tail_pairs():
    # q**(lo - hi) below 2**-130 takes log1p's x - x**2/2 branch
    pairs = []
    for q in (2, 3, 7):
        for bits in (131, 160, 300, 1000, 3000):
            for hi in (mpmath.mpf(0), mpmath.mpf("37.25"), mpmath.mpf(-5)):
                pairs.append((q, hi, hi - mpmath.mpf(bits) / math.log2(q)))
    return pairs


def _special_pairs():
    pairs = []
    for q in (2, 3, 7):
        # equal operands
        for x in (0, 1, -1, "-3.25", "10000.5", "1e-18"):
            pairs.append((q, mpmath.mpf(x), mpmath.mpf(x)))
        # log_q = 0 on one or both sides
        for x in (0, 5, -5, "0.001", "-1000"):
            pairs.append((q, mpmath.mpf(0), mpmath.mpf(x)))
        # negative exponents that fit in 53 bits, and sums whose
        # exponent cancels to about 0:
        # q**hi + q**lo = 1 with hi = log_q(1 - q**lo) at 120 bits
        for lo in ("-0.5", "-2", "-7.75", "-40", "-100"):
            lo = mpmath.mpf(lo)
            with mpmath.workprec(PRECISION_BITS):
                hi = mpmath.log(1 - mpmath.mpf(q) ** lo) / mpmath.log(q)
            pairs.append((q, hi, lo))
            pairs.append((q, lo, lo - 3))
    return pairs


def _operands(pair):
    # the constructor keeps every bit of an mpf exponent, as the bound
    # recurrence's values have
    q, a, b = pair
    return q, LogValue(a, q), LogValue(b, q), a, b


def _assert_within_budget(result, exact, scale):
    """result lies above exact, within twice the nudge of scale (one
    nudge covers the primitives' error)."""
    budget = 2 * oracles.nudge_step(scale, PRECISION_BITS, GUARD_BITS)
    with mpmath.workprec(oracles.ORACLE_BITS):
        gap = result.log_q - exact
    assert 0 < gap <= budget


_PAIRS = _random_pairs() + _tail_pairs() + _special_pairs()


def test_add_brackets_the_oracle():
    for pair in _PAIRS:
        q, x, y, a, b = _operands(pair)
        exact = oracles.log_q_of_sum(a, b, q)
        hi, lo = max(a, b), min(a, b)
        with mpmath.workprec(oracles.ORACLE_BITS):
            # the tail's error grows with the exponential's argument t,
            # and it is the tail's, not the sum's, when the sum cancels;
            # 2|t| because the magnitudes of tail and t are added
            tail = exact - hi
            t = (lo - hi) * mpmath.log(q)
            scale = max(abs(exact), tail * max(1, 2 * abs(t)))
        for result in (x + y, y + x):
            _assert_within_budget(result, exact, scale)


def test_mul_brackets_the_oracle():
    for pair in _PAIRS:
        _, x, y, a, b = _operands(pair)
        exact = oracles.sum_of_exponents(a, b)
        for result in (x * y, y * x):
            _assert_within_budget(result, exact, exact)


@pytest.mark.parametrize("prec", [48, PRECISION_BITS])
@pytest.mark.parametrize("x", [0, -1, "-3.5", "-1e-30", "-123456.789", 2])
def test_nudge_moves_by_its_step(x, prec):
    x = mpmath.mpf(x)
    step = oracles.nudge_step(x, prec, GUARD_BITS)
    # the shifted value is rounded to prec bits: half a unit there at most
    slack = step / 2**(GUARD_BITS - 1)
    moved = mpmath.mp.make_mpf(_nudged(x._mpf_, prec, _mag(x._mpf_)))
    with mpmath.workprec(oracles.ORACLE_BITS):
        assert abs(moved - x - step) <= slack
        assert moved > x
