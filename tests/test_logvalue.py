import math

import mpmath
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richwords import (InputError, LogValue, ROUND_DOWN, ROUND_NEAREST,
                       ROUND_UP)
from richwords.logvalue import nudge


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
        LogValue.from_exponent(1.0, 1)
    with pytest.raises(InputError):
        LogValue.from_exponent(1.0, 0)


def test_mul_adds_exponents():
    a = LogValue.from_exponent(3.0, 2)
    b = LogValue.from_exponent(4.5, 2)
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


def test_mixed_rounding_rejected():
    a = LogValue.from_int(2, 2, ROUND_UP)
    b = LogValue.from_int(2, 2, ROUND_DOWN)
    with pytest.raises(InputError):
        a * b


def test_directed_ordering():
    # compare as mpf: the nudges live ~100 bits below float64 resolution
    for x, y in ((932, 488), (3, 7), (10**6, 10**6 + 1)):
        up = LogValue.from_int(x, 2, ROUND_UP) + LogValue.from_int(
            y, 2, ROUND_UP)
        near = LogValue.from_int(x, 2) + LogValue.from_int(y, 2)
        down = LogValue.from_int(x, 2, ROUND_DOWN) + LogValue.from_int(
            y, 2, ROUND_DOWN)
        assert down.log_q <= near.log_q <= up.log_q
        assert down.log_q < up.log_q


def _log2_bracket(n):
    """(lower, upper) enclosure of log2(n), good to ~2^-140."""
    with mpmath.workprec(250):
        x = mpmath.log(n) / mpmath.log(2)
        return x - mpmath.ldexp(1, -140), x + mpmath.ldexp(1, -140)


@settings(max_examples=200)
@given(st.lists(st.integers(1, 10**12), min_size=2, max_size=8))
def test_up_sum_dominates_exact(ints):
    """Round-up accumulation must never undershoot the exact value."""
    acc = LogValue.from_int(ints[0], 2, ROUND_UP)
    for x in ints[1:]:
        acc = acc + LogValue.from_int(x, 2, ROUND_UP)
    lower, _ = _log2_bracket(sum(ints))
    assert acc.log_q > lower


@settings(max_examples=200)
@given(st.lists(st.integers(1, 10**9), min_size=2, max_size=8))
def test_down_product_never_overshoots(ints):
    acc = LogValue.from_int(ints[0], 2, ROUND_DOWN)
    exact = ints[0]
    for x in ints[1:]:
        acc = acc * LogValue.from_int(x, 2, ROUND_DOWN)
        exact *= x
    _, upper = _log2_bracket(exact)
    assert acc.log_q < upper


@given(st.integers(1, 10**15), st.integers(1, 10**15))
def test_add_commutes_to_the_ulp(x, y):
    a = LogValue.from_int(x, 2) + LogValue.from_int(y, 2)
    b = LogValue.from_int(y, 2) + LogValue.from_int(x, 2)
    assert abs(a.log_q - b.log_q) < mpmath.mpf(2) ** -90


def test_addition_associativity_within_tolerance():
    xs = [17, 5, 90001, 3]
    left = LogValue.from_int(xs[0], 2)
    for x in xs[1:]:
        left = left + LogValue.from_int(x, 2)
    right = LogValue.from_int(xs[-1], 2)
    for x in reversed(xs[:-1]):
        right = LogValue.from_int(x, 2) + right
    assert abs(left.log_q - right.log_q) < mpmath.mpf(2) ** -90


def test_with_rounding_nudges_outward():
    v = LogValue.from_exponent(1.0, 2)
    up = v.with_rounding(ROUND_UP)
    down = v.with_rounding(ROUND_DOWN)
    assert float(down.log_q) <= 1.0 <= float(up.log_q)
    assert up.rounding == ROUND_UP


def test_nudge_is_strict():
    x = mpmath.mpf(1.0)
    assert nudge(x, 1) > x
    assert nudge(x, -1) < x
    assert nudge(mpmath.mpf(0), 1) > 0
