"""Positive reals stored as base-q exponents, every operation rounded up.

A LogValue represents q**log_q.  Multiplication adds exponents; addition
of the represented values goes through log-sum-exp in base q.  Exponents
are mpmath floats carried at PRECISION_BITS of working precision, well
above the 80 bits the bound tables call for.

Rounding up is implemented by an outward nudge: after an operation is
evaluated at working precision, the result is raised by
2**(m - PRECISION_BITS + GUARD_BITS), where m is the magnitude of the
result (mpmath.mag, 0 for zero).  mpmath's primitive operations are
accurate to about one unit in the last place, and no operation here
composes more than a handful of primitives, so the nudge strictly covers
the true result.  Chains of operations therefore give certified upper
bounds, at the cost of a relative error around 2**-112 per step.

Addition evaluates hi + log_q(1 + q**(lo - hi)), and the error of its
tail is relative to the tail, not to the sum: the argument t of the
exponential is itself rounded, so the tail is off by up to |t| units in
its last place, and when hi is negative the sum can cancel to far below
the tail.  So an addition takes m as the larger of mag(sum), unless the
sum is 0, and mag(tail) + max(0, mag(t)).  For hi >= 1, as everywhere in
the bound recurrence, the second is never the larger (tail * |t| < 1
there), so m is mag(sum) as for every other operation.

`*`, `+` and the nudge call mpmath.libmp on the raw (sign, man, exp, bc)
tuples of the exponents.  They run the same primitives, at the same
precisions and with the same round-to-nearest, as mpmath's context does
for `x + y`, `exp`, `log1p` and `/` at PRECISION_BITS (log1p at 10 bits
more, and 1 + x at twice that), so the argument above rests on mpmath's
primitives alone; only the context's per-call bookkeeping is skipped.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp
from mpmath.libmp import (fone, mpf_add, mpf_div, mpf_exp, mpf_gt, mpf_log,
                          mpf_mul, mpf_pos, mpf_shift, mpf_sub, round_nearest)

from .errors import InputError

PRECISION_BITS = 120
GUARD_BITS = 8

# the only rounding; from_int takes it by name
ROUND_UP = "up"

# mpmath.log1p works at 10 bits above the caller's precision
_LOG1P_PREC = PRECISION_BITS + 10

_LN_CACHE: dict[int, mpmath.mpf] = {}
_make_mpf = mp.make_mpf


def _ln_base(q: int) -> mpmath.mpf:
    value = _LN_CACHE.get(q)
    if value is None:
        with mp.workprec(PRECISION_BITS + 16):
            value = mpmath.ln(q)
        _LN_CACHE[q] = value
    return value


def _mag(x: tuple) -> int:
    """mpmath.mag of a raw mpf tuple, with 0 for zero."""
    _, man, exp, bc = x
    return exp + bc if man else 0


def _nudged(x: tuple, prec: int, magnitude: int) -> tuple:
    """x raised by 2**(magnitude - prec + GUARD_BITS), the sum rounded to
    nearest at prec bits, on raw mpf tuples."""
    eps = mpf_shift(fone, magnitude - prec + GUARD_BITS)
    return mpf_add(x, eps, prec, round_nearest)


def _log1p(x: tuple) -> tuple:
    """mpmath.log1p(x) at PRECISION_BITS, step for step, on raw tuples."""
    _, man, exp, bc = x
    if not man:
        return x
    if exp + bc < -_LOG1P_PREC:
        # log(1 + x) = x - x**2/2 + O(x**3); halving is exact
        half_square = mpf_shift(mpf_mul(x, x, _LOG1P_PREC, round_nearest), -1)
        value = mpf_sub(x, half_square, _LOG1P_PREC, round_nearest)
    else:
        value = mpf_log(mpf_add(fone, x, 2 * _LOG1P_PREC, round_nearest),
                        _LOG1P_PREC, round_nearest)
    return mpf_pos(value, PRECISION_BITS, round_nearest)


@dataclass(frozen=True, eq=False)
class LogValue:
    """The positive real q**log_q; every operation on it rounds up."""

    log_q: mpmath.mpf
    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise InputError(f"base must be an integer >= 2, got {self.q!r}")
        # coerce only non-mpf input: mpf(x) re-rounds an existing mpf to
        # the ambient (53-bit) precision, which would erase the nudges
        if not isinstance(self.log_q, mpmath.mpf):
            with mp.workprec(PRECISION_BITS):
                object.__setattr__(self, "log_q", mpmath.mpf(self.log_q))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, value: int, q: int, rounding: str = ROUND_UP
                 ) -> "LogValue":
        """value as a LogValue, its exponent rounded up."""
        if rounding != ROUND_UP:
            raise InputError(
                f"rounding must be {ROUND_UP!r}, got {rounding!r}")
        if not isinstance(value, int) or value < 1:
            raise InputError(f"need a positive integer, got {value!r}")
        # before _ln_base caches the log of a bad base
        if not isinstance(q, int) or q < 2:
            raise InputError(f"base must be an integer >= 2, got {q!r}")
        with mp.workprec(max(PRECISION_BITS, value.bit_length() + 16)):
            exponent = mpmath.ln(value) / _ln_base(q)
        exponent = mpf_pos(exponent._mpf_, PRECISION_BITS, round_nearest)
        return cls(_make_mpf(_nudged(exponent, PRECISION_BITS,
                                     _mag(exponent))), q)

    # -- arithmetic ---------------------------------------------------------

    def _compatible(self, other: "LogValue") -> None:
        if not isinstance(other, LogValue):
            raise InputError(f"expected a LogValue, got {other!r}")
        if other.q != self.q:
            raise InputError(f"mixed bases {self.q} and {other.q}")

    def __mul__(self, other: "LogValue") -> "LogValue":
        self._compatible(other)
        # one rounding of the exact sum: its error is relative to the sum
        exponent = mpf_add(self.log_q._mpf_, other.log_q._mpf_,
                           PRECISION_BITS, round_nearest)
        return LogValue(_make_mpf(_nudged(exponent, PRECISION_BITS,
                                          _mag(exponent))), self.q)

    def __add__(self, other: "LogValue") -> "LogValue":
        """Addition of the represented values via base-q log-sum-exp."""
        self._compatible(other)
        hi, lo = self.log_q._mpf_, other.log_q._mpf_
        if mpf_gt(lo, hi):
            hi, lo = lo, hi
        ln_q = _ln_base(self.q)._mpf_
        prec = PRECISION_BITS
        # hi + log1p(exp(t)) / ln q, with t = (lo - hi) * ln q <= 0
        t = mpf_mul(mpf_sub(lo, hi, prec, round_nearest), ln_q, prec,
                    round_nearest)
        tail = mpf_div(_log1p(mpf_exp(t, prec, round_nearest)), ln_q, prec,
                       round_nearest)
        exponent = mpf_add(hi, tail, prec, round_nearest)
        # see the module docstring; the tail is never 0, the sum can be
        magnitude = _mag(tail) + max(0, _mag(t))
        if exponent[1]:
            magnitude = max(magnitude, _mag(exponent))
        return LogValue(_make_mpf(_nudged(exponent, prec, magnitude)), self.q)

    def __repr__(self):
        return f"LogValue({self.q}**{mpmath.nstr(self.log_q, 12)})"
