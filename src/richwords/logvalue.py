"""Positive reals stored as base-q exponents, with directed rounding.

A LogValue represents q**log_q.  Multiplication adds exponents; addition
of the represented values goes through log-sum-exp in base q.  Exponents
are mpmath floats carried at PRECISION_BITS of working precision, well
above the 80 bits the bound tables call for.

Directed rounding is implemented by an outward nudge: after an operation
is evaluated at working precision, the result is shifted by
2**(magnitude - PRECISION_BITS + GUARD_BITS) in the requested direction.
mpmath's primitive operations are accurate to about one unit in the last
place, and no operation here composes more than a handful of primitives,
so the nudge strictly covers the true result.  Chains of "up" operations
therefore give certified upper bounds (and "down" chains lower bounds) at
the cost of a relative error around 2**-112 per step.
"""

from __future__ import annotations

from dataclasses import dataclass

import mpmath
from mpmath import mp

from .errors import InputError

PRECISION_BITS = 120
GUARD_BITS = 8

ROUND_UP = "up"
ROUND_DOWN = "down"
ROUND_NEAREST = "nearest"

_DIRECTION = {ROUND_UP: 1, ROUND_DOWN: -1, ROUND_NEAREST: 0}

_LN_CACHE: dict[int, mpmath.mpf] = {}


def _ln_base(q: int) -> mpmath.mpf:
    value = _LN_CACHE.get(q)
    if value is None:
        with mp.workprec(PRECISION_BITS + 16):
            value = mpmath.ln(q)
        _LN_CACHE[q] = value
    return value


def nudge(x, direction: int, prec: int = PRECISION_BITS):
    """Shift x outward by 2**(mag(x) - prec + GUARD_BITS).

    direction +1 moves up, -1 moves down, 0 returns x unchanged.  The
    shift floor for x == 0 is 2**(-prec + GUARD_BITS).
    """
    if direction == 0:
        return x
    magnitude = 0 if x == 0 else int(mpmath.mag(x))
    eps = mpmath.ldexp(1, magnitude - prec + GUARD_BITS)
    with mp.workprec(prec):
        return x + eps if direction > 0 else x - eps


def _check_rounding(rounding: str) -> int:
    try:
        return _DIRECTION[rounding]
    except KeyError:
        raise InputError(
            f"rounding must be one of {sorted(_DIRECTION)}, got {rounding!r}"
        ) from None


@dataclass(frozen=True, eq=False)
class LogValue:
    """The positive real q**log_q under a fixed rounding policy."""

    log_q: mpmath.mpf
    q: int
    rounding: str = ROUND_NEAREST

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise InputError(f"base must be an integer >= 2, got {self.q!r}")
        _check_rounding(self.rounding)
        # coerce only non-mpf input: mpf(x) re-rounds an existing mpf to
        # the ambient (53-bit) precision, which would erase the nudges
        if not isinstance(self.log_q, mpmath.mpf):
            with mp.workprec(PRECISION_BITS):
                object.__setattr__(self, "log_q", mpmath.mpf(self.log_q))

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, value: int, q: int, rounding: str = ROUND_NEAREST
                 ) -> "LogValue":
        if not isinstance(value, int) or value < 1:
            raise InputError(f"need a positive integer, got {value!r}")
        direction = _check_rounding(rounding)
        with mp.workprec(max(PRECISION_BITS, value.bit_length() + 16)):
            exponent = mpmath.ln(value) / _ln_base(q)
        with mp.workprec(PRECISION_BITS):
            exponent = +exponent
        return cls(nudge(exponent, direction), q, rounding)

    @classmethod
    def from_exponent(cls, log_q, q: int, rounding: str = ROUND_NEAREST
                      ) -> "LogValue":
        return cls(mpmath.mpf(log_q), q, rounding)

    # -- arithmetic ---------------------------------------------------------

    def _compatible(self, other: "LogValue") -> None:
        if not isinstance(other, LogValue):
            raise InputError(f"expected a LogValue, got {other!r}")
        if other.q != self.q:
            raise InputError(f"mixed bases {self.q} and {other.q}")
        if other.rounding != self.rounding:
            raise InputError(
                f"mixed rounding {self.rounding!r} and {other.rounding!r}")

    def __mul__(self, other: "LogValue") -> "LogValue":
        self._compatible(other)
        direction = _DIRECTION[self.rounding]
        with mp.workprec(PRECISION_BITS):
            exponent = self.log_q + other.log_q
        return LogValue(nudge(exponent, direction), self.q, self.rounding)

    def __add__(self, other: "LogValue") -> "LogValue":
        """Addition of the represented values via base-q log-sum-exp."""
        self._compatible(other)
        direction = _DIRECTION[self.rounding]
        hi, lo = self.log_q, other.log_q
        if lo > hi:
            hi, lo = lo, hi
        ln_q = _ln_base(self.q)
        with mp.workprec(PRECISION_BITS):
            # hi + log_q(1 + q**(lo - hi)), with lo - hi <= 0
            tail = mpmath.log1p(mpmath.exp((lo - hi) * ln_q)) / ln_q
            exponent = hi + tail
        return LogValue(nudge(exponent, direction), self.q, self.rounding)

    def power(self, k: int) -> "LogValue":
        if not isinstance(k, int) or k < 0:
            raise InputError(f"exponent must be a non-negative integer, got {k!r}")
        direction = _DIRECTION[self.rounding]
        with mp.workprec(PRECISION_BITS):
            exponent = self.log_q * k
        return LogValue(nudge(exponent, direction), self.q, self.rounding)

    def with_rounding(self, rounding: str) -> "LogValue":
        """Re-tag the rounding policy; moving to a directed mode nudges the
        exponent outward so certification is preserved."""
        direction = _check_rounding(rounding)
        exponent = self.log_q
        if rounding != self.rounding and direction != 0:
            exponent = nudge(exponent, direction)
        return LogValue(exponent, self.q, rounding)

    # -- conversions and order ----------------------------------------------

    def value(self) -> mpmath.mpf:
        with mp.workprec(PRECISION_BITS):
            return mpmath.power(self.q, self.log_q)

    def to_float(self) -> float:
        return float(self.value())

    def _ordering_key(self, other: "LogValue"):
        if not isinstance(other, LogValue):
            raise InputError(f"cannot compare LogValue with {other!r}")
        if other.q != self.q:
            raise InputError(f"mixed bases {self.q} and {other.q}")
        return self.log_q, other.log_q

    def __lt__(self, other):
        a, b = self._ordering_key(other)
        return a < b

    def __le__(self, other):
        a, b = self._ordering_key(other)
        return a <= b

    def __gt__(self, other):
        a, b = self._ordering_key(other)
        return a > b

    def __ge__(self, other):
        a, b = self._ordering_key(other)
        return a >= b

    def __eq__(self, other):
        if not isinstance(other, LogValue):
            return NotImplemented
        return self.q == other.q and self.log_q == other.log_q

    def __hash__(self):
        return hash((self.q, self.log_q))

    def __repr__(self):
        return f"LogValue({self.q}**{mpmath.nstr(self.log_q, 12)}, {self.rounding})"
