"""Certified upper-bound machinery in base-q log space.

The central object is the recurrence table

    B(n) = sum over p = 1..tau(n) of S_p(n),
    S_p  = p-fold convolution of g over compositions, g(m) = B(ceil(m/2)),

computed with every LogValue operation rounded up, so each entry is a
certified upper bound relative to the seeds.  The convolution only ever
reads entries at indices at most ceil(n/2), which is what makes seeding a
prefix of exact counts sound.

tau is an integer-valued function supplied by the caller; nothing here
pins a particular choice, because the multiplicative constant inside the
natural candidate ceil(c*n/ln n) is not determined by the development the
table is based on.

The rest of the module hosts the companion inequality checks: the
composition-count bound sum_{p<=L} C(n-1,p-1) <= (e*n/L)**L, the
convexity (Jensen) comparison, and the product/p-monotonicity checks for
the growth function Omega(x) = q**(c1*x/psi(x) + c2*(x/phi(x))*ln phi(x)).
Those checks compare exponents with a small relative slack and refuse to
run (rather than answer False) when their concavity precondition cannot
be verified on the sampled range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import mpmath
from mpmath import mp

from .errors import HypothesisNotVerifiedError, InputError, SeedGapError
from .functions import ExponentFunction, FunctionSpec, check_delta
from .logvalue import PRECISION_BITS, ROUND_DOWN, ROUND_UP, LogValue, nudge

__all__ = [
    "compositions_count",
    "check_composition_bound",
    "composition_bound_sweep",
    "OmegaParams",
    "omega",
    "BoundEntry",
    "BoundTable",
    "seed_table_from_counts",
    "recurrence_bound",
    "exponent_text",
    "check_product_bound",
    "check_p_monotonicity",
    "check_jensen",
    "EXPONENT_SLACK",
]

# relative slack used when comparing exponents of Omega-style quantities
EXPONENT_SLACK = 1e-9

# log-grid sizes of the concave-increasing precondition checks
_HYPOTHESIS_GRID_N = 256
_JENSEN_GRID_N = 128


def compositions_count(n: int, p: int) -> int:
    """Number of ways to write n as an ordered sum of p positive parts."""
    if not isinstance(p, int) or p < 1:
        raise InputError(f"part count must be a positive integer, got {p!r}")
    if not isinstance(n, int):
        raise InputError(f"n must be an integer, got {n!r}")
    if p > n:
        return 0
    return math.comb(n - 1, p - 1)


def check_composition_bound(n: int, L: int) -> bool:
    """Exact check of sum_{p=1..L} C(n-1,p-1) <= (e*n/L)**L.

    The left side is an exact integer; the right side is evaluated in
    high-precision arithmetic and rounded down, so a True verdict is
    conservative.
    """
    if not isinstance(n, int) or not isinstance(L, int) or not 1 <= L <= n:
        raise InputError(f"need integers 1 <= L <= n, got L={L!r}, n={n!r}")
    lhs = sum(math.comb(n - 1, p - 1) for p in range(1, L + 1))
    prec = max(PRECISION_BITS, n + 24)
    with mp.workprec(prec):
        return _under_composition_bound(lhs, L, mpmath.ln(n), mpmath.ln(L),
                                        prec)


def composition_bound_sweep(n_max: int) -> list[tuple[int, int]]:
    """Run check_composition_bound for all 1 <= L <= n <= n_max.

    Returns the (n, L) pairs that fail; the expected result is an empty
    list.  Shares logarithms across the sweep, which matters once n_max
    reaches a few hundred.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise InputError(f"n_max must be a positive integer, got {n_max!r}")
    failures = []
    prec = max(PRECISION_BITS, n_max + 24)
    with mp.workprec(prec):
        ln_table = [mpmath.mpf(0)] * (n_max + 1)
        for i in range(1, n_max + 1):
            ln_table[i] = mpmath.ln(i)
        for n in range(1, n_max + 1):
            lhs = 0
            ln_n = ln_table[n]
            for L in range(1, n + 1):
                lhs += math.comb(n - 1, L - 1)
                if not _under_composition_bound(lhs, L, ln_n, ln_table[L],
                                                prec):
                    failures.append((n, L))
    return failures


def _under_composition_bound(lhs: int, L: int, ln_n, ln_L,
                             prec: int) -> bool:
    # lhs <= (e*n/L)**L with the right side rounded down; runs inside
    # mp.workprec(prec)
    rhs = nudge(mpmath.exp(L * (1 + ln_n - ln_L)), -1, prec)
    return mpmath.mpf(lhs) <= rhs


@dataclass
class OmegaParams:
    """Parameters of the growth function Omega and its exponent.

    exponent is the ExponentFunction of c1, c2, phi and psi, built (and
    its constants checked) once.  ensure_hypothesis() verifies (on a
    sampled log grid) that psi stays below the identity and that the
    exponent function is increasing and concave over a range, and caches
    the verified hull so sweeps do not re-verify per call.
    """

    q: int
    c1: float
    c2: float
    phi: FunctionSpec
    psi: FunctionSpec
    _verified: tuple[float, float] | None = field(default=None, repr=False)
    exponent: ExponentFunction = field(init=False, repr=False)

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise InputError(f"q must be an integer >= 2, got {self.q!r}")
        self.exponent = ExponentFunction(self.phi, self.psi, self.c1, self.c2)

    def ensure_hypothesis(self, x_lo: float, x_hi: float) -> None:
        if self._verified is not None:
            lo, hi = self._verified
            if lo <= x_lo and x_hi <= hi:
                return
            x_lo, x_hi = min(lo, x_lo), max(hi, x_hi)
        for x in (x_lo, x_hi):
            if self.psi.value(x) > x:
                raise HypothesisNotVerifiedError(
                    f"psi(x) <= x fails at x={x:g} for {self.psi.label}")
        report = check_delta(self.exponent, x_lo, x_hi, _HYPOTHESIS_GRID_N)
        if not report.ok:
            raise HypothesisNotVerifiedError(
                f"exponent function is not concave-increasing near "
                f"x={report.violation_x:g} ({report.violation_kind})",
                report)
        self._verified = (x_lo, x_hi)


# the exponent function is evaluated in IEEE doubles, so a directed
# omega must be pushed outward by more than a few double ulps; 2**-48
# relative is ample and still far below any slack the callers use
_FLOAT_GUARD_PREC = 48


def omega(x: float, params: OmegaParams,
          rounding: str = "nearest") -> LogValue:
    """Omega(x) as a LogValue in base q."""
    if not x >= 1:
        raise InputError(f"x must be at least 1, got {x!r}")
    exponent = mpmath.mpf(params.exponent.value(float(x)))
    if rounding == ROUND_UP:
        exponent = nudge(exponent, 1, prec=_FLOAT_GUARD_PREC)
    elif rounding == ROUND_DOWN:
        exponent = nudge(exponent, -1, prec=_FLOAT_GUARD_PREC)
    return LogValue.from_exponent(exponent, params.q, rounding)


@dataclass(frozen=True)
class BoundEntry:
    value: LogValue
    provenance: str  # "exact-seed" or "recurrence"


@dataclass
class BoundTable:
    q: int
    entries: dict[int, BoundEntry] = field(default_factory=dict)
    tau_label: str = "unset"


def seed_table_from_counts(counts: dict[int, int], q: int) -> BoundTable:
    """Build a seed table from exact integer counts, rounding exponents
    up so the seeds themselves are valid upper bounds."""
    entries = {}
    for n, count in counts.items():
        if not isinstance(n, int) or n < 1:
            raise InputError(f"seed index must be a positive integer, got {n!r}")
        entries[n] = BoundEntry(LogValue.from_int(count, q, ROUND_UP),
                                "exact-seed")
    return BoundTable(q, entries, tau_label="unset")


def _checked_seeds(seeds: BoundTable) -> int:
    if not seeds.entries:
        raise SeedGapError(1)
    n_seed = max(seeds.entries)
    for i in range(1, n_seed + 1):
        if i not in seeds.entries:
            raise SeedGapError(i)
    return n_seed


def recurrence_bound(seeds: BoundTable, tau: Callable[[int], int],
                     n_max: int, tau_label: str = "custom") -> BoundTable:
    """Extend a seed table to n_max with the convolution recurrence.

    All arithmetic rounds up, so every produced entry is a certified
    upper bound for the quantity the recurrence dominates, relative to
    the seeds.  Entry n only reads entries at indices <= ceil(n/2).
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise InputError(f"n_max must be a positive integer, got {n_max!r}")
    n_seed = _checked_seeds(seeds)
    q = seeds.q

    values: dict[int, LogValue] = {}
    out_entries: dict[int, BoundEntry] = {}
    for n, entry in seeds.entries.items():
        value = entry.value
        if value.q != q:
            raise InputError(f"seed at n={n} has base {value.q}, table has {q}")
        if value.rounding != ROUND_UP:
            value = value.with_rounding(ROUND_UP)
        values[n] = value
        out_entries[n] = BoundEntry(value, entry.provenance)
    if n_max <= n_seed:
        return BoundTable(q, {n: out_entries[n] for n in range(1, n_max + 1)},
                          tau_label)

    taus: dict[int, int] = {}
    for n in range(n_seed + 1, n_max + 1):
        t = tau(n)
        if not isinstance(t, int) or t < 1:
            raise InputError(
                f"tau({n}) must be a positive integer, got {t!r}")
        taus[n] = t
    p_cap = min(n_max, max(taus.values()))

    # g[m] = B(ceil(m/2)); conv[p][m] = p-fold convolution of g at m
    g: list[LogValue | None] = [None] * (n_max + 1)
    conv: list[list[LogValue | None]] = [
        [None] * (n_max + 1) for _ in range(p_cap + 1)
    ]
    for n in range(1, n_max + 1):
        g[n] = values[(n + 1) // 2]
        conv[1][n] = g[n]
        for p in range(2, min(n, p_cap) + 1):
            acc: LogValue | None = None
            prev = conv[p - 1]
            for j in range(1, n - p + 2):
                term = g[j] * prev[n - j]
                acc = term if acc is None else acc + term
            conv[p][n] = acc
        if n > n_seed:
            total: LogValue | None = None
            for p in range(1, min(taus[n], n) + 1):
                term = conv[p][n]
                total = term if total is None else total + term
            values[n] = total
            out_entries[n] = BoundEntry(total, "recurrence")
    return BoundTable(q, out_entries, tau_label)


def exponent_text(x: mpmath.mpf) -> str:
    """x at 15 significant digits rounded toward +infinity, so a printed
    upper bound stays one; laid out as mpmath.nstr lays out exponents."""
    import decimal  # here, so that commands printing no bound skip its ~0.3 MB

    context = decimal.Context(prec=15, rounding=decimal.ROUND_CEILING)
    man, exp = x.man_exp  # |x| == man * 2**exp exactly
    man = -man if x < 0 else man
    # Decimal division is correctly rounded in the context's direction
    shown = context.divide(decimal.Decimal(man << max(exp, 0)),
                           decimal.Decimal(1 << max(-exp, 0)))
    text = f"{shown.normalize(context):f}"
    return text if "." in text else text + ".0"


def _exponent_leq(lhs: float, rhs: float) -> bool:
    return lhs <= rhs + EXPONENT_SLACK * max(abs(lhs), abs(rhs), 1.0)


def check_product_bound(n: int, p: int, parts, params: OmegaParams) -> bool:
    """Check prod_i Omega(ceil(n_i/2)) <= Omega(n/(2p) + 1)**p in exponent
    space for one composition of n into p parts."""
    parts = tuple(parts)
    if len(parts) != p:
        raise InputError(f"expected {p} parts, got {len(parts)}")
    if any((not isinstance(x, int)) or x < 1 for x in parts):
        raise InputError("parts must be positive integers")
    if sum(parts) != n:
        raise InputError(f"parts sum to {sum(parts)}, not {n}")
    args = [math.ceil(x / 2) for x in parts]
    rhs_arg = n / (2.0 * p) + 1.0
    lo = min(min(args), rhs_arg)
    hi = max(max(args), rhs_arg)
    params.ensure_hypothesis(lo, hi)
    f = params.exponent
    lhs = sum(f.value(float(x)) for x in args)
    rhs = p * f.value(rhs_arg)
    return _exponent_leq(lhs, rhs)


def check_p_monotonicity(n: float, p: int, params: OmegaParams) -> bool:
    """Check Omega(n/(2p)+1)**p <= Omega(n/(2(p+1))+1)**(p+1) in exponent
    space."""
    if not isinstance(p, int) or p < 1:
        raise InputError(f"p must be a positive integer, got {p!r}")
    if not n >= 1:
        raise InputError(f"n must be at least 1, got {n!r}")
    a_p = n / (2.0 * p) + 1.0
    a_next = n / (2.0 * (p + 1)) + 1.0
    params.ensure_hypothesis(min(a_p, a_next), max(a_p, a_next))
    f = params.exponent
    lhs = p * f.value(a_p)
    rhs = (p + 1) * f.value(a_next)
    return _exponent_leq(lhs, rhs)


def check_jensen(f, xs) -> bool:
    """Check sum f(x_i) <= k * f(mean(xs)) after verifying that f is
    concave-increasing on [min(xs), max(xs)].

    Raises HypothesisNotVerifiedError when the concavity precondition
    fails on the sampled range; a False return always means the averaged
    comparison itself failed.
    """
    xs = [float(x) for x in xs]
    if not xs:
        raise InputError("need at least one sample point")
    lo, hi = min(xs), max(xs)
    report = check_delta(f, lo, hi, _JENSEN_GRID_N)
    if not report.ok:
        raise HypothesisNotVerifiedError(
            f"{f.label} is not concave-increasing near "
            f"x={report.violation_x:g} ({report.violation_kind})", report)
    lhs = sum(f.value(x) for x in xs)
    rhs = len(xs) * f.value(math.fsum(xs) / len(xs))
    return _exponent_leq(lhs, rhs)
