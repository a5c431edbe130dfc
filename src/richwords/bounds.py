"""Certified upper-bound machinery in base-q log space.

The central object is the recurrence table

    B(n) = sum over p = 1..tau(n) of S_p(n),
    S_p  = p-fold convolution of g over compositions, g(m) = B(ceil(m/2)),

computed with every LogValue operation rounded up, so each entry is an
upper bound on the recurrence from the seeds.  The convolution only ever
reads entries at indices at most ceil(n/2), which is what makes seeding a
prefix of exact counts sound.  Row n bounds R(n) itself when every rich
word of length n splits into at most tau(n) palindromes, and so outright
when tau(n) >= n (unconditional).

The table is evaluated in one of two orders.  When tau(n) >= n on every
recurrence row (tau = n, or a constant at least n_max), every part count
is summed and the sum over p is the geometric series H = G + G*H, so
B(n) = H[n] = g[n] + sum_{j<n} g[j]*H[n-j]: O(n_max**2) LogValue
operations and no table of rows.  Otherwise each convolution row S_p is
built for p up to p_cap = min(n_max, max tau) and summed up to tau(n):
O(p_cap * n_max**2) operations.

tau is an integer-valued function supplied by the caller; nothing here
pins a particular choice, because the multiplicative constant inside the
natural candidate ceil(c*n/ln n) is not determined by the development the
table is based on.

The rest of the module hosts the companion inequality checks.  The
composition-count bound sum_{p<=L} C(n-1,p-1) <= (e*n/L)**L is decided in
floats with an explicit margin, and by exact integers for a pair inside
the margin, so it needs neither mpmath nor LogValue.  The convexity
(Jensen) comparison and the product/p-monotonicity checks for the growth
function Omega(x) = q**(c1*x/psi(x) + c2*(x/phi(x))*ln phi(x)) compare
exponents with a small relative slack and refuse to run (rather than
answer False) when their concavity precondition cannot be verified.
OmegaParams verifies it once, over the range of arguments a run fixes
before its first comparison, and the product and p-monotonicity checks
refuse an argument outside that range; check_jensen verifies each call's
own range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Callable

from .errors import HypothesisNotVerifiedError, InputError, SeedGapError

# mpmath, functions and logvalue are imported by the functions that use
# them: cli imports this module, and a count must not pay for mpmath
if TYPE_CHECKING:
    import mpmath

    from .functions import ExponentFunction, FunctionSpec
    from .logvalue import LogValue

__all__ = [
    "composition_bound_sweep",
    "OmegaParams",
    "seed_table_from_counts",
    "unconditional",
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


# P/R = sum_{k<=25} 1/k!, a rational within 1/25! below e
_E_DEN = math.factorial(25)
_E_NUM = sum(_E_DEN // math.factorial(k) for k in range(26))

# each float side is off by a few units in the last place of a number
# below n*(1 + ln n), far less than this for any n a sweep can reach
_FLOAT_MARGIN = 1e-6


def _composition_pair_holds(lhs: int, n: int, L: int) -> bool:
    """lhs <= (e*n/L)**L, read in floats when they clear the margin and
    otherwise by the exact lhs * (R*L)**L <= (P*n)**L, which implies it
    because P/R < e."""
    if math.log(lhs) + _FLOAT_MARGIN < L * (1 + math.log(n) - math.log(L)):
        return True
    return lhs * (_E_DEN * L) ** L <= (_E_NUM * n) ** L


def composition_bound_sweep(n_max: int) -> list[tuple[int, int]]:
    """Check sum_{p=1..L} C(n-1,p-1) <= (e*n/L)**L for all
    1 <= L <= n <= n_max.

    Returns the (n, L) pairs that fail; the expected result is an empty
    list.  A pass is certified: the left side is an exact integer, and
    the right side is bounded below with the float margin or, inside it,
    with exact integers.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise InputError(f"n_max must be a positive integer, got {n_max!r}")
    failures = []
    for n in range(1, n_max + 1):
        lhs = 0
        for L in range(1, n + 1):
            lhs += math.comb(n - 1, L - 1)
            if not _composition_pair_holds(lhs, n, L):
                failures.append((n, L))
    return failures


@dataclass
class OmegaParams:
    """Parameters of the growth function Omega, verified over [x_lo, x_hi].

    Construction builds exponent, the ExponentFunction of c1, c2, phi and
    psi, and passes check_psi_family on one log grid over the range (psi
    below the identity, exponent increasing and concave) or raises
    HypothesisNotVerifiedError.  exponent_at refuses an argument outside
    the range.  There is no q: the checks compare exponents, in which q
    cancels.
    """

    c1: float
    c2: float
    phi: FunctionSpec
    psi: FunctionSpec
    x_lo: float
    x_hi: float
    exponent: ExponentFunction = field(init=False, repr=False)

    def __post_init__(self):
        from .functions import ExponentFunction, check_psi_family

        self.exponent = ExponentFunction(self.phi, self.psi, self.c1, self.c2)
        _require(check_psi_family(self.exponent, self.x_lo, self.x_hi,
                                  _HYPOTHESIS_GRID_N), "exponent function")

    def exponent_at(self, x: float) -> float:
        """The exponent at x, refused outside the verified range."""
        if not self.x_lo <= x <= self.x_hi:
            raise HypothesisNotVerifiedError(
                f"exponent function: x={x:g} is outside the verified range "
                f"[{self.x_lo:g}, {self.x_hi:g}]")
        return self.exponent.value(x)


def _require(report: dict, what: str) -> None:
    """Raise HypothesisNotVerifiedError, carrying report, unless the
    sampled precondition held; report is a check_psi_family or a
    check_delta result."""
    if report["ok"]:
        return
    witness = report["witness"]
    if "psi_leq_x_fails_at" in witness:
        reason = f"psi(x) <= x fails at x={witness['psi_leq_x_fails_at']:g}"
    else:
        x = witness.get("combined_fails_at", witness.get("x"))
        reason = f"not concave-increasing near x={x:g} ({witness['kind']})"
    raise HypothesisNotVerifiedError(f"{what}: {reason}", report)


def seed_table_from_counts(counts: dict[int, int], q: int
                           ) -> dict[int, LogValue]:
    """{n: count} as {n: LogValue}, each exponent rounded up so the seeds
    themselves are valid upper bounds."""
    from .logvalue import LogValue

    seeds = {}
    for n, count in counts.items():
        if not isinstance(n, int) or n < 1:
            raise InputError(f"seed index must be a positive integer, got {n!r}")
        if not isinstance(count, int) or count < 1:
            raise InputError(f"seed count at n={n} must be a positive "
                             f"integer, got {count!r}")
        seeds[n] = LogValue.from_int(count, q)
    return seeds


def unconditional(tau: Callable[[int], int], n_seed: int, n_max: int) -> bool:
    """Whether tau(n) >= n on every recurrence row n_seed < n <= n_max,
    vacuously so when there is none.  Then every split of a word into
    palindromes is summed and each row bounds R(n) outright; otherwise row
    n bounds R(n) only if every rich word of length n splits into at most
    tau(n) palindromes."""
    return all(tau(n) >= n for n in range(n_seed + 1, n_max + 1))


def recurrence_bound(seeds: dict, tau: Callable[[int], int],
                     n_max: int) -> dict:
    """Extend the seeds {n: B(n)}, n = 1..n_seed, to {n: B(n)} for
    n = 1..n_max with the convolution recurrence.

    The values are only added and multiplied.  On LogValue seeds every
    operation rounds up, so each row is an upper bound on the integer
    recurrence from the seeds; on int seeds the rows are that recurrence
    exactly.  Entry n only reads entries at indices <= ceil(n/2).

    If unconditional(tau, n_seed, n_max), the sum over all part counts is
    taken as the geometric series H = G + G*H, in n_max*(n_max - 1)
    operations.  Otherwise the convolution rows S_1..S_p_cap are built,
    p_cap = min(n_max, max tau), which costs O(p_cap * n_max**2)
    operations and a p_cap x n_max table.
    """
    if not isinstance(n_max, int) or n_max < 1:
        raise InputError(f"n_max must be a positive integer, got {n_max!r}")
    if not seeds:
        raise SeedGapError(1)
    n_seed = max(seeds)
    for i in range(1, n_seed + 1):
        if i not in seeds:
            raise SeedGapError(i)
    values = dict(seeds)

    taus: dict[int, int] = {}
    for n in range(n_seed + 1, n_max + 1):
        t = tau(n)
        if not isinstance(t, int) or t < 1:
            raise InputError(
                f"tau({n}) must be a positive integer, got {t!r}")
        taus[n] = t

    # g[m] = B(ceil(m/2)), known for m <= n once B is known below n
    g: dict = {}
    if unconditional(taus.__getitem__, n_seed, n_max):
        # every part count is summed, so B(n) = H[n] for the series
        # H = G + G*H: H[n] = g[n] + sum_{j<n} g[j]*H[n-j]
        h: dict = {}
        for n in range(1, n_max + 1):
            g[n] = values[(n + 1) // 2]
            h[n] = reduce(add, (g[j] * h[n - j] for j in range(1, n)), g[n])
            if n > n_seed:
                values[n] = h[n]
    else:
        # conv[p][m] = p-fold convolution of g at m
        p_cap = min(n_max, max(taus.values()))
        conv = {p: {} for p in range(2, p_cap + 1)}
        conv[1] = g
        for n in range(1, n_max + 1):
            g[n] = values[(n + 1) // 2]
            for p in range(2, min(n, p_cap) + 1):
                prev = conv[p - 1]
                conv[p][n] = reduce(add, (g[j] * prev[n - j]
                                          for j in range(1, n - p + 2)))
            if n > n_seed:
                values[n] = reduce(add, (conv[p][n] for p in
                                         range(1, min(taus[n], n) + 1)))
    return {n: values[n] for n in range(1, n_max + 1)}


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
    lhs = sum(params.exponent_at(float(math.ceil(x / 2))) for x in parts)
    rhs = p * params.exponent_at(n / (2.0 * p) + 1.0)
    return _exponent_leq(lhs, rhs)


def check_p_monotonicity(n: float, p: int, params: OmegaParams) -> bool:
    """Check Omega(n/(2p)+1)**p <= Omega(n/(2(p+1))+1)**(p+1) in exponent
    space."""
    if not isinstance(p, int) or p < 1:
        raise InputError(f"p must be a positive integer, got {p!r}")
    if not n >= 1:
        raise InputError(f"n must be at least 1, got {n!r}")
    lhs = p * params.exponent_at(n / (2.0 * p) + 1.0)
    rhs = (p + 1) * params.exponent_at(n / (2.0 * (p + 1)) + 1.0)
    return _exponent_leq(lhs, rhs)


def check_jensen(f, xs) -> bool:
    """Check sum f(x_i) <= k * f(mean(xs)) after verifying that f is
    concave-increasing on [min(xs), max(xs)].

    Raises HypothesisNotVerifiedError when the concavity precondition
    fails on the sampled range; a False return always means the averaged
    comparison itself failed.
    """
    from .functions import check_delta

    xs = [float(x) for x in xs]
    if not xs:
        raise InputError("need at least one sample point")
    _require(check_delta(f, min(xs), max(xs), _JENSEN_GRID_N), f.label)
    lhs = sum(f.value(x) for x in xs)
    rhs = len(xs) * f.value(math.fsum(xs) / len(xs))
    return _exponent_leq(lhs, rhs)
