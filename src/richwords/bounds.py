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

The module also checks the composition-count bound
sum_{p<=L} C(n-1,p-1) <= (e*n/L)**L, in floats with an explicit margin
and by exact integers for a pair inside the margin, so it needs neither
mpmath nor LogValue.  The sampled checks on the growth function Omega
live in functions.
"""

from __future__ import annotations

import math
from functools import reduce
from operator import add
from typing import TYPE_CHECKING, Callable

from .errors import InputError, SeedGapError

# mpmath and logvalue are imported by the functions that use them: cli
# imports this module, and a count must not pay for mpmath
if TYPE_CHECKING:
    import mpmath

    from .logvalue import LogValue

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
