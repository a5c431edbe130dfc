"""Certified upper-bound machinery in base-q log space.

The central object is the recurrence table

    B(n) = sum over p = 1..tau(n) of S_p(n),
    S_p  = p-fold convolution of g over compositions, g(m) = B(ceil(m/2)),

computed with every LogValue operation rounded up, so each entry is an
upper bound on the recurrence from the seeds.  Row n only ever reads
entries at indices at most ceil(n/2), which is what makes seeding a
prefix of exact counts sound.  Row n bounds R(n) itself when every rich
word of length n splits into at most tau(n) palindromes, and so outright
when tau(n) >= n (unconditional).

The table is evaluated in one of two orders.  When tau(n) >= n on every
recurrence row (tau = n, or a constant at least n_max), every part count
is summed and the sum over p is the geometric series H = G + G*H, so
B(n) = H[n] = g[n] + sum_{j<n} g[j]*H[n-j]: O(n_max**2) LogValue
operations and no table of rows.  It convolves through pair sums: g
takes every value twice, g(2i-1) = g(2i) = B(i), so sum_{j<=J} g[j]*c[n-j]
is sum_i B(i)*(c[n-2i+1] + c[n-2i]), plus B((J+1)/2)*c[n-J] for an odd J,
and each pair sum c[m] + c[m-1] is built once.

Otherwise each S_p(n) is summed for p up to min(tau(n), n), over half
the length.  The same halving makes G(x) = (1+x)/x * E(x**2), with
E(y) = sum_i B(i)*y**i, so

    S_p(n) = [x**(n+p)] (1+x)**p * E(x**2)**p
           = sum over k of the parity of n+p of C(p, k) * T_p((n+p-k)/2),

where T_p = E**p is the p-fold convolution of B itself, built column by
column as T_p(m) = sum_i B(i)*T_{p-1}(m-i) up to m = (n_max+p)/2.  With
p_cap = min(n_max, max tau) well below n_max that is about
p_cap*n_max**2/4 operations for the T_p and p_cap**2*n_max/2 for the
binomial sums.  T_p(m) reads B up to m - p + 1, so row n reads B up to
floor((n+p)/2) - p + 1, again at most ceil(n/2).  On LogValues each
C(p, k) enters rounded up.

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
from functools import cache, reduce
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


def _pair_terms(values: dict, c: dict, c2: dict, n: int, top: int
                ) -> list:
    """The terms of sum_{j=1..top} g[j]*c[n-j], g[j] = values[ceil(j/2)],
    in increasing j.

    g takes each value twice, g[2i-1] = g[2i] = B(i), so the pair j = 2i-1,
    2i is the one product B(i)*c2[n-2i+1], with c2[m] = c[m] + c[m-1]; an
    odd top leaves the lone term B((top+1)/2)*c[n-top].
    """
    terms = [values[i] * c2[n - 2 * i + 1] for i in range(1, top // 2 + 1)]
    if top % 2:
        terms.append(values[(top + 1) // 2] * c[n - top])
    return terms


def _weights(sample) -> Callable[[int], object]:
    """int -> a value of sample's type: the int itself, so int seeds stay
    exact, or a LogValue rounded up, each made once."""
    if isinstance(sample, int):
        return int
    return cache(lambda c: type(sample).from_int(c, sample.q))


def _extend_power(values: dict, power: dict, p: int, top: int) -> None:
    """Extend power[p], the p-fold convolution T_p of B = values, p >= 2,
    to index top: T_p(m) = sum_{i=1..m-p+1} B(i)*T_{p-1}(m-i) reads B up
    to m - p + 1 and T_{p-1} up to m - 1."""
    prev = power[p - 1]
    row = power.setdefault(p, {})
    for m in range(p + len(row), top + 1):
        row[m] = reduce(add, (values[i] * prev[m - i]
                              for i in range(1, m - p + 2)))


def recurrence_bound(seeds: dict, tau: Callable[[int], int],
                     n_max: int) -> dict:
    """Extend the seeds {n: B(n)}, n = 1..n_seed, to {n: B(n)} for
    n = 1..n_max with the convolution recurrence.

    The values are only added and multiplied, by each other and by
    binomial coefficients of their type.  On LogValue seeds every
    operation and coefficient rounds up, so each row is an upper bound on
    the integer recurrence from the seeds; on int seeds the rows are that
    recurrence exactly.  Entry n only reads entries at indices
    <= ceil(n/2).

    If unconditional(tau, n_seed, n_max), the sum over all part counts is
    taken as the geometric series H = G + G*H, in floor(n_max**2/2) +
    n_max - 2 operations (n_max >= 2).  Otherwise each S_p(n) is a
    binomial sum over the convolution powers T_p of B, p up to
    p_cap = min(n_max, max tau), which costs about
    p_cap * n_max**2 / 4 + p_cap**2 * n_max / 2 operations and one
    p_cap x n_max/2 table.
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

    if unconditional(taus.__getitem__, n_seed, n_max):
        # every part count is summed, so B(n) = H[n] for the series
        # H = G + G*H: H[n] = g[n] + sum_{j<n} g[j]*H[n-j]; each pair sum
        # h2[m] = h[m] + h[m-1] is built once, when row m + 1 first reads it
        h: dict = {}
        h2: dict = {}
        for n in range(1, n_max + 1):
            if n > 2:
                h2[n - 1] = h[n - 1] + h[n - 2]
            h[n] = reduce(add, _pair_terms(values, h, h2, n, n - 1),
                          values[(n + 1) // 2])
            if n > n_seed:
                values[n] = h[n]
    else:
        # power[p][m] = T_p(m) = [y^m] E(y)**p for E(y) = sum_i B(i)*y^i,
        # extended when a row first reads it: power[1] is B itself
        power = {1: values}
        weight = _weights(values[1])
        for n in range(n_seed + 1, n_max + 1):
            terms = []
            for p in range(1, min(taus[n], n) + 1):
                top = (n + p) // 2
                if p > 1:
                    _extend_power(values, power, p, top)
                row = power[p]
                # S_p(n) = sum_k C(p, k) * power[p][(n + p - k)/2] over k
                # of the parity of n + p with p <= (n + p - k)/2
                for k in range((n + p) % 2, min(p, n - p) + 1, 2):
                    term = row[top - k // 2]
                    terms.append(term if k in (0, p)
                                 else weight(math.comb(p, k)) * term)
            values[n] = reduce(add, terms)
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
