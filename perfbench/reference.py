"""Pinned reference results and the exact counts derived from them.

Nothing here imports richwords: the tables below were produced once by
the package and cross-checked by check_reference.py (brute force from
tests/oracles.py at small n, agreement of the serial, sharded and
canonical walks, and the node budget of the CLI as an exact node
counter).  The bound reference is an independent exact-integer
implementation of the doubling recurrence.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath

# RICH[q] = [R(1), R(2), ...], MAX_LUF[q] likewise (max peel length among
# rich words of each length); A216264 for q = 2.
RICH = {
    2: [2, 4, 8, 16, 32, 64, 128, 252, 488, 932, 1756, 3246, 5916, 10618,
        18800, 32846, 56704, 96702, 163184, 272460, 450586, 738274],
    3: [3, 9, 27, 75, 201, 513, 1269, 3033, 7047, 15903, 35031, 75291,
        158487, 326889, 662259, 1318803],
    4: [4, 16, 64, 232, 784, 2464, 7336, 20776, 56464, 147808, 374368,
        919924, 2200168, 5132644, 11705680],
}
MAX_LUF = {
    2: [1, 2, 2, 3, 3, 4, 4, 4, 5, 5, 5, 6, 6, 6, 7, 7, 7, 7, 8, 8, 8, 8],
    3: [1, 2, 3, 3, 4, 4, 5, 5, 5, 6, 6, 7, 7, 7, 8, 8],
    4: [1, 2, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 8, 9],
}


def rich_counts(q: int, n_max: int) -> list[int]:
    """[R(0), R(1), ..., R(n_max)] with R(0) = 1, from the pinned tables
    (R over one letter is 1 at every length)."""
    if q == 1:
        return [1] * (n_max + 1)
    table = RICH[q]
    if n_max > len(table):
        raise KeyError(f"no pinned counts for q={q} beyond n={len(table)}")
    return [1] + table[:n_max]


def seed_counts(q: int, n_max: int) -> dict[int, int]:
    """{n: R(n)} for 1 <= n <= n_max, as a bound-recurrence seed table."""
    return dict(enumerate(rich_counts(q, n_max)[1:], start=1))


def expected_rows(q: int, n_max: int, with_max_luf: bool) -> list[dict]:
    """Rows of `count --format json` for the given problem."""
    counts = rich_counts(q, n_max)
    return [{"n": n, "count": str(counts[n]),
             "max_luf": MAX_LUF[q][n - 1] if with_max_luf else None}
            for n in range(1, n_max + 1)]


def walk_nodes(q: int, n_max: int) -> tuple[int, int]:
    """(push attempts, rich pushes) of the full walk to depth n_max.

    Every rich word shorter than n_max is extended by each of the q
    letters, and every rich word of length 1..n_max is one rich push.
    """
    counts = rich_counts(q, n_max)
    return q * sum(counts[:n_max]), sum(counts[1:])


def canonical_counts(q: int, n_max: int) -> list[list[int]]:
    """N[n][k]: canonical rich words of length n with exactly k letters.

    Recovered from R over alphabets of size 0..q by inclusion-exclusion:
    words over a fixed k-letter alphabet that use all k letters number
    sum_i (-1)^(k-i) C(k, i) R_i(n), and k! of them share a canonical
    representative.
    """
    tables = [[1] + [0] * n_max] + [rich_counts(i, n_max)
                                    for i in range(1, q + 1)]
    out = []
    for n in range(n_max + 1):
        row = []
        for k in range(q + 1):
            onto = sum((-1) ** (k - i) * math.comb(k, i) * tables[i][n]
                       for i in range(k + 1))
            if onto % math.factorial(k):
                raise ArithmeticError(f"inclusion-exclusion not integral "
                                      f"at n={n}, k={k}")
            row.append(onto // math.factorial(k))
        out.append(row)
    return out


def canonical_walk_nodes(q: int, n_max: int) -> tuple[int, int]:
    """(push attempts, rich pushes) of the canonical walk to depth n_max.

    A canonical word using k letters is extended by letters 0..k only
    (min(k + 1, q) attempts).
    """
    nk = canonical_counts(q, n_max)
    attempts = sum(nk[n][k] * min(k + 1, q)
                   for n in range(n_max) for k in range(q + 1))
    rich = sum(nk[n][k] for n in range(1, n_max + 1) for k in range(q + 1))
    return attempts, rich


# -- bound recurrence ---------------------------------------------------


def tau_n(n: int) -> int:
    return n


def tau_const(k: int):
    return lambda n: k


def exact_recurrence(seeds: dict[int, int], tau, n_max: int) -> list[int]:
    """[0, B(1), ..., B(n_max)] in exact integers.

    B(n) = sum_{p <= min(tau(n), n)} S_p(n), where S_p is the p-fold
    convolution of g(m) = B(ceil(m/2)); seeds are copied verbatim.
    S_p(n) reads g only up to n - p + 1, and g(n) = B(ceil(n/2)) is known
    before B(n) for n >= 2, so the rows S_p grow one column at a time.
    """
    n_seed = max(seeds)
    b = [0] * (max(n_max, n_seed) + 1)
    for n in range(1, n_seed + 1):
        b[n] = seeds[n]
    p_cap = max((min(tau(n), n) for n in range(n_seed + 1, n_max + 1)),
                default=1)
    g = [0] * (n_max + 1)
    s = [[0] * (n_max + 1) for _ in range(p_cap + 1)]
    for n in range(1, n_max + 1):
        g[n] = b[(n + 1) // 2]
        s[1][n] = g[n]
        for p in range(2, min(n, p_cap) + 1):
            prev = s[p - 1]
            s[p][n] = sum(g[j] * prev[n - j] for j in range(1, n - p + 2))
        if n > n_seed:
            b[n] = sum(s[p][n] for p in range(1, min(tau(n), n) + 1))
    return b[:n_max + 1]


def recurrence_logvalue_ops(n_seed: int, tau, n_max: int) -> int:
    """Multiplications plus additions the cubic LogValue engine performs:
    the convolution rows for every n <= n_max and p <= p_cap, then the
    sum over p for every recurrence row."""
    taus = [tau(n) for n in range(n_seed + 1, n_max + 1)]
    p_cap = min(n_max, max(taus)) if taus else 0
    ops = 0
    for n in range(1, n_max + 1):
        for p in range(2, min(n, p_cap) + 1):
            ops += (n - p + 1) + (n - p)  # products, then their sum
    ops += sum(min(t, n) - 1 for n, t in zip(range(n_seed + 1, n_max + 1),
                                             taus))
    return ops


def compare_exponent(printed: str, exact: int, q: int,
                     rel_tol: float = 1e-13) -> tuple[bool, bool]:
    """(close, certified) for a printed base-q exponent of `exact`.

    close: within rel_tol of log_q(exact), so a wrong table fails it;
    certified: the printed number is not below log_q(exact).
    """
    shown = Fraction(printed)
    # a rational log_q(exact) = a/b needs q**a == exact**b; floating point
    # cannot decide that equality, integers can
    if shown.denominator <= 1000 and \
            q ** shown.numerator == exact ** shown.denominator:
        return True, True
    with mpmath.workprec(256 + exact.bit_length()):
        diff = mpmath.mpf(printed) - mpmath.ln(exact) / mpmath.ln(q)
        close = abs(diff) <= rel_tol * max(1.0, abs(float(printed)))
        return bool(close), bool(diff >= 0)
