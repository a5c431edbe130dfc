"""Slow, independent reference implementations the tests compare against.

Everything here is written the dumb-but-obvious way on purpose: set
comprehensions over all substrings, O(n^2) scans, exact integer
arithmetic, or mpmath at high precision. None of it imports the
algorithms under test beyond plain data containers and error types,
except that rich_entries_plain_dfs prunes with the public Eertree, which
the tests check against palindromic_factors.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import mpmath

from richwords.errors import InputError


def all_words(q, n):
    """Every word of length n over {0..q-1}, as tuples."""
    return itertools.product(range(q), repeat=n)


def palindromic_factors(letters):
    out = set()
    n = len(letters)
    for i in range(n):
        for j in range(i + 1, n + 1):
            f = letters[i:j]
            if f == f[::-1]:
                out.add(f)
    return out


def distinct_pal_count(letters):
    # includes the empty word
    return len(palindromic_factors(tuple(letters))) + 1


def is_rich(letters):
    return distinct_pal_count(letters) == len(letters) + 1


def longest_pal_suffix(letters):
    letters = tuple(letters)
    for k in range(len(letters), 0, -1):
        tail = letters[-k:]
        if tail == tail[::-1]:
            return k
    return 0


def peel(letters):
    """Greedy longest-palindromic-suffix peel, quadratic and direct."""
    letters = tuple(letters)
    parts = []
    while letters:
        k = longest_pal_suffix(letters)
        parts.append(letters[-k:])
        letters = letters[:-k]
    parts.reverse()
    return parts


def count_occurrences(haystack, needle):
    haystack, needle = tuple(haystack), tuple(needle)
    if not needle:
        return 0
    return sum(1 for i in range(len(haystack) - len(needle) + 1)
               if haystack[i:i + len(needle)] == needle)


def unioccurrent(letters, boundaries):
    """The parts between boundaries are pairwise distinct, and each occurs
    exactly once in the prefix of letters that ends with it."""
    letters = tuple(letters)
    parts = [letters[b0:b1] for b0, b1 in zip(boundaries, boundaries[1:])]
    return len(set(parts)) == len(parts) and all(
        count_occurrences(letters[:end], part) == 1
        for part, end in zip(parts, boundaries[1:]))


def compositions(n, p):
    """All p-tuples of positive ints summing to n."""
    if p == 1:
        yield (n,)
        return
    for first in range(1, n - p + 2):
        for rest in compositions(n - first, p - 1):
            yield (first,) + rest


def compositions_count(n, p):
    """Number of ways to write n as an ordered sum of p positive parts."""
    if not isinstance(p, int) or p < 1:
        raise InputError(f"part count must be a positive integer, got {p!r}")
    if not isinstance(n, int):
        raise InputError(f"n must be an integer, got {n!r}")
    if p > n:
        return 0
    return math.comb(n - 1, p - 1)


def check_composition_bound(n, L):
    """sum_{p=1..L} C(n-1,p-1) <= (e*n/L)**L, the right side in mpmath.

    The left side is an exact integer; the right side is evaluated at
    n + 24 bits (120 at least) and moved down by 2**(mag - prec + 8), so
    a True verdict is conservative.
    """
    if not isinstance(n, int) or not isinstance(L, int) or not 1 <= L <= n:
        raise InputError(f"need integers 1 <= L <= n, got L={L!r}, n={n!r}")
    lhs = sum(math.comb(n - 1, p - 1) for p in range(1, L + 1))
    prec = max(120, n + 24)
    with mpmath.workprec(prec):
        rhs = mpmath.exp(L * (1 + mpmath.ln(n) - mpmath.ln(L)))
        rhs -= mpmath.ldexp(1, mpmath.mag(rhs) - prec + 8)
        return lhs <= rhs


def rich_counts_brute(q, n_max):
    """R(1..n_max) by testing every word. Only viable for tiny n."""
    return {n: sum(1 for w in all_words(q, n) if is_rich(w))
            for n in range(1, n_max + 1)}


def rich_entries_plain_dfs(q, n_max):
    """{n: (R(n), max peel length)} by a plain depth-first walk.

    Every one of the q letters is tried at every node, with no symmetry
    reduction; Eertree push/pop prunes non-rich prefixes, and each rich
    word's peel length comes from peel().
    """
    from richwords import Eertree

    counts = [0] * (n_max + 1)
    max_luf = [0] * (n_max + 1)
    tree, word = Eertree(q), []

    def walk():
        n = len(word) + 1
        for a in range(q):
            if tree.push(a):
                word.append(a)
                counts[n] += 1
                max_luf[n] = max(max_luf[n], len(peel(word)))
                if n < n_max:
                    walk()
                word.pop()
            tree.pop()

    walk()
    return {n: (counts[n], max_luf[n]) for n in range(1, n_max + 1)}


def recurrence_table_exact(seed_counts, tau, n_max):
    """Exact-integer mirror of the upper-bound recurrence.

    B(n) = sum_{p=1}^{tau(n)} (p-fold convolution of g)(n) with
    g(m) = B(ceil(m/2)), seeds copied verbatim. Matches the log-domain
    engine apart from rounding, so the certified table must dominate it.
    """
    n_seed = max(seed_counts)
    assert set(seed_counts) == set(range(1, n_seed + 1))
    values = dict(seed_counts)
    for n in range(n_seed + 1, n_max + 1):
        g = [0] * (n + 1)
        for m in range(1, n + 1):
            g[m] = values[(m + 1) // 2]
        # conv[p][m] computed up to the current n only
        p_cap = min(tau(n), n)
        conv_prev = g[:]
        total = conv_prev[n] if p_cap >= 1 else 0
        for p in range(2, p_cap + 1):
            conv_cur = [0] * (n + 1)
            for m in range(p, n + 1):
                acc = 0
                for j in range(1, m - p + 2):
                    acc += g[j] * conv_prev[m - j]
                conv_cur[m] = acc
            total += conv_cur[n]
            conv_prev = conv_cur
        values[n] = total
    return values


def recurrence_direct_sum(seed_counts, tau, n):
    """B(n) for a single n by summing over explicit compositions.

    Independent of the convolution order used above: enumerates every
    composition of n into p parts and multiplies the g values directly.
    """
    values = recurrence_table_exact(seed_counts, tau, n - 1) \
        if n - 1 >= max(seed_counts) else dict(seed_counts)

    def g(m):
        return values[(m + 1) // 2]

    total = 0
    for p in range(1, min(tau(n), n) + 1):
        for parts in compositions(n, p):
            prod = 1
            for part in parts:
                prod *= g(part)
            total += prod
    return total


def spec_value_mp(spec, x):
    """FunctionSpec value via mpmath, for driving mpmath.diff."""
    x = mpmath.mpf(x)
    out = mpmath.mpf(spec.a) * x ** spec.b
    if spec.c:
        out *= mpmath.log(x) ** spec.c
    if spec.u:
        out *= mpmath.exp(spec.u * mpmath.log(x) ** spec.v)
    return out


def exponent_value_mp(fn, x):
    """ExponentFunction value via mpmath."""
    x = mpmath.mpf(x)
    return (mpmath.mpf(fn.c1) * x / spec_value_mp(fn.psi, x)
            + mpmath.mpf(fn.c2) * (x / spec_value_mp(fn.phi, x))
            * mpmath.log(spec_value_mp(fn.phi, x)))


def log2_bracket(n):
    """(lower, upper) enclosure of log2(n), good to ~2^-140."""
    with mpmath.workprec(250):
        x = mpmath.log(n) / mpmath.log(2)
        return x - mpmath.ldexp(1, -140), x + mpmath.ldexp(1, -140)


def log_sum_exact(ints, q):
    """log_q of an exact integer sum, as an mpf at high precision."""
    total = sum(ints)
    with mpmath.workprec(200):
        return mpmath.log(total) / mpmath.log(q)


# LogValue works at 120 bits; the oracles below work far above that
ORACLE_BITS = 400


def log_q_of_sum(a, b, q):
    """log_q(q**a + q**b) for mpf exponents, evaluated as written, with
    enough bits that the smaller power is not lost in the sum."""
    with mpmath.workprec(ORACLE_BITS + int(abs(a - b) * math.log2(q))):
        q = mpmath.mpf(q)
        return mpmath.log(q ** a + q ** b) / mpmath.log(q)


def sum_of_exponents(a, b):
    """a + b for mpf exponents, at ORACLE_BITS."""
    with mpmath.workprec(ORACLE_BITS):
        return a + b


def nudge_step(x, prec, guard):
    """2**(m - prec + guard), where 2**(m - 1) <= |x| < 2**m (m = 0 for
    x == 0): the upward shift of a LogValue nudge at prec bits."""
    m = 0 if x == 0 else mpmath.frexp(x)[1]
    return mpmath.ldexp(1, m - prec + guard)


def frac_pow2_sum_log2(ints):
    """Exact check helper: log2 of a sum of ints via Fraction bracketing."""
    total = sum(ints)
    lo = total.bit_length() - 1
    return lo, Fraction(total, 2 ** lo)


def perm(n, k):
    return math.perm(n, k)
