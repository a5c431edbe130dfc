"""Factorization of a word into unioccurrent palindromic suffixes.

Peeling the longest palindromic suffix off a word, then off the remaining
prefix, and so on, writes any non-empty word w as w_p ... w_2 w_1 where
each part is the longest palindromic suffix of the prefix it ends.  The
number of parts p is the quantity the bound machinery feeds on; for rich
words the parts are additionally pairwise distinct and each occurs exactly
once in the prefix it closes, which verify_unioccurrence() can confirm.

The factorization is computed from a single left-to-right eertree pass
that records the longest-palindromic-suffix length of every prefix; the
peel then only ever looks those lengths up, because each peel step leaves
a prefix of the original word.
"""

from __future__ import annotations

from dataclasses import dataclass

from .eertree import Eertree
from .errors import InputError
from .words import Word

__all__ = [
    "UpsFactorization",
    "ups_factorize",
    "luf",
    "verify_unioccurrence",
    "max_luf_table",
    "LufBoundRow",
    "LufBoundReport",
    "compare_luf_bound",
]


@dataclass(frozen=True)
class UpsFactorization:
    """Result of the suffix peel.

    boundaries is the increasing tuple 0 = b_0 < b_1 < ... < b_p = |w|;
    part i (left to right) is word.letters[b_{i-1}:b_i], and the rightmost
    part is the longest palindromic suffix of the whole word.
    """

    word: Word
    boundaries: tuple[int, ...]

    @property
    def p(self) -> int:
        return len(self.boundaries) - 1

    @property
    def parts(self) -> tuple[tuple[int, ...], ...]:
        letters = self.word.letters
        bounds = self.boundaries
        return tuple(
            letters[bounds[i] : bounds[i + 1]] for i in range(len(bounds) - 1)
        )


def _prefix_pal_suffix_lengths(word: Word) -> list[int]:
    # lengths[k] = longest palindromic suffix length of the k-letter prefix
    tree = Eertree(word.alphabet.q)
    lengths = [0]
    for a in word.letters:
        tree.push(a)
        lengths.append(tree.longest_pal_suffix_length())
    return lengths


def ups_factorize(word: Word) -> UpsFactorization:
    """Peel longest palindromic suffixes; defined for any non-empty word."""
    n = len(word)
    if n == 0:
        raise InputError("the empty word has no suffix factorization")
    lengths = _prefix_pal_suffix_lengths(word)
    cuts = [n]
    m = n
    while m > 0:
        m -= lengths[m]
        cuts.append(m)
    cuts.reverse()
    return UpsFactorization(word, tuple(cuts))


def luf(word: Word) -> int:
    """Number of parts in the longest-palindromic-suffix peel of word."""
    return ups_factorize(word).p


def _occurrences(haystack: tuple[int, ...], needle: tuple[int, ...]) -> int:
    # overlapping occurrences; verification path, not a hot path
    count = 0
    k = len(needle)
    for i in range(len(haystack) - k + 1):
        if haystack[i : i + k] == needle:
            count += 1
    return count


def verify_unioccurrence(factorization: UpsFactorization) -> bool:
    """Check the two properties the peel has on rich words: the parts are
    pairwise distinct, and each part occurs exactly once in the prefix of
    the word that ends with it."""
    parts = factorization.parts
    if len(set(parts)) != len(parts):
        return False
    letters = factorization.word.letters
    bounds = factorization.boundaries
    for i, part in enumerate(parts):
        prefix = letters[: bounds[i + 1]]
        if _occurrences(prefix, part) != 1:
            return False
    return True


def max_luf_table(q: int, n_max: int) -> dict[int, int]:
    """Maximum peel length over all rich words of each length 1..n_max."""
    from .enumeration import count_rich

    table = count_rich(q, n_max)
    return {n: entry.max_luf for n, entry in sorted(table.entries.items())}


@dataclass(frozen=True)
class LufBoundRow:
    n: int
    max_luf: int
    bound: float | None  # n / phi(n), None where phi is not evaluable
    holds: bool | None


@dataclass(frozen=True)
class LufBoundReport:
    rows: tuple[LufBoundRow, ...]

    @property
    def evaluated_rows(self) -> tuple[LufBoundRow, ...]:
        return tuple(r for r in self.rows if r.bound is not None)

    @property
    def all_hold(self) -> bool:
        return all(r.holds for r in self.evaluated_rows)

    @property
    def first_failure_n(self) -> int | None:
        for r in self.evaluated_rows:
            if not r.holds:
                return r.n
        return None


def compare_luf_bound(table: dict[int, int], phi) -> LufBoundReport:
    """Compare observed maximum peel lengths against n / phi(n).

    phi is a function spec from the analytic catalogue.  Rows where n is
    below phi's evaluable domain are reported with bound None and excluded
    from the verdict.  This is an observational report: a failing row is a
    fact about phi at small n, not an error.
    """
    rows = []
    for n, m in sorted(table.items()):
        try:
            bound = n / phi.value(float(n))
        except InputError:
            rows.append(LufBoundRow(n, m, None, None))
            continue
        rows.append(LufBoundRow(n, m, bound, m <= bound))
    return LufBoundReport(tuple(rows))
