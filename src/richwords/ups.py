"""Factorization of a word into unioccurrent palindromic suffixes.

Peeling the longest palindromic suffix off a word, then off the remaining
prefix, and so on, writes any non-empty word w as w_p ... w_2 w_1 where
each part is the longest palindromic suffix of the prefix it ends.  The
number of parts p is the quantity the bound machinery feeds on.  A part
is unioccurrent, occurring once in the prefix it closes, exactly when
that prefix's suffix_pass bit is 1; on rich words every part is.

The peel only ever looks up the lengths of one eertree pass
(eertree.suffix_pass), because each peel step leaves a prefix of the
original word.  A word is passed as its tuple of letters and its
alphabet size q, and the factorization is returned as the tuple of part
boundaries.
"""

from __future__ import annotations

import math

from .eertree import suffix_pass
from .errors import InputError


def ups_factorize(letters, q: int) -> tuple[int, ...]:
    """Peel longest palindromic suffixes off the word letters over the
    alphabet {0, ..., q-1}; defined for any non-empty word.

    Returns the increasing boundaries 0 = b_0 < b_1 < ... < b_p = |w|;
    part i (left to right) is letters[b_{i-1}:b_i], and the rightmost
    part is the longest palindromic suffix of the whole word.
    """
    # the tree checks q and each letter, before the word's length is
    return peel_cuts(suffix_pass(letters, q)[0])


def peel_cuts(lengths) -> tuple[int, ...]:
    """ups_factorize's boundaries, from suffix_pass's lengths."""
    m = len(lengths)
    if m == 0:
        raise InputError("the empty word has no suffix factorization")
    cuts = [m]
    while m > 0:
        m -= lengths[m - 1]
        cuts.append(m)
    cuts.reverse()
    return tuple(cuts)


def compare_luf_bound(table: dict[int, int], phi) -> dict:
    """Compare observed maximum peel lengths against n / phi(n).

    phi is a function spec from the analytic catalogue.  Returns {"rows":
    [{"n", "max_luf", "bound", "holds"}, ...], "all_hold",
    "first_failure_n"}.  A row where n / phi(n) is not a finite number,
    because n is below phi's domain or phi(n) is near 0, has bound and
    holds None and no part in the verdict.  Raises InputError where
    phi(n) is not finite, and where no row has a bound (all_hold would
    be vacuous).  A failing row is a fact about phi at small n, not an
    error.
    """
    from .functions import _NotFinite

    rows = []
    for n, m in sorted(table.items()):
        try:
            bound = n / phi.value(float(n))
        except _NotFinite:
            raise
        except InputError:  # n below phi's domain, or phi(n) underflows
            bound = math.inf
        bound = bound if math.isfinite(bound) else None
        rows.append({"n": n, "max_luf": m, "bound": bound,
                     "holds": None if bound is None else m <= bound})
    if all(r["bound"] is None for r in rows):
        raise InputError(
            f"--phi {phi.label} cannot be evaluated at any n in "
            f"1..{max(table, default=0)} (its domain floor is "
            f"{phi.domain_floor:g})")
    failures = [r["n"] for r in rows if r["holds"] is False]
    return {"rows": rows, "all_hold": not failures,
            "first_failure_n": failures[0] if failures else None}
