import io
import itertools
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richwords import (InputError, compare_luf_bound, count_rich,
                       letters_from_text, parse_function_spec, suffix_pass,
                       text_from_letters, ups_factorize)
from richwords.cli import run

from . import oracles


def _ups_result(text):
    out, err = io.StringIO(), io.StringIO()
    assert run(["ups", text], stdout=out, stderr=err) == 0, err.getvalue()
    return json.loads(out.getvalue())["result"]


def _max_luf(q, n_max):
    # the maximum peel length column of the exact count table
    return {n: m for n, (_, m) in count_rich(q, n_max).items()}


def _parts(letters, boundaries):
    return [letters[b0:b1] for b0, b1 in zip(boundaries, boundaries[1:])]


def _parts_text(word_text):
    letters = letters_from_text(word_text)
    boundaries = ups_factorize(letters, 26)
    return [text_from_letters(p) for p in _parts(letters, boundaries)]


def test_frozen_examples():
    assert _parts_text("aab") == ["aa", "b"]
    assert _parts_text("abab") == ["a", "bab"]
    assert _parts_text("aba") == ["aba"]
    assert _parts_text("a") == ["a"]
    assert _parts_text("aabb") == ["aa", "bb"]


def test_empty_word_rejected():
    with pytest.raises(InputError):
        ups_factorize((), 2)


def _peel_length(letters, q):
    return len(ups_factorize(letters, q)) - 1


def test_luf_values():
    assert _peel_length(letters_from_text("aab"), 2) == 2
    assert _peel_length(letters_from_text("aba"), 2) == 1
    assert _peel_length(letters_from_text("abab"), 2) == 2


def test_parts_concatenate_and_are_palindromes():
    for n in range(1, 10):
        for letters in itertools.product(range(2), repeat=n):
            parts = _parts(letters, ups_factorize(letters, 2))
            flat = tuple(x for part in parts for x in part)
            assert flat == letters
            for part in parts:
                assert part == part[::-1]


@settings(max_examples=300)
@given(st.integers(2, 3).flatmap(
    lambda q: st.lists(st.integers(0, q - 1), min_size=1, max_size=200)))
def test_matches_quadratic_peeler(letters):
    letters = tuple(letters)
    q = max(2, max(letters) + 1)
    assert _parts(letters, ups_factorize(letters, q)) == oracles.peel(letters)


def test_factorization_boundaries_shape():
    letters = letters_from_text("aabbabb")
    boundaries = ups_factorize(letters, 2)
    assert boundaries[0] == 0
    assert boundaries[-1] == 7
    assert list(boundaries) == sorted(boundaries)
    assert _peel_length(letters, 2) == len(_parts(letters, boundaries))


def test_unioccurrence_on_rich_words():
    # on rich words every peel part occurs exactly once in its prefix
    for n in range(1, 11):
        for letters in itertools.product(range(2), repeat=n):
            if not oracles.is_rich(letters):
                continue
            assert oracles.unioccurrent(letters, ups_factorize(letters, 2))


@pytest.mark.parametrize("q, n_max", [(2, 10), (3, 7)])
def test_unioccurrent_matches_naive_oracle(q, n_max):
    # every word, rich or not: a part is new where it ends exactly when it
    # occurs once in the prefix it closes
    for n in range(1, n_max + 1):
        for letters in itertools.product(range(q), repeat=n):
            r = _ups_result(text_from_letters(letters))
            boundaries = ups_factorize(letters, q)
            assert r["boundaries"] == list(boundaries)
            assert r["unioccurrent"] is oracles.unioccurrent(letters,
                                                             boundaries)


def test_unioccurrence_fails_for_repeated_part():
    # abca peels as a | b | c | a, and the last a occurs twice
    letters = letters_from_text("abca")
    boundaries = ups_factorize(letters, 3)
    assert _parts(letters, boundaries) == [(0,), (1,), (2,), (0,)]
    assert not oracles.unioccurrent(letters, boundaries)
    assert suffix_pass(letters, 3)[1][-1] == 0
    r = _ups_result("abca")
    assert (r["parts"], r["unioccurrent"]) == (["a", "b", "c", "a"], False)
    # abacaba is one palindrome, new where it ends
    letters = letters_from_text("abacaba")
    boundaries = ups_factorize(letters, 3)
    assert boundaries == (0, 7)
    assert oracles.unioccurrent(letters, boundaries)
    r = _ups_result("abacaba")
    assert (r["parts"], r["unioccurrent"]) == (["abacaba"], True)


def test_max_luf_small_table():
    table = _max_luf(2, 6)
    assert table[1] == 1
    assert table[2] == 2
    # frozen from an exhaustive scan over rich binary words
    assert table == {1: 1, 2: 2, 3: 2, 4: 3, 5: 3, 6: 4}


def test_max_luf_matches_bruteforce():
    for q in (2, 3):
        table = _max_luf(q, 5)
        brute = {}
        for n in range(1, 6):
            brute[n] = max(
                len(oracles.peel(w))
                for w in oracles.all_words(q, n) if oracles.is_rich(w))
        assert table == brute


def test_compare_luf_bound_constant_fails():
    table = _max_luf(2, 6)
    report = compare_luf_bound(table, parse_function_spec("const:1"))
    # n/phi(n) = n, which max_luf never exceeds... so all rows hold
    assert report["all_hold"]
    assert report["first_failure_n"] is None


def test_compare_luf_bound_identity_fails_fast():
    table = _max_luf(2, 6)
    report = compare_luf_bound(table, parse_function_spec("identity"))
    # bound is n/n = 1; max_luf(2) = 2 already exceeds it
    assert not report["all_hold"]
    assert report["first_failure_n"] == 2


def test_compare_luf_bound_skips_undefined_rows():
    table = _max_luf(2, 9)
    report = compare_luf_bound(table, parse_function_spec("exp-sqrt-ln"))
    # the default domain floor 8 hides small n; those rows carry no verdict
    assert any(r["bound"] is None for r in report["rows"])
    assert all(r["holds"] is None for r in report["rows"]
               if r["bound"] is None)


def test_compare_luf_bound_with_no_evaluable_row_is_refused():
    # every n <= 6 is below the domain floor 8: all_hold would be vacuous
    with pytest.raises(InputError, match="cannot be evaluated at any n"):
        compare_luf_bound(_max_luf(2, 6),
                          parse_function_spec("exp-sqrt-ln"))
