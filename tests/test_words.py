import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from richwords import (InputError, letters_from_text, text_from_letters,
                       ups_factorize)

from . import oracles


def test_alphabet_validation():
    # a word's alphabet is checked where it meets an Eertree
    assert ups_factorize((0,), 2) == (0, 1)
    for q in (1, 0, 2.0):
        with pytest.raises(InputError,
                           match="alphabet size must be an integer >= 2"):
            ups_factorize((0,), q)


def test_word_from_text_roundtrip():
    letters = letters_from_text("abca")
    assert letters == (0, 1, 2, 0)
    assert text_from_letters(letters) == "abca"
    assert len(letters) == 4


def test_word_letter_out_of_range():
    with pytest.raises(InputError,
                       match="letter 5 outside alphabet of size 2"):
        ups_factorize((0, 5), 2)


def test_letters_text_helpers():
    assert letters_from_text("cab") == (2, 0, 1)
    assert text_from_letters((2, 0, 1)) == "cab"
    with pytest.raises(InputError):
        letters_from_text("a1b")


# frozen counts, oracle: substring-set enumeration done by hand
#   abca  -> a, b, c, aa? no -> {a,b,c} + eps = 4
#   abacaba -> a,b,c,aba,aca,bacab,abacaba + eps = 8
#   aaaa -> a,aa,aaa,aaaa + eps = 5
@pytest.mark.parametrize("text,count", [
    ("abca", 4),
    ("abacaba", 8),
    ("aaaa", 5),
    ("a", 2),
])
def test_naive_count_frozen(text, count):
    assert oracles.distinct_pal_count(letters_from_text(text)) == count


def test_richness_examples():
    assert oracles.is_rich(letters_from_text("abacaba"))
    assert oracles.is_rich(letters_from_text("aaaa"))
    # abcba has factors a,b,c,bcb,abcba + eps = 6 but |w|+1 = 6 -> rich;
    # the classic non-rich example needs length 8 over two letters
    assert not oracles.is_rich(letters_from_text("abcacba"))


def test_rich_prefix_closure_exhaustive():
    # every prefix of a rich word is rich; checked on all binary words
    for n in range(1, 12):
        for letters in itertools.product(range(2), repeat=n):
            if oracles.is_rich(letters):
                assert oracles.is_rich(letters[:-1])


@given(st.lists(st.integers(0, 1), min_size=1, max_size=40))
def test_append_changes_count_by_at_most_one(bits):
    delta = oracles.distinct_pal_count(bits) - \
        oracles.distinct_pal_count(bits[:-1])
    assert delta in (0, 1)


@given(st.lists(st.integers(0, 2), min_size=1, max_size=24),
       st.permutations([0, 1, 2]))
def test_count_invariant_under_letter_permutation(letters, perm):
    assert oracles.distinct_pal_count(letters) == \
        oracles.distinct_pal_count(perm[x] for x in letters)
