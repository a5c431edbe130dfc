import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richwords import Eertree, InputError, StateError, suffix_pass

from . import oracles


def _pushed(letters, q):
    tree = Eertree(q)
    for a in letters:
        tree.push(a)
    return tree


def _assert_pass_matches_oracle(letters, q):
    # every prefix: its longest palindromic suffix, and the running count
    # of distinct palindromic factors, the empty one included
    lengths, new = suffix_pass(letters, q)
    assert len(lengths) == len(new) == len(letters)
    assert sum(new) + 1 == oracles.distinct_pal_count(letters)
    for k in range(1, len(letters) + 1):
        assert lengths[k - 1] == oracles.longest_pal_suffix(letters[:k])
        assert sum(new[:k]) + 1 == oracles.distinct_pal_count(letters[:k])


def test_push_return_values():
    t = Eertree(3)
    # a, b, c each create their length-1 palindrome; the closing a of
    # abca creates nothing new
    assert t.push(0) == 1
    assert t.push(1) == 1
    assert t.push(2) == 1
    assert t.push(0) == 0
    _, new = suffix_pass((0, 1, 2, 0), 3)
    assert new == [1, 1, 1, 0]
    assert sum(new) + 1 == 4  # a, b, c, eps
    assert not all(new)


def test_longest_pal_suffix_tracking():
    lengths, _ = suffix_pass((0, 0, 1), 2)
    assert lengths == [1, 2, 1]  # aab -> 'b'


def test_pass_counts_abacaba():
    letters = (0, 1, 0, 2, 0, 1, 0)
    lengths, new = suffix_pass(letters, 3)
    assert sum(new) + 1 == 8
    assert all(new)
    assert len(lengths) == 7
    t = _pushed(letters, 3)
    assert len(t) == 7
    assert t.snapshot()[-1] == letters


def test_letter_out_of_range():
    t = Eertree(2)
    with pytest.raises(InputError):
        t.push(2)
    with pytest.raises(InputError):
        t.push(-1)
    with pytest.raises(InputError,
                       match="letter 2 outside alphabet of size 2"):
        suffix_pass((0, 1, 2), 2)


def test_pop_on_empty_tree():
    t = Eertree(2)
    with pytest.raises(StateError):
        t.pop()


def test_pop_restores_snapshot():
    t = Eertree(2)
    for a in (0, 0, 1, 0, 1):
        t.push(a)
    before = t.snapshot()
    t.push(1)
    t.push(0)
    t.pop()
    t.pop()
    assert t.snapshot() == before


@given(st.lists(st.integers(0, 1), min_size=0, max_size=120))
def test_push_pop_stack_discipline(bits):
    """Interleave pushes with occasional pops; final state must equal a
    freshly built tree over the surviving word."""
    t = Eertree(2)
    kept = []
    rng = random.Random(len(bits))
    for b in bits:
        t.push(b)
        kept.append(b)
        if kept and rng.random() < 0.3:
            t.pop()
            kept.pop()
    assert t.snapshot() == _pushed(kept, 2).snapshot()


def test_counts_match_oracle_exhaustive_binary():
    for n in range(0, 11):
        for letters in itertools.product(range(2), repeat=n):
            _assert_pass_matches_oracle(letters, 2)


def test_counts_match_oracle_exhaustive_ternary():
    for n in range(0, 8):
        for letters in itertools.product(range(3), repeat=n):
            _assert_pass_matches_oracle(letters, 3)


@settings(max_examples=200)
@given(st.integers(2, 4).flatmap(lambda q: st.tuples(
    st.just(q), st.lists(st.integers(0, q - 1), max_size=60))))
def test_lps_matches_oracle(word):
    q, letters = word
    _assert_pass_matches_oracle(tuple(letters), q)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=80))
def test_rich_iff_every_prefix_extends(bits):
    t = Eertree(2)
    pushed = [t.push(b) for b in bits]
    _, new = suffix_pass(bits, 2)
    assert new == pushed
    assert all(new) == oracles.is_rich(bits)
