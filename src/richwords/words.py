"""Text rendering of words.

Letters are small non-negative integers.  Text I/O maps 'a'..'z' to 0..25
at the edges only; everything inside the package works on integer tuples,
and the alphabet {0, ..., q-1} is checked where a word meets an Eertree.
"""

from __future__ import annotations

from .errors import InputError

_TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def letters_from_text(text: str) -> tuple[int, ...]:
    out = []
    for ch in text:
        idx = _TEXT_ALPHABET.find(ch)
        if idx < 0:
            raise InputError(f"cannot map character {ch!r}; use lowercase a-z")
        out.append(idx)
    return tuple(out)


def text_from_letters(letters) -> str:
    if any(a >= 26 for a in letters):
        raise InputError("letters above 25 have no text rendering")
    return "".join(_TEXT_ALPHABET[a] for a in letters)
