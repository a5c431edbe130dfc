"""Alphabet and word primitives.

Letters are small non-negative integers.  Text I/O maps 'a'..'z' to 0..25
at the edges only; everything inside the package works on integer tuples.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError

_TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


@dataclass(frozen=True)
class Alphabet:
    """The integer alphabet {0, ..., q-1}."""

    q: int

    def __post_init__(self):
        if not isinstance(self.q, int) or self.q < 2:
            raise InputError(f"alphabet size must be an integer >= 2, got {self.q!r}")


@dataclass(frozen=True)
class Word:
    """A finite word over an integer alphabet."""

    letters: tuple[int, ...]
    alphabet: Alphabet

    def __post_init__(self):
        q = self.alphabet.q
        for a in self.letters:
            if not isinstance(a, int) or not 0 <= a < q:
                raise InputError(f"letter {a!r} outside alphabet of size {q}")

    def __len__(self) -> int:
        return len(self.letters)

    @classmethod
    def from_text(cls, text: str, q: int | None = None) -> "Word":
        letters = letters_from_text(text)
        if q is None:
            q = max(2, max(letters, default=-1) + 1)
        return cls(letters, Alphabet(q))


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
