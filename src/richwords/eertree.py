"""Palindromic tree (eertree) with journaled rollback.

The tree keeps one node per distinct non-empty palindromic factor of the
processed word, plus two roots: node 0 of length -1 and node 1 of length 0.
Each node stores its length, a suffix link to the longest proper
palindromic suffix, and a transition row {letter a: node of a+P+a} kept as
a dict, so memory is O(nodes) whatever the alphabet size.

push() appends a letter and returns how many new palindromic factors that
letter contributed, which is always 0 or 1 because only the longest
palindromic suffix of the extended word can be new.  Every push writes one
journal record, so pop() can undo the most recent push exactly: nodes are
only ever appended, at most one transition is written per push, and the
previous `last` pointer is saved.  The journal lets one tree serve a
depth-first walk: the plain-DFS oracle in the tests and the push/pop
probes of perfbench/ use it that way.

suffix_pass() reads a whole word with one tree and returns, for every
prefix, its longest palindromic suffix length and push's bit; `check` and
`ups` need nothing else.  Occurrence counts are deliberately not
maintained; richness only needs "was a node created", and rollback stays
O(1) without them.

Extensions follow suffix links (_extension_parent), not the direct links
of the enumeration walker in enumeration.py.  That is on purpose: the
plain-DFS oracle in the tests drives this class, so the tests compare the
walker against a second, independent extension rule.
"""

from __future__ import annotations

from .errors import InputError, StateError


def _extension_parent(word, pos: int, length, link, u: int, a: int) -> int:
    """First node on the suffix-link chain from u whose palindrome P is
    preceded by letter a, so that a+P+a ends at word[pos] == a.

    The length -1 root always matches, because extending it yields the
    single letter a.
    """
    while True:
        i = pos - length[u] - 1
        if i >= 0 and word[i] == a:
            return u
        u = link[u]


class Eertree:
    """Online palindromic tree over the alphabet {0, ..., q-1}."""

    __slots__ = ("q", "_len", "_link", "_next", "_last", "_word", "_journal")

    def __init__(self, q: int):
        if not isinstance(q, int) or q < 2:
            raise InputError(f"alphabet size must be an integer >= 2, got {q!r}")
        self.q = q
        # node 0: length -1 root, node 1: length 0 root
        self._len = [-1, 0]
        self._link = [0, 0]
        self._next = [{}, {}]
        self._last = 1
        self._word = []
        self._journal = []

    def __len__(self) -> int:
        """Number of processed letters."""
        return len(self._word)

    def snapshot(self):
        """Full observable state, for rollback verification in tests."""
        return (
            tuple(self._len),
            tuple(self._link),
            tuple(tuple(sorted(row.items())) for row in self._next),
            self._last,
            tuple(self._word),
        )

    def push(self, a: int) -> int:
        """Append letter a; return 1 if a new palindromic factor appeared."""
        if not 0 <= a < self.q:
            raise InputError(f"letter {a!r} outside alphabet of size {self.q}")
        prev_last = self._last
        word, node_len, link = self._word, self._len, self._link
        word.append(a)
        pos = len(word) - 1
        u = _extension_parent(word, pos, node_len, link, prev_last, a)
        existing = self._next[u].get(a)
        if existing is not None:
            self._last = existing
            self._journal.append((prev_last, -1))
            return 0
        length = node_len[u] + 2
        if length == 1:
            suffix = 1
        else:
            # longest proper palindromic suffix of the new palindrome
            v = _extension_parent(word, pos, node_len, link, link[u], a)
            suffix = self._next[v][a]
        node = len(node_len)
        node_len.append(length)
        link.append(suffix)
        self._next.append({})
        self._next[u][a] = node
        self._last = node
        self._journal.append((prev_last, u))
        return 1

    def pop(self) -> None:
        """Undo the most recent push exactly."""
        if not self._word:
            raise StateError("pop on an empty tree")
        a = self._word.pop()
        prev_last, parent = self._journal.pop()
        if parent >= 0:
            self._len.pop()
            self._link.pop()
            self._next.pop()
            del self._next[parent][a]
        self._last = prev_last


def suffix_pass(letters, q: int) -> tuple[list[int], list[int]]:
    """One left-to-right pass over the word letters over {0, ..., q-1}.

    For the k-letter prefix, k = 1..|w|, lengths[k-1] is the length of
    its longest palindromic suffix and new[k-1] is what push returned: 1
    iff that suffix occurs nowhere earlier in the prefix.  So the word
    has sum(new) + 1 distinct palindromic factors, the empty one
    included, and is rich iff every bit is 1 (Droubay, Justin & Pirillo).
    """
    tree = Eertree(q)
    lengths, new = [], []
    for a in letters:
        new.append(tree.push(a))
        lengths.append(tree._len[tree._last])
    return lengths, new
