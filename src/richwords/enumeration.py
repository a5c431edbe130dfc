"""Exact enumeration of rich words by pruned depth-first search.

Every prefix of a rich word is rich (Droubay, Justin & Pirillo: a word is
rich iff each prefix adds a new palindrome), so the tree of words is
walked with one eertree and a push that creates no new palindromic factor
kills the whole subtree.  Counts are exact Python integers throughout.

The eertree lives in lists preallocated for n_max letters.  On a rich
path of depth d the tree has exactly d + 2 nodes, the two roots and one
per letter, so the node the letter at depth d creates is always d + 2.
Suffix links are not stored.  Each node keeps direct links (Rubinchik &
Shur, "EERTREE", 2015): dl[v][b] is the longest proper palindromic suffix
of v preceded by b inside v, or the length -1 root.  Letter a extends
the word's longest palindromic suffix `last` if a precedes it, and
dl[last][a] otherwise, so one lookup finds where it goes.  The direct
links are one short list per node: a new node's row is a copy of its
suffix link's row with one entry set, and a frame reads its row once.
A push is non-rich exactly when its transition is already set; it is
skipped with nothing to undo, and backtracking resets the one transition
a push set.  Node ids are stored premultiplied by the row width, as the
bases of their transitions.

Two pushes are always rich and need no test.  One is the letter just
before `last`: the longest palindromic suffix of a rich word occurs in
it only once (Droubay, Justin & Pirillo), so a+last+a cannot have
occurred before.  The other is a letter the word does not hold yet,
whose palindrome is the letter alone.

The recursion enters a frame only for words of length <= n_max - 3.  A
node of length n_max - 2 still gets its row and its transition, but its
children and grandchildren, the last two levels, are counted in its
parent's loop: no node is built for the children, whose direct links are
read off their suffix links' rows, and the peel lengths of both levels
come from the direct links.  Of each child's grandchildren, the two
always-rich pushes are counted outright and only the other used letters
are tested; each child's grandchild count and best peel are summed in
locals and written once.  A table of one or two rows is the top of a
three-level walk, so every walk has at least the root's frame.

Only canonical words are walked, those whose letters first appear in the
order 0, 1, 2, ...: the walk carries `used`, the number of distinct
letters so far, and tries letters 0..used (all q once used == q), so no
letter reaches min(q, n_max) and the tables are sized by that, not by q.
Renaming the letters by a permutation of the alphabet maps palindromic
factors, and the longest palindromic suffix of every prefix, one to one,
so richness and the peel length below are invariant (Glen, Justin, Widmer
& Zamboni, "Palindromic richness", 2009).  An orbit of words with k
distinct letters holds q(q-1)...(q-k+1) words and one canonical word, so
rich words are counted per (length n, used k) and weighted by
math.perm(q, k).

With workers > 1 each of `tasks` pool tasks walks from the root but
enters only every tasks-th frame of a rich word of length `cut`, which
is SHARD_DEPTH (8) clamped to n_max - 3, the deepest length with a frame
(below 1, the walk is one serial task).  tasks is `workers` capped at
the CPUs this process may run on and at q**cut, the most words a cut can
hold, and the pool starts one process per task; one task runs in this
process, with no pool.  Rows up to the cut are alike in every shard and
rows below add up.  Each frame compares the attempts so far with the
node budget on entry, and adds the attempts of the levels it folds in
once, before it returns, so an abort may report a few attempts past the
budget; the node count follows from the merged table, so neither the
counts nor the budget verdict depend on the worker count or the
machine.

count_rich returns {n: (count, max_luf)}; save_cache and load_cache
write and read that table as line-delimited JSON.

Optionally the walk tracks the maximum number of parts in the
longest-palindromic-suffix peel among rich words of each length.  Peeling
a word of length k removes its longest palindromic suffix of length
lps(k) and leaves the prefix of length k - lps(k), so a stack with
luf[k] = luf[k - lps(k)] + 1 gives each node's peel length in O(1).
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys

from .errors import BudgetExceededError, CacheError, InputError
from .version import TOOL_VERSION

CACHE_SCHEMA_VERSION = 1
DEFAULT_NODE_BUDGET = 10**9
# the word length a sharded walk hands out, clamped to n_max - 3
SHARD_DEPTH = 8


def __getattr__(name):
    # the pool pulls in multiprocessing, which a serial count never needs
    if name != "ProcessPoolExecutor":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from concurrent.futures import ProcessPoolExecutor

    globals()[name] = ProcessPoolExecutor  # later lookups skip this hook
    return ProcessPoolExecutor


def _walk_shard(q, n_max, cut, stride, offset, with_max_luf, limit):
    """Unweighted counts[n][k] and max_luf row (or None) of the walk to
    n_max >= 3 that enters the words of length cut numbered offset mod
    stride."""
    # a canonical word shorter than n_max uses fewer than n_max letters
    width = min(q, n_max)
    counts = [[0] * (width + 1) for _ in range(n_max + 1)]
    n_next = n_max - 1
    next_row, last_row = counts[n_next], counts[n_max]
    maxluf = [0] * (n_max + 1) if with_max_luf else None
    # the eertree of the current word, each node v stored as its row base
    # v * width: node d + 2 is the palindrome that the letter at depth d
    # created, nxt[v + a] is a+P+a and dl[v][b] the direct link of P by
    # b; the roots are 0 (length -1) and width (length 0)
    size = (n_max + 2) * width
    length = [-1] + [0] * (size - 1)
    nxt = [-1] * size
    dl = [None] * size  # a row at each node's base
    dl[0], dl[width] = [0] * width, [0] * width
    word = [0] * n_max
    luf = [0] * (n_max + 1)  # peel length of each prefix of the word
    # others[k][b]: the used letters 0..k-1 but b; others[k][-1]: all k
    others = [[tuple(e for e in range(k) if e != b) for b in range(k)]
              + [tuple(range(k))] for k in range(width + 1)]
    visited = 0
    skip = offset  # words of length cut to pass over before the next descent

    def walk(depth, last, used):
        nonlocal visited, skip
        if depth == cut:
            if skip:  # another shard descends into this word
                skip -= 1
                return
            skip = stride - 1
        letters = used + 1 if used < q else q
        visited += letters
        if visited > limit:  # the folded levels below only add to visited
            raise BudgetExceededError(visited, limit)
        n = depth + 1
        row = counts[n]
        i = depth - length[last] - 1
        before = word[i] if i >= 0 else -1
        links = dl[last]
        node = (n + 1) * width  # the node every child creates
        folded = 0  # attempts of the levels this frame folds in
        for a in range(letters):
            if a == before:  # P occurs once in the word, so a+P+a is new
                u = last
            else:
                u = links[a]
                if nxt[u + a] >= 0:  # a+P+a is not new: not rich
                    continue
            k = used + 1 if a == used else used
            row[k] += 1
            pal = length[u] + 2
            if maxluf is not None:
                parts = luf[n] = luf[n - pal] + 1
                if parts > maxluf[n]:
                    maxluf[n] = parts
            word[depth] = a
            length[node] = pal
            # node's suffix link w; node's direct links are w's, with w
            # itself for the letter before w inside node
            t = u + a
            w = width if pal == 1 else nxt[dl[u][a] + a]
            node_links = dl[w][:]
            node_links[word[depth - length[w]]] = w
            dl[node] = node_links
            nxt[t] = node
            if n != n_max - 2:
                walk(n, node, k)
                nxt[t] = -1
                continue
            # node's children and grandchildren end the walk: count them
            # here.  A child c+V+c gets no node of its own: its direct
            # links are read off its suffix link's row, and no grandchild
            # is the child's palindrome again (it would end at two
            # adjacent places, so be a power of c, and a longer power
            # would be the grandchild), so its transition need not be set
            letters_c = k + 1 if k < q else q
            folded += letters_c
            j = n - pal - 1
            before_c = word[j] if j >= 0 else -1
            for c in range(letters_c):
                if c == before_c:  # new, as above
                    v = node
                else:
                    v = node_links[c]
                    if nxt[v + c] >= 0:
                        continue
                kc = k + 1 if c == k else k
                next_row[kc] += 1
                pal_c = length[v] + 2
                if maxluf is not None:
                    parts = luf[n_next] = luf[n_next - pal_c] + 1
                    if parts > maxluf[n_next]:
                        maxluf[n_next] = parts
                # the child's direct links are its suffix link wc's, with
                # wc itself for the letter bc before it
                if pal_c == 1:
                    wc, bc = width, c
                else:
                    wc = nxt[dl[v][c] + c]
                    bc = word[n - length[wc]]
                # a grandchild e ends at n_max with the palindrome e+X+e,
                # whose peel is luf[n_max - |X| - 2] + 1 = luf[n - |X|] + 1.
                # Two pushes are rich with no test: the letter before the
                # child's palindrome (as above) and a new letter, whose
                # palindrome is the letter alone
                live = 0
                top = -1  # the largest luf[n - |X|] of a rich grandchild
                if kc < q:
                    folded += kc + 1
                    last_row[kc + 1] += 1
                    top = luf[n_next]
                else:
                    folded += q
                j = n - pal_c
                if j >= 0:
                    before_e = word[j]
                    live = 1
                    if maxluf is not None and luf[j] > top:
                        top = luf[j]
                else:
                    before_e = -1
                wc_links = dl[wc]
                for e in others[kc][before_e]:
                    x = wc if e == bc else wc_links[e]
                    if nxt[x + e] < 0:
                        live += 1
                        if maxluf is not None and luf[n - length[x]] > top:
                            top = luf[n - length[x]]
                last_row[kc] += live
                if maxluf is not None and top >= maxluf[n_max]:
                    maxluf[n_max] = top + 1
            nxt[t] = -1
        visited += folded

    walk(0, width, 0)
    return counts, maxluf


def _validate_args(q, n_max, workers, node_budget):
    if not isinstance(q, int) or q < 2:
        raise InputError(f"alphabet size must be an integer >= 2, got {q!r}")
    if not isinstance(n_max, int) or n_max < 1:
        raise InputError(f"n_max must be a positive integer, got {n_max!r}")
    if node_budget < 1:
        raise InputError("node budget must be positive")
    if workers < 1:
        raise InputError(f"workers must be >= 1, got {workers}")


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def count_rich(q: int, n_max: int, *, workers: int = 1,
               with_max_luf: bool = True,
               node_budget: int = DEFAULT_NODE_BUDGET
               ) -> dict[int, tuple[int, int | None]]:
    """Count rich words of every length 1..n_max over q letters.

    Returns {n: (count, max_luf)}, with max_luf None unless tracked.
    Walks canonical words only and rescales (see the module docstring);
    the node budget counts canonical push attempts.
    """
    _validate_args(q, n_max, workers, node_budget)
    # n_max - 3 is the deepest word length with a frame to cut at; cut 0
    # is the root's frame, which a single task enters with stride 1
    cut = max(min(SHARD_DEPTH, n_max - 3), 0) if workers > 1 else 0
    # one stride task per CPU this process may run on, and no more than
    # the q**cut words a cut can hold; a task past the processes would
    # walk every row above the cut again only to skip its words
    tasks = min(workers, _usable_cpus(), q ** cut)
    # a table of one or two rows is the top of a three-level walk
    shard = functools.partial(_walk_shard, q, max(n_max, 3), cut, tasks,
                              with_max_luf=with_max_luf, limit=node_budget)
    if tasks > 1:
        # through the module, so that a patched ProcessPoolExecutor is used
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=tasks) as pool:
            shards = list(pool.map(shard, range(tasks)))
    else:
        shards = [shard(0)]

    # every shard walks the rows up to the cut alike; below it they split
    counts, maxluf = shards[0]
    for more_counts, more_maxluf in shards[1:]:
        for n in range(cut + 1, n_max + 1):
            counts[n] = [a + b for a, b in zip(counts[n], more_counts[n])]
            if maxluf is not None:
                maxluf[n] = max(maxluf[n], more_maxluf[n])
    # the root tries one letter, a rich word with k letters k + 1 (or q)
    nodes = 1 + sum(c * (k + 1 if k < q else q)
                    for row in counts[:n_max] for k, c in enumerate(row))
    if nodes > node_budget:
        raise BudgetExceededError(nodes, node_budget)

    weights = [math.perm(q, k) for k in range(min(q, n_max) + 1)]
    return {n: (sum(c * w for c, w in zip(counts[n], weights)),
                maxluf[n] if maxluf is not None else None)
            for n in range(1, n_max + 1)}


# -- cache I/O ------------------------------------------------------------
#
# Line-delimited JSON.  First line is a header object
#   {"schema_version": 1, "tool_version": ..., "q": ..., "provenance": ...}
# and every following line is one record
#   {"schema_version": 1, "q": ..., "n": ..., "count": "<decimal>", "max_luf": ...}
# Counts travel as decimal strings so arbitrarily large values survive any
# JSON reader bit-exactly.


def save_cache(table: dict[int, tuple[int, int | None]], q: int,
               path: str | os.PathLike, *, symmetric: bool = False) -> None:
    """Write a count_rich table over q letters; `symmetric` only labels
    the header's provenance (`count --symmetric` walks the same words)."""
    provenance = {"symmetric": symmetric, "tool_version": TOOL_VERSION}
    lines = [json.dumps({
        "schema_version": CACHE_SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "q": q,
        "provenance": provenance,
    }, sort_keys=True)]
    for n in sorted(table):
        count, max_luf = table[n]
        lines.append(json.dumps({
            "schema_version": CACHE_SCHEMA_VERSION,
            "q": q,
            "n": n,
            "count": str(count),
            "max_luf": max_luf,
        }, sort_keys=True))
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _is_int(value) -> bool:
    # JSON true/false load as bool, a subclass of int
    return type(value) is int


def _check_schema(value, where: str) -> None:
    if not _is_int(value):
        raise CacheError(f"{where}: schema_version {value!r} is not "
                         f"an integer")
    if value != CACHE_SCHEMA_VERSION:
        raise CacheError(
            f"{where}: schema {value!r} is not supported "
            f"(expected {CACHE_SCHEMA_VERSION})")


def _cache_line(raw: str, lineno: int) -> dict:
    # ValueError covers JSONDecodeError and integers past the digit limit;
    # deeply nested arrays or objects raise RecursionError
    try:
        obj = json.loads(raw)
    except (ValueError, RecursionError) as exc:
        raise CacheError(f"line {lineno}: not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise CacheError(f"line {lineno}: expected an object")
    return obj


def load_cache(path: str | os.PathLike,
               q: int) -> dict[int, tuple[int, int | None]]:
    """The table a cache of counts over q letters holds, in the shape
    count_rich returns; raises a CacheError that names the header or the
    line on any other file, a count above q**n included."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            raw_lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise CacheError(f"cannot read cache {path}: {exc}") from exc
    raw_lines = [ln for ln in raw_lines if ln.strip()]
    if not raw_lines:
        raise CacheError("cache file is empty")

    header = _cache_line(raw_lines[0], 1)
    for key in ("schema_version", "tool_version", "q"):
        if key not in header:
            raise CacheError(f"header is missing {key!r}")
    _check_schema(header["schema_version"], "header")
    cache_q = header["q"]
    if not _is_int(cache_q) or cache_q < 2:
        raise CacheError(
            f"header q={cache_q!r} is not a valid alphabet size")
    if cache_q != q:
        raise CacheError(
            f"cache holds q={cache_q}, but q={q} was requested")

    table = {}
    for lineno, raw in enumerate(raw_lines[1:], start=2):
        rec = _cache_line(raw, lineno)
        for key in ("schema_version", "q", "n", "count", "max_luf"):
            if key not in rec:
                raise CacheError(f"line {lineno}: missing {key!r}")
        _check_schema(rec["schema_version"], f"line {lineno}")
        if not _is_int(rec["q"]) or rec["q"] != q:
            raise CacheError(
                f"line {lineno}: record q={rec['q']!r} disagrees with header")
        n = rec["n"]
        if not _is_int(n) or n < 1 or n in table:
            raise CacheError(f"line {lineno}: bad or duplicate n={n!r}")
        count_text = rec["count"]
        # isdigit() alone accepts non-ASCII digits such as "²"
        if not (isinstance(count_text, str) and count_text.isascii()
                and count_text.isdigit()):
            raise CacheError(
                f"line {lineno}: count must be a decimal string")
        try:
            count = int(count_text)
        except ValueError as exc:  # past the interpreter's digit limit
            raise CacheError(f"line {lineno}: {exc}") from exc
        # count > q**n needs count >= 2**n, so a huge n builds no q**n
        if n < count.bit_length() and count > q ** n:
            raise CacheError(f"line {lineno}: count at n={n} exceeds "
                             f"{q}**{n}, the number of words")
        max_luf = rec["max_luf"]
        if max_luf is not None and (not _is_int(max_luf) or max_luf < 0):
            raise CacheError(f"line {lineno}: bad max_luf={max_luf!r}")
        table[n] = (count, max_luf)

    if not isinstance(header.get("provenance", {}), dict):
        raise CacheError("header provenance must be an object")
    return table
