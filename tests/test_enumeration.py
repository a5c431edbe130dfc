import functools
import io
import json
import math
import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from richwords import (TOOL_VERSION, BudgetExceededError, CacheError,
                       InputError, count_rich, enumeration, load_cache,
                       save_cache)

from . import oracles

# longest length the brute-force oracle checks, per alphabet size
ORACLE_N = {2: 10, 3: 7, 4: 6, 5: 7}


@functools.lru_cache(maxsize=None)
def _brute_entries(q):
    entries = {}
    for n in range(1, ORACLE_N[q] + 1):
        rich = [w for w in oracles.all_words(q, n) if oracles.is_rich(w)]
        entries[n] = (len(rich), max(len(oracles.peel(w)) for w in rich))
    return entries


@pytest.fixture
def inline_pool(monkeypatch):
    """Stands in for ProcessPoolExecutor a pool class that records its
    max_workers and runs every task in this process; returns the pools
    made."""
    pools = []

    class InlinePool:
        def __init__(self, max_workers):
            self.max_workers = max_workers
            self.tasks = 0
            pools.append(self)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            results = [fn(*args) for args in zip(*iterables)]
            self.tasks += len(results)
            return iter(results)

    monkeypatch.setattr(enumeration, "ProcessPoolExecutor", InlinePool,
                        raising=False)
    return pools


def test_counts_against_bruteforce_binary():
    table = count_rich(2, 8)
    brute = oracles.rich_counts_brute(2, 8)
    for n in range(1, 9):
        assert table[n][0] == brute[n]


def test_counts_against_bruteforce_ternary():
    table = count_rich(3, 5)
    brute = oracles.rich_counts_brute(3, 5)
    for n in range(1, 6):
        assert table[n][0] == brute[n]


def test_all_short_words_are_rich():
    # every word of length <= 2 is rich, so the counts are q^n there
    table = count_rich(3, 2)
    assert table[1][0] == 3
    assert table[2][0] == 9


def test_submultiplicative_growth():
    table = count_rich(2, 12)
    for n in range(2, 13):
        # appending a letter to a rich word cannot create two rich words
        assert table[n][0] <= 2 * table[n - 1][0]


def test_max_luf_tracked():
    table = count_rich(2, 6)
    brute = {n: max(len(oracles.peel(w)) for w in oracles.all_words(2, n)
                    if oracles.is_rich(w)) for n in range(1, 7)}
    for n in range(1, 7):
        assert table[n][1] == brute[n]


def test_max_luf_disabled():
    table = count_rich(2, 5, with_max_luf=False)
    assert all(table[n][1] is None for n in range(1, 6))


def test_symmetric_agrees_with_plain(monkeypatch):
    # the canonical (symmetric) walk against a plain walk that tries every
    # letter at every node.  Sharded, the cut is mid-tree, and depths
    # n_max - 2 and n_max - 1 are clamped to n_max - 3, the last level
    # that gets a frame
    for q, n_max in ((2, 14), (3, 10), (4, 8), (5, 7)):
        plain = oracles.rich_entries_plain_dfs(q, n_max)
        for with_max_luf in (True, False):
            for workers, depth in ((1, 3), (2, 3), (2, n_max - 2),
                                   (2, n_max - 1)):
                monkeypatch.setattr(enumeration, "SHARD_DEPTH", depth)
                table = count_rich(q, n_max, workers=workers,
                                   with_max_luf=with_max_luf)
                assert sorted(table) == sorted(plain)
                for n, (expected, luf) in plain.items():
                    where = (q, n, with_max_luf, workers, depth)
                    assert table[n] == (
                        expected, luf if with_max_luf else None), where


def test_short_walks_against_plain_dfs(monkeypatch, inline_pool):
    # one- and two-letter tables, the top of a three-level walk, q > n_max,
    # where the walk's tables are narrower than the alphabet, and the shard
    # cut at every level; a depth past n_max - 3, the last level that gets
    # a frame, is clamped to it, and below 1 the walk runs as one task
    for q in range(2, 7):
        for n_max in range(1, 6):
            plain = oracles.rich_entries_plain_dfs(q, n_max)
            for with_max_luf in (True, False):
                expected = {n: (count, luf if with_max_luf else None)
                            for n, (count, luf) in plain.items()}
                for workers in (1, 2, 3):
                    for depth in range(1, max(n_max, 2)):
                        monkeypatch.setattr(enumeration, "SHARD_DEPTH", depth)
                        table = count_rich(q, n_max, workers=workers,
                                           with_max_luf=with_max_luf)
                        assert table == expected, (q, n_max, with_max_luf,
                                                   workers, depth)


@pytest.mark.parametrize("q", sorted(ORACLE_N))
def test_every_shard_shape_against_plain_dfs(q):
    # _walk_shard itself at every cut, stride and offset, the offsets
    # merged as count_rich merges them: rows up to the cut from one
    # shard, the rows below summed, then weighted by math.perm(q, k)
    for n_max in range(3, ORACLE_N[q] + 1):
        plain = oracles.rich_entries_plain_dfs(q, n_max)
        weights = [math.perm(q, k) for k in range(min(q, n_max) + 1)]
        for with_max_luf in (True, False):
            for cut in range(n_max - 2):
                for stride in (1, 2, 3):
                    shards = [enumeration._walk_shard(
                        q, n_max, cut, stride, offset, with_max_luf, 10**9)
                        for offset in range(stride)]
                    counts, maxluf = shards[0]
                    for more_counts, more_maxluf in shards[1:]:
                        for n in range(cut + 1, n_max + 1):
                            counts[n] = [a + b for a, b in
                                         zip(counts[n], more_counts[n])]
                            if with_max_luf:
                                maxluf[n] = max(maxluf[n], more_maxluf[n])
                    for n, (count, luf) in plain.items():
                        where = (n_max, with_max_luf, cut, stride, n)
                        assert sum(c * w for c, w in
                                   zip(counts[n], weights)) == count, where
                        if with_max_luf:
                            assert maxluf[n] == luf, where
                        else:
                            assert maxluf is None, where


def test_longest_palindromic_suffix_extends_richly():
    # the walk counts the push of the letter before the longest
    # palindromic suffix P without a test: P occurs only once in a rich
    # word, so a+P+a is new (Droubay, Justin & Pirillo)
    for q, n_max in ((2, 9), (3, 7), (4, 6)):
        for n in range(1, n_max + 1):
            for w in oracles.all_words(q, n):
                lps = oracles.longest_pal_suffix(w)
                if lps < n and oracles.is_rich(w):
                    assert oracles.is_rich(w + (w[n - lps - 1],)), w


@pytest.mark.parametrize("cpus, workers, q, n_max, tasks", [
    pytest.param(1, 3, 3, 7, 1, id="1-3"),
    pytest.param(2, 5, 3, 7, 2, id="2-5"),
    pytest.param(4, 3, 3, 7, 3, id="4-3"),
    pytest.param(2, 10**6, 2, 6, 2, id="2-1000000"),
    # a cut at n_max - 3 = 1 holds at most 2**1 words: 2 tasks, not 16
    pytest.param(16, 10**6, 2, 4, 2, id="16-1000000"),
])
def test_pool_capped_at_usable_cpus(monkeypatch, inline_pool, cpus, workers,
                                    q, n_max, tasks):
    # one stride task per CPU there is to run it, and no more tasks than
    # words the cut can hold; a pool starts one process per task, and a
    # single task runs with no pool.  The counts stay the serial ones
    monkeypatch.setattr(os, "sched_getaffinity",
                        lambda pid: set(range(cpus)), raising=False)
    monkeypatch.setattr(enumeration, "SHARD_DEPTH", 3)
    table = count_rich(q, n_max, workers=workers)
    assert [(p.max_workers, p.tasks) for p in inline_pool] == (
        [(tasks, tasks)] if tasks > 1 else [])
    assert table == {n: e for n, e in _brute_entries(q).items()
                     if n <= n_max}


@pytest.mark.parametrize("cpu_count, tasks", [(2, 2), (None, 1)])
def test_pool_cap_without_affinity(monkeypatch, inline_pool, cpu_count,
                                   tasks):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
    table = count_rich(2, 8, workers=3)
    assert [(p.max_workers, p.tasks) for p in inline_pool] == (
        [(tasks, tasks)] if tasks > 1 else [])
    assert table == {n: e for n, e in _brute_entries(2).items() if n <= 8}


def test_parallel_matches_serial(monkeypatch):
    # brute force against serial and sharded walks, with the shard cut at
    # the first level, mid-tree and clamped from n_max to n_max - 3
    for q, n_max in ORACLE_N.items():
        brute = _brute_entries(q)
        for workers in (1, 2, 3):
            for depth in (1, 3, n_max):
                monkeypatch.setattr(enumeration, "SHARD_DEPTH", depth)
                table = count_rich(q, n_max, workers=workers)
                assert table == brute, (q, workers, depth)


def test_parallel_caches_byte_identical(monkeypatch, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_cache(count_rich(2, 10, workers=1), 2, a)
    monkeypatch.setattr(enumeration, "SHARD_DEPTH", 4)
    save_cache(count_rich(2, 10, workers=3), 2, b)
    assert a.read_bytes() == b.read_bytes()


def test_budget_enforced():
    with pytest.raises(BudgetExceededError) as exc:
        count_rich(2, 12, node_budget=50)
    assert exc.value.budget == 50
    assert exc.value.visited >= 50


# exact canonical push attempts of the whole walk (the root's one try plus
# k + 1 tries, or q once k == q, below every rich word shorter than n_max);
# n_max 1 to 3 are three-level walks that run as one task
EXACT_NODES = {(2, 1): 1, (2, 2): 3, (2, 3): 7, (3, 1): 1, (3, 2): 3,
               (3, 3): 8, (2, 12): 3683, (3, 9): 2570, (4, 7): 660}


@pytest.mark.parametrize("q, n_max", sorted(EXACT_NODES))
def test_budget_verdict_exact_for_every_worker_count(monkeypatch, q, n_max):
    # the budget is an exact cap on the whole walk, however it is sharded
    nodes = EXACT_NODES[q, n_max]
    plain = oracles.rich_entries_plain_dfs(q, n_max)
    for workers in (1, 2, 3):
        for depth in (1, 3, n_max):
            monkeypatch.setattr(enumeration, "SHARD_DEPTH", depth)
            table = count_rich(q, n_max, workers=workers, node_budget=nodes)
            assert table == plain
            if nodes == 1:  # a budget below 1 is refused as input
                continue
            with pytest.raises(BudgetExceededError) as exc:
                count_rich(q, n_max, workers=workers, node_budget=nodes - 1)
            assert exc.value.budget == nodes - 1, (workers, depth)


def test_budget_aborts_inside_the_walk():
    # a walk to 60 cannot finish, so the check at a frame's entry raises;
    # the frame before it may have folded in w + w * w attempts per letter
    with pytest.raises(BudgetExceededError) as exc:
        count_rich(2, 60, node_budget=10**4)
    w = 2  # min(q, n_max)
    assert 10**4 < exc.value.visited <= 10**4 + w + w * (w + w * w)


@pytest.mark.parametrize("q, n_max", [(2, 12), (3, 9), (4, 7)])
def test_budget_counts_the_folded_levels(q, n_max):
    # half the exact attempts stops the walk at a frame's entry, a few
    # attempts past the budget; a walk that left the folded levels out of
    # its count would run to the end and report every attempt it made
    budget = EXACT_NODES[q, n_max] // 2
    with pytest.raises(BudgetExceededError) as exc:
        count_rich(q, n_max, node_budget=budget)
    w = min(q, n_max)
    assert budget < exc.value.visited <= budget + w + w * (w + w * w)


def test_budget_error_in_parallel_mode(monkeypatch):
    monkeypatch.setattr(enumeration, "SHARD_DEPTH", 3)
    with pytest.raises(BudgetExceededError):
        count_rich(2, 14, workers=2, node_budget=200)


def test_invalid_args():
    with pytest.raises(InputError):
        count_rich(1, 5)
    with pytest.raises(InputError):
        count_rich(2, 0)
    for kwargs in ({"node_budget": 0}, {"workers": 0}, {"workers": -3}):
        with pytest.raises(InputError):
            count_rich(2, 5, **kwargs)


def test_cache_roundtrip(tmp_path):
    path = tmp_path / "counts.jsonl"
    table = count_rich(2, 7)
    for symmetric in (False, True):
        save_cache(table, 2, path, symmetric=symmetric)
        assert load_cache(path, 2) == table


def test_cache_roundtrip_without_maxluf(tmp_path):
    path = tmp_path / "counts.jsonl"
    table = count_rich(3, 4, with_max_luf=False)
    save_cache(table, 3, path)
    assert load_cache(path, 3) == table


def test_cache_counts_serialized_as_strings(tmp_path):
    path = tmp_path / "counts.jsonl"
    save_cache(count_rich(2, 5), 2, path)
    lines = path.read_text().strip().split("\n")
    header = json.loads(lines[0])
    assert header["schema_version"] == 1
    assert header["q"] == 2
    for line in lines[1:]:
        rec = json.loads(line)
        assert isinstance(rec["count"], str)
        assert rec["count"].isdigit()


def test_cache_q_mismatch(tmp_path):
    path = tmp_path / "counts.jsonl"
    save_cache(count_rich(2, 4), 2, path)
    with pytest.raises(CacheError,
                       match="^cache holds q=2, but q=3 was requested$"):
        load_cache(path, 3)


def test_cache_version_rejected(tmp_path):
    path = tmp_path / "counts.jsonl"
    save_cache(count_rich(2, 4), 2, path)
    lines = path.read_text().split("\n")
    header = json.loads(lines[0])
    header["schema_version"] = 99
    lines[0] = json.dumps(header)
    path.write_text("\n".join(lines))
    with pytest.raises(CacheError, match=r"^header: schema 99 is not "
                       r"supported \(expected 1\)$"):
        load_cache(path, 2)


# each mangle returns the damaged text and the start of the error it gives
@pytest.mark.parametrize("mangle", [
    lambda text: ("", "cache file is empty$"),          # empty file
    lambda text: ("not json\n" + text,                 # garbage header
                  "line 1: not valid JSON: "),
    lambda text: (text.replace('"count"', '"xcount"'),  # missing key
                  "line 2: missing 'count'$"),
    lambda text: (text.replace('"n": 1', '"n": 1.5'),  # non-int n
                  r"line 2: bad or duplicate n=1\.5$"),
    lambda text: (text + text.split("\n")[1] + "\n",   # duplicate n
                  "line 6: bad or duplicate n=1$"),
    lambda text: ("[1,2]\n" + "\n".join(text.split("\n")[1:]),  # non-object
                  "line 1: expected an object$"),
    # "\u00b2" is a superscript two and "\u0664" an Arabic-Indic four:
    # str.isdigit() accepts both, and int() accepts the second
    lambda text: (text.replace('"count": "4"', '"count": "\\u00b2"'),
                  "line 3: count must be a decimal string$"),
    lambda text: (text.replace('"count": "4"', '"count": "\\u0664"'),
                  "line 3: count must be a decimal string$"),
    lambda text: (text + "\xff\n",                      # non-ASCII byte
                  "cannot read cache .*'ascii' codec can't decode"),
    # past the interpreter's limit on int() of a decimal string
    lambda text: (text.replace('"count": "4"',
                               '"count": "' + "4" * 5000 + '"'),
                  "line 3: .*digits"),
    # JSON true and 1.0 where an int is required
    lambda text: (text.replace('"n": 1,', '"n": true,'),
                  "line 2: bad or duplicate n=True$"),
    lambda text: (text.replace('"max_luf": 1,', '"max_luf": true,'),
                  "line 2: bad max_luf=True$"),
    lambda text: (text.replace('"schema_version": 1, "tool_version"',
                               '"schema_version": true, "tool_version"'),
                  "header: schema_version True is not an integer$"),
    lambda text: (text.replace('"schema_version": 1}',
                               '"schema_version": 1.0}'),
                  r"line 2: schema_version 1\.0 is not an integer$"),
    lambda text: (text.replace('"q": 2, "schema_version": 1}',
                               '"q": 2.0, "schema_version": 1}'),
                  r"line 2: record q=2\.0 disagrees with header$"),
    # a JSON number past the digit limit, and nesting past the recursion
    # limit
    lambda text: (text.replace('"n": 1,', '"n": ' + "1" * 5000 + ','),
                  "line 2: not valid JSON: .*digits"),
    lambda text: (text + "[" * 100_000 + "]" * 100_000 + "\n",
                  "line 6: not valid JSON: maximum recursion depth"),
    # the header's own keys and values
    lambda text: (text.replace('"schema_version": 1, "tool_version"',
                               '"schema_version": 1, "xtool_version"'),
                  "header is missing 'tool_version'$"),
    lambda text: (text.replace('"q": 2, "schema_version": 1, "tool',
                               '"q": 1, "schema_version": 1, "tool'),
                  "header q=1 is not a valid alphabet size$"),
    lambda text: (text.replace('"q": 2, "schema_version": 1, "tool',
                               '"q": "2", "schema_version": 1, "tool'),
                  "header q='2' is not a valid alphabet size$"),
    lambda text: (text.replace('{"provenance": {',
                               '{"provenance": [], "was": {'),
                  "header provenance must be an object$"),
])
def test_cache_malformed_rejected(tmp_path, mangle):
    path = tmp_path / "counts.jsonl"
    save_cache(count_rich(2, 4), 2, path)
    text, message = mangle(path.read_text())
    path.write_bytes(text.encode("latin-1"))
    with pytest.raises(CacheError, match="^" + message):
        load_cache(path, 2)


def test_cache_nondecimal_count_rejected(tmp_path):
    path = tmp_path / "counts.jsonl"
    save_cache(count_rich(2, 3), 2, path)
    path.write_text(path.read_text().replace('"count": "4"',
                                             '"count": "4x"'))
    with pytest.raises(CacheError,
                       match="^line 3: count must be a decimal string$"):
        load_cache(path, 2)


@pytest.mark.parametrize("q,n,count,refused", [
    (2, 3, 8, False), (2, 3, 9, True), (3, 3, 27, False), (3, 3, 28, True),
    (2, 10, 99999, True), (2, 10**6, 1, False), (2, 10**9, 10**30, False)])
def test_cache_count_above_q_to_the_n_is_refused(tmp_path, q, n, count,
                                                 refused):
    # q**n is never built for a huge n: a count below 2**n cannot exceed it
    header = {"schema_version": 1, "tool_version": "x", "q": q}
    record = {"schema_version": 1, "q": q, "n": n, "count": str(count),
              "max_luf": None}
    path = tmp_path / "counts.jsonl"
    path.write_text(json.dumps(header) + "\n" + json.dumps(record) + "\n")
    if refused:
        with pytest.raises(CacheError, match=f"^line 2: count at n={n} "
                           rf"exceeds {q}\*\*{n}, the number of words$"):
            load_cache(path, q)
    else:
        assert load_cache(path, q) == {n: (count, None)}


def _load_or_cache_error(path, data):
    path.write_bytes(data)
    try:
        table = load_cache(path, 2)
    except CacheError:
        return
    for n, (count, max_luf) in table.items():
        assert type(n) is int and n >= 1
        assert type(count) is int and count >= 0
        assert max_luf is None or (type(max_luf) is int and max_luf >= 0)


# bools and integral floats pass for ints by accident, so they get a third
# of the draws each
_JUNK = st.one_of(
    st.booleans(), st.integers(-3, 30).map(float),
    st.one_of(st.integers(), st.floats(), st.text(max_size=8), st.none(),
              st.recursive(st.integers(-3, 3) | st.none(),
                           lambda inner: st.lists(inner, max_size=3),
                           max_leaves=6)))


@st.composite
def _records(draw):
    # a valid record with at most one field swapped for a junk value
    rec = {"schema_version": 1, "q": 2, "n": draw(st.integers(-1, 20)),
           "count": str(draw(st.integers(0, 10**30))),
           "max_luf": draw(st.none() | st.integers(-1, 20))}
    key = draw(st.sampled_from([None, *rec]))
    if key is not None:
        rec[key] = draw(_JUNK)
    return rec


@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=300))
def test_cache_loader_fuzz_bytes(tmp_path_factory, data):
    _load_or_cache_error(tmp_path_factory.mktemp("fuzz") / "c.jsonl", data)


@settings(max_examples=150, deadline=None)
@given(records=st.lists(_records(), min_size=1, max_size=4))
def test_cache_loader_fuzz_records(tmp_path_factory, records):
    header = {"schema_version": 1, "tool_version": "x", "q": 2}
    lines = [json.dumps(header)] + [json.dumps(r) for r in records]
    _load_or_cache_error(tmp_path_factory.mktemp("fuzz") / "c.jsonl",
                         ("\n".join(lines) + "\n").encode("ascii"))


def test_provenance_records_route(tmp_path):
    # count --symmetric sets the label; the library always walks the same
    path = tmp_path / "counts.jsonl"
    for symmetric in (False, True):
        save_cache(count_rich(2, 3), 2, path, symmetric=symmetric)
        provenance = json.loads(path.read_text().split("\n")[0])[
            "provenance"]
        assert provenance == {"symmetric": symmetric,
                              "tool_version": TOOL_VERSION}


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 3), st.integers(1, 6))
def test_counts_match_bruteforce_property(q, n_max):
    table = count_rich(q, n_max, with_max_luf=False)
    assert table[n_max][0] == sum(
        1 for w in oracles.all_words(q, n_max) if oracles.is_rich(w))
