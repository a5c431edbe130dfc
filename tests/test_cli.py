import argparse
import io
import json
import math
import os
import re
import sys
import tracemalloc
from pathlib import Path

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from richwords import TOOL_VERSION, cli, count_rich, enumeration
from richwords.cli import run

from . import oracles


def _invoke(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = run(list(argv), stdout=out, stderr=err)
    return code, out.getvalue(), err.getvalue()


def _result(stdout_text):
    return json.loads(stdout_text)["result"]


def test_check_rich_word():
    code, out, err = _invoke("check", "abacaba")
    assert code == 0
    r = _result(out)
    assert r["rich"] is True
    assert r["palindromes"] == 8
    assert "finished in" in err


def test_check_matches_naive_counts():
    # every word over a-c to length 5, rich or not (abca has 4)
    for n in range(6):
        for letters in oracles.all_words(3, n):
            word = "".join("abc"[a] for a in letters)
            code, out, err = _invoke("check", word)
            assert code == 0, err
            r = _result(out)
            assert r["palindromes"] == oracles.distinct_pal_count(letters)
            assert r["rich"] is oracles.is_rich(letters)


def test_check_envelope_shape():
    code, out, _ = _invoke("check", "ab", "--q", "3")
    payload = json.loads(out)
    assert set(payload) == {"tool_version", "config", "result"}
    assert payload["config"]["q"] == 3
    assert payload["config"]["command"] == "check"


def test_count_table():
    code, out, _ = _invoke("count", "--q", "2", "--n", "8")
    assert code == 0
    rows = _result(out)["rows"]
    assert rows[-1] == {"n": 8, "count": "252", "max_luf": 4}
    assert all(isinstance(r["count"], str) for r in rows)


def test_count_csv_format():
    code, out, _ = _invoke("count", "--q", "2", "--n", "4",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "n,count,max_luf"
    assert lines[-1] == "4,16,3"


def test_count_deterministic_across_workers(monkeypatch):
    monkeypatch.setattr(enumeration, "SHARD_DEPTH", 3)
    _, out1, _ = _invoke("count", "--q", "2", "--n", "9")
    _, out2, _ = _invoke("count", "--q", "2", "--n", "9", "--workers", "2")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["result"] == r2["result"]


def test_count_symmetric_sharded_same_bytes(monkeypatch):
    monkeypatch.setattr(enumeration, "SHARD_DEPTH", 2)
    args = ("count", "--q", "3", "--n", "7", "--symmetric", "--format", "csv")
    _, serial, _ = _invoke(*args)
    code, sharded, _ = _invoke(*args, "--workers", "2")
    assert code == 0
    assert sharded == serial


def test_count_symmetric_sharded_budget_is_exit_one(monkeypatch):
    monkeypatch.setattr(enumeration, "SHARD_DEPTH", 3)
    code, out, err = _invoke("count", "--q", "2", "--n", "14", "--symmetric",
                             "--workers", "2", "--budget", "200")
    assert code == 1
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("q, n", [(2, 9), (3, 7), (4, 6)])
@pytest.mark.parametrize("workers", ["1", "2"])
def test_count_symmetric_only_labels_the_table(monkeypatch, tmp_path, q, n,
                                               workers):
    # --symmetric runs the same walk: the same rows on stdout, and a cache
    # that differs only by the header's "symmetric": true
    monkeypatch.setattr(enumeration, "SHARD_DEPTH", 3)
    argv = ("count", "--q", str(q), "--n", str(n), "--workers", workers)
    for fmt in ("csv", "text", "json"):
        _, plain, _ = _invoke(*argv, "--format", fmt)
        code, sym, _ = _invoke(*argv, "--symmetric", "--format", fmt)
        assert code == 0
        if fmt == "json":  # the config echo holds the flag
            plain, sym = _result(plain), _result(sym)
        assert sym == plain, fmt
    caches = {}
    for name, flags in (("plain", ()), ("sym", ("--symmetric",))):
        path = tmp_path / f"{name}.jsonl"
        assert _invoke(*argv, *flags, "--save-cache", str(path))[0] == 0
        caches[name] = path.read_text()
    header, *rows = caches["sym"].split("\n")
    assert '"symmetric": true' in header
    assert "\n".join([header.replace('"symmetric": true',
                                     '"symmetric": false'), *rows]
                     ) == caches["plain"]
    code, loaded, _ = _invoke("count", "--q", str(q), "--n", str(n),
                              "--load-cache", str(tmp_path / "sym.jsonl"))
    assert code == 0
    assert _result(loaded) == plain  # the json result of the plain run


@pytest.mark.parametrize("flags", [
    ("count", "--q", "2", "--n", "6", "--workers", "-3"),
    ("count", "--q", "2", "--n", "6", "--workers", "0"),
    # the shard cut is a module constant, not a flag
    ("count", "--q", "2", "--n", "6", "--workers", "2", "--shard-depth", "8"),
    # a sharded run checks its budget before it starts a pool
    ("count", "--q", "2", "--n", "6", "--workers", "2", "--budget", "0"),
    # the cache is never opened
    ("count", "--q", "2", "--n", "0"),
    ("count", "--q", "2", "--n", "-2"),
    ("count", "--q", "2", "--n", "0", "--load-cache", "absent.jsonl"),
    ("count", "--q", "2", "--n", "6", "--budget", "0"),
    ("count", "--q", "2", "--n", "6", "--budget", "-1"),
    ("maxluf", "--q", "2", "--n", "0"),
    ("maxluf", "--q", "2", "--n", "-2"),
    # refused by flag, not by the library's "alphabet size must be ..."
    ("count", "--q", "1", "--n", "6"),
    ("count", "--q", "0", "--n", "6", "--workers", "2"),
    ("maxluf", "--q", "1", "--n", "6"),
    ("bound-recurrence", "--q", "1", "--seed-n", "3", "--n-max", "6"),
])
def test_count_nonpositive_workers_or_shard_depth_is_exit_one(flags):
    code, out, err = _invoke(*flags)
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err
    for flag, value in zip(flags, flags[1:]):
        if flag in ("--n", "--budget", "--workers") and int(value) < 1:
            assert f"{flag} must be >= 1, got {value}" in err
        if flag == "--q" and int(value) < 2:
            assert f"--q must be >= 2, got {value}" in err
    if "--shard-depth" in flags:
        assert "usage error: unrecognized arguments: --shard-depth" in err


@pytest.mark.parametrize("argv", [
    ("check", "abc"),
    ("ups", "abc"),
    ("count", "--n", "3"),
    ("maxluf", "--n", "3"),
    ("bound-recurrence", "--seed-n", "3", "--n-max", "6"),
])
def test_huge_alphabet_runs(argv):
    # nothing may be sized by q: a table of 10**11 entries cannot be built
    q = 10**11
    code, out, err = _invoke(*argv, "--q", str(q))
    assert code == 0, err
    if argv[0] == "count":
        assert [int(r["count"]) for r in _result(out)["rows"]] == [
            q**n for n in (1, 2, 3)]


@pytest.mark.parametrize("argv", [
    ("jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10"),
    ("product-bound", "--phi", "sqrt", "--psi", "sqrt"),
])
@pytest.mark.parametrize("trials", ["-1", "0"])
def test_verify_nonpositive_trials_is_exit_one(argv, trials):
    code, out, err = _invoke("verify", *argv, "--trials", trials)
    assert code == 1
    assert out == ""
    assert "--trials" in err


@pytest.mark.parametrize("argv, flag", [
    # "ok: true, checked: 0"
    (("p-monotonicity", "--phi", "identity", "--psi", "identity",
      "--p-max", "0"), "--p-max"),
    (("p-monotonicity", "--phi", "identity", "--psi", "identity",
      "--p-max", "-1"), "--p-max"),
    # tested n = 2 only
    (("product-bound", "--phi", "identity", "--psi", "identity",
      "--n-max", "1"), "--n-max"),
    (("product-bound", "--phi", "identity", "--psi", "identity",
      "--n-max", "0"), "--n-max"),
    # drew 2 points per trial
    (("jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10",
      "--points", "0"), "--points"),
    (("jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10",
      "--points", "1"), "--points"),
    # checked no pair
    (("composition-bound", "--n-max", "0"), "--n-max"),
    (("composition-bound", "--n-max", "-1"), "--n-max"),
    # sampled the low end only
    (("delta", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10", "--grid", "1"),
     "--grid"),
    (("psi-family", "--phi", "x-over-lnx", "--psi", "ln", "--x-lo", "8",
      "--x-hi", "1e4", "--grid", "1"), "--grid"),
    (("d-condition", "--phi", "power:0.8", "--psi", "ln@2", "--d", "1.5",
      "--grid", "1"), "--grid"),
    (("phi-composition", "--phi", "sqrt", "--grid", "1"), "--grid"),
    (("p-monotonicity", "--phi", "identity", "--psi", "identity",
      "--grid", "1"), "--grid"),
    # "ok: true" from points drawn on [8, 100] only; x/ln x is convex
    # below e**2 and fails the comparison on [2, 100]
    (("jensen", "--fn", "x-over-lnx", "--x-lo", "2", "--x-hi", "100"),
     "--x-lo"),
    (("jensen", "--fn", "ln", "--x-lo", "1", "--x-hi", "100"), "--x-lo"),
    # an empty range
    (("jensen", "--fn", "sqrt", "--x-lo", "100", "--x-hi", "10"), "--x-hi"),
    # delta and psi-family refuse by flag as jensen does
    (("delta", "--fn", "ln", "--x-lo", "1", "--x-hi", "100"), "--x-lo"),
    (("psi-family", "--phi", "x-over-lnx", "--psi", "ln", "--x-lo", "2",
      "--x-hi", "1e4"), "--x-lo"),
    (("delta", "--fn", "sqrt", "--x-lo", "100", "--x-hi", "10"), "--x-hi"),
    (("psi-family", "--phi", "sqrt", "--psi", "sqrt", "--x-lo", "100",
      "--x-hi", "10"), "--x-hi"),
    # the --n-lo/--n-hi scans refuse by flag, not with the library's
    # "need 0 < x_lo <= x_hi" or "x=2.0 is below the domain floor"
    (("d-condition", "--phi", "x-over-lnx", "--psi", "ln", "--d", "2",
      "--n-lo", "1e8", "--n-hi", "1e2"), "--n-lo"),
    (("d-condition", "--phi", "x-over-lnx", "--psi", "ln", "--d", "2",
      "--n-lo", "2"), "--n-lo"),
    (("d-condition", "--phi", "sqrt", "--psi", "ln", "--d", "2",
      "--n-lo", "2"), "--n-lo"),
    (("phi-composition", "--phi", "x-over-lnx", "--n-lo", "2"), "--n-lo"),
    (("phi-composition", "--phi", "sqrt", "--n-lo", "1e8", "--n-hi", "1e2"),
     "--n-hi"),
    (("p-monotonicity", "--phi", "identity", "--psi", "identity",
      "--n-lo", "0"), "--n-lo"),
    (("p-monotonicity", "--phi", "identity", "--psi", "identity",
      "--n-lo", "100", "--n-hi", "10"), "--n-hi"),
    # a floor of 1 under ln x: the low end itself is not evaluable
    (("delta", "--fn", "ln@1", "--x-lo", "1", "--x-hi", "10"), "--x-lo"),
    (("jensen", "--fn", "ln@1", "--x-lo", "1", "--x-hi", "10"), "--x-lo"),
    (("psi-family", "--phi", "sqrt", "--psi", "ln@1", "--x-lo", "1",
      "--x-hi", "10"), "--x-lo"),
    # an inner argument phi(n)/2 or phi(n) below the next spec's floor
    (("d-condition", "--phi", "sqrt", "--psi", "ln@1", "--d", "1.5",
      "--n-lo", "1", "--n-hi", "100"), "--n-lo"),
    (("d-condition", "--phi", "sqrt", "--psi", "ln@1", "--d", "1.5",
      "--n-lo", "2", "--n-hi", "100"), "--n-lo"),
    (("d-condition", "--phi", "sqrt", "--psi", "ln@1", "--d", "1.5",
      "--n-lo", "4", "--n-hi", "100"), "--n-lo"),
    (("phi-composition", "--phi", "ln@1.5", "--n-lo", "2"), "--n-lo"),
])
def test_verify_vacuous_or_clamped_input_is_exit_one(argv, flag):
    code, out, err = _invoke("verify", *argv)
    assert code == 1
    assert out == ""
    assert flag in err and "Traceback" not in err


_PHI_PSI = ("--phi", "x-over-lnx", "--psi", "ln")


@pytest.mark.parametrize("argv, flag, most", [
    # product-bound once asked rng.sample for up to n - 1 cuts
    (("product-bound", *_PHI_PSI, "--n-max", "100000000000"), "--n-max",
     10**4),
    (("product-bound", *_PHI_PSI, "--trials", "2001"), "--trials", 2000),
    (("jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10",
      "--trials", "10001"), "--trials", 10**4),
    (("jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10",
      "--points", "1001"), "--points", 10**3),
    (("p-monotonicity", *_PHI_PSI, "--p-max", "101"), "--p-max", 100),
    (("p-monotonicity", *_PHI_PSI, "--grid", "10001"), "--grid", 10**4),
    (("delta", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10",
      "--grid", "1000001"), "--grid", 10**6),
    (("psi-family", *_PHI_PSI, "--x-lo", "8", "--x-hi", "1e4",
      "--grid", "1000001"), "--grid", 10**6),
    (("d-condition", *_PHI_PSI, "--d", "1.5", "--grid", "1000001"),
     "--grid", 10**6),
    (("phi-composition", "--phi", "sqrt", "--grid", "3000000"), "--grid",
     10**6),
], ids=lambda v: v[0] if isinstance(v, tuple) else None)
def test_verify_size_past_its_limit_names_the_flag(argv, flag, most):
    # refused before any work: the values above would run for minutes
    # or exhaust memory
    code, out, err = _invoke("verify", *argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} must be <= {most}, got {argv[-1]}\n")


@pytest.mark.parametrize("argv, flag, most, work", [
    # the walk recurses about once per letter, before the node budget can
    # stop it
    (("count", "--q", "2", "--n", "501"), "--n", 500,
     "richwords.enumeration.count_rich"),
    (("count", "--q", "2", "--n", "501", "--load-cache", "c.jsonl"), "--n",
     500, "richwords.enumeration.load_cache"),
    (("maxluf", "--q", "2", "--n", "501"), "--n", 500,
     "richwords.enumeration.count_rich"),
    # rows 1..n_max read no seed above n_max, but the flag is still refused
    (("bound-recurrence", "--q", "2", "--n-max", "5", "--seed-n", "501"),
     "--seed-n", 500, "richwords.enumeration.count_rich"),
    (("verify", "composition-bound", "--n-max", "1401"), "--n-max", 1400,
     "richwords.bounds.composition_bound_sweep"),
    (("bootstrap", "--q", "2", "--d", "2", "--c1", "1", "--c2", "1",
      "--c3", "0.1", "--iters", "100001"), "--iters", 10**5,
     "richwords.bootstrap.bootstrap_iterate"),
], ids=["count", "count-load-cache", "maxluf", "bound-recurrence",
        "composition-bound", "bootstrap"])
def test_size_past_its_limit_is_refused_before_any_work(monkeypatch, argv,
                                                        flag, most, work):
    def no_work(*args, **kwargs):
        raise AssertionError(f"{work} ran")

    monkeypatch.setattr(work, no_work)
    code, out, err = _invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} must be <= {most}, got "
                          f"{argv[argv.index(flag) + 1]}\n")


@pytest.mark.parametrize("frames", [0, 300])
def test_walk_at_its_limit_stops_on_its_budget(frames):
    # the walk recurses about once per letter: at the largest --n it must
    # reach its node budget, and not Python's recursion limit, even under
    # a deep caller
    n_max = next(flag.most for flag in cli.COMMANDS["count"][2]
                 if flag.name.startswith("--n "))

    def nested(depth):
        if depth:
            return nested(depth - 1)
        return _invoke("count", "--q", "2", "--n", str(n_max),
                       "--budget", "5000")

    code, out, err = nested(frames)
    assert (code, out) == (1, "")
    assert err.startswith("error: enumeration aborted: visited ")
    assert ", budget is 5000\n" in err
    assert "Traceback" not in err


def test_maxluf_stops_on_its_budget():
    # at its largest --n, as count's walk does, it stops on --budget
    code, out, err = _invoke("maxluf", "--q", "2", "--n", "500",
                             "--budget", "5000")
    assert (code, out) == (1, "")
    assert err.startswith("error: enumeration aborted: visited ")
    assert "Traceback" not in err


def test_bound_recurrence_seed_walk_stops_on_its_budget():
    # at its largest --seed-n, as count's walk does, it stops on --budget
    code, out, err = _invoke("bound-recurrence", "--q", "2", "--seed-n",
                             "500", "--n-max", "500", "--budget", "5000")
    assert (code, out) == (1, "")
    assert err.startswith("error: enumeration aborted: visited ")
    assert "Traceback" not in err


def test_bound_recurrence_budget_leaves_the_rows_alone():
    # a budget the seed walk stays within changes only the config echo
    args = ("bound-recurrence", "--q", "2", "--seed-n", "10", "--n-max",
            "30")
    for fmt in ("json", "text", "csv"):
        code, plain, err = _invoke(*args, "--format", fmt)
        assert code == 0, err
        code, budgeted, err = _invoke(*args, "--budget", "5000",
                                      "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            assert json.loads(plain)["config"]["budget"] == (
                enumeration.DEFAULT_NODE_BUDGET)
            assert json.loads(budgeted)["config"]["budget"] == 5000
            plain, budgeted = _result(plain), _result(budgeted)
        assert plain == budgeted, fmt


@pytest.mark.parametrize("symmetric", [False, True])
def test_count_cache_bytes_are_pinned(tmp_path, symmetric):
    # the whole layout: sorted keys, the nested provenance and counts as
    # decimal strings
    path = tmp_path / "c.jsonl"
    flags = ["--symmetric"] if symmetric else []
    assert _invoke("count", "--q", "2", "--n", "4", *flags,
                   "--save-cache", str(path))[0] == 0
    label = "true" if symmetric else "false"
    assert path.read_text() == (
        f'{{"provenance": {{"symmetric": {label}, "tool_version": '
        f'"{TOOL_VERSION}"}}, "q": 2, "schema_version": 1, '
        f'"tool_version": "{TOOL_VERSION}"}}\n'
        '{"count": "2", "max_luf": 1, "n": 1, "q": 2, "schema_version": 1}\n'
        '{"count": "4", "max_luf": 2, "n": 2, "q": 2, "schema_version": 1}\n'
        '{"count": "8", "max_luf": 2, "n": 3, "q": 2, "schema_version": 1}\n'
        '{"count": "16", "max_luf": 3, "n": 4, "q": 2, "schema_version": 1}\n')


def test_count_byte_identical_reruns():
    _, out1, _ = _invoke("count", "--q", "3", "--n", "5", "--symmetric")
    _, out2, _ = _invoke("count", "--q", "3", "--n", "5", "--symmetric")
    assert out1 == out2


def test_count_cache_roundtrip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    code, _, _ = _invoke("count", "--q", "2", "--n", "6",
                         "--save-cache", path)
    assert code == 0
    code, out, _ = _invoke("count", "--q", "2", "--n", "6",
                           "--load-cache", path)
    assert code == 0
    assert _result(out)["rows"][-1]["count"] == "64"


def test_count_load_cache_prints_rows_up_to_n(tmp_path):
    path = str(tmp_path / "c6.jsonl")
    assert _invoke("count", "--q", "2", "--n", "6",
                   "--save-cache", path)[0] == 0
    code, out, _ = _invoke("count", "--q", "2", "--n", "3",
                           "--load-cache", path)
    assert code == 0
    assert [r["n"] for r in _result(out)["rows"]] == [1, 2, 3]
    code, out, _ = _invoke("count", "--q", "2", "--n", "3",
                           "--load-cache", path, "--format", "csv")
    assert out == "n,count,max_luf\n1,2,1\n2,4,2\n3,8,2\n"
    for n, message in (("7", "has no row n=7"), ("0", "--n must be >= 1")):
        code, out, err = _invoke("count", "--q", "2", "--n", n,
                                 "--load-cache", path)
        assert (code, out) == (1, ""), n
        assert message in err, n


@pytest.mark.parametrize("argv, flag", [
    (("count", "--q", "2", "--n", "6", "--load-cache"), "--load-cache"),
    (("bound-recurrence", "--q", "2", "--n-max", "12", "--seeds-cache"),
     "--seeds-cache"),
], ids=["count", "bound-recurrence"])
def test_cache_missing_a_row_names_the_flag_before_any_walk(
        tmp_path, monkeypatch, argv, flag):
    cache = tmp_path / "gap.jsonl"
    assert _invoke("count", "--q", "2", "--n", "6", "--save-cache",
                   str(cache))[0] == 0
    lines = cache.read_text().splitlines()
    assert json.loads(lines[3])["n"] == 3
    cache.write_text("\n".join(lines[:3] + lines[4:]) + "\n")

    def no_walk(*args, **kwargs):
        raise AssertionError("walked a cache that misses a row")

    monkeypatch.setattr(enumeration, "count_rich", no_walk)
    code, out, err = _invoke(*argv, str(cache))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {flag} {cache} has no row n=3 "
                          f"(rows 1..6 needed)\n")
    assert "Traceback" not in err


_LOAD_CACHE = ("count", "--q", "2", "--n", "4", "--load-cache")
_SEEDS_CACHE = ("bound-recurrence", "--q", "2", "--n-max", "8",
                "--seeds-cache")


@pytest.mark.parametrize("argv, flags", [
    (_LOAD_CACHE, ["--workers", "0"]), (_LOAD_CACHE, ["--workers", "2"]),
    (_LOAD_CACHE, ["--symmetric", "--workers", "2"]),
    (_LOAD_CACHE, ["--budget", "5"]), (_LOAD_CACHE, ["--no-max-luf"]),
    (_LOAD_CACHE, ["--symmetric"]),
    (_LOAD_CACHE, ["--save-cache", "other.jsonl"]),
    (_SEEDS_CACHE, ["--budget", "5000"])],
    ids=lambda v: v[0] if isinstance(v, tuple) else "".join(v))
def test_cache_with_enumeration_flag_is_exit_one(tmp_path, argv, flags):
    # both cache readers refuse each walk flag their subcommand declares
    path = str(tmp_path / "c4.jsonl")
    assert _invoke("count", "--q", "2", "--n", "4",
                   "--save-cache", path)[0] == 0
    code, out, err = _invoke(*argv, path, *flags)
    assert (code, out) == (1, "")
    if flags == ["--workers", "0"]:  # below its limit: refused before
        assert "error: --workers must be >= 1, got 0\n" in err
    else:
        names = ", ".join(f for f in flags if f.startswith("--"))
        assert err.startswith(f"error: {argv[-1]} cannot be combined with "
                              f"enumeration flags: {names}\n")


def test_cache_dir_env_var(tmp_path, monkeypatch):
    monkeypatch.setenv("RICHWORDS_CACHE_DIR", str(tmp_path))
    code, _, _ = _invoke("count", "--q", "2", "--n", "4",
                         "--save-cache", "bare.jsonl")
    assert code == 0
    assert (tmp_path / "bare.jsonl").exists()
    code, out, _ = _invoke("count", "--q", "2", "--n", "4",
                           "--load-cache", "bare.jsonl")
    assert code == 0
    assert _result(out)["rows"][0]["count"] == "2"


def test_missing_cache_is_exit_one(tmp_path):
    code, out, err = _invoke("count", "--q", "2", "--n", "4",
                             "--load-cache", str(tmp_path / "nope.jsonl"))
    assert code == 1
    assert out == ""
    assert "error" in err


def test_ups_output():
    code, out, _ = _invoke("ups", "aab")
    assert code == 0
    r = _result(out)
    assert r["parts"] == ["aa", "b"]
    assert r["p"] == 2
    assert r["unioccurrent"] is True


def test_maxluf_with_bound():
    code, out, _ = _invoke("maxluf", "--q", "2", "--n", "5",
                           "--phi", "const:1")
    assert code == 0
    r = _result(out)
    assert r["all_hold"] is True
    assert len(r["rows"]) == 5


def test_maxluf_underflowing_phi_rows_are_null():
    # phi(n) = n**-1100 underflows to 0.0 from n = 2 on, so n/phi(n)
    # cannot be evaluated there
    code, out, err = _invoke("maxluf", "--q", "2", "--n", "5",
                             "--phi", "power:-1100")
    assert code == 0, err
    rows = _result(out)["rows"]
    assert [(r["bound"], r["holds"]) for r in rows] == [
        (1.0, True)] + [(None, None)] * 4


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_maxluf_phi_with_no_evaluable_row_is_rejected(fmt):
    # every n <= 7 is below ln's domain floor 8, so no row has a verdict
    # and "all_hold" would be vacuous
    code, out, err = _invoke("maxluf", "--q", "2", "--n", "7",
                             "--phi", "ln", "--format", fmt)
    assert code == 1
    assert out == ""
    assert "domain floor is 8" in err


@pytest.mark.parametrize("argv, expected", [
    (("count", "--q", "2", "--n", "3", "--no-max-luf"),
     ["n,count,max_luf", "1,2,", "2,4,", "3,8,"]),
    (("maxluf", "--q", "2", "--n", "9", "--phi", "ln"),
     ["n,max_luf,bound,holds", "1,1,,", "2,2,,", "3,2,,", "4,3,,", "5,3,,",
      "6,4,,", "7,4,,", "8,4,3.8471867757039027,False",
      "9,5,4.096076519820768,False"]),
])
def test_csv_none_cells_are_empty(argv, expected):
    code, out, _ = _invoke(*argv, "--format", "csv")
    assert code == 0
    assert out == "".join(line + "\n" for line in expected)


def test_bound_recurrence_runs():
    code, out, _ = _invoke("bound-recurrence", "--q", "2", "--n-max", "10",
                           "--seed-n", "5", "--tau", "n")
    assert code == 0
    rows = _result(out)["rows"]
    assert [r["n"] for r in rows] == list(range(1, 11))
    assert [r["provenance"] for r in rows] == (["exact-seed"] * 5
                                               + ["recurrence"] * 5)


_CONDITIONAL = "conditional on palindromic length <= tau(n)"


@pytest.mark.parametrize("argv, certified", [
    (("--seed-n", "10", "--n-max", "28"), "unconditional"),
    (("--seed-n", "10", "--n-max", "28", "--tau", "const:28"),
     "unconditional"),
    (("--seed-n", "10", "--n-max", "28", "--tau", "const:27"), _CONDITIONAL),
    (("--seed-n", "10", "--n-max", "28", "--tau", "const:2"), _CONDITIONAL),
    (("--seed-n", "6", "--n-max", "12", "--tau", "phi", "--phi",
      "x-over-lnx@1.5"), _CONDITIONAL),
    # no recurrence row: every row is an exact count
    (("--seed-n", "10", "--n-max", "10", "--tau", "const:1"),
     "unconditional"),
], ids=["tau-n", "const-n-max", "const-below-n-max", "const-2", "phi",
        "seeds-only"])
def test_bound_recurrence_says_whether_rows_are_conditional(argv, certified):
    code, out, _ = _invoke("bound-recurrence", "--q", "2", *argv)
    assert code == 0
    result = _result(out)
    assert result["certified"] == certified
    _, text, _ = _invoke("bound-recurrence", "--q", "2", *argv,
                         "--format", "text")
    assert f"certified = {certified}\n" in text
    _, csv_out, _ = _invoke("bound-recurrence", "--q", "2", *argv,
                            "--format", "csv")
    assert csv_out.splitlines()[0] == "n,exponent_log_q,provenance"


@pytest.mark.parametrize("n_max", ["6", "16"])
@pytest.mark.parametrize("tau", ["n", "const:3"])
def test_bound_recurrence_seeds_cache_matches_seed_n(tmp_path, n_max, tau):
    # a cache longer than the table gives its first n_max rows, all seeds
    cache = tmp_path / "seeds.jsonl"
    assert _invoke("count", "--q", "2", "--n", "10", "--save-cache",
                   str(cache))[0] == 0
    for fmt in ("json", "csv"):
        args = ("--n-max", n_max, "--tau", tau, "--format", fmt)
        from_cache = _invoke("bound-recurrence", "--q", "2", "--seeds-cache",
                             str(cache), *args)
        from_walk = _invoke("bound-recurrence", "--q", "2", "--seed-n", "10",
                            *args)
        assert from_cache[0] == from_walk[0] == 0
        if fmt == "csv":
            assert from_cache[1] == from_walk[1]
        else:
            assert _result(from_cache[1]) == _result(from_walk[1])


def test_bound_recurrence_bad_seed_count_names_the_row(tmp_path):
    cache = tmp_path / "seeds.jsonl"
    assert _invoke("count", "--q", "2", "--n", "5", "--save-cache",
                   str(cache))[0] == 0
    lines = cache.read_text().splitlines()
    row = json.loads(lines[3])
    assert row["n"] == 3
    row["count"] = "0"
    lines[3] = json.dumps(row, sort_keys=True)
    cache.write_text("\n".join(lines) + "\n")
    code, out, err = _invoke("bound-recurrence", "--q", "2", "--seeds-cache",
                             str(cache), "--n-max", "8")
    assert (code, out) == (1, "")
    assert ("error: seed count at n=3 must be a positive integer, got 0"
            in err)
    assert "Traceback" not in err


def _edit_cache_count(cache, n, count):
    """Set row n of a saved count cache to count, as a hand edit would."""
    lines = cache.read_text().splitlines()
    row = json.loads(lines[n])
    assert row["n"] == n
    row["count"] = str(count)
    lines[n] = json.dumps(row, sort_keys=True)
    cache.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("count", [1, 931, 933, 1024],
                         ids=["one", "low", "high", "q-to-the-n"])
@pytest.mark.parametrize("tau", ["n", "const:4"])
def test_bound_recurrence_edited_seed_row_is_exit_one(tmp_path, count, tau):
    # row 10 set to 1 used to print as an exact seed, 0.000...0001926,
    # under certified: unconditional
    cache = tmp_path / "seeds.jsonl"
    assert _invoke("count", "--q", "2", "--n", "10", "--save-cache",
                   str(cache))[0] == 0
    _edit_cache_count(cache, 10, count)
    code, out, err = _invoke("bound-recurrence", "--q", "2", "--seeds-cache",
                             str(cache), "--tau", tau, "--n-max", "30")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --seeds-cache {cache}: row n=10 holds "
                          f"{count}, but there are 932 rich words of "
                          f"length 10 over 2 letters\n")
    assert "Traceback" not in err


def test_bound_recurrence_checks_seed_rows_up_to_n_max(tmp_path):
    # rows above --n-max are never printed, so their edit is not read
    cache = tmp_path / "seeds.jsonl"
    assert _invoke("count", "--q", "2", "--n", "10", "--save-cache",
                   str(cache))[0] == 0
    _edit_cache_count(cache, 10, 1)
    code, out, _ = _invoke("bound-recurrence", "--q", "2", "--seeds-cache",
                           str(cache), "--n-max", "9")
    assert code == 0
    assert {r["provenance"] for r in _result(out)["rows"]} == {"exact-seed"}


def test_bound_recurrence_reads_no_cache_row_above_n_max(tmp_path):
    # a gap above --n-max lies in rows that are never read, as it does for
    # count --load-cache --n; at --n-max 8 the gap is read and refused
    cache = tmp_path / "seeds.jsonl"
    assert _invoke("count", "--q", "2", "--n", "8", "--save-cache",
                   str(cache))[0] == 0
    args = ("bound-recurrence", "--q", "2", "--seeds-cache", str(cache),
            "--n-max", "5")
    full = [_invoke(*args, "--format", fmt) for fmt in ("json", "text", "csv")]
    lines = cache.read_text().splitlines()
    assert json.loads(lines[7])["n"] == 7
    cache.write_text("\n".join(lines[:7] + lines[8:]) + "\n")
    for fmt, (code, out, err) in zip(("json", "text", "csv"), full):
        assert code == 0, err
        assert _invoke(*args, "--format", fmt)[:2] == (0, out), fmt
    code, out, _ = _invoke("count", "--q", "2", "--n", "5", "--load-cache",
                           str(cache), "--format", "csv")
    assert (code, out) == (0, "n,count,max_luf\n1,2,1\n2,4,2\n3,8,2\n"
                                "4,16,3\n5,32,3\n")
    code, out, err = _invoke(*args[:-1], "8")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: --seeds-cache {cache} has no row n=7 "
                          f"(rows 1..8 needed)\n")
    assert "Traceback" not in err


def test_bound_recurrence_large_q_cache_is_only_partly_checked(tmp_path):
    # a q = 4 walk to 11 fits the check's budget and one to 12 does not:
    # rows 12 and 13 print as cached-seed, and an edit there is not caught
    assert cli.SEED_CHECK_BUDGET == 50_000
    cache = tmp_path / "seeds.jsonl"
    assert _invoke("count", "--q", "4", "--n", "13", "--save-cache",
                   str(cache))[0] == 0
    args = ("bound-recurrence", "--q", "4", "--seeds-cache", str(cache),
            "--n-max", "16", "--format", "csv")
    code, out, err = _invoke(*args)
    assert code == 0, err
    provenance = [line.split(",")[2] for line in out.splitlines()[1:]]
    assert provenance == (["exact-seed"] * 11 + ["cached-seed"] * 2
                          + ["recurrence"] * 3)
    _edit_cache_count(cache, 12, 5)
    code, edited, err = _invoke(*args)
    assert code == 0, err
    assert edited.splitlines()[12].endswith(",cached-seed")
    _edit_cache_count(cache, 11, 5)
    code, out, err = _invoke(*args)
    assert (code, out) == (1, "")
    assert "row n=11 holds 5" in err


def test_bound_recurrence_seed_check_walks_within_its_budget(monkeypatch):
    # the longest length that fits, whether or not the first walk does
    walks = []
    real = enumeration.count_rich

    def spy(q, n, **kwargs):
        walks.append(n)
        return real(q, n, **kwargs)

    # rows 17..30 are never counted again, so their values are not read
    counts = {n: count for n, (count, _) in real(2, 16).items()}
    counts.update(dict.fromkeys(range(17, 31), 1))
    ns = argparse.Namespace(q=2, seeds_cache="seeds.jsonl")
    monkeypatch.setattr(enumeration, "count_rich", spy)
    assert cli._checked_length(ns, {n: counts[n] for n in range(1, 17)}) == 16
    assert walks == [16]
    walks.clear()
    assert cli._checked_length(ns, counts) == 16
    assert walks == [30] + list(range(1, 18))


@pytest.mark.parametrize("argv", [
    ("count", "--q", "2", "--n", "10", "--load-cache"),
    ("bound-recurrence", "--q", "2", "--n-max", "12", "--seeds-cache"),
], ids=lambda argv: argv[0])
def test_cache_count_above_q_to_the_n_names_the_line(tmp_path, argv):
    # a hand-edited count above 2**10 used to pass as an exact seed
    cache = tmp_path / "seeds.jsonl"
    assert _invoke("count", "--q", "2", "--n", "10", "--save-cache",
                   str(cache))[0] == 0
    cache.write_text(cache.read_text().replace('"count": "932"',
                                               '"count": "99999"'))
    code, out, err = _invoke(*argv, str(cache))
    assert (code, out) == (1, "")
    assert err.startswith("error: line 11: count at n=10 exceeds 2**10, "
                          "the number of words\n")


def test_bound_recurrence_seed_flags_exclusive(tmp_path):
    code, _, err = _invoke("bound-recurrence", "--q", "2", "--n-max", "6",
                           "--tau", "n")
    assert code == 1
    assert "seed" in err


@pytest.mark.parametrize("flag, value", [
    ("--seed-n", "0"), ("--seed-n", "-3"), ("--n-max", "0"),
    ("--n-max", "-3")], ids=["0", "-3", "n-max-0", "n-max--3"])
def test_bound_recurrence_nonpositive_seed_n_names_the_flag(flag, value):
    code, out, err = _invoke("bound-recurrence", "--q", "2", "--n-max", "5",
                             "--seed-n", "4", flag, value)
    assert code == 1
    assert out == ""
    assert f"{flag} must be >= 1, got {value}" in err
    assert "Traceback" not in err


_CONSTANTS = ("--q", "2", "--d", "2", "--c1", "1", "--c2", "1", "--c3", "0.1")
_BOOTSTRAP = ("bootstrap", *_CONSTANTS)
_COMPARE = ("compare-exponents", *_CONSTANTS, "--phi", "power:0.8", "--psi",
            "ln@2", "--n", "1e6")
_D_CONDITION = ("verify", "d-condition", "--phi", "power:0.8", "--psi",
                "ln@2", "--d", "1.5", "--grid", "64")
_PRODUCT = ("verify", "product-bound", "--phi", "x-over-lnx", "--psi", "ln",
            "--trials", "5")
_SEEDED = ("bound-recurrence", "--q", "2", "--seed-n", "4", "--n-max", "8")


_SCALAR_REFUSALS = [
    # a scalar flag at its exclusive bound
    ((*_BOOTSTRAP, "--d", "1"), "--d must be > 1, got 1.0"),
    ((*_COMPARE, "--d", "1"), "--d must be > 1, got 1.0"),
    ((*_D_CONDITION, "--d", "1"), "--d must be > 1, got 1.0"),
    ((*_BOOTSTRAP, "--c1", "0"), "--c1 must be > 0, got 0.0"),
    ((*_BOOTSTRAP, "--c2", "-1"), "--c2 must be > 0, got -1.0"),
    ((*_BOOTSTRAP, "--c3", "0"), "--c3 must be > 0, got 0.0"),
    ((*_PRODUCT, "--c1", "0"), "--c1 must be > 0, got 0.0"),
    ((*_PRODUCT, "--c2", "0"), "--c2 must be > 0, got 0.0"),
    ((*_COMPARE, "--n", "1"), "--n must be > 1, got 1.0"),
    # and the three refusals of a --tau form
    ((*_SEEDED, "--tau", "const:-1"),
     "--tau constant must be positive, got -1"),
    ((*_SEEDED, "--tau", "const:0x10"),
     "--tau constant must be an integer, got 'const:0x10'"),
    ((*_SEEDED, "--tau", "foo"), "unknown --tau form 'foo'"),
]


@pytest.mark.parametrize("argv, message", _SCALAR_REFUSALS,
                         ids=[f"{v[v[0] == 'verify']}{v[-2]}={v[-1]}"
                              for v, _ in _SCALAR_REFUSALS])
def test_scalar_refusal_names_the_flag(argv, message):
    # the last of a flag given twice is the one read
    code, out, err = _invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {message}\n")
    assert "Traceback" not in err


def test_bound_recurrence_enumerates_no_seed_above_n_max(monkeypatch):
    from richwords import enumeration

    asked = []
    real = enumeration.count_rich

    def recording(q, n_max, **kwargs):
        asked.append(n_max)
        return real(q, n_max, **kwargs)

    monkeypatch.setattr(enumeration, "count_rich", recording)
    _, wide, _ = _invoke("bound-recurrence", "--q", "2", "--seed-n", "24",
                         "--n-max", "5")
    _, narrow, _ = _invoke("bound-recurrence", "--q", "2", "--seed-n", "5",
                           "--n-max", "5")
    assert asked == [5, 5]
    assert _result(wide) == _result(narrow)
    _invoke("bound-recurrence", "--q", "2", "--seed-n", "3", "--n-max", "9")
    assert asked[-1] == 3


@pytest.mark.parametrize("tau", ["const:x", "const:"])
def test_bound_recurrence_non_integer_tau_is_exit_one(tau):
    code, out, err = _invoke("bound-recurrence", "--q", "2", "--n-max", "8",
                             "--seed-n", "4", "--tau", tau)
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("tau, n_max", [("n", 60), ("const:4", 100)])
def test_bound_recurrence_rows_are_certified(tau, n_max):
    # every printed exponent is at or above the exact log2 B(n) of the
    # integer recurrence, and close to it
    counts = {n: count for n, (count, _) in count_rich(2, 10).items()}
    cap = (lambda n: n) if tau == "n" else (lambda n: 4)
    exact = oracles.recurrence_table_exact(counts, cap, n_max)
    code, out, _ = _invoke("bound-recurrence", "--q", "2", "--seed-n", "10",
                           "--n-max", str(n_max), "--tau", tau)
    assert code == 0
    rows = _result(out)["rows"]
    assert [r["n"] for r in rows] == list(range(1, n_max + 1))
    for r in rows:
        shown, value = r["exponent_log_q"], exact[r["n"]]
        with mpmath.workprec(256 + value.bit_length()):
            diff = mpmath.mpf(shown) - mpmath.log(value, 2)
            assert diff >= 0, r
            assert diff <= 1e-13 * max(1.0, float(shown)), r


def test_bound_exponents_same_in_every_format():
    # one helper renders exponents for json, text and csv
    args = ("bound-recurrence", "--q", "2", "--seed-n", "5", "--n-max", "12",
            "--tau", "const:3")
    rows = _result(_invoke(*args)[1])["rows"]
    lines = [f"{r['n']},{r['exponent_log_q']},{r['provenance']}"
             for r in rows]
    _, csv_out, _ = _invoke(*args, "--format", "csv")
    assert csv_out.splitlines() == ["n,exponent_log_q,provenance", *lines]
    _, text_out, _ = _invoke(*args, "--format", "text")
    assert [line for line in text_out.splitlines()
            if line.startswith("exponent_log_q=")] == [
        f"exponent_log_q={r['exponent_log_q']} n={r['n']} "
        f"provenance={r['provenance']}" for r in rows]


def test_bound_recurrence_tau_phi():
    code, out, _ = _invoke("bound-recurrence", "--q", "2", "--n-max", "12",
                           "--seed-n", "6", "--tau", "phi",
                           "--phi", "x-over-lnx@2")
    assert code == 0
    assert _result(out)["tau"].startswith("ceil(n/phi)")


@pytest.mark.parametrize("tau", ["n", "const:1", "const:4"])
def test_bound_recurrence_phi_without_tau_phi_is_exit_one(tau):
    code, out, err = _invoke("bound-recurrence", "--q", "2", "--seed-n", "5",
                             "--n-max", "8", "--tau", tau, "--phi", "sqrt")
    assert (code, out) == (1, "")
    assert f"--phi is only read with --tau phi, not with --tau {tau}" in err


@pytest.mark.parametrize("k", [30, 31, 100])
def test_bound_recurrence_tau_n_equals_large_constant(k):
    # tau(n) >= n on every row sums every part count either way
    args = ("bound-recurrence", "--q", "2", "--seed-n", "6", "--n-max", "30",
            "--format", "csv")
    code_n, out_n, _ = _invoke(*args, "--tau", "n")
    code_k, out_k, _ = _invoke(*args, "--tau", f"const:{k}")
    assert (code_n, code_k) == (0, 0)
    assert out_n == out_k


def test_verify_delta_counterexample_is_exit_two():
    code, out, _ = _invoke("verify", "delta", "--fn", "power:2",
                           "--x-lo", "1", "--x-hi", "100")
    assert code == 2
    r = _result(out)
    assert r["ok"] is False
    assert r["witness"]["kind"] == "d2"


def test_verify_delta_passes_for_sqrt():
    code, out, _ = _invoke("verify", "delta", "--fn", "sqrt",
                           "--x-lo", "1", "--x-hi", "1000000")
    assert code == 0


def test_verify_composition_bound():
    code, out, _ = _invoke("verify", "composition-bound", "--n-max", "60")
    assert code == 0
    assert _result(out)["ok"] is True


def test_verify_jensen_seeded():
    code, out, _ = _invoke("verify", "jensen", "--fn", "sqrt",
                           "--x-lo", "1", "--x-hi", "1000",
                           "--trials", "50", "--seed", "11")
    assert code == 0
    assert _result(out)["trials_run"] == 50


@pytest.mark.parametrize("seed", ["0", "1", "2"])
def test_verify_jensen_range_that_breaks_the_hypothesis_is_exit_one(seed):
    # x/ln x is convex on [5.86, e**2), where no point drawn at seed 0
    # falls: only a check of the whole range refuses it.  The witness is a
    # grid point of the range, whatever the seed
    code, out, err = _invoke("verify", "jensen", "--fn", "1,1,-1,0,1@2.5",
                             "--x-lo", "5.86", "--x-hi", "14291.8",
                             "--seed", seed)
    assert (code, out) == (1, "")
    assert err.startswith("error: 1*x^1*lnx^-1*exp(0*lnx^1)@2.5 fails the "
                          "hypothesis on [5.86, 14291.8]: {'x': 5.86, "
                          "'kind': 'd2'}\n")


def test_verify_jensen_one_point_range_passes():
    # 7 or 14 points of 10.4253 average, in floats, to just above it
    code, out, err = _invoke("verify", "jensen", "--fn", "sqrt@2", "--x-lo",
                             "10.4253", "--x-hi", "10.4253", "--points", "20",
                             "--trials", "50", "--seed", "403419")
    assert code == 0, err
    assert _result(out)["trials_run"] == 50


def test_verify_jensen_convex_is_usage_error():
    code, out, err = _invoke("verify", "jensen", "--fn", "power:2",
                             "--x-lo", "1", "--x-hi", "100",
                             "--trials", "5", "--seed", "1")
    assert code == 1  # hypothesis not verified, not a counterexample
    assert out == ""


def test_verify_product_bound():
    code, out, _ = _invoke("verify", "product-bound",
                           "--phi", "identity", "--psi", "identity",
                           "--n-max", "60", "--trials", "40", "--seed", "3")
    assert code == 0


@pytest.mark.parametrize("argv", [
    ("p-monotonicity", "--phi", "identity", "--psi", "identity"),
    ("product-bound", "--phi", "identity", "--psi", "identity",
     "--trials", "500"),
    ("product-bound", "--phi", "x-over-lnx", "--psi", "ln"),
])
def test_omega_hypothesis_is_verified_once_per_run(monkeypatch,
                                                   hypothesis_scans, argv):
    from richwords import functions

    built = []

    class Counting(functions.ExponentFunction):
        def __post_init__(self):
            built.append(self)
            super().__post_init__()

    monkeypatch.setattr(functions, "ExponentFunction", Counting)
    code, _, err = _invoke("verify", *argv)
    assert code == 0, err
    assert len(hypothesis_scans) == 1
    # the run builds one exponent, and the gate verifies that one
    assert len(built) == 1
    assert hypothesis_scans[0][0] is built[0]


def test_jensen_hypothesis_is_verified_once_per_run(hypothesis_scans):
    # one grid walk over [--x-lo, --x-hi], not one per trial
    code, out, err = _invoke("verify", "jensen", "--fn", "x-over-lnx",
                             "--x-lo", "8", "--x-hi", "1e6",
                             "--trials", "1000")
    assert code == 0, err
    assert _result(out)["trials_run"] == 1000
    (fn, x_lo, x_hi, _), = hypothesis_scans
    assert (fn.label, x_lo, x_hi) == (_result(out)["fn"], 8.0, 1e6)


def test_product_bound_parts_halve_to_the_domain_floor(monkeypatch):
    # floor 8 for x/ln x and ln: every part is at least 2*8 - 1 = 15
    from richwords import functions

    drawn = []
    check = functions.check_product_bound

    def recording(n, p, parts, params):
        drawn.append((n, p, parts))
        return check(n, p, parts, params)

    monkeypatch.setattr(functions, "check_product_bound", recording)
    code, out, _ = _invoke("verify", "product-bound", "--phi", "x-over-lnx",
                           "--psi", "ln", "--n-max", "100", "--trials", "300")
    assert code == 0
    assert _result(out)["trials_run"] == 300 == len(drawn)
    assert min(min(parts) for _, _, parts in drawn) == 15
    assert max(p for _, p, _ in drawn) > 1
    assert all(sum(parts) == n and len(parts) == p for n, p, parts in drawn)


def test_product_bound_ln_with_floor_one_starts_at_two(monkeypatch):
    # ln refuses x = 1, so the least x both specs take is 2, not the floor
    # 1: every part is at least 2*2 - 1 = 3
    from richwords import functions

    drawn = []
    check = functions.check_product_bound

    def recording(n, p, parts, params):
        drawn.append(parts)
        return check(n, p, parts, params)

    monkeypatch.setattr(functions, "check_product_bound", recording)
    code, out, err = _invoke("verify", "product-bound", "--phi",
                             "x-over-lnx@1", "--psi", "sqrt", "--n-max", "60",
                             "--trials", "200")
    assert code == 0, err
    assert _result(out)["trials_run"] == 200 == len(drawn)
    assert min(min(parts) for parts in drawn) == 3
    code, out, err = _invoke("verify", "product-bound", "--phi", "identity",
                             "--psi", "ln@1", "--n-max", "2")
    assert (code, out) == (1, "")
    assert "--n-max must be >= 3, got 2" in err


@pytest.mark.parametrize("n_max", ["14", "2"])
def test_product_bound_n_max_below_the_floor_part_names_it(n_max):
    code, out, err = _invoke("verify", "product-bound", "--phi", "x-over-lnx",
                             "--psi", "ln", "--n-max", n_max)
    assert code == 1
    assert out == ""
    assert f"--n-max must be >= 15, got {n_max}" in err
    assert "domain floor 8" in err and "Traceback" not in err


def test_verify_p_monotonicity():
    code, out, _ = _invoke("verify", "p-monotonicity",
                           "--phi", "identity", "--psi", "identity",
                           "--n-lo", "10", "--n-hi", "1000", "--grid", "40")
    assert code == 0
    assert _result(out)["checked"] > 0


def test_p_monotonicity_below_the_domain_floor_names_the_flags():
    # the paper's phi at the default flags: n = 10 takes p <= 3, and
    # 10/(2*4) + 1 = 2.25 is below the floor 8 of ln and x-over-lnx
    argv = ("verify", "p-monotonicity", "--phi", "x-over-lnx", "--psi", "ln")
    code, out, err = _invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith(
        "error: --n-lo 10 with --p-max 8 asks for x = n/(2(p+1)) + 1 = "
        "2.25 at (n, p) = (10, 3), below the domain floor 8\n")
    code, out, err = _invoke(*argv, "--n-lo", "100")
    assert code == 0, err
    assert _result(out)["ok"] is True


@pytest.mark.parametrize("flags", [
    (),
    ("--n-lo", "100", "--n-hi", "2000", "--grid", "60"),
    ("--n-lo", "2", "--n-hi", "50", "--grid", "30", "--p-max", "3"),
    ("--phi", "identity"),  # one part at every n
])
def test_p_monotonicity_range_is_the_hull_of_its_arguments(
        monkeypatch, hypothesis_scans, flags):
    # the closed-form range is exactly the least and the largest argument
    # the checks ask for, so no argument is refused and none is unverified
    from richwords import functions

    asked = []
    check = functions.check_p_monotonicity

    def recording(n, p, params):
        asked.extend(n / (2.0 * k) + 1.0 for k in (p, p + 1))
        return check(n, p, params)

    monkeypatch.setattr(functions, "check_p_monotonicity", recording)
    code, out, err = _invoke("verify", "p-monotonicity", "--phi", "sqrt",
                             "--psi", "identity", *flags)
    assert code == 0, err
    (_, x_lo, x_hi, _), = hypothesis_scans
    assert (x_lo, x_hi) == (min(asked), max(asked))
    assert len(asked) == 2 * _result(out)["checked"]


def test_p_monotonicity_keeps_no_pair_list():
    # 17,310 (n, p) pairs; a list of them and of the arguments they ask
    # for peaked at 4.2 MB
    argv = ("verify", "p-monotonicity", "--phi", "sqrt", "--psi", "identity",
            "--n-lo", "1000", "--n-hi", "1000000", "--grid", "200",
            "--p-max", "100")
    tracemalloc.start()
    try:
        code, out, err = _invoke(*argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0, err
    assert _result(out) == {"ok": True, "checked": 17310}
    assert peak < 2**20


@pytest.mark.parametrize("argv, message", [
    # phi(n) = 1e-300, so n/phi(n) overflows above n = 1.8e8: math.ceil
    # raised "cannot convert float infinity to integer"
    (("--phi", "const:1e-300", "--n-lo", "100", "--n-hi", "1000000000"),
     "error: --phi 1e-300*x^0*lnx^0*exp(0*lnx^1)@1: n/phi(n) is not finite "
     "at row n=180824493\n"),
    # the refusal of phi's own domain check named no flag
    (("--phi", "ln@20", "--n-lo", "10"),
     "error: --phi at row n=10: x=10.0 is below the domain floor 20.0 of "
     "1*x^0*lnx^1*exp(0*lnx^1)@20\n"),
])
def test_p_monotonicity_part_cap_refusal_names_the_phi(argv, message):
    code, out, err = _invoke("verify", "p-monotonicity", "--psi", "identity",
                             *argv)
    assert (code, out) == (1, "")
    assert err.startswith(message)
    assert "Traceback" not in err


def test_verify_d_condition():
    code, out, _ = _invoke("verify", "d-condition", "--phi", "power:0.8",
                           "--psi", "ln@2", "--d", "1.5",
                           "--n-lo", "100", "--n-hi", "100000000",
                           "--grid", "2000")
    assert code == 0
    r = _result(out)
    assert r["ok"] is True
    assert r["n0"] == pytest.approx(2 ** 20, rel=0.02)


def test_verify_phi_composition_failure_is_exit_two():
    code, out, _ = _invoke("verify", "phi-composition", "--phi", "sqrt",
                           "--n-lo", "100", "--n-hi", "100000000")
    assert code == 2
    assert _result(out)["witness"]


@pytest.mark.parametrize("argv", [
    # 1e308 * x overflows to inf and exp(-1e308 * ln x) underflows to 0:
    # math.ceil(nan) raised ValueError
    ("verify", "p-monotonicity", "--phi", "1e308,1,0,-1e308,1", "--psi",
     "identity", "--n-lo", "10", "--n-hi", "20", "--grid", "3"),
    ("verify", "phi-composition", "--phi", "1e308,1,0,-1e308,1", "--n-lo",
     "10", "--n-hi", "20", "--grid", "3"),
    # a nan floor disabled the domain check: ZeroDivisionError at x = 5e-324
    ("verify", "jensen", "--fn", "sqrt@nan", "--x-lo", "5e-324",
     "--x-hi", "5e-324", "--trials", "1"),
    # these gave a vacuous ok or a nan counterexample (exit 2)
    ("verify", "delta", "--fn", "1,1,nan,0,1", "--x-lo", "10",
     "--x-hi", "20"),
    ("verify", "product-bound", "--phi", "sqrt", "--psi", "sqrt",
     "--c1", "inf", "--trials", "3", "--n-max", "5"),
    ("verify", "jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "nan"),
    ("verify", "jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "inf"),
    ("verify", "d-condition", "--phi", "sqrt", "--psi", "sqrt", "--d", "inf",
     "--grid", "3"),
    ("bootstrap", "--q", "2", "--d", "2", "--c1", "inf", "--c2", "1",
     "--c3", "1"),
    # x**-1100 underflows to 0.0: ZeroDivisionError, or a witness from 0.0
    ("bound-recurrence", "--q", "2", "--seed-n", "3", "--n-max", "6",
     "--tau", "phi", "--phi", "power:-1100"),
    ("verify", "p-monotonicity", "--phi", "power:-1100", "--psi", "identity",
     "--n-lo", "2", "--n-hi", "10", "--grid", "5"),
    ("verify", "delta", "--fn", "power:-1100", "--x-lo", "2", "--x-hi", "10"),
])
def test_non_finite_input_is_exit_one(argv):
    code, out, err = _invoke(*argv)
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv, x", [
    (("verify", "delta", "--fn", "power:400", "--x-lo", "10", "--x-hi",
      "1e6"), "10.0"),
    (("verify", "delta", "--fn", "exp-sqrt-ln:1000", "--x-lo", "10",
      "--x-hi", "1e6"), "10.0"),
    (("verify", "d-condition", "--phi", "power:400", "--psi", "sqrt",
      "--d", "1.5"), "100.0"),
    # a row where phi overflows would be null and fall out of all_hold
    (("maxluf", "--q", "2", "--n", "10", "--phi", "1,400,0,0,0"), "6.0"),
    (("bound-recurrence", "--q", "2", "--seed-n", "3", "--n-max", "6",
      "--tau", "phi", "--phi", "power:400"), "6.0"),
])
def test_overflowing_function_is_named(argv, x):
    # x**b and math.exp raise OverflowError instead of returning inf
    code, out, err = _invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: ")
    assert f" is not finite at x={x}\n" in err


def _reject_constant(name):
    raise ValueError(f"stdout holds {name}, which is not JSON")


def test_maxluf_rows_where_n_over_phi_overflows_are_null():
    # phi(6) = 6**-400 is subnormal, so 6/phi(6) overflows to inf
    code, out, err = _invoke("maxluf", "--q", "2", "--n", "7",
                             "--phi", "1,-400,0,0,0")
    assert code == 0, err
    rows = json.loads(out, parse_constant=_reject_constant)["result"]["rows"]
    assert [(r["bound"], r["holds"]) for r in rows[5:]] == [(None, None)] * 2
    assert all(r["holds"] for r in rows[:5])


def test_result_that_is_not_finite_is_exit_one():
    # psi(1e10) = 1e-300, so n/psi(n) and both exponents are inf; text
    # once printed "old_exponent = inf" and exited 0
    for fmt in ("json", "text"):
        code, out, err = _invoke("compare-exponents", "--q", "2", "--d", "2",
                                 "--c1", "1", "--c2", "1", "--c3", "0.1",
                                 "--phi", "sqrt", "--psi", "1,-30,0,0,0",
                                 "--n", "1e10", "--format", fmt)
        assert (code, out) == (1, ""), fmt
        assert err.startswith(
            "error: old_exponent is not finite at n=10000000000.0\n"), fmt


def test_bound_recurrence_tau_phi_not_finite_names_the_row():
    # phi(6) = 6**-400 is subnormal, so 6/phi(6) is inf: math.ceil raised
    # "cannot convert float infinity to integer"
    code, out, err = _invoke("bound-recurrence", "--q", "2", "--seed-n", "3",
                             "--n-max", "8", "--tau", "phi",
                             "--phi", "1,-400,0,0,0")
    assert (code, out) == (1, "")
    assert err.startswith("error: --phi ")
    assert "n/phi(n) is not finite at row n=6\n" in err


# a clean argv of each subcommand that has a float flag
_FLOAT_FLAG_BASES = {
    "verify jensen": ("--fn", "sqrt", "--x-lo", "1", "--x-hi", "10"),
    "verify product-bound": ("--phi", "sqrt", "--psi", "sqrt"),
    "verify p-monotonicity": ("--phi", "sqrt", "--psi", "sqrt"),
    "verify delta": ("--fn", "sqrt", "--x-lo", "1", "--x-hi", "10"),
    "verify psi-family": ("--phi", "sqrt", "--psi", "sqrt", "--x-lo", "1",
                          "--x-hi", "10"),
    "verify d-condition": ("--phi", "sqrt", "--psi", "sqrt", "--d", "1.5"),
    "verify phi-composition": ("--phi", "sqrt"),
    "bootstrap": ("--q", "2", "--d", "2", "--c1", "1", "--c2", "1",
                  "--c3", "0.1"),
    "compare-exponents": ("--q", "2", "--d", "2", "--c1", "1", "--c2", "1",
                          "--c3", "0.1", "--phi", "power:0.8", "--psi",
                          "ln@2", "--n", "1e6"),
}
_NOT_FINITE = [(name, flag.name.split()[0], value)
               for name, (_, _, flags) in cli.COMMANDS.items()
               for flag in flags if flag.type is float
               for value in ("nan", "inf", "-inf")]


@pytest.mark.parametrize("name, option, value", _NOT_FINITE,
                         ids=[f"{n.replace(' ', '-')}{o}={v}"
                              for n, o, v in _NOT_FINITE])
def test_float_flag_that_is_not_finite_is_refused_before_any_work(
        monkeypatch, name, option, value):
    # such values once failed only after work had started, with the
    # library's wording: "need 0 < x_lo <= x_hi < inf, got [nan, nan]"
    handler, help_text, flags = cli.COMMANDS[name]

    def no_work(ns):
        raise AssertionError(f"{name} ran")

    monkeypatch.setitem(cli.COMMANDS, name, (no_work, help_text, flags))
    # "--flag=value" keeps "-inf" from reading as a flag; the last value
    # of a flag given twice wins
    argv = (*name.split(), *_FLOAT_FLAG_BASES[name], f"{option}={value}")
    code, out, err = _invoke(*argv)
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {option} must be finite, got {value}\n")


def test_bootstrap_overflow_names_the_step():
    code, out, err = _invoke("bootstrap", "--q", "2", "--d", "1.5",
                             "--c1", "1", "--c2", "1", "--c3", "1",
                             "--iters", "2000")
    assert (code, out) == (1, "")
    assert err.startswith("error: c2 overflows at step 1023\n")


def test_alphabet_is_checked_before_the_empty_word():
    code, out, err = _invoke("ups", "", "--q", "1")
    assert (code, out) == (1, "")
    assert err.startswith("error: --q must be >= 2, got 1\n")
    code, out, err = _invoke("ups", "", "--q", "2")
    assert (code, out) == (1, "")
    assert "the empty word has no suffix factorization" in err


@pytest.mark.parametrize("argv, code", [
    (("check", "zz"), 0),  # q defaults to the letters present
    (("check", ""), 0),  # and is at least 2
    (("check", "zz", "--q", "25"), 1),
    (("ups", "zz"), 0),
    (("ups", "abca", "--q", "2"), 1),
])
def test_default_alphabet_holds_the_word(argv, code):
    assert _invoke(*argv)[0] == code


@pytest.mark.parametrize("command", ["check", "ups"])
def test_letter_outside_q_names_the_flag(command):
    code, out, err = _invoke(command, "abca", "--q", "2")
    assert (code, out) == (1, "")
    assert err.startswith("error: --q 2 has no letter 'c'\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, code, keys, witness", [
    (("check", "abacaba"), 0, {"word", "rich", "palindromes"}, None),
    (("ups", "aabbab"), 0,
     {"word", "parts", "p", "boundaries", "unioccurrent"}, None),
    (("maxluf", "--q", "2", "--n", "4"), 0, {"q", "rows"}, None),
    (("maxluf", "--q", "2", "--n", "4", "--phi", "identity"), 0,
     {"q", "phi", "rows", "all_hold", "first_failure_n"}, None),
    (("verify", "composition-bound", "--n-max", "20"), 0,
     {"n_max", "ok", "checked"}, None),
    (("verify", "jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "100",
      "--trials", "5"), 0, {"fn", "ok", "trials_run"}, None),
    (("verify", "product-bound", "--phi", "identity", "--psi", "identity",
      "--trials", "5"), 0, {"ok", "trials_run"}, None),
    (("verify", "p-monotonicity", "--phi", "identity", "--psi", "identity",
      "--grid", "5"), 0, {"ok", "checked"}, None),
    (("verify", "delta", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "100"), 0,
     {"fn", "ok", "x_lo", "x_hi", "grid"}, None),
    (("verify", "delta", "--fn", "power:2", "--x-lo", "1", "--x-hi", "100"),
     2, {"fn", "ok", "x_lo", "x_hi", "grid", "witness"}, {"x", "kind"}),
    (("verify", "psi-family", "--phi", "x-over-lnx", "--psi", "ln",
      "--x-lo", "8", "--x-hi", "1e4"), 0,
     {"phi", "psi", "ok", "psi_leq_x_ok", "combined_concave_increasing"},
     None),
    (("verify", "psi-family", "--phi", "power:2", "--psi", "power:2",
      "--x-lo", "8", "--x-hi", "1e4"), 2,
     {"phi", "psi", "ok", "psi_leq_x_ok", "combined_concave_increasing",
      "witness"}, {"psi_leq_x_fails_at", "combined_fails_at", "kind"}),
    (("verify", "d-condition", "--phi", "power:0.8", "--psi", "ln@2",
      "--d", "1.5", "--grid", "100"), 0,
     {"phi", "psi", "d", "ok", "n0", "failures"}, None),
    (("verify", "d-condition", "--phi", "power:0.9", "--psi", "const:3",
      "--d", "2.5", "--grid", "64"), 2,
     {"phi", "psi", "d", "ok", "n0", "failures", "witness"}, {"n", "note"}),
    (("verify", "phi-composition", "--phi", "identity", "--grid", "64"), 0,
     {"phi", "ok", "real_tau_n0", "real_tau_holds_at_top", "ceil_tau_n0",
      "ceil_tau_holds_at_top", "variants_disagree"}, None),
    (("verify", "phi-composition", "--phi", "sqrt", "--grid", "64"), 2,
     {"phi", "ok", "real_tau_n0", "real_tau_holds_at_top", "ceil_tau_n0",
      "ceil_tau_holds_at_top", "variants_disagree", "witness"},
     {"n", "note"}),
    # --x-lo at the domain floor is not refused
    (("verify", "jensen", "--fn", "x-over-lnx", "--x-lo", "8", "--x-hi",
      "100", "--trials", "5"), 0, {"fn", "ok", "trials_run"}, None),
    (("verify", "delta", "--fn", "const:3", "--x-lo", "1", "--x-hi", "100"),
     2, {"fn", "ok", "x_lo", "x_hi", "grid", "witness"}, {"x", "kind"}),
    (("bootstrap", *_CONSTANTS, "--iters", "2"), 0,
     {"c1", "c2", "c1_fixed_point", "trajectory"}, None),
    (("compare-exponents", *_CONSTANTS, "--phi", "power:0.8", "--psi",
      "ln@2", "--n", "1e6"), 0,
     {"n", "old_exponent", "new_exponent", "improved",
      "first_term_dominates", "c1_shrinks"}, None),
])
def test_result_keys(argv, code, keys, witness):
    got, out, err = _invoke(*argv)
    assert got == code, err
    result = _result(out)
    assert set(result) == keys
    if witness is not None:
        assert set(result["witness"]) == witness


def test_verify_psi_family():
    code, out, _ = _invoke("verify", "psi-family", "--phi", "identity",
                           "--psi", "identity", "--x-lo", "8",
                           "--x-hi", "1000000")
    assert code == 0


def test_bootstrap_cli():
    code, out, _ = _invoke("bootstrap", "--q", "2", "--d", "2",
                           "--c1", "1", "--c2", "1", "--c3", "0.1",
                           "--iters", "1")
    assert code == 0
    r = _result(out)
    assert r["c1"] == 0.55
    assert r["c1_fixed_point"] == pytest.approx(0.1)
    assert len(r["trajectory"]) == 2


def test_compare_exponents_cli():
    code, out, _ = _invoke("compare-exponents", "--q", "2", "--d", "2",
                           "--c1", "1", "--c2", "1", "--c3", "0.1",
                           "--phi", "power:0.8", "--psi", "ln@2",
                           "--n", "1000000")
    assert code == 0
    assert _result(out)["improved"] is True


def test_unknown_command_is_exit_one():
    code, out, err = _invoke("frobnicate")
    assert code == 1
    assert out == ""
    assert "usage error" in err


def test_unknown_flag_is_exit_one():
    code, _, err = _invoke("check", "aba", "--frobnicate")
    assert code == 1


def test_bad_function_spec_is_exit_one():
    code, _, err = _invoke("verify", "delta", "--fn", "bogus",
                           "--x-lo", "1", "--x-hi", "10")
    assert code == 1
    assert "error" in err


def test_bad_word_is_exit_one():
    code, _, err = _invoke("check", "not a word!")
    assert code == 1


def test_text_format():
    code, out, _ = _invoke("check", "aba", "--format", "text")
    assert code == 0
    assert "rich = True" in out


def test_csv_unsupported_for_check():
    # check has no csv rendering and argparse rejects the choice
    code, _, err = _invoke("check", "aba", "--format", "csv")
    assert code == 1


# -- the parser for one argv -------------------------------------------------
#
# build_parser(argv) holds only the subcommand argv names; build_parser()
# holds the whole tree.  Both must parse every argv alike: the same
# namespace, the same usage error, the same help bytes.


def _parse(parser, argv, capsys):
    capsys.readouterr()
    try:
        outcome = ("ns", vars(parser.parse_args(argv)))
    except SystemExit as exc:  # --help / --version
        outcome = ("exit", exc.code)
    except cli._UsageError as exc:
        outcome = ("usage", str(exc))
    return outcome, capsys.readouterr()


_PARSE_ARGVS = [
    ["--help"], ["--version"], [], ["verify"], ["verify", "--help"],
    ["frobnicate"], ["verify", "frobnicate"], ["--", "count"],
    *[name.split() + ["--help"] for name in cli.COMMANDS],
    *[name.split() for name in cli.COMMANDS],
    ["count", "--q", "2", "--n", "3"],
    ["count", "--q", "2", "--n", "3", "--format", "xml"],
    ["count", "--q", "2", "--n", "3", "--version"],
    ["count", "--q", "2", "--n", "3", "--sym", "extra"],
    ["verify", "jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10",
     "--format", "csv"],
    ["verify", "jensen", "delta"],
]


@pytest.mark.parametrize("argv", _PARSE_ARGVS, ids=" ".join)
def test_parser_for_an_argv_parses_as_the_whole_tree(argv, capsys):
    assert _parse(cli.build_parser(argv), argv, capsys) == _parse(
        cli.build_parser(), argv, capsys)


def test_parser_for_a_subcommand_builds_only_its_flags(monkeypatch):
    added = []

    def counting(parser, flag):
        added.append(flag)
        add_flag(parser, flag)

    add_flag = cli._add_flag
    monkeypatch.setattr(cli, "_add_flag", counting)
    cli.build_parser(["count", "--q", "2", "--n", "3"])
    assert added == list(cli.COMMANDS["count"][2])
    added.clear()
    cli.build_parser(["verify", "jensen", "--help"])
    assert added == list(cli.COMMANDS["verify jensen"][2])
    added.clear()
    cli.build_parser(["--help"])
    assert added == [flag for _, _, flags in cli.COMMANDS.values()
                     for flag in flags]


# -- fuzzing the argument surface ---------------------------------------------
#
# The argv are drawn from cli.COMMANDS, so a new flag is fuzzed as it is
# declared.  Each kind of value has a plausible and a junk strategy.  Half
# the calls are clean: plausible values and every required and limited
# flag, so that they get past argument checking.  The other half draw each
# value from either strategy, or from just past a limit, and may leave a
# required flag out.  A second test puts each limited flag at and just
# past each end of its range, and draws the other flags clean.

_Q = (st.integers(2, 4).map(str), st.integers(-1, 1).map(str))
_FLOAT = (
    st.sampled_from([1.0, 1.5, 2.0, 3.0, 10.0, 100.0, 1e4, 1e6]).map(repr),
    st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0,
                               1e308, -1e308, 5e-324]),
              st.floats(-1e3, 1e12)).map(repr))
_SPEC = (
    st.sampled_from(["identity", "sqrt", "ln", "x-over-lnx", "exp-sqrt-ln",
                     "const:2", "power:0.5", "power:0.8", "ln@2",
                     "x-over-lnx@2", "1,1,0,0,1", "1,0.5,1,0,1,2"]),
    st.one_of(
        st.sampled_from(["exp-sqrt-ln:-1", "const:0", "const:nan",
                         "power:-1", "power:inf", "ln@0", "ln@-1", "sqrt@nan",
                         "identity@inf", "1e308,1,0,-1e308,1",
                         "1e-300,1,0,0,1", "1,1e308,0,0,1", "1,1,nan,0,1",
                         "1,1,0,1,inf", "1,2", "@", ",,,,"]),
        st.lists(st.sampled_from(["0", "1", "-1", "0.5", "1e308", "-1e308",
                                  "1e-300", "nan", "inf"]),
                 min_size=5, max_size=6).map(",".join),
        st.text(max_size=10)))
_WORD = (st.text(alphabet="abc", max_size=8),
         st.text(alphabet="az9 .", max_size=4))
_TAU = (st.sampled_from(["n", "phi", "const:2"]),
        st.sampled_from(["const:0", "const:-1", "const:x", "x"]))
# values by option, then by metavar, then by type; a value that can only
# be junk has no plausible strategy
_VALUES = {
    "--q": _Q,  # an alphabet size, small: the walk grows fast with q
    "--workers": (st.just("1"), st.sampled_from(["-1", "0"])),  # no pool
    # mostly above the largest --n, so that the walk gets that deep
    "--budget": (st.sampled_from(["10000", "5000", "1000", "50", "1"]),
                 st.integers(-1, 0).map(str)),
    "--tau": _TAU,
    "word": _WORD,
    "SPEC": _SPEC,
    "PATH": (None, st.just("no-such-dir/c.jsonl")),
    float: _FLOAT,
}
# a flag drawn at its most runs only as long as this flag of the same
# subcommand, drawn plausible, lets it.  Alone at its most, maxluf --n
# walks until the default budget of 10**9 nodes, composition-bound
# --n-max takes 26 s and a --grid seconds, so those are never drawn there
_BOUNDED_BY = {"--n": "--budget", "--seed-n": "--n-max",
               "--n-max": "--trials", "--points": "--trials",
               "--p-max": "--grid"}


def _option(flag):
    return flag.name.split()[0]


def _values(flag):
    # (plausible, junk) strategies of a flag that takes a value
    option, *metavar = flag.name.split()
    for key in (option, *metavar, flag.type):
        if key in _VALUES:
            good, junk = _VALUES[key]
            if flag.above is not None:  # a plausible value is in range
                good = good.filter(lambda v: float(v) > flag.above)
            return good, junk
    if isinstance(flag.type, tuple):
        return st.sampled_from(flag.type), st.just("xml")
    least = 1 if flag.least is None else flag.least
    return (st.integers(least, least + 5).map(str),
            st.integers(least - 3, least - 1).map(str))


def _outside(flag):
    # the values just past each end of a flag's range
    outside = []
    if flag.above is not None:
        outside.append(str(flag.above))
    if flag.least is not None:
        outside.append(str(flag.least - 1))
    if flag.most is not None:
        outside.append(str(flag.most + 1))
    return outside


def _limited(flag):
    return any(bound is not None
               for bound in (flag.above, flag.least, flag.most))


_COMMANDS = sorted(name for name, (_, _, flags) in cli.COMMANDS.items()
                   if flags)


def _edges(name):
    # (option, value) at and just past each end of each limited flag's
    # range; at its most only where another flag bounds the work
    flags = cli.COMMANDS[name][2]
    options = {_option(f) for f in flags}
    for flag in filter(_limited, flags):
        option = _option(flag)
        yield from ((option, value) for value in _outside(flag))
        if flag.least is not None:
            yield option, str(flag.least)
        if flag.most is not None and _BOUNDED_BY.get(option) in options:
            yield option, str(flag.most)


_EDGES = [(name, *edge) for name in _COMMANDS for edge in _edges(name)]


@st.composite
def _argv(draw, name=None, edge=None):
    """(argv, the error that a value past its flag's range must give, or
    None).  An edge (option, value) puts one flag at that value and draws
    the other flags clean."""
    name = name or draw(st.sampled_from(_COMMANDS))
    rows = {_option(f): f for f in cli.COMMANDS[name][2]}
    required = [o for o, f in rows.items()
                if f.default is cli.REQUIRED and o.startswith("-")]
    clean = edge is not None or draw(st.booleans())
    left_out = None if clean else draw(st.sampled_from([None, *required]))
    given = [o for o, f in rows.items()
             if o != left_out and f.type is not bool
             and (f.default is cli.REQUIRED or f.most is not None
                  or o == "--format" or draw(st.integers(0, 3)) == 0)
             and (_values(f)[0] is not None or not clean)]
    values = {}
    if edge is not None:
        option, value = edge
        values[option] = value
        if value == str(rows[option].most):
            given.append(_BOUNDED_BY[option])  # drawn plausible, so small
    for option in given:
        if option in values:
            continue
        good, junk = _values(rows[option])
        if clean:
            values[option] = draw(good)
        elif _limited(rows[option]) and draw(st.integers(0, 3)) == 0:
            values[option] = draw(st.sampled_from(_outside(rows[option])))
        else:
            values[option] = draw(junk if good is None
                                  else st.one_of(good, junk))
    argv = name.split()
    if "word" in values:
        argv.append(values.pop("word"))
    # "--flag=value" keeps values such as "-inf" from reading as flags
    argv += [f"{option}={value}" for option, value in values.items()]
    argv += [o for o, f in rows.items()
             if f.type is bool and draw(st.booleans())]
    if edge is None or edge[1] not in _outside(rows[edge[0]]):
        return argv, None
    (option, value), flag = edge, rows[edge[0]]
    if flag.above is not None:
        return argv, (f"error: {option} must be > {flag.above}, got "
                      f"{float(value)}\n")
    relation, bound = ((">=", flag.least) if int(value) < flag.least
                       else ("<=", flag.most))
    return argv, f"error: {option} must be {relation} {bound}, got {value}\n"


def _check_run(argv, expected):
    # hypothesis raises the recursion limit while a test runs; the console
    # script runs under Python's default
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    try:
        code, out, err = _invoke(*argv)
    finally:
        sys.setrecursionlimit(limit)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
    if code == 1:
        assert err.startswith(("error:", "usage error:")), (argv, err)
    elif "--format=json" in argv:
        json.loads(out, parse_constant=_reject_constant)
    if expected is not None:  # refused before the handler starts
        assert (code, out) == (1, "")
        assert err.startswith(expected), (argv, err)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_fuzz_exit_codes(case):
    _check_run(*case)


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_fuzz_parser_for_the_argv_parses_as_the_whole_tree(case):
    argv = case[0]
    outcomes = []
    for parser in (cli.build_parser(argv), cli.build_parser()):
        try:  # repr, since nan != nan
            outcomes.append(repr(vars(parser.parse_args(argv))))
        except cli._UsageError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("name, option, value", _EDGES,
                         ids=[f"{name.replace(' ', '-')}{option}={value}"
                              for name, option, value in _EDGES])
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_cli_fuzz_each_flag_at_the_edges_of_its_range(name, option, value,
                                                      data):
    _check_run(*data.draw(_argv(name, (option, value))))


def _readme_limits():
    # {(subcommand, flag, most)} from README's table of size limits, whose
    # limits read like "1,400" or "10⁴"
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    rows = text.split("| command | limits |\n| --- | --- |\n")[1]
    powers = str.maketrans("⁰¹²³⁴⁵⁶⁷⁸⁹", "0123456789")
    limits = set()
    for line in rows.split("\n\n")[0].splitlines():
        commands, cell = line.strip("|").split("|")
        group, names = "", []
        for name in re.findall(r"`([^`]+)`", commands):
            if name.startswith("verify "):
                group, name = name.split()
            if not name.startswith("--"):  # a note such as `--load-cache`
                names.append(f"{group} {name}".strip())
        for flag, base, power in re.findall(
                r"`(--[a-z-]+)` ≤ ([0-9,]+)([⁰¹²³⁴⁵⁶⁷⁸⁹]*)", cell):
            most = int(base.replace(",", "")) ** int(
                power.translate(powers) or 1)
            limits |= {(name, flag, most) for name in names}
    return limits


def test_readme_limits_match_the_flag_table():
    assert _readme_limits() == {
        (name, _option(flag), flag.most)
        for name, (_, _, flags) in cli.COMMANDS.items()
        for flag in flags if flag.most is not None}
