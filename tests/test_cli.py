import io
import json
import math
import os

import mpmath
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from richwords import count_rich
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


def test_count_deterministic_across_workers():
    _, out1, _ = _invoke("count", "--q", "2", "--n", "9")
    _, out2, _ = _invoke("count", "--q", "2", "--n", "9",
                         "--workers", "2", "--shard-depth", "3")
    r1, r2 = json.loads(out1), json.loads(out2)
    assert r1["result"] == r2["result"]


def test_count_symmetric_sharded_same_bytes():
    args = ("count", "--q", "3", "--n", "7", "--symmetric", "--format", "csv")
    _, serial, _ = _invoke(*args)
    code, sharded, _ = _invoke(*args, "--workers", "2", "--shard-depth", "2")
    assert code == 0
    assert sharded == serial


def test_count_symmetric_sharded_budget_is_exit_one():
    code, out, err = _invoke("count", "--q", "2", "--n", "14", "--symmetric",
                             "--workers", "2", "--shard-depth", "3",
                             "--budget", "200")
    assert code == 1
    assert out == ""
    assert "budget" in err


@pytest.mark.parametrize("flags", [
    ("--workers", "-3"),
    ("--workers", "0"),
    ("--workers", "2", "--shard-depth", "-4"),
    ("--workers", "2", "--shard-depth", "0"),
])
def test_count_nonpositive_workers_or_shard_depth_is_exit_one(flags):
    code, out, err = _invoke("count", "--q", "2", "--n", "6", *flags)
    assert code == 1
    assert out == ""
    assert "error:" in err and "Traceback" not in err


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
])
def test_verify_vacuous_or_clamped_input_is_exit_one(argv, flag):
    code, out, err = _invoke("verify", *argv)
    assert code == 1
    assert out == ""
    assert flag in err and "Traceback" not in err


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
    for n, message in (("7", "has no row n=7"), ("0", "positive")):
        code, out, err = _invoke("count", "--q", "2", "--n", n,
                                 "--load-cache", path)
        assert (code, out) == (1, ""), n
        assert message in err, n


@pytest.mark.parametrize("flags", [
    ["--workers", "0"], ["--workers", "2"], ["--shard-depth", "3"],
    ["--budget", "5"], ["--no-max-luf"], ["--symmetric"],
    ["--save-cache", "other.jsonl"]])
def test_count_load_cache_with_enumeration_flag_is_exit_one(tmp_path, flags):
    path = str(tmp_path / "c4.jsonl")
    assert _invoke("count", "--q", "2", "--n", "4",
                   "--save-cache", path)[0] == 0
    code, out, err = _invoke("count", "--q", "2", "--n", "4",
                             "--load-cache", path, *flags)
    assert (code, out) == (1, "")
    assert f"enumeration flags: {flags[0]}" in err


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
    assert rows[0]["provenance"] == "exact-seed"
    assert rows[-1]["provenance"] == "recurrence"
    assert rows[-1]["n"] == 10


def test_bound_recurrence_seed_flags_exclusive(tmp_path):
    code, _, err = _invoke("bound-recurrence", "--q", "2", "--n-max", "6",
                           "--tau", "n")
    assert code == 1
    assert "seed" in err


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
    counts = {n: e.count for n, e in count_rich(2, 10).entries.items()}
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


def test_verify_crossover_passes():
    code, out, _ = _invoke("verify", "crossover")
    assert code == 0
    assert _result(out)["ok"] is True


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


def test_verify_p_monotonicity():
    code, out, _ = _invoke("verify", "p-monotonicity",
                           "--phi", "identity", "--psi", "identity",
                           "--n-lo", "10", "--n-hi", "1000", "--grid", "40")
    assert code == 0
    assert _result(out)["checked"] > 0


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
    ("verify", "crossover", "--x-hi", "nan"),
    ("verify", "crossover", "--x-hi", "inf"),
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


# -- fuzzing the argument surface ---------------------------------------------
#
# Each flag has a plausible and a junk value strategy.  Half the calls use
# only plausible values and every usual flag, so that they get past
# argument checking; the other half draw each value from either and may
# leave a flag out.

_Q = (st.integers(2, 4).map(str), st.integers(-1, 1).map(str))
_INT = (st.integers(1, 10).map(str), st.integers(-2, 0).map(str))
_SIZE = (st.integers(1, 6).map(str), st.integers(-2, 0).map(str))  # cheap
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
_BUDGET = (st.integers(1, 10**4).map(str), st.integers(-1, 0).map(str))
_MISSING = (None, st.just("no-such-dir/c.jsonl"))  # junk only

# per subcommand: flags always given (they bound the work), usual flags
# (a required one left out is a usage error) and flags given one time in
# four
_SURFACE = {
    ("check",): ({}, {}, {"--q": _Q}),
    ("ups",): ({}, {}, {"--q": _Q}),
    ("count",): (
        {"--workers": (st.just("1"), st.sampled_from(["-1", "0"]))},
        {"--q": _Q, "--n": _INT},
        {"--shard-depth": _INT, "--load-cache": _MISSING,
         "--budget": _BUDGET}),
    ("maxluf",): ({}, {"--q": _Q, "--n": _INT}, {"--phi": _SPEC}),
    ("bound-recurrence",): (
        {}, {"--q": _Q, "--n-max": _INT, "--seed-n": _INT},
        {"--seeds-cache": _MISSING, "--phi": _SPEC, "--tau": _TAU}),
    ("verify", "composition-bound"): ({"--n-max": _INT}, {}, {}),
    ("verify", "jensen"): (
        {"--trials": _SIZE, "--points": _SIZE},
        {"--fn": _SPEC, "--x-lo": _FLOAT, "--x-hi": _FLOAT},
        {"--seed": _INT}),
    ("verify", "product-bound"): (
        {"--trials": _SIZE, "--n-max": _SIZE},
        {"--phi": _SPEC, "--psi": _SPEC},
        {"--q": _Q, "--c1": _FLOAT, "--c2": _FLOAT, "--seed": _INT}),
    ("verify", "p-monotonicity"): (
        {"--grid": _SIZE, "--p-max": _SIZE, "--n-hi": _INT},
        {"--phi": _SPEC, "--psi": _SPEC},
        {"--q": _Q, "--c1": _FLOAT, "--c2": _FLOAT, "--n-lo": _INT}),
    ("verify", "delta"): (
        {"--grid": _SIZE},
        {"--fn": _SPEC, "--x-lo": _FLOAT, "--x-hi": _FLOAT}, {}),
    ("verify", "psi-family"): (
        {"--grid": _SIZE},
        {"--phi": _SPEC, "--psi": _SPEC, "--x-lo": _FLOAT, "--x-hi": _FLOAT},
        {}),
    ("verify", "d-condition"): (
        {"--grid": _SIZE},
        {"--phi": _SPEC, "--psi": _SPEC, "--d": _FLOAT},
        {"--n-lo": _FLOAT, "--n-hi": _FLOAT}),
    ("verify", "phi-composition"): (
        {"--grid": _SIZE}, {"--phi": _SPEC},
        {"--n-lo": _FLOAT, "--n-hi": _FLOAT}),
    ("verify", "crossover"): ({"--grid": _SIZE}, {}, {"--x-hi": _FLOAT}),
    ("bootstrap",): (
        {"--iters": _SIZE},
        {"--q": _Q, "--d": _FLOAT, "--c1": _FLOAT, "--c2": _FLOAT,
         "--c3": _FLOAT}, {}),
    ("compare-exponents",): (
        {},
        {"--q": _Q, "--d": _FLOAT, "--c1": _FLOAT, "--c2": _FLOAT,
         "--c3": _FLOAT, "--phi": _SPEC, "--psi": _SPEC, "--n": _FLOAT},
        {}),
}
_SWITCHES = {"count": ["--symmetric", "--no-max-luf"]}
_CSV = ("count", "maxluf", "bound-recurrence")


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(sorted(_SURFACE)))
    always, usual, rare = _SURFACE[command]
    clean = draw(st.booleans())
    left_out = None if clean else draw(st.sampled_from([None, *usual]))
    flags = {**always, **{f: v for f, v in usual.items() if f != left_out},
             **{f: v for f, v in rare.items()
                if draw(st.integers(0, 3)) == 0
                and (v[0] is not None or not clean)}}

    def value(good, junk):
        if good is None:
            return draw(junk)
        return draw(good if clean else st.one_of(good, junk))

    argv = list(command)
    if command[0] in ("check", "ups"):
        argv.append(value(*_WORD))
    # "--flag=value" keeps values such as "-inf" from reading as flags
    argv += [f"{flag}={value(*v)}" for flag, v in flags.items()]
    argv += [s for s in _SWITCHES.get(command[0], []) if draw(st.booleans())]
    formats = ["json", "text"] + ["csv"] * (command[0] in _CSV)
    argv += ["--format", draw(st.sampled_from(formats))]
    return argv


@settings(max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_argv())
def test_cli_fuzz_exit_codes(argv):
    code, _, err = _invoke(*argv)
    assert code in (0, 1, 2), (argv, err)
    assert "Traceback" not in err
