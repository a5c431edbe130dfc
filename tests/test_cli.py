import io
import json
import os

import pytest

from richwords.cli import run


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
    ("jensen", "--fn", "sqrt", "--x-lo", "1", "--x-hi", "10"),
    ("product-bound", "--phi", "sqrt", "--psi", "sqrt"),
])
@pytest.mark.parametrize("trials", ["-1", "0"])
def test_verify_nonpositive_trials_is_exit_one(argv, trials):
    code, out, err = _invoke("verify", *argv, "--trials", trials)
    assert code == 1
    assert out == ""
    assert "--trials" in err


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
