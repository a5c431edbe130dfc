"""What a fresh interpreter loads, and the lazily resolved package surface.

The import checks run in subprocesses: the test process has long since
loaded every submodule and mpmath.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import richwords

ROOT = Path(__file__).resolve().parents[1]
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))

# run the CLI in a fresh interpreter that may run on two CPUs, then
# report what it loaded
_PROBE = """\
import io, json, os, sys
os.sched_getaffinity = lambda pid: {0, 1}
before = set(sys.modules)
from richwords import cli
out = io.StringIO()
code = cli.run(sys.argv[1:], stdout=out, stderr=io.StringIO())
print(json.dumps({"code": code, "stdout": out.getvalue(),
                  "added": sorted(set(sys.modules) - before),
                  "mpmath": "mpmath" in sys.modules,
                  "pool": [m in sys.modules for m in
                           ("multiprocessing", "concurrent.futures")],
                  "richwords": sorted(m for m in sys.modules
                                      if m.startswith("richwords."))}))
"""


def _fresh_run(*argv):
    proc = subprocess.run([sys.executable, "-c", _PROBE, *argv], env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# what every run loads: the CLI and the modules it imports at the top
_CLI_MODULES = ["richwords.bounds", "richwords.cli", "richwords.enumeration",
                "richwords.errors", "richwords.version"]


def test_count_loads_no_mpmath_and_only_its_own_modules():
    loaded = _fresh_run("count", "--q", "2", "--n", "6")
    assert loaded["code"] == 0
    assert loaded["mpmath"] is False
    assert loaded["richwords"] == _CLI_MODULES
    # nor dataclasses, which pulls in inspect: the count path needs neither
    assert not {"dataclasses", "inspect"} & set(loaded["added"])


@pytest.mark.parametrize("argv, added", [
    (["check", "abacaba"], ["richwords.words"]),
    (["ups", "aabbab"], ["richwords.words"]),
    (["maxluf", "--q", "2", "--n", "6"], []),
    (["maxluf", "--q", "2", "--n", "10", "--phi", "ln@2"],
     ["richwords.functions"]),
], ids=["check", "ups", "maxluf", "maxluf-phi"])
def test_word_commands_load_only_what_they_use(argv, added):
    loaded = _fresh_run(*argv)
    assert loaded["code"] == 0
    assert loaded["mpmath"] is False
    assert loaded["richwords"] == sorted(_CLI_MODULES + added)


def test_verify_composition_bound_loads_no_mpmath():
    loaded = _fresh_run("verify", "composition-bound", "--n-max", "30")
    assert loaded["code"] == 0
    assert loaded["mpmath"] is False
    assert "richwords.logvalue" not in loaded["richwords"]


@pytest.mark.parametrize("argv, loads_functions", [
    (["bootstrap", "--q", "2", "--d", "2", "--c1", "1", "--c2", "1",
      "--c3", "0.1", "--iters", "3"], False),
    (["compare-exponents", "--q", "2", "--d", "2", "--c1", "1", "--c2", "1",
      "--c3", "0.1", "--phi", "power:0.8", "--psi", "ln@2", "--n", "1e6"],
     True),
], ids=lambda v: v[0] if isinstance(v, list) else None)
def test_only_compare_exponents_loads_the_function_catalogue(
        argv, loads_functions):
    # bootstrap names FunctionSpec in an annotation only
    loaded = _fresh_run(*argv)
    assert loaded["code"] == 0
    assert ("richwords.functions" in loaded["richwords"]) is loads_functions


def test_bound_recurrence_loads_mpmath_on_first_use():
    loaded = _fresh_run("bound-recurrence", "--q", "2", "--seed-n", "4",
                        "--n-max", "8")
    assert loaded["code"] == 0
    assert loaded["mpmath"] is True
    assert "richwords.logvalue" in loaded["richwords"]


@pytest.mark.parametrize("argv", [
    ["count", "--q", "2", "--n", "9"],
    ["bound-recurrence", "--q", "2", "--seed-n", "4", "--n-max", "8"],
], ids=lambda argv: argv[0])
def test_serial_run_loads_no_process_pool(argv):
    loaded = _fresh_run(*argv)
    assert loaded["code"] == 0
    assert loaded["pool"] == [False, False]


def test_sharded_count_loads_the_pool_and_prints_the_same_table():
    args = ("count", "--q", "2", "--n", "9", "--format", "csv")
    serial = _fresh_run(*args)
    sharded = _fresh_run(*args, "--workers", "2")
    assert sharded["code"] == 0
    assert sharded["pool"] == [True, True]
    assert sharded["stdout"] == serial["stdout"]


def test_package_import_loads_only_the_version():
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, richwords; print(sorted(m for m in sys.modules "
         "if m.startswith('richwords')))"],
        env=ENV, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['richwords', 'richwords.version']"


@pytest.mark.parametrize("name", richwords.__all__)
def test_public_name_is_its_submodule_object(name):
    home_name = richwords._HOMES[name]
    home = importlib.import_module(f"richwords.{home_name}")
    expected = home if name == home_name else getattr(home, name)
    assert getattr(richwords, name) is expected


def test_only_the_package_lists_public_names():
    # _HOMES is the one list; a submodule __all__ would drift from it
    for home in set(richwords._HOMES.values()):
        module = importlib.import_module(f"richwords.{home}")
        assert not hasattr(module, "__all__"), home


def test_dir_lists_every_public_name():
    assert set(richwords.__all__) <= set(dir(richwords))


def test_unknown_name_is_an_attribute_error():
    # perfbench's tracer probes the package with getattr(..., None)
    assert getattr(richwords, "nope", None) is None
    with pytest.raises(AttributeError, match="nope"):
        richwords.nope  # noqa: B018


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from richwords import *", namespace)
    assert set(richwords.__all__) <= set(namespace)


@pytest.mark.parametrize("argv", [
    ["scripts/bound_vs_exact.py", "--q", "2", "--exact-n", "10",
     "--seed-n", "6"],
], ids=lambda argv: Path(argv[0]).stem)
def test_script_runs(argv):
    # the scripts import from the package top level
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
