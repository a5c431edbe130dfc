import sys

import pytest


@pytest.fixture
def hypothesis_scans(monkeypatch):
    """The positional arguments (f, x_lo, x_hi, grid_n) of every grid walk
    of the concave-increasing check made while the test runs: one per
    VerifiedRange built, check_delta or check_psi_family call."""
    from richwords import functions

    calls = []
    scan = functions._first_failures

    def counting(*args, **kwargs):
        calls.append(args)
        return scan(*args, **kwargs)

    monkeypatch.setattr(functions, "_first_failures", counting)
    return calls


def pytest_terminal_summary(terminalreporter):
    """One visible pass/fail line per acceptance criterion."""
    mod = sys.modules.get("tests.test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.RESULTS:
        terminalreporter.write_line(line)
