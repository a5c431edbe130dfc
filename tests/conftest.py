import sys

import pytest


@pytest.fixture
def psi_family_calls(monkeypatch):
    """The argument tuples of every functions.check_psi_family call made
    while the test runs."""
    from richwords import functions

    calls = []
    check = functions.check_psi_family

    def counting(*args, **kwargs):
        calls.append(args)
        return check(*args, **kwargs)

    monkeypatch.setattr(functions, "check_psi_family", counting)
    return calls


def pytest_terminal_summary(terminalreporter):
    """One visible pass/fail line per acceptance criterion."""
    mod = sys.modules.get("tests.test_acceptance")
    if mod is None or not getattr(mod, "RESULTS", None):
        return
    terminalreporter.section("acceptance criteria")
    for line in mod.RESULTS:
        terminalreporter.write_line(line)
