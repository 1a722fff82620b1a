import sys

import pytest


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One visible verdict line per acceptance criterion, capture or not."""
    mod = sys.modules.get("test_acceptance")
    verdicts = getattr(mod, "VERDICTS", None) if mod else None
    if not verdicts:
        return
    terminalreporter.section("acceptance criteria")
    for num, verdict, label in sorted(verdicts):
        terminalreporter.write_line(f"[criterion {num:02d}] {verdict} - {label}")


@pytest.fixture
def default_digit_limit():
    """The interpreter's default limit on integer text, whatever an earlier
    test or the environment set, for one test."""
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield
    sys.set_int_max_str_digits(saved)


@pytest.fixture
def checked_terms(monkeypatch):
    """The arithmetic and the parser build their terms through _check, as
    Ordinal(...) does, for one test: a term out of normal form, which
    they would otherwise intern unchecked, raises ValueError."""
    from uns import ordinals

    monkeypatch.setattr(ordinals, "_unchecked", lambda terms: ordinals._intern(ordinals.Ordinal, (terms,)))
