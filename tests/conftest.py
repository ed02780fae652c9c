"""Collects the acceptance verdict lines and prints them after the run, and
holds the one assertion that a call refuses with an exact error."""

import re

import pytest

VERDICTS = []


def assert_refuses(call, error, message):
    """`call()` raises exactly `error` (not a subclass) with exactly `message`."""
    with pytest.raises(error, match=f"^{re.escape(message)}$") as refused:
        call()
    assert type(refused.value) is error


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in VERDICTS:
            terminalreporter.write_line(line)
