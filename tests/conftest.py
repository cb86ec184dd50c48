"""Shared fixtures, plus the acceptance report channel.

Criterion tests record one line each through the acceptance_report
fixture; the lines are replayed in the terminal summary so a plain
pytest run always shows them, captured or not.
"""

import pytest

from urlab import streams

_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture
def acceptance_report():
    def record(line: str) -> None:
        _ACCEPTANCE_LINES.append(line)

    return record


@pytest.fixture
def counting_pool(monkeypatch):
    """A serial stand-in for ProcessPoolExecutor that starts no process;
    returns the lists of pool sizes opened and of unit counts mapped."""
    opened, mapped = [], []

    class CountingPool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, units):
            units = list(units)
            mapped.append(len(units))
            return map(fn, units)

    monkeypatch.setattr(streams, "ProcessPoolExecutor", CountingPool)
    return opened, mapped


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in _ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
