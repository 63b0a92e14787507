"""Shared fixtures: corpus loading plus the acceptance summary section."""

import pytest

from corpus_loader import load

_ACCEPTANCE: list[tuple[int, str, str]] = []


@pytest.fixture(name="load")
def load_fixture():
    return load


@pytest.fixture
def acceptance():
    """Record one pass/fail line per criterion; shown after the test run."""
    def record(num: int, ok: bool, detail: str) -> None:
        _ACCEPTANCE.append((num, "PASS" if ok else "FAIL", detail))
        assert ok, f"criterion {num}: {detail}"
    return record


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for num, status, detail in sorted(_ACCEPTANCE):
            terminalreporter.write_line(f"criterion {num:2d} {status}  {detail}")
