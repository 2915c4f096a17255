"""Shared pytest hooks and fixtures.

The acceptance tests register one verdict line per criterion here so
the terminal summary always shows them, pass or fail, regardless of
output capturing.
"""

import pytest

from slanc import linalg

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def small_tiles(monkeypatch):
    """linalg widens 64 KiB tiles (256 KiB outer ones), so moderate shapes
    straddle tile edges and a formula's float64 temporaries stay small."""
    monkeypatch.setattr(linalg, "_TILE_BYTES", 64 << 10)
    monkeypatch.setattr(linalg, "_OUTER_BYTES", 256 << 10)
