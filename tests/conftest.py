"""Shared pytest hooks and fixtures.

The acceptance tests register one verdict line per criterion here so
the terminal summary always shows them, pass or fail, regardless of
output capturing.  The report header names the OpenBLAS build, kernel
and thread count numpy loaded: the golden scale-table bits hold for one
such set-up (ROADMAP, item 20).
"""

import ctypes

import pytest

from slanc import linalg

_ACCEPTANCE_LINES: list[str] = []


def record_acceptance(line: str) -> None:
    _ACCEPTANCE_LINES.append(line)


# (config, thread count) entry points of the OpenBLAS builds numpy ships
# or links: scipy-openblas64 wheels, other 64-bit-integer builds, plain.
_OPENBLAS_ENTRY_POINTS = (
    ("scipy_openblas_get_config64_", "scipy_openblas_get_num_threads64_"),
    ("openblas_get_config64_", "openblas_get_num_threads64_"),
    ("openblas_get_config", "openblas_get_num_threads"),
)


def _openblas() -> str:
    """The config string and thread count of the OpenBLAS that numpy
    loaded, asked of the library itself, or "unknown"."""
    try:
        with open("/proc/self/maps") as maps:
            paths = sorted({line.split()[-1] for line in maps
                            if "openblas" in line.lower() and "/" in line})
        for path in paths:
            library = ctypes.CDLL(path)
            for config_name, threads_name in _OPENBLAS_ENTRY_POINTS:
                config = getattr(library, config_name, None)
                threads = getattr(library, threads_name, None)
                if config is None or threads is None:
                    continue
                config.argtypes, config.restype = [], ctypes.c_char_p
                threads.argtypes, threads.restype = [], ctypes.c_int
                return f"{' '.join(config().decode().split())}, threads={threads()}"
    except OSError:
        pass
    return "unknown"


def pytest_report_header(config):
    return f"blas: {_openblas()}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture
def small_tiles(monkeypatch):
    """linalg holds a tile to no less than 64 KiB, so moderate shapes cut
    their operands in quarters and their outer tiles in quarters again
    (a 1 MiB operand in 256 KiB outer and 64 KiB inner tiles), and a
    formula's float64 temporaries stay small."""
    monkeypatch.setattr(linalg, "_LEAST_TILE_BYTES", 64 << 10)
