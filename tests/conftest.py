"""Shared pytest wiring.

The acceptance module registers one PASS/FAIL line per guarantee it checks;
printing them from a terminal-summary hook keeps the checklist visible under
default output capture. The ``bench_kernels`` fixture is
``benchmarks/bench_kernels.py``, whose tables and CSR-order reference the
tests use.
"""

import os
import sys

import pytest

acceptance_lines = []


def pytest_terminal_summary(terminalreporter):
    if acceptance_lines:
        terminalreporter.section("acceptance checklist")
        for line in acceptance_lines:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def bench_kernels():
    # bench_kernels imports runs from its own directory
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "benchmarks"))
    try:
        import bench_kernels
    finally:
        sys.path.pop(0)
    return bench_kernels
