"""The table list of ``benchmarks/bench_kernels.py`` and its printer, without
running a table."""

import inspect
import json
import os
import sys

import pytest

_ROOT = os.path.join(os.path.dirname(__file__), "..")


@pytest.fixture(scope="module")
def bench_kernels():
    sys.path.insert(0, os.path.join(_ROOT, "benchmarks"))  # bench_kernels imports runs
    try:
        import bench_kernels
    finally:
        sys.path.pop(0)
    return bench_kernels


def test_tables_are_the_recorded_kernels_and_householder(bench_kernels):
    with open(os.path.join(_ROOT, "BENCH_32.json"), encoding="ascii") as fh:
        recorded = json.load(fh)["entries"][-1]["kernels"]
    # householder and krylov_loops were added as tables after that file
    assert set(bench_kernels.TABLES) == set(recorded) | {"householder", "krylov_loops"}


def test_each_table_takes_the_seed_alone(bench_kernels):
    for rows in bench_kernels.TABLES.values():
        inspect.signature(rows).bind(0)


def test_render_aligns_columns_and_shows_none_as_a_dash(bench_kernels):
    rows = [{"shape": "arrow 10000", "nnz": 29998, "apply_adjoint_us_best": 104.0},
            {"shape": "Laplacian 120 x 120", "nnz": 71520, "apply_adjoint_us_best": None}]
    assert bench_kernels.render("csr_matvec", rows).splitlines() == [
        "csr_matvec",
        "shape                 nnz apply_adjoint_us_best",
        "-----------------------------------------------",
        "arrow 10000         29998                 104.0",
        "Laplacian 120 x 120 71520                     -",
    ]
