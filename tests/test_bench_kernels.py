"""The table list of ``benchmarks/bench_kernels.py``, its printer and its
CSR-order reference, without running a table."""

import inspect
import json
import os

import numpy as np

_ROOT = os.path.join(os.path.dirname(__file__), "..")


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


def test_csr_order_is_the_scalar_loop_in_csr_order(bench_kernels):
    # magnitudes over twelve decades, so any other summation order moves bits
    rng = np.random.default_rng(0)
    rows, cols = 30, 20
    lengths = rng.integers(0, 13, size=rows)
    indices = np.concatenate([np.sort(rng.choice(cols, size=n, replace=False))
                              for n in lengths])
    indptr = np.concatenate([[0], np.cumsum(lengths)])
    data, x, y = (rng.choice([-1.0, 1.0], size=n) * 10.0 ** rng.uniform(-6, 6, size=n)
                  for n in (indices.shape[0], cols, rows))
    ax, aty = np.zeros(rows), np.zeros(cols)
    for i in range(rows):
        for p in range(indptr[i], indptr[i + 1]):
            ax[i] += data[p] * x[indices[p]]
            aty[indices[p]] += data[p] * y[i]
    got = bench_kernels.csr_order(data, indices, indptr, x, y, cols)
    assert [a.tobytes() for a in got] == [ax.tobytes(), aty.tobytes()]
