"""Tests of the benchmark's own arithmetic and span bookkeeping.

    python3 -m pytest perfbench/test_perfbench.py -q
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import bench_stats  # noqa: E402
import bench_trace  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    spans = [
        (0, None, 0, 100),  # root
        (1, 0, 10, 40),  # child a
        (2, 0, 50, 90),  # child b
        (3, 2, 60, 70),  # grandchild under b
    ]
    assert bench_stats.self_times(spans) == {0: 30, 1: 30, 2: 30, 3: 10}


def test_self_times_add_up_to_the_root():
    spans = [(0, None, 0, 1000), (1, 0, 5, 600), (2, 1, 10, 300), (3, 1, 300, 500),
             (4, 0, 600, 990)]
    assert sum(bench_stats.self_times(spans).values()) == 1000


def test_nearest_rank_is_exact_in_rationals():
    # 0.9 * 120 is 108.00000000000001 in floating point; the rank is 108
    assert bench_stats.nearest_rank(120, "90") == 108
    assert bench_stats.nearest_rank(1000, "99.9") == 999
    assert bench_stats.nearest_rank(3, "50") == 2
    with pytest.raises(ValueError):
        bench_stats.nearest_rank(0, "50")


@pytest.mark.parametrize(
    "n, expected",
    [
        (19, None),
        (20, ("50", 10)),
        (39, ("50", 19)),
        (40, ("75", 10)),
        (99, ("75", 24)),
        (100, ("90", 10)),
        (120, ("90", 12)),
        (199, ("90", 19)),
        (200, ("95", 10)),
        (1000, ("99", 10)),
        (10000, ("99.9", 10)),
    ],
)
def test_tail_percentile_leaves_ten_samples_beyond(n, expected):
    assert bench_stats.tail_percentile(n) == expected


def test_percentile_value_is_a_sample():
    values = list(range(20, 0, -1))
    assert bench_stats.percentile_value(values, "50") == 10
    assert bench_stats.percentile_value(values, "75") == 15
    assert bench_stats.percentile_value([0.5, 0.25], "50") == 0.25


def test_householder_flops_count_dot_and_axpy():
    m, n = 7, 5
    vecs = np.ones((m, n))
    y = np.ones(n)
    flops = 0
    for v in vecs:  # the reference loop, counted operation by operation
        dot = float(v @ y)
        flops += 2 * n  # n multiplies and n adds
        y = y - (2.0 * dot) * v
        flops += 2 * n  # n multiplies and n subtractions
    assert bench_stats.householder_chain_flops(m, n) == flops == 140


def test_csr_bytes_count_each_array_once():
    # values and int64 indices per nonzero, rows + 1 pointers, x and y once
    assert bench_stats.csr_matvec_bytes(10, 3, 4) == 10 * 16 + 4 * 8 + (4 + 3) * 8


def test_krylov_basis_bytes():
    assert bench_stats.krylov_basis_bytes(100, 100, 9, bidiagonal=False) == 8000
    assert bench_stats.krylov_basis_bytes(100, 50, 9, bidiagonal=True) == 12000
    assert bench_stats.krylov_basis_bytes(100, 50, 9, bidiagonal=True, stored=False) == 0


def test_geomean_and_quartile_spread():
    assert bench_stats.geomean([1e-2, 1e-4]) == pytest.approx(1e-3)
    # exclusive quartiles of 1..5 are 1.5 and 4.5
    assert bench_stats.quartile_spread([1, 2, 3, 4, 5]) == pytest.approx(1.0)


def test_aggregate_counts_outer_applies_and_self_times():
    spans = [
        (0, None, "op:x", 0, 1000, None),
        (1, 0, "minberr.solve", 10, 990, None),
        (2, 1, "factorize.step", 20, 220, (False, 800)),
        (3, 2, "operators.apply", 30, 130, None),  # the counting wrapper
        (4, 3, "operators.apply", 40, 120, None),  # the operator it wraps
        (5, 4, "kernels.csr_matvec", 50, 110, 248),
        (6, 1, "smallband.inverse_iteration", 300, 400, (3, (0, 5))),
        (7, 1, "smallband.inverse_iteration", 400, 600, (12, (0, 5))),  # retry at k = 5
        (8, None, "setup", 2000, 2500, None),
        (9, 8, "problems.build", 2000, 2400, None),
        (10, 9, "mmio.read", 2100, 2300, 4096),
    ]
    m, shares, coverage = bench_trace.aggregate(spans)
    assert m["operators.apply.calls"] == 1
    assert m["operators.apply.ns"] == 100
    assert m["kernels.csr_matvec.calls"] == 1
    assert m["kernels.csr_matvec.bytes"] == 248
    assert m["factorize.step.self_ns"] == m["factorize.step.plain_self_ns"] == 100
    assert m["factorize.basis_bytes"] == 800
    assert m["smallband.inverse_iteration.steps"] == 15
    assert m["minberr.recover_retries"] == 1
    assert m["minberr.self_ns"] == 980 - 200 - 100 - 200
    assert m["problems.build.setup_ns"] == 400
    assert m["mmio.read.setup_ns"] == 200
    assert "problems.build.ns" not in m  # set-up spans stay out of the per-op sums
    assert coverage == pytest.approx(0.98)
    assert shares["operators"] == pytest.approx((20 + 20) / 1000)


def test_tracer_restores_originals_and_counts_every_matvec():
    from berrkit import minberr, operators, problems

    import bench_workloads

    original = minberr.inverse_iteration
    apply_before = operators.LinearOperator.__dict__["apply"]
    p = problems.ill_conditioned(200, 1e4)
    tracer = bench_trace.Tracer()
    tracer.install()
    try:
        op = bench_workloads.Counted(p.op, 1.0)
        with tracer.root("op:test"):
            minberr.minberr_solve(op, np.ones(200), eps=1e-4, seed=1)
    finally:
        tracer.uninstall()
    assert minberr.inverse_iteration is original
    assert operators.LinearOperator.__dict__["apply"] is apply_before
    m, _, coverage = bench_trace.aggregate(tracer.spans)
    assert m["operators.apply.calls"] == op.matvecs > 0
    assert m["factorize.step.calls"] == m["smallband.test.calls"]
    assert coverage > 0.9


def test_setup_repeats_spread_over_the_run():
    import runner

    # a 0.35 s set-up needs only the minimum of 5: the first, then 4 spread out
    assert runner.setup_schedule(0.35, 17) == {5: 1, 9: 1, 13: 1, 17: 1}
    # a 20 ms set-up needs 50 for 1 s in all, capped at SETUP_MAX_REPEATS
    schedule = runner.setup_schedule(0.02, 11)
    assert sum(schedule.values()) == runner.SETUP_MAX_REPEATS - 1
    assert set(schedule) == set(range(1, 12))
    assert max(schedule.values()) - min(schedule.values()) <= 1
