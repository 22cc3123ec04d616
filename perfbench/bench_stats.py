"""Arithmetic of the benchmark: percentiles, span self time, computed work.

Kept free of berrkit and of timing so that ``test_perfbench.py`` can check
every formula on hand-made inputs.
"""

import math
import statistics
from fractions import Fraction

# percentiles offered for the tail metric, lowest first
TAIL_LADDER = ("50", "75", "90", "95", "99", "99.9")
# the tail percentile must leave at least this many samples above it
TAIL_MIN_BEYOND = 10

BYTES_PER_FLOAT = 8
BYTES_PER_INDEX = 8


def nearest_rank(n, pct):
    """1-based nearest rank of percentile ``pct`` (a decimal string) in n samples.

    Exact rational arithmetic: 0.9 * 120 is 108, never 108.00000000000001.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    return max(1, math.ceil(Fraction(pct) * n / 100))


def tail_percentile(n, ladder=TAIL_LADDER, min_beyond=TAIL_MIN_BEYOND):
    """Highest ladder percentile whose nearest rank leaves ``min_beyond``
    samples above it, as (percentile string, samples beyond); None if n is
    too small for any."""
    best = None
    for pct in ladder:
        beyond = n - nearest_rank(n, pct)
        if beyond >= min_beyond:
            best = (pct, beyond)
    return best


def percentile_value(values, pct):
    """Nearest-rank percentile: an actual sample, no interpolation."""
    ordered = sorted(values)
    return ordered[nearest_rank(len(ordered), pct) - 1]


def geomean(values):
    return math.exp(statistics.fmean(math.log(v) for v in values))


def quartile_spread(values):
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def self_times(spans):
    """Self time of each span: its duration minus the durations of the spans
    whose parent it is.

    ``spans`` holds (span id, parent id or None, start, end). Spans come from
    one thread, so children never overlap and their durations add up to the
    part of the parent interval they cover.
    """
    spans = list(spans)
    covered = {}
    for _, parent, start, end in spans:
        if parent is not None:
            covered[parent] = covered.get(parent, 0) + (end - start)
    return {sid: (end - start) - covered.get(sid, 0) for sid, _, start, end in spans}


def householder_chain_flops(num_reflectors, n):
    """Each reflector costs a dot product and an axpy of length n: 4n flops."""
    return 4 * num_reflectors * n


def csr_matvec_bytes(nnz, rows, cols):
    """Compulsory traffic of y = A x in CSR: values and column indices once,
    the row pointer once, x and y once each. Cache misses are not modelled."""
    return (
        nnz * (BYTES_PER_FLOAT + BYTES_PER_INDEX)
        + (rows + 1) * BYTES_PER_INDEX
        + (cols + rows) * BYTES_PER_FLOAT
    )


def krylov_basis_bytes(rows, cols, k, bidiagonal, stored=True):
    """Stored Krylov basis after k steps: k + 1 columns of length rows for
    Lanczos; k + 1 left and k + 1 right columns for Golub-Kahan."""
    if not stored:
        return 0
    width = rows + cols if bidiagonal else rows
    return BYTES_PER_FLOAT * width * (k + 1)
