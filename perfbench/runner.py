"""Measurement loop, metrics and report of one benchmark run.

A run generates its inputs from the seed (untimed), times set-up several
times and reports the median, runs one untimed warm-up cycle over every op
of the workload, then measures whole cycles, one client, closed loop.
``--seconds`` sets the cycle count as round(seconds / nominal cycle time), so
the op count and the tail percentile are the same on every commit; the
nominal times were measured on a 2-core Intel Xeon (Sapphire Rapids, KVM)
with numpy's OpenBLAS on one thread. Only a machine (or a commit) more than
MAX_SECONDS_FACTOR times slower than that cuts a run short.

With tracing on, the run measures a few cycles in which every op runs
untraced and then traced; the per-layer metrics are sums over the traced ops
divided by their number, and ``trace_overhead_frac`` compares the two.
"""

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import warnings
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from berrkit import _kernels

import bench_stats
import bench_trace
import bench_workloads

SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_REPEATS = 50
TRACED_CYCLE_SHARE = 4  # traced cycles = cycles // this, at least MIN_TRACED_CYCLES
MIN_TRACED_CYCLES = 2
MIN_OPS = 20  # the fewest ops that still leave 10 samples above the median
# on a machine far slower than the nominal one, measuring stops after the
# cycle that passes this multiple of --seconds (fewer ops, same metrics)
MAX_SECONDS_FACTOR = 1.5

# workload -> layers the rationale expects to carry the largest self-time
# share of an op, checked after every traced run (see README.md). On certify
# the CSR kernel and factorize each take about a third and trade places.
EXPECTED_DOMINANT = {
    "certify": ("kernels", "factorize"),
    "traced-cli": ("kernels",),
}

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("matvecs_per_op", "count"),
    ("berr_geomean", "1"),
    ("peak_rss_mb", "MB"),
)

# (metric, unit, aggregate key, scale). Sums are divided by the number of
# traced ops when the unit ends in "/op".
PER_LAYER = (
    ("operators.apply.calls", "count/op", "operators.apply.calls", 1),
    ("operators.apply.s", "s/op", "operators.apply.ns", 1e-9),
    ("operators.opnorm.calls", "count/op", "operators.opnorm.calls", 1),
    ("operators.opnorm.iters", "count/op", "operators.opnorm.iters", 1),
    ("operators.opnorm.s", "s/op", "operators.opnorm.ns", 1e-9),
    ("kernels.householder_chain.calls", "count/op", "kernels.householder_chain.calls", 1),
    ("kernels.householder_chain.s", "s/op", "kernels.householder_chain.ns", 1e-9),
    ("kernels.householder_chain.gflop", "GFLOP/op", "kernels.householder_chain.flop", 1e-9),
    ("kernels.csr_matvec.calls", "count/op", "kernels.csr_matvec.calls", 1),
    ("kernels.csr_matvec.s", "s/op", "kernels.csr_matvec.ns", 1e-9),
    ("kernels.csr_matvec.gb", "GB/op", "kernels.csr_matvec.bytes", 1e-9),
    ("kernels.band_solve.calls", "count/op", "kernels.band_solve.calls", 1),
    ("kernels.band_solve.s", "s/op", "kernels.band_solve.ns", 1e-9),
    ("factorize.step.calls", "count/op", "factorize.step.calls", 1),
    ("factorize.step.self_s", "s/op", "factorize.step.self_ns", 1e-9),
    ("factorize.step.plain_self_s", "s/op", "factorize.step.plain_self_ns", 1e-9),
    ("factorize.step.full_self_s", "s/op", "factorize.step.full_self_ns", 1e-9),
    ("factorize.basis_mb", "MB", "factorize.basis_bytes", 1e-6),
    ("smallband.test.calls", "count/op", "smallband.test.calls", 1),
    ("smallband.test.s", "s/op", "smallband.test.ns", 1e-9),
    ("smallband.inverse_iteration.calls", "count/op", "smallband.inverse_iteration.calls", 1),
    ("smallband.inverse_iteration.steps", "count/op", "smallband.inverse_iteration.steps", 1),
    ("smallband.inverse_iteration.s", "s/op", "smallband.inverse_iteration.ns", 1e-9),
    ("minberr.self_s", "s/op", "minberr.self_ns", 1e-9),
    ("minberr.recover_retries", "count/op", "minberr.recover_retries", 1),
    ("minberr.perturb_setup_s", "s/op", "minberr.perturb_setup_ns", 1e-9),
    ("minberr.certificate_mode_ops", "count/op", "minberr.certificate_mode_ops", 1),
    ("classical.self_s", "s/op", "classical.self_ns", 1e-9),
    ("problems.build.s", "s/op", "problems.build.ns", 1e-9),
    ("problems.build.setup_s", "s", "problems.build.setup_ns", 1e-9),
    ("mmio.read.s", "s/op", "mmio.read.ns", 1e-9),
    ("mmio.read.mb", "MB/op", "mmio.read.bytes", 1e-6),
    ("mmio.read.setup_s", "s", "mmio.read.setup_ns", 1e-9),
    ("cli.artifacts.s", "s/op", "cli.artifacts.ns", 1e-9),
    ("cli.artifacts.mb", "MB/op", "cli.artifacts.bytes", 1e-6),
    ("cli.self_s", "s/op", "cli.self_ns", 1e-9),
    ("trace_overhead_frac", "1", None, 1),
    ("trace_coverage_frac", "1", None, 1),
)

SQRT_U_WARNING = "sqrt(machine epsilon)"


@dataclass
class OpRecord:
    kind: str
    seconds: float
    reasons: list
    warnings: list
    outcome: object = None
    berr: float = None
    footprint: int = 0


@dataclass
class Measured:
    setup_times: list
    ops: list
    cycles: int
    warmup: list = field(default_factory=list)
    measured: list = field(default_factory=list)  # one list of records per cycle
    reference: list = field(default_factory=list)
    traced: list = field(default_factory=list)


def run_op(op, variant, tracer=None):
    """Run and check one op. Warnings are recorded and reported, not hidden.

    Inputs are prepared and garbage collected before the clock starts, and the
    collector stays off while the op runs, so collections of earlier garbage
    (or of the tracer's spans) do not land in an op's time.
    """
    payload, ref = op.prepare(variant)
    gc.collect()
    gc.disable()
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            start = time.perf_counter()
            try:
                if tracer is None:
                    out = op.run(payload)
                else:
                    with tracer.root("op:" + op.kind):
                        out = op.run(payload)
            except Exception as exc:  # a failing op is counted, and the run goes on
                return OpRecord(op.kind, time.perf_counter() - start,
                                [f"raised {type(exc).__name__}: {exc}"], _warning_texts(caught))
            seconds = time.perf_counter() - start
    finally:
        gc.enable()
    reasons, berr = bench_workloads.check(op.tol, ref, out)
    out.x = None  # checked; keeping every iterate would inflate peak_rss_mb
    return OpRecord(op.kind, seconds, reasons, _warning_texts(caught), out, berr,
                    op.footprint(out))


def _warning_texts(caught):
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def timed_setup(plan, tracer=None):
    """One set-up: its seconds and the instances it built (traced if asked).
    The collector is handled as in ``run_op``."""
    gc.collect()
    gc.disable()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        if tracer is None:
            built = plan.setup()
        else:
            with tracer.root("setup"):
                built = plan.setup()
        return time.perf_counter() - start, built
    finally:
        if tracer is not None:
            tracer.uninstall()
        gc.enable()


def setup_schedule(first_seconds, cycles):
    """Cycle -> timed set-ups to run after it.

    A run sets up at least SETUP_MIN_REPEATS times and for at least
    SETUP_MIN_SECONDS in all. The repeats after the first are spread evenly
    over the measured cycles, so that setup_s, like the op times, samples the
    whole run rather than its first seconds on a machine whose speed drifts.
    """
    wanted = math.ceil(SETUP_MIN_SECONDS / max(first_seconds, 1e-9))
    extra = min(SETUP_MAX_REPEATS, max(SETUP_MIN_REPEATS, wanted)) - 1
    return Counter(math.ceil((j + 1) * cycles / extra) for j in range(extra))


def measure(plan, seconds, tracer):
    """Set-up, warm-up and the measured (or reference and traced) cycles.

    Cycle c runs every op on right-hand-side variant c; the warm-up is
    variant 0. The ops use the instances of the first set-up.
    """
    first, built = timed_setup(plan, tracer)
    ops = plan.ops(built)
    cycles = max(math.ceil(MIN_OPS / len(ops)), round(seconds / plan.nominal_cycle_s))
    m = Measured([first], ops, cycles)
    m.warmup = [run_op(op, 0) for op in ops]
    deadline = time.perf_counter() + MAX_SECONDS_FACTOR * seconds
    if tracer is None:
        schedule = setup_schedule(first, cycles)
        for c in range(1, cycles + 1):
            m.measured.append([run_op(op, c) for op in ops])
            for _ in range(schedule[c]):
                m.setup_times.append(timed_setup(plan)[0])
            if time.perf_counter() > deadline and len(m.measured) * len(ops) >= MIN_OPS:
                break
        return m
    # each op runs untraced, then traced, on the same variant, so that both
    # sides of trace_overhead_frac see the same state of a shared machine
    for c in range(1, max(MIN_TRACED_CYCLES, cycles // TRACED_CYCLE_SHARE) + 1):
        for op in ops:
            m.reference.append(run_op(op, c))
            tracer.install()
            try:
                m.traced.append(run_op(op, c, tracer))
            finally:
                tracer.uninstall()
        if time.perf_counter() > deadline:
            break
    return m


def end_to_end_metrics(m):
    records = [r for cycle in m.measured for r in cycle]
    times = [r.seconds for r in records]
    pct, beyond = bench_stats.tail_percentile(len(times))
    berrs = [r.berr for r in records if r.berr is not None and r.berr > 0.0]
    matvecs = [r.outcome.matvecs for r in records if r.outcome is not None]
    values = {
        "setup_s": statistics.median(m.setup_times),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_tail_ms": 1e3 * bench_stats.percentile_value(times, pct),
        "matvecs_per_op": statistics.fmean(matvecs) if matvecs else None,
        "berr_geomean": bench_stats.geomean(berrs) if berrs else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values, {"percentile": pct, "beyond": beyond, "samples": len(times),
                    "setup_repeats": len(m.setup_times)}


def per_layer_metrics(m, tracer):
    raw, shares, coverage = bench_trace.aggregate(tracer.spans)
    n_ops = len(m.traced)
    raw["minberr.certificate_mode_ops"] = sum(
        any(SQRT_U_WARNING in w for w in r.warnings) for r in m.traced
    )
    values = {
        "trace_overhead_frac": sum(r.seconds for r in m.traced)
        / sum(r.seconds for r in m.reference) - 1.0,
        "trace_coverage_frac": coverage,
    }
    for name, unit, key, scale in PER_LAYER:
        if key is not None:
            values[name] = raw.get(key, 0) * scale / (n_ops if unit.endswith("/op") else 1)
    return values, shares


def environment(blas_threads):
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "USING_NUMBA": bool(_kernels.USING_NUMBA),
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "cpu": "unknown",
        "l3_bytes": None,
    }
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as fh:
            text = fh.read().strip()
        factor = {"K": 1024, "M": 1024 ** 2}.get(text[-1], 1)
        env["l3_bytes"] = int(text.rstrip("KM")) * factor
    except (OSError, ValueError):
        pass
    return env


def _per_kind(records):
    groups = {}
    for r in records:
        groups.setdefault(r.kind, []).append(r)
    rows = []
    for kind, rs in groups.items():
        done = [r.outcome for r in rs if r.outcome is not None]
        rows.append({
            "kind": kind,
            "ops": len(rs),
            "median_ms": 1e3 * statistics.median(r.seconds for r in rs),
            "iterations": sorted({o.iterations for o in done}),
            "termination": sorted({o.termination for o in done}),
            "matvecs": statistics.median(o.matvecs for o in done) if done else None,
            "berr": statistics.median(r.berr for r in rs if r.berr is not None)
            if any(r.berr is not None for r in rs) else None,
        })
    return rows


def run(workload, seed, seconds, trace, workdir, out_dir, blas_threads):
    plan = bench_workloads.PLANS[workload](seed, workdir)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in plan.patches]
    for owner, attr, replacement in plan.patches:
        setattr(owner, attr, replacement)
    tracer = bench_trace.Tracer() if trace else None
    try:
        m = measure(plan, seconds, tracer)
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)

    measured = [r for cycle in m.measured for r in cycle]
    everything = m.warmup + measured + m.reference + m.traced
    failed = [r for r in everything if r.reasons]
    warning_counts = Counter(w for r in everything for w in r.warnings)
    env = environment(blas_threads)
    working_set = max(r.footprint for r in everything)
    lines = [
        f"== berrkit benchmark: workload={workload} seed={seed} trace={int(trace)} ==",
        "environment: " + json.dumps(env),
        f"working set (computed, largest op): {working_set / 1e6:.1f} MB"
        + (f" = {working_set / env['l3_bytes']:.2f} x L3" if env["l3_bytes"] else ""),
    ]
    details = {"workload": workload, "seed": seed, "trace": int(trace), "environment": env,
               "working_set_bytes": working_set, "warnings": dict(warning_counts)}
    if trace:
        values, shares = per_layer_metrics(m, tracer)
        units = {name: unit for name, unit, _, _ in PER_LAYER}
        dominant = max(shares, key=shares.get)
        expected = EXPECTED_DOMINANT[workload]
        lines.append(f"traced ops: {len(m.traced)}; layer self-time shares of traced op time:")
        lines += [f"  {layer:<10} {share:7.1%}" for layer, share in
                  sorted(shares.items(), key=lambda kv: -kv[1])]
        verdict = "ok" if dominant in expected else "MISMATCH"
        lines.append(f"dominant layer: {dominant} (rationale expects one of "
                     f"{', '.join(expected)}): {verdict}")
        if dominant not in expected:
            print(f"rationale mismatch on {workload}: dominant layer is {dominant}, "
                  f"README expects one of {', '.join(expected)}", file=sys.stderr)
        details["shares"] = shares
        tracer.write(os.path.join(out_dir, f"{workload}-spans.jsonl"))
        records = m.traced
    else:
        values, tail = end_to_end_metrics(m)
        units = dict(END_TO_END)
        lines.append(f"cycles: {len(m.measured)} of {m.cycles} planned x {len(m.ops)} ops, "
                     "closed loop, one client")
        lines.append(f"tail percentile: p{tail['percentile']} of {tail['samples']} ops "
                     f"({tail['beyond']} samples beyond it)")
        details["tail"] = tail
        records = measured
    attempted = len(everything)
    fail_frac = len(failed) / attempted
    lines += [f"  {name:<34} {values[name]!r:>24} {units[name]}" for name in values]
    lines.append(f"  {'fail_frac':<34} {fail_frac!r:>24} 1   ({len(failed)} of {attempted} ops)")
    certificate_mode = sum(any(SQRT_U_WARNING in w for w in r.warnings) for r in everything)
    lines.append(f"  sqrt(u) certificate-mode ops: {certificate_mode}")
    for text, count in warning_counts.items():
        lines.append(f"  warning x{count}: {text}")
        print(f"warning during ops (x{count}): {text}", file=sys.stderr)
    for r in failed[:10]:
        lines.append(f"  FAILED {r.kind}: {'; '.join(r.reasons)}")
    details["per_kind"] = _per_kind(records)
    lines.append("per op kind:")
    lines += ["  " + json.dumps(row) for row in details["per_kind"]]
    details["failures"] = [{"kind": r.kind, "reasons": r.reasons} for r in failed]
    details["metrics"] = values
    with open(os.path.join(out_dir, f"{workload}-trace{int(trace)}.json"), "w",
              encoding="ascii") as fh:
        json.dump(details, fh, indent=1)
    result = {
        "correct": not failed,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in values},
    }
    return "\n".join(lines), json.dumps(result)


def main(argv, out_dir, blas_threads):
    parser = argparse.ArgumentParser(description="berrkit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(bench_workloads.PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    out_dir.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    try:
        report, result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                             workdir, out_dir, blas_threads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(report)
    print(result)
    return 0
