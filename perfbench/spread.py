"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload certify --seeds 1-10 --seconds 40

For every metric it prints the median over the runs, and the distance between
the first and third quartiles (statistics.quantiles, n=4) as a share of that
median, beside the bound BENCHMARK.json fixes. Runs are sequential, one
process at a time.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import bench_stats

HERE = Path(__file__).resolve().parent


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    values = {}
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: {result['failed']} of {result['attempted']} ops failed")
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()), flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        spread = bench_stats.quartile_spread(vals) if len(vals) > 1 and median else float("nan")
        bound = bounds.get(name)
        mark = "" if bound is None else f" bound {bound}  {'ok' if spread < bound / 3 else 'WIDE'}"
        print(f"{name:<34} median {median:<12.6g} spread {spread:.4f}{mark}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
