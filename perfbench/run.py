"""berrkit's benchmark: one command, end-to-end metrics and per-layer metrics.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Run it from anywhere inside a source checkout: berrkit is imported from the
checkout's ``src/`` and from nowhere else, and the run fails without a
result when those sources are missing. What a run does is described in
``runner.py`` and ``README.md``; the last line of stdout is the JSON result.
"""

import os
import sys
from pathlib import Path

# BLAS threads are pinned before numpy loads; runner.py reports the value
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def load_berrkit():
    """Import berrkit from this checkout's src/ and nowhere else."""
    if not (SRC / "berrkit" / "__init__.py").is_file():
        raise SystemExit(f"error: no berrkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import berrkit

    if Path(berrkit.__file__).resolve().parent != (SRC / "berrkit").resolve():
        raise SystemExit(f"error: berrkit was imported from {berrkit.__file__}, not {SRC}")


if __name__ == "__main__":
    load_berrkit()
    import runner

    sys.exit(runner.main(sys.argv[1:], ROOT / ".perfbench_out", BLAS_THREADS))
