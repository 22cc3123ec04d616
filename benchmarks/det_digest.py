"""Print one sha256 per deterministic berrkit run, for bitwise regression gates.

Each line is an entry of ``runs.table``: label, exit code, digest and outcome
(termination, iterations, final berr, certified bound), or label and exit code
alone for a run that fails. About 10 s on one core::

    python3 benchmarks/det_digest.py [SRC_DIR] > digests.txt
    python3 benchmarks/det_digest.py [SRC_DIR] --against OTHER_SRC

``--against`` digests both sources in two subprocesses, prints the lines that
differ as ``-`` (OTHER_SRC) and ``+`` (SRC_DIR) pairs, counts the moved lines
that kept termination and iterations, and exits 1 if any line differs.
"""

import argparse
import os
import subprocess
import sys
import tempfile
import warnings


def against(runs, src, other):
    """Digest src and other in two concurrent subprocesses; print the lines
    that differ and return 1 if any do, else 0."""
    procs = [
        subprocess.Popen([sys.executable, os.path.abspath(__file__), path],
                         stdout=subprocess.PIPE, text=True)
        for path in (other, src)
    ]
    old, new = (proc.communicate()[0].splitlines() for proc in procs)
    for path, proc in zip((other, src), procs):
        if proc.returncode != 0:
            sys.exit(f"digesting {path} exited with status {proc.returncode}")
    differ, kept, worst = runs.moves(old, new)
    for a, b in differ:
        print(f"- {a}\n+ {b}")
    total = max(len(old), len(new))
    print(f"{total - len(differ)} of {total} lines identical")
    if differ:
        print(f"{kept} of {len(differ)} moved lines kept termination and iterations; "
              f"largest final berr move among them {worst:.2g} relative")
    return 1 if differ else 0


def main(argv):
    here = os.path.dirname(os.path.abspath(__file__))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default=os.path.join(here, "..", "src"))
    parser.add_argument("--against", metavar="OTHER_SRC",
                        help="digest OTHER_SRC too and report the lines that differ")
    args = parser.parse_args(argv[1:])
    src = os.path.abspath(args.src)
    sys.path.insert(0, src)
    import runs  # from this script's directory

    if args.against is not None:
        return against(runs, src, os.path.abspath(args.against))
    warnings.simplefilter("ignore")
    with tempfile.TemporaryDirectory() as tmp:
        for entry in runs.table(tmp):
            print(runs.line(entry, tmp))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
