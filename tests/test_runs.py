"""The run table of ``benchmarks/runs.py`` and its line format, without
running a solve."""

import importlib.util
import os

import pytest

from berrkit import cli

_PATH = os.path.join(os.path.dirname(__file__), "..", "benchmarks", "runs.py")
_spec = importlib.util.spec_from_file_location("runs", _PATH)
runs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(runs)


@pytest.fixture(scope="module")
def entries(tmp_path_factory):
    return runs.table(str(tmp_path_factory.mktemp("runs")))


def test_labels_are_unique(entries):
    labels = [e.label for e in entries]
    assert len(set(labels)) == len(labels)


def test_every_solver_and_suite_runs(entries):
    """Every solver, suite, problem family, disguise, Matrix Market path and
    named right-hand side reaches the digest."""
    assert set(cli.SOLVERS) <= {e.spec.solver for e in entries}
    assert set(cli.SUITES) <= {e.suite for e in entries}
    problems = {e.spec.problem for e in entries}
    assert set(cli._FAMILIES) <= {p.partition(":")[0] for p in problems}
    assert all(any(p.endswith(s) for p in problems) for s in cli._DISGUISES)
    assert any(p.endswith(".mtx") for p in problems)
    assert set(cli._RHS) <= {e.spec.rhs for e in entries}


def test_every_solve_runs_at_trace_every_1_and_7(entries):
    solves = {}
    for e in entries:
        if e.suite is None:
            stem, every = e.name.rsplit("/every", 1)
            assert e.spec.trace_every == int(every)
            solves.setdefault(stem, []).append(e.spec.trace_every)
    assert solves and all(everies == [1, 7] for everies in solves.values())


def test_outcome_round_trips():
    info = {"termination": "Breakdown", "iterations": 4,
            "final_berr": 0.022783905402468312, "certified_bound": None}
    line = f"solve/cg/every1 exit=0 {'0' * 64} {runs.outcome(info)}"
    assert runs._outcome_fields(line) == ("Breakdown", "k=4", 0.022783905402468312)
    assert runs._outcome_fields("solve/cg/every1 exit=3") is None


def _line(label, termination, k, berr):
    return f"{label} exit=0 {'0' * 64} {termination} k={k} berr={berr!r} bound=None"


def test_moves_counts_kept_outcomes_and_the_largest_berr_move():
    old = [_line("a", "MaxIterations", 10, 1e-3), _line("b", "Breakdown", 4, 2e-2),
           _line("c", "ExactSolution", 1, 0.5), _line("d", "MaxIterations", 9, 4e-1),
           "e exit=2"]
    new = [_line("a", "MaxIterations", 10, 1e-3), _line("b", "Breakdown", 4, 2.5e-2),
           _line("c", "Breakdown", 1, 0.5), _line("d", "MaxIterations", 9, 4.04e-1),
           "e exit=3", _line("f", "MaxIterations", 3, 1.0)]
    differ, kept, worst = runs.moves(old, new)
    assert [b for _, b in differ] == new[1:]
    assert differ[-1][0] == "(missing)"
    assert kept == 2
    assert worst == pytest.approx(0.25)
    assert runs.moves(old, old) == ([], 0, 0.0)


def test_a_failing_run_prints_its_exit_code(tmp_path):
    """Bad input exits 2 and a solver error 3, as ``berrkit`` does; neither
    reaches a solver step."""
    failing = [runs.Entry(None, "missing", cli.RunSpec(str(tmp_path / "missing.mtx"), "cg")),
               runs.Entry("suite", "cg", cli.RunSpec("cyclic-shift:n=4", "cg"))]
    assert [runs.line(e, str(tmp_path)) for e in failing] == [
        "solve/missing exit=2", "bench/suite/cg exit=3"]


def test_digest_covers_every_file_a_solve_writes(tmp_path):
    """The plot and the solution reach the digest, and the temporary
    directory's path, which the summary and a file's plot title hold, does not."""
    entry = runs.Entry(None, "cg", cli.RunSpec("ill-conditioned:n=20,kappa=1e2", "cg", tol=1e-8))
    digests = []
    for tmp in (tmp_path / "a", tmp_path / "b"):
        tmp.mkdir()
        history = str(tmp / "history.csv")
        info, _ = runs.execute(entry.spec, history)
        assert info["solution"] == runs._artifacts(history)[1]
        digests.append(runs.digest(entry, history, info, str(tmp)))
    assert digests[0] == digests[1]
    for path in runs._artifacts(history):
        with open(path, "a", encoding="ascii") as fh:
            fh.write(" ")
        digests.append(runs.digest(entry, history, info, str(tmp)))
    assert len(set(digests)) == 3
