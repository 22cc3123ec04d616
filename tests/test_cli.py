"""End-to-end command-line behavior: artifacts, exit codes, option merging."""

import json
import xml.etree.ElementTree as ET
from dataclasses import fields

import numpy as np
import pytest

import berrkit as bk
from berrkit import cli, mmio
from berrkit.cli import CSV_HEADER, SOLVERS, RunSpec, main

QUICK = "ill-conditioned:n=50,kappa=1e2"

# solvers that refuse an operator not flagged symmetric
SYMMETRIC_ONLY = {"richardson", "cg", "minres", "regularized-cg", "regularized-minres", "minberr"}


def run(argv):
    return main(argv)


def read_rows(path):
    lines = path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    return [line.split(",") for line in lines[1:]]


class TestSolveArtifacts:
    def test_history_summary_and_plot(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        summ = tmp_path / "s.json"
        plot = tmp_path / "p.svg"
        code = run(
            [
                "solve",
                "--problem", QUICK,
                "--solver", "richardson",
                "--tol", "1e-3",
                "--max-iter", "5000",
                "--history", str(hist),
                "--summary", str(summ),
                "--plot", str(plot),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""

        rows = read_rows(hist)
        assert len(rows) > 10
        iters = [int(r[0]) for r in rows]
        assert iters == sorted(iters)
        berrs = [float(r[1]) for r in rows]
        assert berrs[-1] < 1e-3

        info = json.loads(summ.read_text())
        assert set(info) == {
            "spec",
            "termination",
            "final_berr",
            "certified_bound",
            "iterations",
            "opnorm_estimate",
            "total_matvecs",
        }
        assert info["termination"] == "ToleranceReached"
        assert info["spec"]["problem"] == QUICK
        assert info["spec"]["solver"] == "richardson"
        assert info["spec"]["tol"] == 1e-3
        assert info["final_berr"] == berrs[-1]
        assert info["iterations"] == iters[-1]
        assert info["total_matvecs"] > 0

        svg = plot.read_text()
        assert "<svg" in svg
        assert "1/k" in svg

    @pytest.mark.parametrize("solver", ["minberr", "cg"])
    def test_solution_reads_back_bit_for_bit(self, solver, tmp_path):
        spec = RunSpec(QUICK, solver, tol=1e-6)
        p = cli.build_problem(spec.problem, spec.seed)
        x = cli.run_solver(spec, p.op, cli.resolve_rhs(spec.rhs, p)).x
        sol, summ = tmp_path / "x.mtx", tmp_path / "s.json"
        code = run(["solve", "--problem", QUICK, "--solver", solver, "--tol", "1e-6",
                    "--solution", str(sol), "--summary", str(summ)])
        assert code == 0
        assert json.loads(summ.read_text())["solution"] == str(sol)
        data = mmio.read_matrix_market(sol)
        assert (data.shape, data.layout) == ((50, 1), "array")
        assert data.values.tobytes() == x.tobytes()

    @pytest.mark.parametrize("stem", ["a&b", "m<1>", "matriz\u00e9"])
    def test_plot_title_is_escaped_xml(self, stem, tmp_path):
        problem = tmp_path / f"{stem}.mtx"
        assert run(["synth", "--problem", "ill-conditioned:n=6,kappa=1e3",
                    "--out", str(problem)]) == 0
        plot = tmp_path / "p.svg"
        code = run(["solve", "--problem", str(problem), "--solver", "cg",
                    "--rhs", "ones", "--plot", str(plot)])
        assert code == 0
        plot.read_bytes().decode("ascii")
        title = ET.parse(plot).getroot().find("{http://www.w3.org/2000/svg}text")
        assert title.text == f"cg on {problem}"

    def test_summary_to_stdout(self, tmp_path, capsys):
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg", "--tol", "1e-8",
             "--summary", "-"]
        )
        assert code == 0
        out = capsys.readouterr().out
        info = json.loads(out)
        assert info["spec"]["solver"] == "cg"

    def test_max_iterations_is_success(self, tmp_path):
        summ = tmp_path / "s.json"
        code = run(
            ["solve", "--problem", "ill-conditioned:n=50,kappa=1e8",
             "--solver", "richardson", "--tol", "1e-12", "--max-iter", "20",
             "--summary", str(summ)]
        )
        assert code == 0
        assert json.loads(summ.read_text())["termination"] == "MaxIterations"

    def test_histories_are_deterministic(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        summaries = [tmp_path / "a.json", tmp_path / "b.json"]
        for hist, summ in zip(paths, summaries):
            code = run(
                ["solve", "--problem", "ill-conditioned:n=80,kappa=1e4+disguise",
                 "--solver", "minberr", "--tol", "1e-7", "--seed", "3",
                 "--history", str(hist), "--summary", str(summ)]
            )
            assert code == 0
        rows_a, rows_b = read_rows(paths[0]), read_rows(paths[1])
        assert [r[:4] for r in rows_a] == [r[:4] for r in rows_b]
        assert summaries[0].read_text() == summaries[1].read_text()

    def test_seventeen_digit_round_trip(self, tmp_path):
        hist = tmp_path / "h.csv"
        run(
            ["solve", "--problem", QUICK, "--solver", "minres",
             "--tol", "1e-9", "--history", str(hist)]
        )
        for row in read_rows(hist):
            for field in row[1:4]:
                value = float(field)
                assert format(value, ".17g") == field

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_symmetric_solvers_run(self, solver, tmp_path):
        # every solver accepts a symmetric operator
        summ = tmp_path / "s.json"
        code = run(
            ["solve", "--problem", QUICK, "--solver", solver,
             "--tol", "1e-4", "--max-iter", "200", "--summary", str(summ)]
        )
        assert code == 0
        info = json.loads(summ.read_text())
        if solver.startswith("regularized"):
            assert info["certified_bound"] is not None
        assert np.isfinite(info["final_berr"])

    @pytest.mark.parametrize("solver", list(SOLVERS))
    def test_nonsymmetric_solvers_run(self, solver, tmp_path, capsys):
        code = run(
            ["solve", "--problem", "cyclic-shift:n=30", "--solver", solver,
             "--tol", "1e-7", "--max-iter", "50"]
        )
        if solver in SYMMETRIC_ONLY:
            assert code == 3
            assert "symmetric" in capsys.readouterr().err
        else:
            assert code == 0

    def test_perturbed_solver_reports_bound(self, tmp_path):
        summ = tmp_path / "s.json"
        code = run(
            ["solve", "--problem", "small-outlier:n=100,kappa=1e10,sigma=1e-2",
             "--solver", "minberr-ne-perturbed", "--tol", "1e-3",
             "--perturb-eps", "1e-3", "--max-iter", "200", "--summary", str(summ)]
        )
        assert code == 0
        info = json.loads(summ.read_text())
        assert info["certified_bound"] is not None
        assert info["certified_bound"] >= 1e-3


class TestRhsModes:
    def test_ones(self, tmp_path):
        summ = tmp_path / "s.json"
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg", "--rhs", "ones",
             "--tol", "1e-6", "--summary", str(summ)]
        )
        assert code == 0
        assert json.loads(summ.read_text())["spec"]["rhs"] == "ones"

    def test_smallest_left_singular(self, tmp_path):
        code = run(
            ["solve", "--problem", QUICK, "--solver", "minberr",
             "--rhs", "smallest-left-singular", "--tol", "1e-4"]
        )
        assert code == 0

    def test_rhs_from_file(self, tmp_path):
        rhs_path = tmp_path / "b.mtx"
        mmio.write_array(rhs_path, np.linspace(1.0, 2.0, 50))
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg",
             "--rhs", f"file:{rhs_path}", "--tol", "1e-6"]
        )
        assert code == 0

    def test_rhs_file_must_be_a_vector(self, tmp_path, capsys):
        rhs_path = tmp_path / "m.mtx"
        mmio.write_array(rhs_path, np.eye(2))
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg",
             "--rhs", f"file:{rhs_path}"]
        )
        assert code == 2
        assert "row or column" in capsys.readouterr().err

    def test_rhs_file_must_match_the_operator(self, tmp_path, capsys):
        rhs_path = tmp_path / "short.mtx"
        mmio.write_array(rhs_path, np.ones((3, 1)))
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg",
             "--rhs", f"file:{rhs_path}"]
        )
        assert code == 2
        assert "3 entries, expected 50" in capsys.readouterr().err

    def test_unknown_rhs(self, capsys):
        code = run(["solve", "--problem", QUICK, "--solver", "cg", "--rhs", "zeros"])
        assert code == 2


class TestSpecErrors:
    def test_argparse_rejects_unknown_solver(self):
        with pytest.raises(SystemExit) as info:
            run(["solve", "--problem", QUICK, "--solver", "gauss"])
        assert info.value.code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--tol", "2.0"],
            ["--tol", "0"],
            ["--max-iter", "0"],
            ["--C", "0.5"],
            ["--delta", "1.5"],
            ["--perturb-eps", "1.0"],
            ["--seed", "-4"],
            ["--trace-every", "0"],
            ["--C", "nan"],
            ["--C", "inf"],
        ],
    )
    def test_semantic_validation(self, extra, capsys):
        code = run(["solve", "--problem", QUICK, "--solver", "cg"] + extra)
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_regularized_needs_nine_iterations(self, capsys):
        code = run(
            ["solve", "--problem", QUICK, "--solver", "regularized-cg",
             "--max-iter", "5"]
        )
        assert code == 2
        assert "at least 9" in capsys.readouterr().err

    def test_unknown_problem_family(self, capsys):
        code = run(["solve", "--problem", "hilbert:n=5", "--solver", "cg"])
        assert code == 2
        assert "unknown problem" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "problem",
        [
            "ill-conditioned:n=50",
            "ill-conditioned:n=inf,kappa=10",
            "ill-conditioned:n=1e400,kappa=10",
            "cyclic-shift:n=-inf",
            "ill-conditioned:n=50,kappa=nan",
            "small-outlier:n=50,kappa=0,sigma=1e-3",
        ],
    )
    def test_bad_problem_params(self, capsys, problem):
        code = run(["solve", "--problem", problem, "--solver", "cg"])
        assert code == 2

    def test_unknown_problem_param_rejected(self, capsys):
        code = run(
            ["solve", "--problem", "ill-conditioned:n=50,kappa=1e2,gamma=3",
             "--solver", "cg"]
        )
        assert code == 2
        assert "unknown parameters" in capsys.readouterr().err

    def test_repeated_problem_param_rejected(self, capsys):
        with pytest.raises(cli.SpecError, match="'n' given twice"):
            cli.build_problem("ill-conditioned:n=10,n=20,kappa=1e3", 0)
        code = run(
            ["solve", "--problem", "ill-conditioned:n=10,kappa=1e3,n=20", "--solver", "cg"]
        )
        assert code == 2
        assert "'n' given twice" in capsys.readouterr().err

    def test_missing_matrix_file(self, capsys):
        code = run(["solve", "--problem", "/no/such/file.mtx", "--solver", "cg"])
        assert code == 2


def _directory(tmp_path):
    path = tmp_path / "a-directory"
    path.mkdir()
    return str(path)


def _malformed_rhs(tmp_path):
    path = tmp_path / "b.mtx"
    values = ["1.0"] * 50
    values[1] = "x"
    path.write_text("%%MatrixMarket matrix array real general\n50 1\n" + "\n".join(values) + "\n")
    return f"file:{path}"


def _huge_integer_rhs(tmp_path):
    path = tmp_path / "b.mtx"
    path.write_text("%%MatrixMarket matrix array integer general\n50 1\n" + ("9" * 400 + "\n") * 50)
    return f"file:{path}"


def _non_ascii_config(tmp_path):
    path = tmp_path / "berr.cfg"
    path.write_bytes("tol = 1e-3\n# r\u00e9glage\n".encode("utf-8"))
    return str(path)


# case -> (flags added to a quick cg solve, given tmp_path; text the error names)
BAD_INPUTS = {
    "problem-directory": (lambda t: ["--problem", _directory(t)], "Is a directory"),
    "rhs-directory": (lambda t: ["--rhs", "file:" + _directory(t)], "Is a directory"),
    "config-directory": (lambda t: ["--config", _directory(t)], "Is a directory"),
    "history-directory": (lambda t: ["--history", _directory(t)], "Is a directory"),
    "summary-directory": (lambda t: ["--summary", _directory(t)], "Is a directory"),
    "plot-directory": (lambda t: ["--plot", _directory(t)], "Is a directory"),
    "malformed-rhs": (lambda t: ["--rhs", _malformed_rhs(t)], "line 4: bad real value 'x'"),
    "huge-integer-rhs": (lambda t: ["--rhs", _huge_integer_rhs(t)], "line 3: bad integer value"),
    "non-ascii-config": (lambda t: ["--config", _non_ascii_config(t)], "can't decode byte"),
}


class TestInputErrors:
    @pytest.mark.parametrize("case", list(BAD_INPUTS))
    def test_bad_input_exits_two(self, case, tmp_path, capsys):
        flags, named = BAD_INPUTS[case]
        code = run(["solve", "--problem", QUICK, "--solver", "cg"] + flags(tmp_path))
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert named in err


class TestSolverErrors:
    def test_symmetry_violation_exits_three(self, capsys):
        code = run(
            ["solve", "--problem", "cyclic-shift:n=20", "--solver", "richardson"]
        )
        assert code == 3
        assert "symmetric" in capsys.readouterr().err

    def test_minberr_on_nonsymmetric_exits_three(self, capsys):
        code = run(
            ["solve", "--problem", "cyclic-shift:n=20", "--solver", "minberr"]
        )
        assert code == 3

    @pytest.mark.parametrize("solver", ["cg", "lsqr", "minberr-ne"])
    def test_non_finite_rhs_file_exits_three(self, solver, tmp_path, capsys):
        b = np.linspace(1.0, 2.0, 50)
        b[7] = np.nan
        rhs_path = tmp_path / "b.mtx"
        mmio.write_array(rhs_path, b)
        code = run(
            ["solve", "--problem", QUICK, "--solver", solver, "--rhs", f"file:{rhs_path}"]
        )
        assert code == 3
        assert "NaN" in capsys.readouterr().err

    def test_breakdown_before_first_row_writes_strict_json(self, tmp_path):
        # p^T A p < 0 at the first step: cg stops at k = 0 with an empty trace
        matrix, rhs, summ = tmp_path / "a.mtx", tmp_path / "b.mtx", tmp_path / "s.json"
        idx = np.arange(3)
        mmio.write_coordinate(matrix, idx, idx, [-1.0, -2.0, 1.0], (3, 3), symmetric=True)
        mmio.write_array(rhs, [1.0, 1.0, 0.0])
        code = run(
            ["solve", "--problem", str(matrix), "--solver", "cg",
             "--rhs", f"file:{rhs}", "--summary", str(summ)]
        )
        assert code == 0

        def reject(constant):
            raise AssertionError(f"summary holds {constant}, which is not JSON")

        info = json.loads(summ.read_text(), parse_constant=reject)
        assert info["termination"] == "Breakdown"
        assert info["iterations"] == 0
        assert info["final_berr"] is None


class TestConfigMerging:
    def test_flags_beat_config_beat_defaults(self, tmp_path):
        cfg = tmp_path / "berr.cfg"
        cfg.write_text("tol = 1e-2\nseed = 9\n# comment\n\nmax_iter = 77\n")
        summ = tmp_path / "s.json"
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg",
             "--tol", "1e-5", "--config", str(cfg), "--summary", str(summ)]
        )
        assert code == 0
        spec = json.loads(summ.read_text())["spec"]
        assert spec["tol"] == 1e-5
        assert spec["seed"] == 9
        assert spec["max_iter"] == 77
        assert spec["C"] == 1.0

    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = tmp_path / "berr.cfg"
        cfg.write_text("tol=1e-3\nwombat=4\n")
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg", "--config", str(cfg)]
        )
        assert code == 2
        assert "unknown keys" in capsys.readouterr().err

    def test_repeated_config_key(self, tmp_path, capsys):
        # max_iter and max-iter are one key, as on the command line
        cfg = tmp_path / "berr.cfg"
        cfg.write_text("tol=1e-3\nmax_iter=5\nseed=1\nmax-iter=7\n")
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg", "--config", str(cfg)]
        )
        assert code == 2
        assert "berr.cfg:4: key 'max-iter' given twice" in capsys.readouterr().err

    def test_missing_config_file(self, tmp_path, capsys):
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg",
             "--config", str(tmp_path / "nope.cfg")]
        )
        assert code == 2

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = tmp_path / "berr.cfg"
        cfg.write_text("tol\n")
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg", "--config", str(cfg)]
        )
        assert code == 2

    def test_non_numeric_config_value(self, tmp_path, capsys):
        cfg = tmp_path / "berr.cfg"
        cfg.write_text("tol=abc\n")
        code = run(
            ["solve", "--problem", QUICK, "--solver", "cg", "--config", str(cfg)]
        )
        assert code == 2


# a value other than the default for every run option: (flag text, parsed value)
OPTION_VALUES = {
    "rhs": ("ones", "ones"),
    "tol": ("1e-3", 1e-3),
    "max_iter": ("77", 77),
    "C": ("2.5", 2.5),
    "delta": ("1e-3", 1e-3),
    "perturb_eps": ("0.01", 0.01),
    "seed": ("9", 9),
    "reorth": ("full", "full"),
    "trace_every": ("3", 3),
}
OPTION_DEFAULTS = {f.name: f.default for f in fields(RunSpec)[2:]}


def test_option_values_cover_every_run_option():
    assert list(OPTION_VALUES) == list(OPTION_DEFAULTS)


@pytest.mark.parametrize("form", ["flag", "config-dashed", "config-underscored"])
@pytest.mark.parametrize("name", list(OPTION_VALUES))
def test_every_option_is_a_flag_and_a_config_key(name, form, tmp_path):
    text, value = OPTION_VALUES[name]
    assert value != OPTION_DEFAULTS[name]
    argv = ["solve", "--problem", QUICK, "--solver", "minberr"]
    if form == "flag":
        argv += ["--" + name.replace("_", "-"), text]
    else:
        key = name.replace("_", "-") if form == "config-dashed" else name
        cfg = tmp_path / "berr.cfg"
        cfg.write_text(f"{key} = {text}\n")
        argv += ["--config", str(cfg)]
    summ = tmp_path / "s.json"
    assert run(argv + ["--summary", str(summ)]) == 0
    spec = json.loads(summ.read_text())["spec"]
    assert spec == {"problem": QUICK, "solver": "minberr", **OPTION_DEFAULTS, name: value}


class TestSynth:
    def test_writes_matrix_and_rhs(self, tmp_path):
        out = tmp_path / "inst.mtx"
        code = run(
            ["synth", "--problem", "ill-conditioned:n=6,kappa=1e3", "--out", str(out)]
        )
        assert code == 0
        p = bk.read_matrix_market(out)
        ref = bk.ill_conditioned(6, 1e3)
        x = np.random.default_rng(0).standard_normal(6)
        np.testing.assert_array_equal(p.op.apply(x), ref.op.apply(x))
        b_data = mmio.read_matrix_market(tmp_path / "inst_b.mtx")
        np.testing.assert_array_equal(b_data.to_dense().reshape(-1), ref.b)

    def test_sparse_instance_round_trips(self, tmp_path):
        out = tmp_path / "shift.mtx"
        code = run(["synth", "--problem", "cyclic-shift:n=9", "--out", str(out)])
        assert code == 0
        p = bk.read_matrix_market(out)
        ref = bk.cyclic_shift(9)
        x = np.random.default_rng(1).standard_normal(9)
        np.testing.assert_array_equal(p.op.apply(x), ref.op.apply(x))

    def test_symmetric_flag_survives_the_round_trip(self, tmp_path):
        out = tmp_path / "inst.mtx"
        assert run(["synth", "--problem", "ill-conditioned:n=12,kappa=1e3", "--out", str(out)]) == 0
        assert bk.read_matrix_market(out).op.symmetric
        summary_path = tmp_path / "s.json"
        code = run(
            ["solve", "--problem", str(out), "--rhs", f"file:{tmp_path / 'inst_b.mtx'}",
             "--solver", "minberr", "--tol", "1e-6", "--summary", str(summary_path)]
        )
        assert code == 0
        summary = json.loads(summary_path.read_text())
        assert summary["final_berr"] <= 1e-6

    def test_disguised_instances_are_rejected(self, tmp_path, capsys):
        code = run(
            ["synth", "--problem", "ill-conditioned:n=6,kappa=1e3+disguise",
             "--out", str(tmp_path / "d.mtx")]
        )
        assert code == 2
        assert "synth" in capsys.readouterr().err


class TestBench:
    def test_stagnation_suite(self, tmp_path):
        out = tmp_path / "bench"
        code = run(["bench", "stagnation", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        names = {entry["name"] for entry in manifest}
        assert names == {"minberr-ne", "minberr-ne-perturbed"}
        for entry in manifest:
            assert "error" not in entry
            rows = read_rows(out / f"{entry['name']}.csv")
            assert len(rows) >= 1
            assert entry["history"].endswith(f"{entry['name']}.csv")
        by_name = {e["name"]: e for e in manifest}
        assert by_name["minberr-ne-perturbed"]["certified_bound"] is not None

    def test_suitesparse_without_directory_warns(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = run(["bench", "suitesparse", "--out", str(out)])
        assert code == 0
        assert "--suitesparse-dir" in capsys.readouterr().err
        assert json.loads((out / "manifest.json").read_text()) == []

    def test_suitesparse_with_directory(self, tmp_path):
        mats = tmp_path / "mats"
        mats.mkdir()
        mmio.write_coordinate(
            mats / "tiny.mtx", [0, 1, 2], [0, 1, 2], [2.0, 3.0, 4.0], (3, 3)
        )
        out = tmp_path / "bench"
        code = run(["bench", "suitesparse", "--suitesparse-dir", str(mats), "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert {e["name"] for e in manifest} == {"tiny-minberr-ne", "tiny-lsqr"}
        for entry in manifest:
            assert entry["termination"] in ("ToleranceReached", "ExactSolution")

    @pytest.mark.parametrize("given", ["missing", "file"])
    def test_suitesparse_dir_that_is_no_directory_exits_2(self, tmp_path, capsys, given):
        path = tmp_path / "mats"
        if given == "file":
            path.write_text("not a directory\n")
        out = tmp_path / "bench"
        code = run(["bench", "suitesparse", "--suitesparse-dir", str(path), "--out", str(out)])
        assert code == 2
        assert "is not a directory" in capsys.readouterr().err
        assert not out.exists()

    def test_unreadable_matrix_is_recorded_and_skipped(self, tmp_path):
        mats = tmp_path / "mats"
        mats.mkdir()
        mmio.write_coordinate(
            mats / "good.mtx", [0, 1, 2], [0, 1, 2], [2.0, 3.0, 4.0], (3, 3)
        )
        (mats / "bad.mtx").write_text(
            "%%MatrixMarket matrix coordinate real general\n3 3 3\n1 1 2.0\n"
        )
        out = tmp_path / "bench"
        code = run(["bench", "suitesparse", "--suitesparse-dir", str(mats), "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest) == 4
        by_name = {e["name"]: e for e in manifest}
        for name in ("bad-minberr-ne", "bad-lsqr"):
            assert "expected 3 entries" in by_name[name]["error"]
        for name in ("good-minberr-ne", "good-lsqr"):
            assert "error" not in by_name[name]
            assert by_name[name]["termination"] in ("ToleranceReached", "ExactSolution")

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit) as info:
            run(["bench", "warp", "--out", "x"])
        assert info.value.code == 2
