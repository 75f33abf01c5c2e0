"""End-to-end CLI runs: exit codes, the flags each pipeline takes, report determinism."""

import argparse
import dataclasses
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import gevreylab.cli
import gevreylab.eigen
import gevreylab.gevrey
from gevreylab import emit_report
from gevreylab.cli import _PIPELINES, build_parser, config_from_args, main

ROOT = Path(__file__).resolve().parents[1]


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


def recording(monkeypatch, name):
    """Results of every call the CLI makes to its function ``name``."""
    results = []
    original = getattr(gevreylab.cli, name)

    def record(*args, **kwargs):
        results.append(original(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(gevreylab.cli, name, record)
    return results


def csv_cells(path):
    """Header and rows of a report CSV, each cell as text."""
    header, *rows = (line.split(",") for line in path.read_text().splitlines())
    return header, rows


def reports_under_blas_threads(tmp_path, *argv):
    """Every report of one pipeline run in a fresh process, as {name: bytes},
    under one BLAS thread and then under two."""
    reports = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        env = dict(os.environ, PYTHONPATH=str(Path(gevreylab.cli.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        subprocess.run([sys.executable, "-m", "gevreylab.cli", *argv, "--out", str(out)],
                       env=env, capture_output=True, check=True)
        reports.append({path.name: path.read_bytes() for path in out.iterdir()})
    return reports


@pytest.mark.parametrize("argv, names", [
    (("transform", "--order", "3"), {"field.csv", "transform.json"}),
    (("classify", "--order", "2"), {"classify.json"}),
    (("demo",), {"demo.csv"}),
], ids=["transform", "classify", "demo"])
def test_bump_and_demo_reports_match_across_blas_threads(tmp_path, argv, names):
    # The README promises these reports the same bytes under one and two
    # BLAS threads; demo runs its four default pairs.
    one, two = reports_under_blas_threads(tmp_path, *argv)
    assert set(one) == names
    assert one == two


def test_pipelines_hand_the_csv_writer_python_numbers(tmp_path, monkeypatch):
    # csv writes each cell with str, which is repr for an int or a Python
    # float but follows numpy's print options for a numpy scalar.
    written = {}

    def checked(rows, schema, path):
        rows = list(rows)
        written[Path(path).name] = {type(cell) for row in rows for cell in row}
        emit_report(rows, schema, path)

    monkeypatch.setattr(gevreylab.cli, "emit_report", checked)
    for command in _PIPELINES:
        assert run(tmp_path / command, command)[0] == 0, command
    assert sorted(written) == ["apriori.csv", "demo.csv", "eigenpair.csv", "field.csv",
                               "growth.csv", "scaling.csv", "weight.csv"]
    assert {name: kinds - {int, float} for name, kinds in written.items()} == {
        name: set() for name in written
    }


class TestUsageErrors:
    def test_empty_command_exits_64(self):
        with pytest.raises(SystemExit) as err:
            main([])
        assert err.value.code == 64

    def test_unknown_command_exits_64(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 64

    def test_unparseable_flag_value_exits_64(self):
        with pytest.raises(SystemExit) as err:
            main(["classify", "--order", "two"])
        assert err.value.code == 64

    def test_out_of_range_order_returns_64(self, tmp_path):
        code, _ = run(tmp_path, "classify", "--order", "0.5")
        assert code == 64

    def test_disordered_exponents_return_64(self, tmp_path):
        code, _ = run(tmp_path, "eigen", "--p", "3", "--q", "2")
        assert code == 64

    def test_gamma_range_enforced(self, tmp_path):
        code, _ = run(tmp_path, "transform", "--gamma", "1.5")
        assert code == 64

    @pytest.mark.parametrize("command", ["transform", "classify"])
    def test_unresolvable_frequency_ladder_returns_64(self, tmp_path, command):
        code, _ = run(tmp_path, command, "--freq-ladder", "1e6,2e6")
        assert code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ["transform", "--seed", "9"],
            ["classify", "--p", "2"],
            ["eigen", "--order", "7"],
            ["counterexample", "--seed", "1"],
            ["inequalities", "--gamma", "0.5"],
            ["demo", "--grid-x", "3"],
            ["demo", "--p", "2,3"],  # not taken as an abbreviation of --pairs
            ["transform", "--config", "run.cfg"],  # flags are the only input
            ["counterexample", "--grid-x", "3"],  # profiles are series, not samples
            ["eigen", "--grid-h", "0.004"],
        ],
    )
    def test_flag_the_pipeline_does_not_read_exits_64(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64

    def test_flag_the_pipeline_does_not_read_shows_the_pipeline_usage(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["transform", "--seed", "9"])
        assert err.value.code == 64
        lines = capsys.readouterr().err.splitlines()
        assert lines[0].startswith("usage: gevreylab transform [-h]")
        assert lines[-1] == "gevreylab transform: error: unrecognized arguments: --seed 9"

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("transform", "--freq-ladder", "a,b"), "expected comma-separated numbers"),
            (("demo", "--n-ladder", "10,x"), "expected comma-separated integers"),
            (("demo", "--pairs", "1,2,3"), "expected a pair like 1,2"),
            (("demo", "--pairs", "a,b"), "expected a pair of integers"),
            (("transform", "--freq-ladder", ","), "ladder must not be empty"),
        ],
    )
    def test_malformed_value_names_the_expected_format(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            main(list(argv))
        assert err.value.code == 64
        assert message in capsys.readouterr().err

    def test_usage_error_after_parsing_shows_the_pipeline_usage(self, tmp_path, capsys):
        code, _ = run(tmp_path, "transform", "--freq-ladder", "1e6")
        assert code == 64
        err = capsys.readouterr().err
        assert err.startswith("usage: gevreylab transform [-h]")
        assert "--freq-ladder" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ("demo", "--n-ladder", "7"),
            ("counterexample", "--n-ladder", "5,5"),
            ("inequalities", "--tau-ladder", "1,0.5"),
            ("transform", "--freq-ladder", "64,48,32,24,16,12,8"),
            ("classify", "--freq-ladder", "16,32,32,64,128,256,512"),
            ("counterexample", "--p", "1", "--q", "2", "--n-ladder", "1,2"),
            ("counterexample", "--p", "1", "--q", "2", "--n-ladder", "2,2,3,4"),
            ("counterexample", "--n-ladder", "0,10,100"),
        ],
    )
    def test_invalid_ladder_returns_64(self, tmp_path, argv):
        code, out = run(tmp_path, *argv)
        assert code == 64
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("transform", "--gamma", "nan"),
            ("classify", "--freq-ladder", "16,inf"),
            ("inequalities", "--tau-ladder", "inf"),
            ("transform", "--order", "nan"),
            ("classify", "--order", "inf"),
            ("transform", "--freq-ladder", "nan"),
        ],
    )
    def test_non_finite_value_returns_64(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == 64
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_returns_64(self, tmp_path, capsys):
        code, out = run(tmp_path, "inequalities", "--seed", "-1")
        assert code == 64
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("classify", "--freq-ladder", "1e6,2e6"),
            ("transform", "--freq-ladder", "1e6"),
            ("transform", "--freq-ladder", "16,32,64"),
            ("demo", "--pairs", "3,2"),
        ],
    )
    def test_usage_error_in_the_pipeline_leaves_no_directory(self, tmp_path, argv):
        # The three-point ladder is well formed and the transform runs, but
        # the fit is inconclusive; a run that fails writes nothing either.
        code = 2 if argv[-1] == "16,32,64" else 64
        nested = tmp_path / "a" / "b"
        assert main([*argv, "--out", str(nested)]) == code
        assert not (tmp_path / "a").exists()
        # A directory that existed before the run stays, and stays empty.
        nested.mkdir(parents=True)
        assert main([*argv, "--out", str(nested)]) == code
        assert list(nested.iterdir()) == []


class TestParser:
    """Every command line the project documents or benchmarks still parses."""

    @staticmethod
    def check(argv):
        config = config_from_args(build_parser().parse_args(argv))
        assert config.command == argv[0]

    def test_benchmark_command_lines_parse(self, monkeypatch):
        spec = importlib.util.spec_from_file_location(
            "perfbench_jobs", ROOT / "perfbench" / "jobs.py"
        )
        jobs = importlib.util.module_from_spec(spec)
        # Its dataclasses resolve annotations through sys.modules.
        monkeypatch.setitem(sys.modules, spec.name, jobs)
        spec.loader.exec_module(jobs)
        argvs = {
            job.args
            for name in jobs.WORKLOADS
            for seed in range(3)
            for job in jobs.workload_jobs(name, seed)
            if job.kind not in jobs.LIBRARY_KINDS
        }
        assert {argv[0] for argv in argvs} == set(_PIPELINES)
        for argv in sorted(argvs):
            self.check([*argv, "--out", "reports"])

    def test_readme_command_lines_parse(self):
        blocks = re.findall(r"```sh\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
        lines = [
            line for block in blocks for line in block.splitlines()
            if line.startswith("gevreylab ")
        ]
        assert {shlex.split(line)[1] for line in lines} == set(_PIPELINES)
        for line in lines:
            self.check(shlex.split(line)[1:])

    def test_each_pipeline_takes_only_its_flags(self):
        # One input path: no option beyond help, --out and the keys it reads.
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        assert set(sub.choices) == set(_PIPELINES)
        for name, pipeline in _PIPELINES.items():
            flags = {"--" + key.replace("_", "-") for key in pipeline.flags}
            assert set(sub.choices[name]._option_string_actions) == {"-h", "--help", *flags}

    def test_readme_flag_table_matches_pipelines(self):
        rows = re.findall(r"^\| (`[a-z]+`(?:, `[a-z]+`)*) \| (.*) \|$",
                          (ROOT / "README.md").read_text(), re.M)
        documented = {
            name: {flag.replace("-", "_") for flag in re.findall(r"--([a-z-]+)", flags)}
            for names, flags in rows
            for name in re.findall(r"`([a-z]+)`", names)
        }
        assert documented == {
            name: set(pipeline.flags) - {"out"} for name, pipeline in _PIPELINES.items()
        }


class TestTransform:
    def test_default_run_reports_fit(self, tmp_path):
        code, out = run(tmp_path, "transform")
        assert code == 0
        assert (out / "field.csv").exists()
        report = json.loads((out / "transform.json").read_text())
        assert set(report) == {"pipeline", "order", "gamma", "base_point", "fit"}
        assert report["gamma"] == 0.5
        assert report["base_point"] == 1.0
        assert report["fit"]["r"] == pytest.approx(0.4415, abs=2e-3)

    def test_field_csv_abs_is_the_modulus(self, tmp_path, monkeypatch):
        # The modulus the fit read, bit for bit, so the rows refit to the
        # reported fit.
        estimates = recording(monkeypatch, "estimate_order_fbi")
        code, out = run(tmp_path, "transform")
        assert code == 0
        header, rows = csv_cells(out / "field.csv")
        assert header == ["base", "xi", "re", "im", "abs"]
        assert {float(row[0]) for row in rows} == {1.0}
        assert [float(row[4]) for row in rows] == estimates[0].field.magnitudes().tolist()

    def test_out_naming_a_file_exits_1(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        assert main(["transform", "--out", str(taken)]) == 1
        assert "File exists" in capsys.readouterr().err
        assert taken.read_text() == ""
        assert sorted(tmp_path.iterdir()) == [taken]

    def test_gamma_flag_honored(self, tmp_path):
        code, out = run(tmp_path, "transform", "--gamma", "1.0")
        assert code == 0
        report = json.loads((out / "transform.json").read_text())
        assert report["gamma"] == 1.0
        assert report["fit"]["r"] == pytest.approx(0.4736, abs=2e-3)

    def test_reports_are_the_order_estimate_from_one_field(self, tmp_path, monkeypatch):
        # The decay-fit recipe has one owner, estimate_order_fbi; the
        # pipeline writes the field and the fit it returns.
        fields = []
        fbi_field = gevreylab.gevrey.fbi_field

        def counting(*args):
            fields.append(fbi_field(*args))
            return fields[-1]

        monkeypatch.setattr(gevreylab.gevrey, "fbi_field", counting)
        estimates = recording(monkeypatch, "estimate_order_fbi")
        code, out = run(tmp_path, "transform", "--order", "3")
        assert code == 0
        assert len(fields) == len(estimates) == 1 and estimates[0].field is fields[0]
        _, rows = csv_cells(out / "field.csv")
        assert [[float(v) for v in row[1:4]] for row in rows] == [
            [xi, val.real, val.imag] for xi, val in zip(fields[0].freqs, fields[0].values)]
        report = json.loads((out / "transform.json").read_text())
        assert report["fit"] == dataclasses.asdict(estimates[0].fit)

    def test_short_ladder_is_inconclusive(self, tmp_path):
        code, _ = run(tmp_path, "transform", "--freq-ladder", "16,32,64")
        assert code == 2

    def test_reruns_byte_identical(self, tmp_path):
        code1, out1 = run(tmp_path / "a", "transform")
        code2, out2 = run(tmp_path / "b", "transform")
        assert code1 == code2 == 0
        assert (out1 / "field.csv").read_bytes() == (out2 / "field.csv").read_bytes()
        assert (out1 / "transform.json").read_bytes() == (
            out2 / "transform.json"
        ).read_bytes()


class TestClassify:
    def test_order_two_bump(self, tmp_path):
        code, out = run(tmp_path, "classify", "--order", "2")
        assert code == 0
        report = json.loads((out / "classify.json").read_text())
        assert report["target_order"] == 2.0
        assert abs(report["s"] - 2.0) <= 0.3
        assert abs(report["derivative_estimate"]["order"] - 2.0) <= 0.3

    def test_order_three_loses_derivative_cross_check(self, tmp_path):
        # Stencil noise drowns the derivative route at this order; the
        # transform estimate still reports, with the failure recorded.
        code, out = run(tmp_path, "classify", "--order", "3")
        assert code == 0
        report = json.loads((out / "classify.json").read_text())
        assert "error" in report["derivative_estimate"]
        assert report["s"] == pytest.approx(1.0 / 0.2483, abs=0.2)


class TestEigen:
    def test_small_grid_run_deterministic(self, tmp_path):
        # (3, 4) has the smallest default window of the default pairs.
        args = ("eigen", "--p", "3", "--q", "4")
        code1, out1 = run(tmp_path / "a", *args)
        code2, out2 = run(tmp_path / "b", *args)
        assert code1 == code2 == 0
        report = json.loads((out1 / "eigen.json").read_text())
        assert report["grid"]["fine_nodes"] == 8464
        assert report["count"] == 4
        assert (out1 / "eigenpair.csv").read_bytes() == (
            out2 / "eigenpair.csv"
        ).read_bytes()
        assert (out1 / "eigen.json").read_bytes() == (out2 / "eigen.json").read_bytes()

    def test_report_records_the_solved_grid(self, tmp_path, monkeypatch):
        # eigenpair.csv samples the ground profile's series on the
        # refinement of its pair's window, which eigen.json records.
        solves = recording(monkeypatch, "solve_nonlinear_eigen")
        code, out = run(tmp_path, "eigen", "--p", "1", "--q", "2")
        assert code == 0
        report = json.loads((out / "eigen.json").read_text())
        grid = solves[0][0].grid
        assert report["grid"] == {"half_width": grid.half_width, "spacing": 0.002,
                                  "fine_nodes": 21240}
        lines = (out / "eigenpair.csv").read_text().splitlines()
        assert lines[0] == "x,re,im"
        assert len(lines) == 1 + 21240

    def test_eigenpair_csv_samples_the_ground_series(self, tmp_path, monkeypatch):
        solves = recording(monkeypatch, "solve_nonlinear_eigen")
        code, out = run(tmp_path, "eigen", "--p", "1", "--q", "2")
        assert code == 0
        header, rows = csv_cells(out / "eigenpair.csv")
        assert header == ["x", "re", "im"]
        parsed = np.array(rows, dtype=float)
        # repr-formatting must preserve the nodes and the values bit for bit.
        x = solves[0][0].grid.refined().nodes()
        assert np.array_equal(parsed[:, 0], x)
        assert np.array_equal(parsed[:, 1], solves[0][0].f(x))
        assert np.all(parsed[:, 2] == 0.0)

    def test_basis_size_is_the_series_length(self, tmp_path, monkeypatch):
        solves = recording(monkeypatch, "solve_nonlinear_eigen")
        code, out = run(tmp_path, "eigen", "--p", "2", "--q", "3")
        assert code == 0
        report = json.loads((out / "eigen.json").read_text())
        assert report["basis_size"] == len(solves[0][0].f.values)

    def test_report_records_every_kept_mode(self, tmp_path):
        code, out = run(tmp_path, "eigen", "--p", "2", "--q", "3")
        assert code == 0
        report = json.loads((out / "eigen.json").read_text())
        assert report["count"] == 4
        for key in ("all_z", "all_residual", "all_basis_change"):
            assert len(report[key]) == 4, key
        assert report["all_z"][0] == report["z"]
        assert report["all_residual"][0] == report["residual"]
        assert report["all_basis_change"][0] == report["basis_change"]
        assert all(r <= 1e-10 for r in report["all_residual"])
        assert all(c <= 1e-12 for c in report["all_basis_change"])

    def test_equal_exponents_reports_empty_search(self, tmp_path):
        code, out = run(tmp_path, "eigen", "--p", "2", "--q", "2")
        assert code == 0
        report = json.loads((out / "eigen.json").read_text())
        assert report["count"] == 0
        assert "note" in report
        assert not (out / "eigenpair.csv").exists()


class TestCounterexample:
    def test_equal_exponents_reports_empty_search(self, tmp_path):
        code, out = run(tmp_path, "counterexample", "--p", "2", "--q", "2")
        assert code == 0
        report = json.loads((out / "counterexample.json").read_text())
        assert report["count"] == 0
        assert [path.name for path in out.iterdir()] == ["counterexample.json"]

    def test_full_pipeline(self, tmp_path):
        code, out = run(tmp_path, "counterexample", "--p", "2", "--q", "3")
        assert code == 0
        report = json.loads((out / "counterexample.json").read_text())
        assert report["s0_estimate"] == pytest.approx(1.499999999999999, abs=1e-6)
        assert report["abs_delta"] <= 1e-14
        assert report["probe_order"] in (0, 1)
        assert "grid" not in report
        res = report["kernel_residuals"]
        assert set(res) == {"10", "100"}
        assert res["100"] / res["10"] == pytest.approx(10.0 ** (2.0 / 3.0), rel=1e-9)
        lines = (out / "growth.csv").read_text().splitlines()
        assert lines[0] == "N,lambda,log_lhs,log_sup,s_star"
        assert len(lines) == 6

    def test_growth_csv_parses_back_to_the_ladder(self, tmp_path, monkeypatch):
        tables = recording(monkeypatch, "growth_table")
        code, out = run(tmp_path, "counterexample", "--p", "2", "--q", "3")
        assert code == 0
        header, rows = csv_cells(out / "growth.csv")
        assert header == ["N", "lambda", "log_lhs", "log_sup", "s_star"]
        parsed = [(int(n), *map(float, rest)) for n, *rest in rows]
        assert parsed == [(r.N, r.lam, r.log_lhs, r.log_sup, r.s_star) for r in tables[0]]

    def test_one_ladder_and_one_cube_per_lambda(self, tmp_path, monkeypatch):
        # growth.csv and s0 come from the same ladder, and the kernel check
        # builds a single cube per lam.
        calls = []

        def counting(name, fn):
            def wrapper(*args):
                calls.append((name, args[1] if name == "cube" else None))
                return fn(*args)
            return wrapper

        ladder = counting("ladder", gevreylab.eigen.growth_table)
        monkeypatch.setattr(gevreylab.cli, "growth_table", ladder)
        monkeypatch.setattr(gevreylab.eigen, "growth_table", ladder)
        monkeypatch.setattr(gevreylab.eigen, "build_counterexample",
                            counting("cube", gevreylab.eigen.build_counterexample))
        code, _ = run(tmp_path, "counterexample", "--p", "1", "--q", "2")
        assert code == 0
        assert calls == [("cube", 10.0), ("cube", 100.0), ("ladder", None)]

    def test_reruns_byte_identical(self, tmp_path):
        code1, out1 = run(tmp_path / "a", "counterexample", "--p", "2", "--q", "3")
        code2, out2 = run(tmp_path / "b", "counterexample", "--p", "2", "--q", "3")
        assert code1 == code2 == 0
        for name in ("counterexample.json", "growth.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name

    @pytest.mark.parametrize("command", ["counterexample", "demo"])
    @pytest.mark.parametrize("top", ["1" + "0" * 200, "1" + "0" * 400])
    def test_lambda_beyond_float_range_is_inconclusive(self, tmp_path, capfd, command, top):
        # At (1, 2) N = 10^200 gives lam = N^2 = 10^400; N = 10^400 is
        # itself past the float range, so no float of N may come first.
        code, out = run(tmp_path, command, "--n-ladder", f"100,1000,{top}")
        assert code == 2
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("inconclusive: lam = N^(q/p)")
        assert not out.exists()

    @pytest.mark.parametrize("argv", [("eigen", "--p", "1", "--q", "2"),
                                      ("counterexample", "--p", "1", "--q", "3")])
    def test_solve_reports_are_identical_across_blas_thread_counts(self, tmp_path, argv):
        # The (1, 2) and (1, 3) pencils settle at 244 and 195 functions and
        # are solved as parity blocks of at most 122, whose dense solves
        # round the same under one and two BLAS threads.
        one, two = reports_under_blas_threads(tmp_path, *argv)
        assert len(one) == 2
        assert one == two


class TestInequalities:
    def test_sweep_reports_bounded_spreads(self, tmp_path):
        code, out = run(
            tmp_path, "inequalities", "--p", "1", "--q", "2",
            "--tau-ladder", "1,100",
        )
        assert code == 0
        for name in ("apriori.csv", "weight.csv", "scaling.csv"):
            assert (out / name).exists()
        report = json.loads((out / "inequalities.json").read_text())
        assert report["apriori_spread"] < 4.0
        assert report["weight_spread"] < 2.0
        assert report["scaling_max_ratio"] <= 1.0 + 1e-9
        assert report["scaling_constants"]["1"] == 1.0
        apriori = (out / "apriori.csv").read_text().splitlines()
        assert apriori[0] == "rho,tau1,tau2,max_ratio,h2_norm,image_norm"
        # 3 envelope exponents x 2 ladder magnitudes.
        assert len(apriori) == 7

    @pytest.mark.parametrize("ladder", ["1,1e10", "1e200"])
    def test_tau_beyond_float_range_is_inconclusive(self, tmp_path, capfd, ladder):
        # 1e10 overflows the weight exp(rho |tau|^(p/q) v), 1e200 tau^2.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out = run(tmp_path, "inequalities", "--tau-ladder", ladder)
        assert code == 2
        err = capfd.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("inconclusive:")
        assert not out.exists()

    @pytest.mark.parametrize("p,q", [(2, 3), (1, 18)])
    def test_reports_are_identical_across_blas_thread_counts(self, tmp_path, p, q):
        # The weighted norms are einsum contractions, which call no BLAS,
        # and the scaling constants come from the difference oracle, whose
        # reductions are einsum too, so the reports must not depend on the
        # BLAS thread count.  (1, 18) is past the reach of the Hermite
        # solve.
        one, two = reports_under_blas_threads(tmp_path, "inequalities",
                                              "--p", str(p), "--q", str(q))
        assert set(one) == {"apriori.csv", "weight.csv", "scaling.csv", "inequalities.json"}
        assert one == two


class TestDemo:
    def test_degenerate_pair_row_is_nan(self, tmp_path):
        code, out = run(tmp_path, "demo", "--pairs", "2,2")
        assert code == 0
        lines = (out / "demo.csv").read_text().splitlines()
        assert lines[0] == "p,q,q_over_p,s0_estimate,abs_delta"
        assert lines[1] == "2,2,1.0,nan,nan"

    def test_two_pair_table(self, tmp_path):
        code, out = run(tmp_path, "demo", "--pairs", "2,3", "3,4")
        assert code == 0
        lines = (out / "demo.csv").read_text().splitlines()
        assert len(lines) == 3
        for line, target in zip(lines[1:], (1.5, 4.0 / 3.0)):
            cells = line.split(",")
            assert float(cells[2]) == pytest.approx(target, rel=1e-12)
            assert abs(float(cells[3]) - target) < 0.02
            assert float(cells[4]) <= 1e-14

    def test_help_names_what_runs(self, capsys):
        # demo solves the pencil and extrapolates the ladder; it builds
        # no kernel family.
        with pytest.raises(SystemExit) as err:
            main(["demo", "-h"])
        assert err.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "kernel family" not in text
        assert "Hermite-Galerkin pencil solve" in text and "ladder extrapolation" in text
