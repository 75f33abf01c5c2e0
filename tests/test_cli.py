"""End-to-end CLI runs: exit codes, config layering, report determinism."""

import importlib.util
import json
import re
import shlex
import sys
import warnings
from pathlib import Path

import pytest

from gevreylab import OperatorParams, default_grid
from gevreylab.cli import _PIPELINES, build_parser, config_from_args, main

ROOT = Path(__file__).resolve().parents[1]


def run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)])
    return code, out


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

    def test_missing_config_file_returns_64(self, tmp_path):
        code, _ = run(tmp_path, "transform", "--config", str(tmp_path / "nope.cfg"))
        assert code == 64

    def test_unknown_config_key_returns_64(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("wibble=3\n")
        code, _ = run(tmp_path, "transform", "--config", str(cfg))
        assert code == 64

    @pytest.mark.parametrize("command", ["transform", "classify"])
    def test_unresolvable_frequency_ladder_returns_64(self, tmp_path, command):
        code, _ = run(tmp_path, command, "--freq-ladder", "1e6,2e6")
        assert code == 64

    def test_malformed_config_line_returns_64(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order 2\n")
        code, _ = run(tmp_path, "transform", "--config", str(cfg))
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
        ],
    )
    def test_flag_the_pipeline_does_not_read_exits_64(self, argv):
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("eigen", "--p", "2", "--q", "3", "--grid-h", "500"),
            ("eigen", "--p", "1", "--q", "2", "--grid-h", "10"),
            ("counterexample", "--grid-x", "0.01"),
        ],
    )
    def test_grid_the_spec_rejects_returns_64(self, tmp_path, capsys, argv):
        code, out = run(tmp_path, *argv)
        assert code == 64
        assert "grid too small" in capsys.readouterr().err
        assert list(out.glob("*")) == []  # no report written

    @pytest.mark.parametrize(
        "argv, message",
        [
            (("transform", "--freq-ladder", "a,b"), "expected comma-separated numbers"),
            (("demo", "--n-ladder", "10,x"), "expected comma-separated integers"),
            (("demo", "--pairs", "1,2,3"), "expected a pair like 1,2"),
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

    def test_config_key_the_pipeline_does_not_read_returns_64(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p=3\n")
        code, out = run(tmp_path, "transform", "--config", str(cfg))
        assert code == 64
        assert "does not read config key 'p'" in capsys.readouterr().err
        assert not out.exists()

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
        ],
    )
    def test_invalid_ladder_returns_64(self, tmp_path, argv):
        code, out = run(tmp_path, *argv)
        assert code == 64
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ("eigen", "--p", "1", "--q", "2", "--grid-x", "inf"),
            ("eigen", "--p", "1", "--q", "2", "--grid-h", "nan"),
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
            ("eigen", "--p", "2", "--q", "3", "--grid-h", "500"),
            ("transform", "--freq-ladder", "1e6"),
        ],
    )
    def test_usage_error_in_the_pipeline_leaves_no_directory(self, tmp_path, argv):
        nested = tmp_path / "a" / "b"
        assert main([*argv, "--out", str(nested)]) == 64
        assert not (tmp_path / "a").exists()
        # A directory that existed before the run stays.
        nested.mkdir(parents=True)
        assert main([*argv, "--out", str(nested)]) == 64
        assert nested.is_dir()


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


class TestConfigLayering:
    def test_file_values_apply(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment line\norder=3\ngamma=1.0\n")
        code, out = run(tmp_path, "transform", "--config", str(cfg))
        assert code == 0
        report = json.loads((out / "transform.json").read_text())
        assert report["order"] == 3.0
        assert report["gamma"] == 1.0

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("order=3\ngamma=1.0\n")
        code, out = run(
            tmp_path, "transform", "--config", str(cfg), "--order", "2"
        )
        assert code == 0
        report = json.loads((out / "transform.json").read_text())
        assert report["order"] == 2.0
        assert report["gamma"] == 1.0


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

    def test_gamma_flag_honored(self, tmp_path):
        code, out = run(tmp_path, "transform", "--gamma", "1.0")
        assert code == 0
        report = json.loads((out / "transform.json").read_text())
        assert report["gamma"] == 1.0
        assert report["fit"]["r"] == pytest.approx(0.4736, abs=2e-3)

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
        args = ("eigen", "--p", "1", "--q", "2", "--grid-x", "12", "--grid-h", "0.004")
        code1, out1 = run(tmp_path / "a", *args)
        code2, out2 = run(tmp_path / "b", *args)
        assert code1 == code2 == 0
        report = json.loads((out1 / "eigen.json").read_text())
        assert abs(report["z"] - 1.0) < 1e-3
        assert report["count"] >= 1
        assert (out1 / "eigenpair.csv").read_bytes() == (
            out2 / "eigenpair.csv"
        ).read_bytes()
        assert (out1 / "eigen.json").read_bytes() == (out2 / "eigen.json").read_bytes()

    def test_report_records_the_solved_grid(self, tmp_path):
        code, out = run(tmp_path, "eigen", "--p", "1", "--q", "2",
                        "--grid-x", "7", "--grid-h", "0.003")
        assert code == 0
        report = json.loads((out / "eigen.json").read_text())
        # 2 * round(7 / 0.0015) nodes on the fine grid.
        assert report["grid"] == {"half_width": 7.0, "spacing": 0.003, "fine_nodes": 9334}

    def test_equal_exponents_reports_empty_search(self, tmp_path):
        code, out = run(tmp_path, "eigen", "--p", "2", "--q", "2")
        assert code == 0
        report = json.loads((out / "eigen.json").read_text())
        assert report["count"] == 0
        assert "note" in report
        assert not (out / "eigenpair.csv").exists()

    def test_empty_search_below_threshold_is_inconclusive(self, tmp_path, capsys):
        code, out = run(tmp_path, "eigen", "--p", "1", "--q", "2",
                        "--grid-x", "1000", "--grid-h", "10")
        assert code == 2
        assert "8 by drift" in capsys.readouterr().err
        assert not (out / "eigen.json").exists()


class TestCounterexample:
    def test_full_pipeline(self, tmp_path):
        code, out = run(tmp_path, "counterexample", "--p", "2", "--q", "3")
        assert code == 0
        report = json.loads((out / "counterexample.json").read_text())
        assert report["s0_estimate"] == pytest.approx(1.502124695749911, abs=1e-6)
        assert report["abs_delta"] < 0.02
        assert report["probe_order"] in (0, 1)
        grid = default_grid(OperatorParams(2, 3))
        assert report["grid"] == {"half_width": grid.half_width, "spacing": grid.spacing,
                                  "fine_nodes": grid.refined().size}
        res = report["kernel_residuals"]
        assert set(res) == {"10", "100"}
        assert res["100"] / res["10"] == pytest.approx(10.0 ** (2.0 / 3.0), rel=1e-9)
        lines = (out / "growth.csv").read_text().splitlines()
        assert lines[0] == "N,lambda,log_lhs,log_sup,s_star"
        assert len(lines) == 6

    def test_empty_search_below_threshold_is_inconclusive(self, tmp_path, capsys):
        code, out = run(tmp_path, "counterexample", "--p", "1", "--q", "2", "--grid-x", "3")
        assert code == 2
        assert "by drift" in capsys.readouterr().err
        assert not (out / "counterexample.json").exists()


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
