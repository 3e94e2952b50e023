"""Command-line interface: subcommands, exit codes, output formats."""

import json
import math
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

from oppenheimlab import __version__, cli
from oppenheimlab.cli import bundled_config_path, main
from oppenheimlab.limitlaw import StableLimitLaw, sample_many
from oppenheimlab.weights import check_theorem_3_2_conditions, iterated_scheme


# The settings each run reads, written out apart from the table in
# experiments so that a change to either shows here.  Every run reads
# n_grid, replications, master_seed and weights; only a weak law reads
# epsilon and the rho of its weights.
_SHARED = {"n_grid", "replications", "master_seed", "weights"}
READS = {
    "weak_law": _SHARED | {"scheme", "family", "epsilon", "weights.rho"},
    "classical_1_2": _SHARED | {"mode", "t_grid"},
    "cor_4_2": _SHARED | {"mode", "family", "t_grid"},
    "cor_4_3": _SHARED | {"mode", "beta", "t_grid"},
    "general_4_1": _SHARED | {"mode", "family", "t_grid"},
}
# a value away from the default of each ExperimentConfig field, and a rho,
# that every run reading it accepts
SETTING_VALUES = {
    "n_grid": [50, 100], "replications": 120, "master_seed": 7,
    "scheme": "engel", "mode": "cor_4_2",
    "family": {"kind": "mobius_clamped", "c_n": 2},
    "weights": {"kind": "power_alpha", "alpha": 0.5},
    "beta": "constant:0.5", "epsilon": 0.01, "t_grid": [1.0],
    "weights.rho": "constant:2"}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExpand:
    def test_luroth_text(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "1/3", "--kind", "luroth",
                               "--count", "4")
        assert code == 0
        assert out.split() == ["4", "2", "2", "2"]

    def test_json_format(self, capsys):
        code, out, _ = run_cli(capsys, "expand", "7/16", "--kind",
                               "continued_fraction", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["digits"] == [2, 3, 2]
        assert payload["terminated"] is True

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "digits.txt"
        code, out, _ = run_cli(capsys, "expand", "0.4", "--count", "3",
                               "--out", str(target))
        assert code == 0
        assert target.exists()

    def test_bad_number(self, capsys):
        code, _, err = run_cli(capsys, "expand", "abc")
        assert code == 2
        assert "error" in err

    def test_out_of_domain(self, capsys):
        code, _, err = run_cli(capsys, "expand", "3/2")
        assert code == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("number", ["1/3", "0.4", "7/16"])
    def test_sylvester_digit_too_long_to_print_exit_2(self, capsys, number,
                                                      fmt):
        code, out, _ = run_cli(capsys, "expand", number, "--kind",
                               "sylvester", "--count", "13")
        assert code == 0 and len(out) > 4000
        code, out, err = run_cli(capsys, "expand", number, "--kind",
                                 "sylvester", "--count", "14", "--format",
                                 fmt)
        assert code == 2 and out == ""
        assert err.startswith("error: sylvester digit 14 of count 14 ")

    def test_long_sylvester_count_exits_at_once(self, capsys):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "expand", "1/3", "--kind",
                               "sylvester", "--count", "40")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and "digit 14 of count 40" in err


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == len(cli.IDENTITY_CHECKS)
        assert all(ln.startswith("PASS") for ln in lines)
        for name in ("cdf_table_midpoints", "b_closed_form",
                     "char_closed_form", "c2_discrete_mpmath"):
            assert any(ln.startswith(f"PASS {name} ") for ln in lines)
        (ref,) = [ln for ln in lines if ln.startswith("PASS cdf_reference")]
        assert "abs_error=" in ref

    def test_failing_check_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "table_error", lambda: 1.0)
        code, out, _ = run_cli(capsys, "verify")
        assert code == 1
        lines = out.splitlines()
        assert sum(ln.startswith("FAIL") for ln in lines) == 1
        assert any(ln.startswith("FAIL cdf_table_midpoints") for ln in lines)

    def test_no_tolerance_option(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--tolerance", "1e-30")
        assert code == 2


class TestLimitCdf:
    def test_csv_output(self, capsys):
        code, out, _ = run_cli(capsys, "limit-cdf", "--c", "1.0",
                               "--x-min", "0", "--x-max", "2",
                               "--points", "5")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "x,F"
        assert len(lines) == 6
        fs = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert all(b >= a for a, b in zip(fs, fs[1:]))

    @pytest.mark.parametrize("c", [1e-4, 1e4])
    def test_extreme_scales(self, capsys, c):
        # x spans the body of the law: z = x/c - log c from -3 to 20
        code, out, _ = run_cli(capsys, "limit-cdf", "--c", repr(c),
                               "--x-min", repr(c * (math.log(c) - 3.0)),
                               "--x-max", repr(c * (math.log(c) + 20.0)))
        assert code == 0
        fs = np.array([float(ln.split(",")[1])
                       for ln in out.strip().splitlines()[1:]])
        assert fs.size == 200
        assert np.all(np.isfinite(fs))
        assert np.all(np.diff(fs) >= 0.0)
        assert fs[0] < 0.01 and fs[-1] > 0.9

    def test_levy_table(self, capsys):
        code, out, _ = run_cli(capsys, "limit-cdf", "--law", "levy")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "x,F" and len(lines) == 201
        xs, fs = np.array([ln.split(",") for ln in lines[1:]], float).T
        assert xs[0] == -5.0 and xs[-1] == 20.0
        assert np.all(np.diff(fs) >= 0.0)

    @pytest.mark.parametrize("argv, named", [
        (("--c", "5", "--delta", "2"), "drop --c and --delta"),
        (("--delta", "0"), "drop --delta")], ids=["c-and-delta", "delta"])
    def test_levy_with_c_or_delta_exit_2(self, capsys, argv, named):
        # the continued-fraction law fixes its own scale and shift
        code, out, err = run_cli(capsys, "limit-cdf", "--law", "levy", *argv)
        assert code == 2
        assert named in err
        assert out == ""

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_points_below_one_exit_2(self, capsys, points):
        code, out, err = run_cli(capsys, "limit-cdf", "--points", points)
        assert code == 2
        assert "points" in err
        assert out == ""

    @pytest.mark.parametrize("argv", [
        ("--x-min", "nan"), ("--x-max", "inf"), ("--c", "nan"),
        ("--delta=-inf",)])
    def test_non_finite_input_exit_2(self, capsys, argv):
        code, out, err = run_cli(capsys, "limit-cdf", *argv)
        assert code == 2
        assert "finite" in err
        assert out == ""


class TestRun:
    def test_bundled_configs_exist(self):
        for name in ("luroth-classical", "luroth-weak-law",
                     "engel-weak-law", "sylvester-weak-law",
                     "engel-mobius-weak-law", "cor43-beta-half"):
            assert bundled_config_path(name).exists()

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "run", "no-such-config")
        assert code == 2
        assert "not found" in err

    def test_bare_bundled_name_runs(self, capsys, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)  # no file of that name here
        code, out, _ = run_cli(capsys, "run", "luroth-weak-law", "--out",
                               str(tmp_path / "results"))
        assert code == 0
        assert out.startswith("ell,exceedance,n,")

    @pytest.mark.parametrize("config", [
        "/nonexistent/dir/luroth-weak-law.yaml", "luroth-weak-law.txt"],
        ids=["missing-path", "other-suffix"])
    def test_missing_path_is_not_a_bundled_name_exit_2(self, capsys,
                                                      monkeypatch, tmp_path,
                                                      config):
        # only a bare name falls back to the bundled configs, not a stem
        monkeypatch.chdir(tmp_path)
        code, out, err = run_cli(capsys, "run", config, "--out",
                                 str(tmp_path / "results"))
        assert code == 2
        assert err == f"error: config not found: {config}\n"
        assert out == ""

    def test_directory_config_exit_2(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "run", str(tmp_path))
        assert code == 2
        assert err.startswith("config error: ") and str(tmp_path) in err
        assert out == ""

    def test_weak_law_csv_and_cache(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(
            "experiment: weak_law\nmaster_seed: 5\n"
            "n_grid: [50, 200]\nreplications: 60\nepsilon: 0.5\n")
        code, out, _ = run_cli(capsys, "run", str(cfg), "--out",
                               str(tmp_path / "results"))
        assert code == 0
        header = out.splitlines()[0]
        assert "exceedance" in header and "t_median" in header
        # second invocation is served from the record cache
        code2, out2, _ = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code2 == 0
        assert "cached record" in out2

    def test_json_format(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.yaml"
        cfg.write_text(
            "experiment: distributional\nmaster_seed: 5\n"
            "n_grid: [100]\nreplications: 150\n")
        code, out, _ = run_cli(capsys, "run", str(cfg), "--format", "json",
                               "--out", str(tmp_path / "results"))
        assert code == 0
        payload = json.loads(out)
        assert payload["kind"] == "distributional"
        assert payload["per_n"][0]["n"] == 100

    def test_limit_cdf_experiment_exit_2(self, capsys, tmp_path):
        # CDF tables come from the limit-cdf subcommand only
        cfg = tmp_path / "law.yaml"
        cfg.write_text("experiment: limit_cdf\nlaw: levy\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2
        assert "unknown experiment 'limit_cdf'" in err and out == ""
        assert not (tmp_path / "results").exists()

    @staticmethod
    def _twins(tmp_path, settings):
        """A weak-law and a distributional config that differ only in their
        experiment, and one results directory."""
        paths = []
        for experiment in ("weak_law", "distributional"):
            path = tmp_path / f"{experiment}.yaml"
            path.write_text(f"experiment: {experiment}\n"
                            "n_grid: [100, 200]\n" + settings)
            paths.append(str(path))
        return (*paths, str(tmp_path / "results"))

    def test_cache_keeps_the_experiments_apart(self, capsys, tmp_path):
        weak, dist, results = self._twins(tmp_path, "replications: 200\n")
        assert run_cli(capsys, "run", weak, "--out", results)[0] == 0
        code, out, _ = run_cli(capsys, "run", dist, "--out", results)
        assert code == 0
        assert "cached record" not in out and "ks" in out.splitlines()[0]
        code, out, _ = run_cli(capsys, "run", weak, "--out", results)
        assert code == 0
        assert "cached record" in out and "exceedance" in out

    def test_twin_record_does_not_pass_a_weak_law_check(self, capsys,
                                                         tmp_path):
        # weak-law runs do not read t_grid
        weak, dist, results = self._twins(
            tmp_path, "replications: 200\nt_grid: [1.0]\n")
        assert run_cli(capsys, "run", dist, "--out", results)[0] == 0
        code, out, err = run_cli(capsys, "run", weak, "--out", results)
        assert code == 2 and "t_grid" in err and out == ""

    def test_twin_record_does_not_pass_a_distributional_check(self, capsys,
                                                              tmp_path):
        # distributional runs need at least 100 replications
        weak, dist, results = self._twins(tmp_path, "replications: 60\n")
        assert run_cli(capsys, "run", weak, "--out", results)[0] == 0
        code, out, err = run_cli(capsys, "run", dist, "--out", results)
        assert code == 2 and "100 replications" in err and out == ""

    def test_non_finite_ecf_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "huge-t.yaml"
        cfg.write_text("experiment: distributional\nn_grid: [100]\n"
                       "replications: 100\nt_grid: [1.0e+308]\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2 and "t_grid" in err and out == ""

    @staticmethod
    def _tiny_weak_law(tmp_path):
        cfg = tmp_path / "ok.yaml"
        cfg.write_text(
            "experiment: weak_law\nmaster_seed: 5\n"
            "n_grid: [50, 200]\nreplications: 60\nepsilon: 0.5\n")
        return cfg, tmp_path / "results"

    def test_truncated_record_is_recomputed(self, capsys, caplog, tmp_path):
        cfg, results = self._tiny_weak_law(tmp_path)
        code, first, _ = run_cli(capsys, "run", str(cfg), "--out",
                                 str(results))
        assert code == 0
        (record,) = results.iterdir()
        text = record.read_text()
        record.write_text(text[: len(text) // 2])
        code, out, _ = run_cli(capsys, "run", str(cfg), "--out",
                               str(results))
        assert code == 0
        assert "cached record" not in out
        assert out == first
        assert "unreadable record" in caplog.text
        assert json.loads(record.read_text())["per_n"]

    def test_other_configs_record_is_recomputed(self, capsys, caplog,
                                                tmp_path):
        # the seed-1 record copied to where the seed-2 record belongs
        cfg, results = self._tiny_weak_law(tmp_path)
        records, outs = [], []
        for seed in ("1", "2"):
            code, out, _ = run_cli(capsys, "run", str(cfg), "--seed", seed,
                                   "--out", str(tmp_path / seed))
            assert code == 0
            records += (tmp_path / seed).iterdir()
            outs.append(out)
        results.mkdir()
        (results / records[1].name).write_text(records[0].read_text())
        code, out, _ = run_cli(capsys, "run", str(cfg), "--seed", "2",
                               "--out", str(results))
        assert code == 0
        assert "cached record" not in out and out == outs[1]
        assert "unreadable record" in caplog.text

    def test_record_with_a_short_row_is_recomputed(self, capsys, caplog,
                                                   tmp_path):
        # printed as a header and one row before failing on the second
        cfg, results = self._tiny_weak_law(tmp_path)
        code, first, _ = run_cli(capsys, "run", str(cfg), "--out",
                                 str(results))
        assert code == 0
        (record,) = results.iterdir()
        doc = json.loads(record.read_text())
        doc["per_n"][1] = {"n": 200}
        record.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "run", str(cfg), "--out",
                               str(results))
        assert code == 0
        assert "cached record" not in out and out == first
        assert "unreadable record" in caplog.text

    def test_force_reads_no_record(self, capsys, monkeypatch, tmp_path):
        cfg, results = self._tiny_weak_law(tmp_path)
        monkeypatch.setattr(cli, "load_record", None)  # not called
        code, out, _ = run_cli(capsys, "run", str(cfg), "--out",
                               str(results), "--force")
        assert code == 0 and "exceedance" in out

    def test_results_dir_under_a_file_exit_2(self, capsys, tmp_path):
        # found only when the record is saved, after the run
        cfg, results = self._tiny_weak_law(tmp_path)
        results.write_text("not a directory\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(results / "sub"))
        assert code == 2 and out == ""
        assert f"cannot write --out {results / 'sub'}" in err

    def test_other_version_record_not_served(self, capsys, tmp_path):
        cfg, results = self._tiny_weak_law(tmp_path)
        code, first, _ = run_cli(capsys, "run", str(cfg), "--out",
                                 str(results))
        assert code == 0
        (record,) = results.iterdir()
        doc = json.loads(record.read_text())
        doc["version"] = "0.1.0"
        doc["per_n"][0]["exceedance"] = -1.0  # what old code "computed"
        record.write_text(json.dumps(doc))
        code, out, _ = run_cli(capsys, "run", str(cfg), "--out",
                               str(results))
        assert code == 0
        assert "cached record" not in out
        assert out == first
        assert json.loads(record.read_text())["version"] == __version__

    @pytest.mark.parametrize("line", [
        "n_grid: [1, 100]", "n_grid: []", "n_grid: [50, 200]\nepsilon: 0", "n_grid: 5",
        "n_grid: [50, 200]\nweights: {kind: power_alpha}",
        "n_grid: [50, 200]\nweights: {kind: power_alpha, alpha: abc}",
        "n_grid: [50, 200]\nweights: {kind: nope}",
        "n_grid: [50, 200]\nweights: cesaro",
        "n_grid: [50, 200]\nweights: {kind: cesaro, rho: 'constant:0'}",
        "n_grid: [50, 200]\nweights: {kind: cesaro, rho: -1}",
        "n_grid: [50, 200]\nweights: {kind: cesaro, rho: [1, .inf]}",
        "n_grid: [50, 200]\nweights: {kind: cesaro, rho: true}",
        "n_grid: [50, 200]\nweights: {kind: power_alpha, alpha: .nan}",
        "n_grid: [50, 200]\nfamily: {kind: mobius_clamped, c_n: -1}",
        "n_grid: [50, 200]\nfamily: {kind: mobius_clamped, c_n: 0.4}",
        "n_grid: [50, 200]\nscheme: engel\n"
        "family: {kind: mobius_clamped, c_n: 0.4}",
        "n_grid: [50, 200]\nfamily: {kind: mobius_clamped, c_n: [1, 0.4]}",
        "n_grid: [50, 200]\nfamily: {kind: mobius_clamped, c_n: [[1, 2]]}",
        "n_grid: [50, 200]\nfamily: {kind: mobius_remark2, c_n: .nan}",
        "n_grid: [50, 200]\nfamily: {kind: mobius_remark2, c_n: 'nan'}",
        "n_grid: [50, 200]\nfamily: {kind: mobius_clamped, c_n: 1e400}",
        "n_grid: [50, 200]\nfamily: {kind: discrete_beta, beta_n: 1.5}",
        "n_grid: [50, 200]\nfamily: uniform",
        "n_grid: [50, 200]\nfamily: {kind: mobius_remark2, c_n: 'constant:a'}",
        "n_grid: [50, 200]\nmode: cor_4_3\nbeta: 'constant:x'",
        "n_grid: [50, 200]\nt_grid: []",
        "n_grid: [50, 200]\nt_grid: [.nan]",
        "n_grid: [50, 200]\nt_grid: [.inf]",
        "n_grid: [50, 200]\nt_grid: '12'",
        "n_grid: [50, 200]\nt_grid: 1.0",
        "n_grid: [50, 200]\nt_grid: [true]",
        "n_grid: [50, 200]\nepsilon: true",
        "n_grid: 100",
        "n_grid: [50, 200]\nmaster_seed: -1",
        "n_grid: [50, 200]\nmaster_seed: 1.5",
        "n_grid: [50, 200]\nmaster_seed: true",
        "n_grid: [50.9, 200]",
        "n_grid: [50, 200]\nreplications: 60.7",
        "n_grid: [50, 200]\nepsilson: 0.01",
        "replications: 60"])
    def test_invalid_config_values_exit_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("experiment: weak_law\nreplications: 60\n"
                       + line + "\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2
        assert "config error" in err and out == ""
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("lines, rule", [
        ("experiment: weak_law\nfamily: {kind: mobius_clamped, "
         "c_n: 'linear:0.25'}", "mobius_clamped needs finite c_n >= 1/2"),
        ("experiment: weak_law\nweights: {kind: cesaro, rho: 'linear:-1'}",
         "rho_n must be finite and > 0"),
        ("experiment: distributional\nmode: cor_4_3\nbeta: 'linear:0.01'",
         "discrete_beta needs 0 <= beta_n < 1"),
        # the weight conditions are checked on a grid of at least two
        # points from n = 10 on; a one-point profile shows no trend
        ("experiment: weak_law\nn_grid: [5]",
         "the largest n_grid entry, 5, must be >= 11"),
        ("experiment: weak_law\nn_grid: [10]",
         "the largest n_grid entry, 10, must be >= 11"),
        ("experiment: distributional\nn_grid: [10]",
         "the largest n_grid entry, 10, must be >= 11"),
        # a list setting is a list, and its entries numbers, as written
        ("experiment: distributional\nt_grid: '12'",
         "t_grid must be a list, got '12'"),
        ("experiment: distributional\nt_grid: 1.0",
         "t_grid must be a list, got 1.0"),
        ("experiment: distributional\nt_grid: [true]",
         "t_grid must be a nonempty list of finite numbers, got [True]"),
        ("experiment: distributional\nepsilon: true",
         "epsilon must be a number > 0, got True"),
        ("experiment: distributional\nn_grid: 100",
         "n_grid must be a list, got 100")])
    def test_member_outside_domain_exit_2(self, capsys, tmp_path, lines,
                                          rule):
        # a linear tag is checked as its members are read: members 1 and
        # 100 here, before any draw; so is the grid's reach
        cfg = tmp_path / "bad.yaml"
        grid = "" if "n_grid" in lines else "n_grid: [50, 200]\n"
        cfg.write_text(f"{lines}\n{grid}replications: 100\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2
        assert rule in err
        assert out == "" and "nan" not in err
        assert not (tmp_path / "results").exists()

    def test_condition_failure_names_its_verdicts(self, capsys, tmp_path):
        # Cesaro's max weight 1/n has not halved by n = 20: no decay shows,
        # and none is refuted either, so the grid is too short to decide
        cfg = tmp_path / "short.yaml"
        cfg.write_text("experiment: distributional\nn_grid: [20]\n"
                       "replications: 100\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2 and out == ""
        assert "n_grid up to 20 is too short to decide" in err
        assert "conditions: max_weight_to_zero (inconclusive)" in err

    def test_iterated_weights_from_config(self, capsys, tmp_path):
        cfg, results = self._tiny_weak_law(tmp_path)
        cfg.write_text(cfg.read_text()
                       + "weights: {kind: iterated, alpha: 0.5, r: 2}\n")
        code, out, _ = run_cli(capsys, "run", str(cfg), "--out",
                               str(results), "--format", "json")
        assert code == 0
        per_n = json.loads(out)["per_n"]
        assert [row["n"] for row in per_n] == [50, 200]
        # the uniform family's alphas are all 1
        ell = check_theorem_3_2_conditions(iterated_scheme(0.5, 2),
                                           np.ones(200), 200).ell
        assert ell < 0.95  # Cesaro's ell is 1
        assert all(row["ell"] == ell for row in per_n)

    @pytest.mark.parametrize("r, rule", [
        ("1.5", "r must be an integer, got 1.5"),
        ("true", "r must be an integer, got True"),
        ("-1", "r must be >= 0")], ids=["1.5", "true", "-1"])
    def test_iterated_weights_need_integer_r_exit_2(self, capsys, tmp_path,
                                                    r, rule):
        cfg, results = self._tiny_weak_law(tmp_path)
        cfg.write_text(cfg.read_text()
                       + f"weights: {{kind: iterated, alpha: 0.5, r: {r}}}\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(results))
        assert code == 2
        assert rule in err and out == ""
        assert not results.exists()

    def test_list_rho_is_a_per_n_table(self, capsys, tmp_path):
        cfg, results = self._tiny_weak_law(tmp_path)
        code, plain, _ = run_cli(capsys, "run", str(cfg), "--out",
                                 str(results))
        assert code == 0
        cfg.write_text(cfg.read_text()
                       + "weights: {kind: cesaro, rho: [1.0, 1.0]}\n")
        code, listed, _ = run_cli(capsys, "run", str(cfg), "--out",
                                  str(results))
        assert code == 0
        assert listed == plain

    def test_exponent_number_is_a_number(self, capsys, tmp_path):
        # YAML 1.1 loads 2e0 as a string, 2.0 as a float
        outs = []
        for c_n in ("2.0", "2e0"):
            cfg = tmp_path / f"c{c_n}.yaml"
            cfg.write_text("experiment: weak_law\nn_grid: [50, 200]\n"
                           "replications: 60\nscheme: engel\n"
                           f"family: {{kind: mobius_clamped, c_n: {c_n}}}\n")
            code, out, _ = run_cli(capsys, "run", str(cfg), "--format",
                                   "json", "--out", str(tmp_path / "res"))
            assert code == 0
            outs.append(json.loads(out)["per_n"])
        assert outs[0] == outs[1]

    def test_exponent_alpha_is_a_number(self, capsys, tmp_path):
        # alpha: 5e-1 exited 2 ("'<' not supported between ... 'str'")
        outs = []
        for alpha in ("0.5", "5e-1"):
            cfg = tmp_path / f"a{alpha}.yaml"
            cfg.write_text("experiment: weak_law\nn_grid: [50, 200]\n"
                           "replications: 60\n"
                           f"weights: {{kind: power_alpha, alpha: {alpha}}}\n")
            code, out, _ = run_cli(capsys, "run", str(cfg), "--format",
                                   "json", "--out", str(tmp_path / "res"))
            assert code == 0
            outs.append(json.loads(out)["per_n"])
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("alpha", ["abc", "true", "[0.5]"])
    def test_non_numeric_alpha_exit_2(self, capsys, tmp_path, alpha):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("experiment: weak_law\nn_grid: [50, 200]\n"
                       "replications: 60\n"
                       f"weights: {{kind: power_alpha, alpha: {alpha}}}\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2 and out == ""
        assert "config error" in err and "finite alpha < 1, got" in err

    def test_large_remark2_scale_runs(self, capsys, tmp_path):
        # its centering used to miss the b quadrature's tolerance (exit 1)
        cfg = tmp_path / "remark2.yaml"
        cfg.write_text("experiment: distributional\nmode: cor_4_2\n"
                       "family: {kind: mobius_remark2, c_n: 1000}\n"
                       "n_grid: [100]\nreplications: 100\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 0, err
        assert "ks" in out

    def test_negative_seed_option_exit_2(self, capsys, tmp_path):
        cfg, results = self._tiny_weak_law(tmp_path)
        code, out, err = run_cli(capsys, "run", str(cfg), "--seed", "-1",
                                 "--out", str(results))
        assert code == 2
        assert "master_seed" in err and out == ""

    def test_distributional_scheme_exit_2(self, capsys, tmp_path):
        # a distributional run sums family reciprocals, so a chain scheme
        # would be ignored
        cfg = tmp_path / "chain.yaml"
        cfg.write_text("experiment: distributional\nscheme: engel\n"
                       "n_grid: [100]\nreplications: 150\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2
        assert "scheme" in err and out == ""

    @pytest.mark.parametrize("experiment, lines, setting", [
        ("weak_law", "mode: cor_4_2", "mode"),
        ("weak_law", "mode: cor_4_3\nbeta: 'constant:0.5'", "beta"),
        ("weak_law", "beta: 'constant:0.5'", "beta"),
        ("weak_law", "t_grid: [1.0]", "t_grid"),
        ("distributional", "family: {kind: mobius_clamped}", "family"),
        ("distributional", "mode: cor_4_3\nfamily: {kind: mobius_clamped}",
         "family"),
        ("distributional", "mode: cor_4_2\nbeta: 'constant:0.5'", "beta"),
        ("distributional", "weights: {kind: cesaro, rho: 'linear:-1'}",
         "weights.rho")])
    def test_unread_setting_exit_2(self, capsys, tmp_path, experiment, lines,
                                   setting):
        # the run would ignore the setting and answer for its default
        cfg = tmp_path / "unread.yaml"
        cfg.write_text(f"experiment: {experiment}\nn_grid: [100]\n"
                       f"replications: 150\n{lines}\n")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2
        assert f"{setting}=" in err and out == ""
        if setting == "beta":
            run = experiment if experiment == "weak_law" else "cor_4_2"
            assert f"unread by {run} runs: " in err
        assert not (tmp_path / "results").exists()

    @pytest.mark.parametrize("run, setting", [
        (run, setting) for run in READS for setting in SETTING_VALUES
        # a distributional run's mode is the run itself
        if run == "weak_law" or setting != "mode"])
    def test_each_run_reads_only_its_settings(self, capsys, tmp_path, run,
                                              setting):
        # every ExperimentConfig field and weights.rho, one at a time away
        # from its default: a run rejects each that it would ignore
        doc = {"experiment": "weak_law", "n_grid": [100],
               "replications": 150, "weights": {"kind": "cesaro"}}
        if run != "weak_law":
            doc.update(experiment="distributional", mode=run)
        if setting == "weights.rho":
            doc["weights"] = {"kind": "cesaro",
                              "rho": SETTING_VALUES[setting]}
        else:
            doc[setting] = SETTING_VALUES[setting]
        cfg = tmp_path / "one.yaml"
        cfg.write_text(yaml.safe_dump(doc))
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        if setting in READS[run]:
            assert (code, err) == (0, "")
        else:
            assert code == 2
            assert "unread by " in err and f" {setting}=" in err
            assert out == "" and not (tmp_path / "results").exists()

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("experiment: teleport\n")
        code, _, err = run_cli(capsys, "run", str(cfg))
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("text", [
        "experiment: [weak_law\n", "experiment: weak_law\n\tn_grid: [50]\n",
        "experiment: weak_law\nn_grid: [50, 200\nreplications: 60\n",
        "experiment: 'weak_law\n", "- a\nb: c\n"])
    def test_malformed_yaml_exit_2(self, capsys, tmp_path, text):
        cfg = tmp_path / "broken.yaml"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
        assert code == 2
        assert "config error" in err and out == ""
        assert not (tmp_path / "results").exists()

    def test_configs_parse_as_safe_load(self):
        # the loader run uses builds the same documents as yaml.safe_load
        configs = sorted(bundled_config_path("x").parent.glob("*.yaml"))
        assert configs
        for path in configs:
            text = path.read_text()
            assert yaml.load(text, Loader=cli._YAML_LOADER) == \
                yaml.safe_load(text)

    def test_run_path_loads_no_scipy(self, tmp_path):
        # in a fresh interpreter, because pytest's filterwarnings setting
        # imports scipy.integrate into this one
        weak = "experiment: weak_law\nn_grid: [100]\nreplications: 20\n"
        configs = {"direct.yaml": weak, "engel.yaml": weak + "scheme: engel\n",
                   "betas.yaml": "experiment: distributional\nmode: cor_4_3\n"
                                 "n_grid: [100]\nreplications: 150\n"
                                 "beta: [0.5, 0.25, 0.1]\n"}
        for name, text in configs.items():
            (tmp_path / name).write_text(text)
        samples = tmp_path / "samples.txt"
        np.savetxt(samples, sample_many(StableLimitLaw(1.0),
                                        np.random.default_rng(0), 200))
        out = str(tmp_path / "results")
        targets = [str(tmp_path / name) for name in configs]
        runs = [["run", target, "--force", "--out", out]
                for target in (*targets, "luroth-classical",
                               "cor43-beta-half")]
        runs += [["limit-cdf", "--points", "5"],
                 ["limit-cdf", "--law", "levy", "--points", "5"],
                 ["ks-test", str(samples)],
                 ["expand", "7/16", "--kind", "engel"]]
        src = str(Path(cli.__file__).resolve().parents[1])
        script = f"""
import sys
sys.path.insert(0, {src!r})

def scipy_modules():
    return [m for m in sys.modules if m == "scipy" or m.startswith("scipy.")]

from oppenheimlab import cli
assert not scipy_modules(), ("import", scipy_modules())
for argv in {runs!r}:
    assert cli.main(argv) == 0, argv
    assert not scipy_modules(), (argv, scipy_modules())
assert cli.main(["verify"]) == 0
assert "scipy.integrate" in sys.modules, "verify ran no quadrature"
"""
        done = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr


class TestKsTest:
    def test_pass_and_fail(self, capsys, tmp_path):
        law = StableLimitLaw(1.0)
        xs = sample_many(law, np.random.default_rng(0), 20_000)
        f = tmp_path / "samples.txt"
        np.savetxt(f, xs)
        code, out, _ = run_cli(capsys, "ks-test", str(f), "--c", "1.0",
                               "--tolerance", "0.05")
        assert code == 0
        assert out.startswith("ks=")
        code2, _, _ = run_cli(capsys, "ks-test", str(f), "--c", "1.0",
                              "--tolerance", "0.0001")
        assert code2 == 1

    @pytest.mark.parametrize(
        "text", [None, "0.5\nabc\n", "0.1 0.2\n0.3\n", "0.1 0.2\n0.3 0.4\n"],
        ids=["missing", "non-numeric", "ragged", "two-columns"])
    def test_unreadable_samples_exit_2(self, capsys, tmp_path, text):
        f = tmp_path / "samples.txt"
        if text is not None:
            f.write_text(text)
        code, out, err = run_cli(capsys, "ks-test", str(f), "--c", "1.0")
        assert code == 2
        assert "unreadable samples file" in err
        assert out == ""

    @pytest.mark.parametrize("text", ["", "# header only\n\n"],
                             ids=["empty", "comments"])
    def test_empty_samples_exit_2(self, capsys, tmp_path, text):
        # one error line; numpy's "input contained no data" warning would
        # turn into an exit-1 failure here
        f = tmp_path / "samples.txt"
        f.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "ks-test", str(f))
        assert code == 2
        assert err == "error: samples must be nonempty\n"
        assert out == ""

    def test_non_finite_sample_exit_2(self, capsys, tmp_path):
        f = tmp_path / "samples.txt"
        f.write_text("0.5\nnan\n1.5\n")
        code, out, err = run_cli(capsys, "ks-test", str(f), "--c", "1.0")
        assert code == 2
        assert "finite" in err
        assert "ks=" not in out

    def test_levy_with_c_exit_2(self, capsys, tmp_path):
        f = tmp_path / "samples.txt"
        f.write_text("0.5\n1.5\n")
        code, out, err = run_cli(capsys, "ks-test", str(f), "--law", "levy",
                                 "--c", "3")
        assert code == 2
        assert "drop --c" in err
        assert out == ""

    @pytest.mark.parametrize("tolerance", ["nan", "-1"])
    def test_bad_tolerance_exit_2(self, capsys, tmp_path, tolerance):
        f = tmp_path / "samples.txt"
        f.write_text("0.5\n1.5\n")
        code, out, err = run_cli(capsys, "ks-test", str(f), "--c", "1.0",
                                 "--tolerance", tolerance)
        assert code == 2
        assert "--tolerance" in err
        assert out == ""


@pytest.mark.parametrize("command, option, value", [
    ("limit-cdf", "--x-min", "-1e3"), ("limit-cdf", "--x-max", "-5E-1"),
    ("limit-cdf", "--delta", "-1e-05"), ("limit-cdf", "--c", "-1e3"),
    ("ks-test", "--delta", "-1e-05"), ("ks-test", "--c", "-5e-1")])
def test_negative_number_with_an_exponent_is_a_value(capsys, tmp_path,
                                                     command, option, value):
    # argparse's own negative-number pattern has no exponent, so it took
    # "-1e-05", the repr of -0.00001, for an option; a spaced value must
    # read as the --option=value form does
    samples = tmp_path / "samples.txt"
    samples.write_text("-0.5\n1.5\n")
    head = ([command, str(samples)] if command == "ks-test"
            else [command, "--points", "3"])
    spaced = run_cli(capsys, *head, option, value)
    assert spaced == run_cli(capsys, *head, f"{option}={value}")
    assert spaced[0] == (2 if option == "--c" else 0)
    assert "expected one argument" not in spaced[2]


@pytest.mark.parametrize("argv, out", [
    (("expand", "1/3"), "missing/x.txt"),
    (("limit-cdf",), "missing/x.csv"),
    (("run", "{config}"), "a-file")], ids=["expand", "limit-cdf", "run"])
def test_unwritable_out_exit_2(capsys, monkeypatch, tmp_path, argv, out):
    # run rejects a file as its results directory before it computes
    monkeypatch.setattr(cli, "exact_weak_law_run", None)
    config = tmp_path / "tiny.yaml"
    config.write_text("experiment: weak_law\nn_grid: [50, 200]\n"
                      "replications: 60\n")
    (tmp_path / "a-file").write_text("not a directory\n")
    out = tmp_path / out
    code, stdout, err = run_cli(capsys, *(arg.format(config=config)
                                          for arg in argv), "--out", str(out))
    assert code == 2 and stdout == ""
    assert "error: " in err and f"--out {out}" in err


@pytest.mark.parametrize("argv, target", [
    (("run", "{config}", "--force"), "exact_weak_law_run"),
    (("limit-cdf",), "cdf_many")],
    ids=["run", "limit-cdf"])
def test_allocation_failure_exit_2(capsys, monkeypatch, tmp_path, argv,
                                   target):
    # a stand-in for numpy's MemoryError: a real allocation that large could
    # succeed on a machine that overcommits memory, and then be killed
    message = ("Unable to allocate 74.5 GiB for an array with shape "
               "(10000000000,) and data type float64")

    def fail(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(cli, target, fail)
    config = tmp_path / "tiny.yaml"
    config.write_text("experiment: weak_law\nn_grid: [50, 200]\n"
                      "replications: 60\n")
    code, out, err = run_cli(capsys, *(arg.format(config=config)
                                       for arg in argv), "--out",
                             str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("lines, field", [
    ("n_grid: [50, 200]\nreplications: 4611686018427387904", "replications"),
    ("n_grid: [50, 4611686018427387904]\nreplications: 60",
     "the largest n_grid entry")], ids=["replications", "n_grid"])
def test_array_beyond_numpy_index_range_exit_2(capsys, tmp_path, lines,
                                               field):
    # 2**62 doubles pass numpy's index range, where it raises ValueError
    # ("array is too big"), not MemoryError; the config rejects the size
    cfg = tmp_path / "huge.yaml"
    cfg.write_text(f"experiment: weak_law\n{lines}\n")
    code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                             str(tmp_path / "results"))
    assert code == 2 and out == ""
    assert f"{field}, 4611686018427387904, is too large" in err



def test_profile_beyond_float_range_exit_2(capsys, tmp_path):
    # alpha_k = 1e300 and a = 1/n give finite x log x terms, but their sum
    # over rho_n log n = 1e-12 log n is beyond the float range: the profile
    # was -inf, and the check failed with exit 1
    cfg = tmp_path / "huge.yaml"
    cfg.write_text("experiment: weak_law\n"
                   "family: {kind: mobius_clamped, c_n: 1.0e+300}\n"
                   "weights: {kind: cesaro, rho: 1.0e-12}\n"
                   "n_grid: [100, 1000]\nreplications: 20\n")
    code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                             str(tmp_path / "results"))
    assert code == 2 and out == ""
    assert err == ("error: the limit_ell measure at n = 10 is not finite in "
                   "float (-inf)\n")
    assert not (tmp_path / "results").exists()


def test_measure_overflow_exit_2_without_warning(capsys, tmp_path):
    # at c_n = 1e308 the x log x terms of the limit_ell measure overflow;
    # stderr holds the DomainError's line and no numpy RuntimeWarning
    cfg = tmp_path / "huge.yaml"
    cfg.write_text("experiment: weak_law\n"
                   "family: {kind: mobius_clamped, c_n: 1.0e+308}\n"
                   "n_grid: [100, 1000]\nreplications: 20\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "run", str(cfg), "--out",
                                 str(tmp_path / "results"))
    assert code == 2 and out == ""
    assert err == ("error: the limit_ell measure at n = 10 is not finite in "
                   "float (-inf)\n")
    assert not (tmp_path / "results").exists()

class TestParser:
    def test_version_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0

    def test_no_command_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2
