"""Command-line interface: subcommands, exit codes, output formats."""

import json
import math

import numpy as np
import pytest

from oppenheimlab import __version__
from oppenheimlab.cli import bundled_config_path, main
from oppenheimlab.limitlaw import StableLimitLaw, sample_many


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


class TestVerify:
    def test_all_pass(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        lines = [ln for ln in out.splitlines() if ln]
        assert len(lines) == 8
        assert all(ln.startswith("PASS") for ln in lines)
        assert any(ln.startswith("PASS cdf_table_midpoints") for ln in lines)

    def test_impossible_tolerance_fails(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--tolerance", "1e-30")
        assert code == 1
        assert "FAIL" in out


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
        for name in ("luroth-classical", "engel-weak-law",
                     "sylvester-weak-law", "cor43-beta-half", "levy-cf"):
            assert bundled_config_path(name).exists()

    def test_missing_config(self, capsys):
        code, _, err = run_cli(capsys, "run", "no-such-config")
        assert code == 2
        assert "not found" in err

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

    def test_limit_cdf_config(self, capsys, tmp_path):
        cfg = tmp_path / "law.yaml"
        cfg.write_text("experiment: limit_cdf\nc: 1.0\n"
                       "x_min: 0\nx_max: 1\npoints: 3\n")
        code, out, _ = run_cli(capsys, "run", str(cfg))
        assert code == 0
        assert out.splitlines()[0] == "x,F"

    def test_limit_cdf_config_with_results_dir(self, capsys, tmp_path):
        # --out names the results directory for every experiment; the
        # table still goes to stdout
        code, out, _ = run_cli(capsys, "run", "levy-cf", "--out",
                               str(tmp_path))
        assert code == 0
        assert out.splitlines()[0] == "x,F"
        assert len(out.splitlines()) == 201

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
        "n_grid: [1, 100]", "n_grid: [50, 200]\nepsilon: 0", "n_grid: 5"])
    def test_invalid_config_values_exit_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("experiment: weak_law\nreplications: 60\n"
                       + line + "\n")
        code, _, err = run_cli(capsys, "run", str(cfg), "--out",
                               str(tmp_path / "results"))
        assert code == 2
        assert "config error" in err

    @pytest.mark.parametrize("line", ["c: [1]", "c: 1\npoints: 0",
                                      "c: 1\npoints: -3"])
    def test_invalid_limit_cdf_config_exit_2(self, capsys, tmp_path, line):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("experiment: limit_cdf\n" + line + "\n")
        code, out, err = run_cli(capsys, "run", str(cfg))
        assert code == 2
        assert "config error" in err
        assert out == ""

    def test_bad_config_exit_2(self, capsys, tmp_path):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text("experiment: teleport\n")
        code, _, err = run_cli(capsys, "run", str(cfg))
        assert code == 2
        assert "config error" in err


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

    def test_non_finite_sample_exit_2(self, capsys, tmp_path):
        f = tmp_path / "samples.txt"
        f.write_text("0.5\nnan\n1.5\n")
        code, out, err = run_cli(capsys, "ks-test", str(f), "--c", "1.0")
        assert code == 2
        assert "finite" in err
        assert "ks=" not in out


class TestParser:
    def test_version_exits_zero(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0

    def test_no_command_usage_error(self, capsys):
        code, _, _ = run_cli(capsys)
        assert code == 2
