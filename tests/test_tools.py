"""The repository's tools run from a checkout and print what they promise."""

import ast
import importlib.util
import math
import re
import shutil
import subprocess
import sys
import tomllib
from pathlib import Path

import numpy as np
import pytest

from oppenheimlab import limitlaw

ROOT = Path(__file__).resolve().parents[1]


def test_payload_digests_prints_one_line_per_payload():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "payload_digests.py"),
         "engel-weak-law"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S.*", line) for line in lines)
    assert [line[66:] for line in lines] == [
        "run engel-weak-law per_n", "limit-cdf --law levy", "verify",
        "expand --count 12", "ks", "cdf table"]


def test_cdf_table_tool_rewrites_the_committed_file(tmp_path):
    # a copy of the tools and the sources, without the table file: the tool
    # writes it back byte for byte, with a certificate within tolerance
    for name in ("tools", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    table = Path("src") / "oppenheimlab" / "cdf_table.json"
    (tmp_path / table).unlink()
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "make_cdf_table.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    worst = re.search(r"worst companion-rule estimate (\S+)", proc.stdout)
    assert worst and float(worst.group(1)) <= 1e-11
    assert "worst |closed form - direct route| 0 at 200 points" in proc.stdout
    slope = re.search(r"slopes: smallest (\S+) of 559 intervals", proc.stdout)
    assert slope and float(slope.group(1)) > 0.0
    assert (tmp_path / table).read_bytes() == (ROOT / table).read_bytes()


def test_cdf_table_tool_refuses_an_inexact_tail(tmp_path):
    # with the last node moved down to 1e3, the two-term tail is no longer
    # exact in float above it, so the tool writes no table
    for name in ("tools", "src"):
        shutil.copytree(ROOT / name, tmp_path / name,
                        ignore=shutil.ignore_patterns("__pycache__"))
    module = tmp_path / "src" / "oppenheimlab" / "limitlaw.py"
    text = module.read_text()
    assert "np.geomspace(2.0, 1e10, 361)" in text
    module.write_text(text.replace("np.geomspace(2.0, 1e10, 361)",
                                   "np.geomspace(2.0, 1e3, 361)"))
    table = tmp_path / "src" / "oppenheimlab" / "cdf_table.json"
    table.unlink()
    proc = subprocess.run(
        [sys.executable, str(tmp_path / "tools" / "make_cdf_table.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1
    gap = re.search(r"worst \|closed form - direct route\| (\S+)",
                    proc.stdout)
    assert gap and float(gap.group(1)) > 0.0
    assert "not written" in proc.stderr
    assert not table.exists()


def _load_tool(name):
    """tools/<name>.py as a module, loaded by path; nothing is run."""
    spec = importlib.util.spec_from_file_location(
        name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_committed_table_increases_on_every_interval():
    # the KS pass bounds a block's gaps by F at its ends, which needs F,
    # and so the logit spline, to increase: every cubic's smallest slope
    # on its interval, in closed form, is positive, and no slope sampled
    # at 1,001 points of an interval is below it
    knots, coef = limitlaw._table().args
    low = _load_tool("make_cdf_table").slope_minima(knots, coef)
    assert low.shape == (559,) and np.all(low > 0.0)
    h = np.linspace(0.0, 1.0, 1001)[:, None] * np.diff(knots)
    sampled = ((3.0 * coef[0] * h + 2.0 * coef[1]) * h + coef[2]).min(axis=0)
    assert np.all(sampled >= low * (1.0 - 1e-12))
    # and the closed form finds the minimum the samples come near
    step = np.diff(knots) / 1000.0
    assert np.all(sampled - low <= 3.0 * np.abs(coef[0]) * step**2
                  + 1e-12 * np.abs(low))


def test_slope_minima_finds_an_inner_minimum():
    # h^3 - 3 h^2 + 3.5 h on [0, 2] has slope 3 h^2 - 6 h + 3.5, whose
    # minimum 0.5 lies at h = 1; -h^2 + h on [0, 1] ends at slope -1
    coef = np.array([[1.0, 0.0], [-3.0, -1.0], [3.5, 1.0], [0.0, 0.0]])
    low = _load_tool("make_cdf_table").slope_minima(
        np.array([0.0, 2.0, 3.0]), coef)
    assert np.array_equal(low, [0.5, -1.0])


def test_cdf_table_tool_refuses_a_decreasing_spline(tmp_path, monkeypatch):
    # one interval of the fitted spline made to fall: nothing is written
    tool = _load_tool("make_cdf_table")
    fit = tool.CubicSpline

    def falling(x, y):
        spline = fit(x, y)
        spline.c[:, 300] = [0.0, 0.0, -1.0, spline.c[3, 300]]
        return spline

    monkeypatch.setattr(tool, "CubicSpline", falling)
    monkeypatch.setattr(tool, "OUT", tmp_path / "cdf_table.json")
    assert tool.main() == 1
    assert not (tmp_path / "cdf_table.json").exists()


def test_every_data_file_is_package_data():
    # a file the package reads but setuptools does not install breaks an
    # installed wheel, not a checkout
    config = tomllib.loads((ROOT / "pyproject.toml").read_text())
    package = ROOT / "src" / "oppenheimlab"
    globs = config["tool"]["setuptools"]["package-data"]["oppenheimlab"]
    shipped = {path for glob in globs for path in package.glob(glob)}
    data = {path for path in package.rglob("*")
            if path.is_file() and path.suffix != ".py"
            and "__pycache__" not in path.parts}
    assert sorted(data - shipped) == []
    assert {p.name for p in data} >= {"cdf_reference.json", "cdf_table.json"}


bench = _load_tool("bench")
summarise = bench.summarise
RUN_S = {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.25}
SUCCESS = {"name": "success_rate", "unit": "ratio", "better": "higher",
           "bound": 0.25}
# ten base runs whose quartiles are 1.0225 and 1.0675 (inclusive method)
BASE = [1.0 + 0.01 * i for i in range(10)]


@pytest.mark.parametrize("losses, shown", [(0, True), (1, True),
                                           (2, False)])
def test_gain_needs_nine_of_ten_pairs(losses, shown):
    # the change is 0.1 faster on every pair it wins, so its median moves
    # well beyond the base's quartile spread of 0.045 in every case
    change = [b + 0.01 if i < losses else b - 0.1
              for i, b in enumerate(BASE)]
    out = summarise(RUN_S, BASE, change)
    assert out["change_wins"] == 10 - losses
    assert out["base"]["q3"] - out["base"]["q1"] == pytest.approx(0.045)
    assert out["gain_shown"] is shown


def test_gain_needs_medians_beyond_the_base_spread():
    out = summarise(RUN_S, BASE, [b - 0.001 for b in BASE])
    assert out["change_wins"] == 10 and out["gain_shown"] is False


def test_ties_count_for_neither_side():
    change = [b if i % 2 else b - 0.1 for i, b in enumerate(BASE)]
    assert summarise(RUN_S, BASE, change)["change_wins"] == 5
    assert summarise(RUN_S, BASE, BASE)["change_wins"] == 0
    assert summarise(SUCCESS, [1.0] * 10, [1.0] * 10)["change_wins"] == 0


def test_higher_is_better_metric():
    up = summarise(SUCCESS, [0.5] * 10, [1.0] * 10)
    assert up["change_wins"] == 10 and up["gain_shown"] is True
    assert up["within_bound"] is True
    down = summarise(SUCCESS, [1.0] * 10, [0.5] * 10)
    assert down["change_wins"] == 0 and down["gain_shown"] is False
    assert down["within_bound"] is False


@pytest.mark.parametrize("metric, at_bound, beyond", [
    (RUN_S, 1.25, math.nextafter(1.25, 2.0)),
    (SUCCESS, 0.75, math.nextafter(0.75, 0.0))])
def test_within_bound_holds_exactly_at_the_bound(metric, at_bound, beyond):
    # a change worse by exactly bound x the base median is within it
    assert summarise(metric, [1.0] * 10, [at_bound] * 10)["within_bound"]
    assert not summarise(metric, [1.0] * 10, [beyond] * 10)["within_bound"]


@pytest.mark.parametrize("path", sorted(
    p.relative_to(ROOT).as_posix() for pattern in (
        "src/oppenheimlab/*.py", "tools/*.py", "demos/*.py")
    for p in ROOT.glob(pattern)
    if p.name != "__init__.py"))  # __init__ imports to re-export
def test_every_module_level_import_is_used(path):
    # no linter is installed, so this is the check for dead imports
    tree = ast.parse((ROOT / path).read_text())
    bound = {alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == []


# the stdout of one perfbench/run.py --trace 0 run, as 0.30.0 prints it
RUN_STDOUT = """\
# cdf-scales seed 3: 9 samples
# uncalibrated wall time of the operations: median 0.301234 s; speed \
timings dropped beside the program's own parallel work: 4
run_s 0.312 s
setup_s 0.121 s
peak_rss_mb 80.01 MB
success_rate 1 ratio
{"correct": true, "attempted": 90, "failed": 0, "metrics": {\
"run_s": {"value": 0.312, "unit": "s"}, \
"setup_s": {"value": 0.121, "unit": "s"}, \
"peak_rss_mb": {"value": 80.01, "unit": "MB"}, \
"success_rate": {"value": 1.0, "unit": "ratio"}}}
"""


def test_parse_run_reads_the_uncalibrated_wall_time():
    assert bench.parse_run(RUN_STDOUT) == {
        "run_s": 0.312, "setup_s": 0.121, "peak_rss_mb": 80.01,
        "success_rate": 1.0, "wall_s": 0.301234}


@pytest.mark.parametrize("edit, message", [
    (("median 0.301234 s", "median s"), "wall time"),
    (('"correct": true', '"correct": false'), "differing outputs")])
def test_parse_run_refuses_a_run_it_cannot_read(edit, message):
    with pytest.raises(ValueError, match=message):
        bench.parse_run(RUN_STDOUT.replace(*edit))
