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

import pytest

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
    assert (tmp_path / table).read_bytes() == (ROOT / table).read_bytes()


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


def _load_bench():
    """tools/bench.py as a module, loaded by path; nothing is run."""
    spec = importlib.util.spec_from_file_location(
        "bench", ROOT / "tools" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


summarise = _load_bench().summarise
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
    p.name for p in (ROOT / "src" / "oppenheimlab").glob("*.py")
    if p.name != "__init__.py"))  # __init__ imports to re-export
def test_every_module_level_import_is_used(path):
    # no linter is installed, so this is the check for dead imports
    tree = ast.parse((ROOT / "src" / "oppenheimlab" / path).read_text())
    bound = {alias.asname or alias.name.split(".")[0]
             for node in tree.body
             if isinstance(node, (ast.Import, ast.ImportFrom))
             and getattr(node, "module", None) != "__future__"
             for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(bound - used) == []
