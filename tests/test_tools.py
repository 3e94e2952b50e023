"""The repository's tools run from a checkout and print what they promise."""

import re
import subprocess
import sys
from pathlib import Path

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
        "expand --count 12"]
