"""Prints one sha256 line per deterministic payload of the package:

    <sha256>  run <name> per_n     for every bundled run config (or the names
                                   given), run with --force --format json
                                   into a temporary results directory
    <sha256>  limit-cdf --law levy the CDF table of the continued-fraction law
    <sha256>  verify               the identity suite's report
    <sha256>  expand --count 12    the digits of five rationals in every
                                   codec, each with --format json
    <sha256>  ks                   2e6 Chambers-Mallows-Stuck draws and their
                                   ks_distance at each of the scales
                                   c = 1e-3, 1, 1e4 (fixed seeds), as in
                                   perfbench's cdf-scales KS checks

Two checkouts print the same lines exactly when they produce the same
payloads, so comparing the output of two trees checks a "bit-identical"
claim in one command.  The package is imported from this checkout's src/.

Run from the repository root (about six seconds on one core):

    python3 tools/payload_digests.py [config-name ...]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from oppenheimlab import cli, limitlaw  # noqa: E402


def _output(*argv: str) -> str:
    """stdout of one CLI command, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code}")
    return out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# (kind, number) pairs of the expand line: every kind on each rational its
# codec accepts (continued fractions take x in (0, 1) only)
_EXPAND_CASES = [(kind, x) for kind in ("luroth", "engel", "sylvester",
                                        "continued_fraction")
                 for x in ("1/3", "7/16", "0.4", "113/355", "1")
                 if (kind, x) != ("continued_fraction", "1")]

# the ks line: one law per scale, drawn with the scale's index as its seed
_KS_SCALES = (1e-3, 1.0, 1e4)
_KS_DRAWS = 2_000_000


def _ks_digest() -> str:
    digest = hashlib.sha256()
    for seed, c in enumerate(_KS_SCALES):
        law = limitlaw.StableLimitLaw(c)
        draws = limitlaw.sample_many(law, np.random.default_rng(seed),
                                     _KS_DRAWS)
        digest.update(draws.tobytes())
        digest.update(repr(limitlaw.ks_distance(draws, law)).encode())
    return digest.hexdigest()


def main(names) -> None:
    names = names or sorted(p.stem for p in
                            (SRC / "oppenheimlab" / "configs").glob("*.yaml"))
    with tempfile.TemporaryDirectory() as results:
        for name in names:
            record = json.loads(_output("run", name, "--force", "--format",
                                        "json", "--out", results))
            per_n = json.dumps(record["per_n"], sort_keys=True)
            print(f"{_sha256(per_n)}  run {name} per_n", flush=True)
    print(f"{_sha256(_output('limit-cdf', '--law', 'levy'))}  "
          "limit-cdf --law levy", flush=True)
    print(f"{_sha256(_output('verify'))}  verify", flush=True)
    expand = "".join(_output("expand", x, "--kind", kind, "--count", "12",
                             "--format", "json")
                     for kind, x in _EXPAND_CASES)
    print(f"{_sha256(expand)}  expand --count 12", flush=True)
    print(f"{_ks_digest()}  ks")


if __name__ == "__main__":
    main(sys.argv[1:])
