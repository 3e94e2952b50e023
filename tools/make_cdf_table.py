"""Writes src/oppenheimlab/cdf_table.json, the values that every stable CDF
of the package is read from: logit F = log F - log(1 - F) of the standard
law S(1, 0) at the 560 table nodes ``limitlaw._NODES``, one value per line.

The values come from the package's direct route, Zolotarev's integral by a
fixed Gauss-Legendre panel rule (``limitlaw._certified_pair``).  Its
companion rule bounds the error of every integral that reaches the output;
the route raises AccuracyError when the worst estimate misses 1e-11, so
an uncertified table is never written.  The worst estimate is printed and
stored in the file as its certificate.  Every value is written with
Python's round-trip float repr, so the package reads back the exact bits
computed here.  Regenerate the file whenever the nodes or the route change.

Run from the repository root (well under a second):

    python3 tools/make_cdf_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from oppenheimlab import limitlaw  # noqa: E402

OUT = SRC / "oppenheimlab" / "cdf_table.json"


def main() -> int:
    cdf, sf, worst = limitlaw._certified_pair(limitlaw._NODES)
    doc = {"law": "S(1, 0): log-characteristic -(pi/2)|t| - i t log|t|",
           "nodes": "limitlaw._NODES: 200 linear on [-5, 2], "
                    "360 geometric on (2, 1e10]",
           "method": "Zolotarev's integral, 16-point Gauss-Legendre on 32 "
                     "panels, certified by a 12-point companion rule",
           "max_quadrature_error": worst,
           "logit": (np.log(cdf) - np.log(sf)).tolist()}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"certificate: worst companion-rule estimate {worst:.3g} "
          "(tolerance 1e-11)")
    print(f"wrote {len(doc['logit'])} logits to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
