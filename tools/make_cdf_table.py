"""Writes src/oppenheimlab/cdf_table.json, the spline that every stable CDF
of the package is read from: scipy's not-a-knot CubicSpline of
logit F = log F - log(1 - F) of the standard law S(1, 0) in asinh z, through
the 560 table nodes ``limitlaw._NODES``: its (4, 559) coefficients, as one
hex string of the little-endian float64 array.

The logits come from the package's direct route, Zolotarev's integral by a
fixed Gauss-Legendre panel rule (``limitlaw._certified_pair``).  Its
companion rule bounds the error of every integral that reaches the output;
the route raises AccuracyError when the worst estimate misses 1e-11, so
an uncertified table is never written.  The worst estimate is printed and
stored in the file as its certificate.  The coefficients are written as
their bytes, so the package reads back the exact bits computed here; only
this tool imports scipy.

Above the last node the package reads F from a two-term closed form
(``limitlaw._cdf_tail``).  The tool compares it with the direct route
(``limitlaw._cdf_direct``) at 200 log-spaced points from there to 1e300,
prints the worst |difference|, and writes nothing unless it is 0, so
moving the last node cannot hand the table's right edge to a tail that is
not exact in float there.

The KS pass (``limitlaw.ks_distance``) bounds the gaps of a block of sorted
points from F at its ends, so F must not decrease: the tool takes the
smallest slope of every cubic of the spline on its interval, in closed
form (``slope_minima``), prints the smallest, and writes nothing unless
every one is positive.
Regenerate the file whenever the nodes or the route change.

Run from the repository root (well under a second):

    python3 tools/make_cdf_table.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.interpolate import CubicSpline

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from oppenheimlab import limitlaw  # noqa: E402

OUT = SRC / "oppenheimlab" / "cdf_table.json"


def slope_minima(knots: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """The smallest slope of each cubic c0 h^3 + c1 h^2 + c2 h + c3 of the
    spline (coefficients highest power first) on its interval
    0 <= h <= w = knots[i+1] - knots[i]: the slope 3 c0 h^2 + 2 c1 h + c2
    at h = 0 and h = w and, where c0 > 0 puts the quadratic's vertex
    h = -c1/(3 c0) inside the interval, c2 - c1^2/(3 c0) there."""
    c0, c1, c2 = coef[:3]
    w = np.diff(knots)
    ends = np.minimum(c2, (3.0 * c0 * w + 2.0 * c1) * w + c2)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = -c1 / (3.0 * c0)
        inside = (c0 > 0.0) & (vertex > 0.0) & (vertex < w)
        return np.where(inside, np.minimum(ends, c2 - c1 * c1 / (3.0 * c0)),
                        ends)


def main() -> int:
    cdf, sf, worst = limitlaw._certified_pair(limitlaw._NODES)
    print(f"certificate: worst companion-rule estimate {worst:.3g} "
          "(tolerance 1e-11)")
    z = np.geomspace(limitlaw._NODES[-1], 1e300, 201)[1:]
    gap = float(np.max(np.abs(limitlaw._cdf_tail(z)
                              - limitlaw._cdf_direct(z))))
    print(f"tail: worst |closed form - direct route| {gap:.3g} at "
          f"{z.size} points above z = {limitlaw._NODES[-1]:.3g} (must be 0)")
    if gap != 0.0:
        print("not written: the closed-form tail is not exact above the "
              "last node", file=sys.stderr)
        return 1
    knots = np.arcsinh(limitlaw._NODES)
    coef = CubicSpline(knots, np.log(cdf) - np.log(sf)).c
    low = slope_minima(knots, coef)
    print(f"slopes: smallest {low.min():.3g} of {low.size} intervals "
          "(must be > 0)")
    if not np.all(low > 0.0):
        print("not written: the spline decreases on an interval",
              file=sys.stderr)
        return 1
    doc = {"law": "S(1, 0): log-characteristic -(pi/2)|t| - i t log|t|",
           "nodes": "limitlaw._NODES: 200 linear on [-5, 2], "
                    "360 geometric on (2, 1e10]",
           "method": "Zolotarev's integral, 16-point Gauss-Legendre on 32 "
                     "panels, certified by a 12-point companion rule",
           "max_quadrature_error": worst,
           "coefficients": np.asarray(coef, "<f8").tobytes().hex()}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {coef.shape[1]} spline intervals to {OUT}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
