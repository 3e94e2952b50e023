"""Writes src/oppenheimlab/cdf_reference.json, the high-precision CDF of the
standard law S(1, 0) that ``oppenheimlab verify`` and the tests check the
package's CDF against.

Every value is a Gil-Pelaez inversion on the real t axis in mpmath,

    F(z) = 1/2 + (1/pi) int_0^inf exp(-(pi/2) t) sin(z t + t log t)/t dt,

so it shares nothing with the package's own route (Zolotarev's integral in
the angle variable).  The points cover the left tail down to F ~ 1e-16, the
body of the law, the table's seam at z = 2 and the right tail to z = 1e4;
both F and 1 - F are stored, each rounded once from the mpmath value, so
either tail can be checked relatively.

Run from the repository root (about five minutes on one core):

    python3 tools/make_cdf_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp

OUT = Path(__file__).resolve().parents[1] / "src" / "oppenheimlab" \
    / "cdf_reference.json"
DPS = 30
# the integrand is below exp(-DECAY)/t beyond the truncation point
DECAY = 60
# half-periods of the phase per Gauss-Legendre piece, the piece's nodes, and
# the coarser rule whose difference estimates the error
HALF_PERIODS = 4
NODES, COARSE_NODES = 40, 28

Z_POINTS = (
    # left tail: F(-4) ~ 1.6e-10, F(-4.5) ~ 2.8e-16
    -4.5, -4.25, -4.0, -3.75, -3.5, -3.25, -3.0, -2.5, -2.0, -1.5, -1.0,
    # body and density peak
    -0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.5,
    # the seam between the table's linear and geometric nodes
    1.9, 1.99, 2.0, 2.01, 2.1, 2.5,
    # right tail
    3.0, 5.0, 10.0, 20.0, 50.0, 100.0, 300.0, 1e3, 3e3, 1e4,
)


def _rule(n: int):
    return mp.gauss_quadrature(n, "legendre")


def gil_pelaez(z: float, fine, coarse) -> tuple:
    """(F(z), error estimate) of S(1, 0) at full mpmath precision."""
    z = mp.mpf(z)
    big_t = 2 * DECAY / mp.pi

    def integrand(t):
        return mp.exp(-mp.pi * t / 2) * mp.sin(z * t + t * mp.log(t)) / t

    # pieces of HALF_PERIODS half-periods of the fastest phase on (0, T];
    # the first piece holds the integrable log singularity at t = 0 and gets
    # tanh-sinh
    freq = abs(z) + abs(mp.log(big_t)) + 1
    pieces = int(mp.ceil(big_t * freq / (HALF_PERIODS * mp.pi))) + 1
    width = big_t / pieces
    total, err = mp.quad(integrand, [0, width], error=True)
    for k in range(1, pieces):
        mid, half = width * (k + mp.mpf(0.5)), width / 2
        sums = [half * mp.fsum(w * integrand(mid + half * x)
                               for x, w in zip(*rule))
                for rule in (fine, coarse)]
        total += sums[0]
        err += abs(sums[0] - sums[1])
    # the tail beyond T is below exp(-DECAY)/DECAY
    err += mp.exp(-DECAY) / DECAY
    return mp.mpf(0.5) + total / mp.pi, err / mp.pi


def main() -> int:
    mp.mp.dps = DPS
    fine, coarse = _rule(NODES), _rule(COARSE_NODES)
    zs, cdf, sf = [], [], []
    worst_err = 0.0
    for z in Z_POINTS:
        f, err = gil_pelaez(z, fine, coarse)
        worst_err = max(worst_err, float(err))
        zs.append(z)
        cdf.append(float(f))
        sf.append(float(1 - f))
        print(f"z = {z:g}: F = {mp.nstr(f, 12)} (error {float(err):.1e})",
              flush=True)
    if worst_err > 1e-22:
        print(f"quadrature error estimate {worst_err:.3g} is too large",
              file=sys.stderr)
        return 1
    doc = {"law": "S(1, 0): log-characteristic -(pi/2)|t| - i t log|t|",
           "method": f"mpmath Gil-Pelaez on the real axis, dps = {DPS}",
           "max_quadrature_error": worst_err,
           "z": zs, "F": cdf, "sf": sf}
    OUT.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
