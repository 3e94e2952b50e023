"""Writes cdf_reference.json, the high-precision CDF values that gate the
cdf-scales workload.

Every value is a direct Gil-Pelaez inversion in mpmath at the law's own scale:

    F(x) = 1/2 + (1/pi) int_0^inf exp(-(pi/2) c t) sin(z t + c t log t)/t dt,

with z = x + delta, integrated along the real t axis.  Nothing is rescaled to
c = 1, so the values stay independent of the scaling identity
F_c(x) = F_1(x/c + delta/c - log c), and of the package's table, tail fit and
rotated contour.  The grid points are the np.linspace nodes that ``limit-cdf``
evaluates for each operation of the workload.

Run from the repository root (about 15 minutes on one core):

    python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import mpmath as mp
import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import workloads  # noqa: E402

mp.mp.dps = 20
# exp(-(pi/2) c T) = exp(-40) at the truncation point T
DECAY_EXPONENT = 40


def gil_pelaez_cdf(c: float, delta: float, x: float) -> tuple:
    """(F(x), quadrature error estimate) at full mpmath precision."""
    c = mp.mpf(c)
    z = mp.mpf(x) + mp.mpf(delta)
    big_t = 2 * DECAY_EXPONENT / (mp.pi * c)

    def integrand(t):
        phase = z * t + c * t * mp.log(t)
        return mp.exp(-mp.pi * c * t / 2) * mp.sin(phase) / t

    # one piece per half-period of the fastest phase on (0, T]; the first
    # piece holds the integrable log singularity at t = 0 and gets tanh-sinh
    freq = abs(z) + c * (abs(mp.log(big_t)) + 1)
    pieces = int(mp.ceil(big_t * freq / mp.pi)) + 1
    nodes = [big_t * k / pieces for k in range(pieces + 1)]
    head, head_err = mp.quad(integrand, nodes[:2], error=True)
    body, body_err = mp.quad(integrand, nodes[1:], method="gauss-legendre",
                             error=True)
    return mp.mpf(0.5) + (head + body) / mp.pi, (head_err + body_err) / mp.pi


def main() -> int:
    laws = {}
    worst_err = 0.0
    for key, c, delta, _ in workloads.cdf_laws():
        entry = {"c": c, "delta": delta}
        for grid in workloads.CDF_GRIDS:
            x_min, x_max, points = workloads.cdf_grid(c, delta, grid)
            xs = np.linspace(x_min, x_max, points)
            values = []
            for x in xs:
                f, err = gil_pelaez_cdf(c, delta, float(x))
                worst_err = max(worst_err, float(err))
                values.append(float(f))
            entry[grid] = {"x": [float(x) for x in xs], "F": values}
            print(f"{key} {grid}: {points} points", flush=True)
        laws[key] = entry
    if worst_err > 1e-12:
        print(f"quadrature error estimate {worst_err:.3g} is too large",
              file=sys.stderr)
        return 1
    doc = {"method": "mpmath Gil-Pelaez on the real axis, dps = 20",
           "max_quadrature_error": worst_err, "laws": laws}
    workloads.REFERENCE_PATH.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
