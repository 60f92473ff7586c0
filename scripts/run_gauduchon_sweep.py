#!/usr/bin/env python3
"""Gauduchon factor sweep on T^2 or T^3: conformal sin-metrics of
increasing amplitude, reporting residuals, kernel gaps, and the deviation of
the computed factor from the exact conformal solution (1 + a sin)^{-(n-1)}.

Usage: python scripts/run_gauduchon_sweep.py [N] [dim]    (N=32, dim=2)
"""

import sys

import numpy as np

from affinehe.forms import MetricField
from affinehe.gauduchon import find_gauduchon_factor
from affinehe.torus import AffineTorus


def main():
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    dim = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    torus = AffineTorus(dim, N)
    x1 = torus.coordinate(0)
    print(f"{'a':>6} {'Q-residual':>12} {'kernel gap':>12} "
          f"{'vs analytic':>12} {'min factor':>11} {'converged':>9}")
    unconverged = 0
    for a in (0.1, 0.25, 0.5, 0.75, 0.9):
        c = 1.0 + a * np.sin(2 * np.pi * x1)
        g = MetricField(torus, np.eye(dim) * c[..., None, None])
        res = find_gauduchon_factor(g)
        phi_true = c ** -(dim - 1)
        w = g.volume_density()
        phi_true *= torus.integrate(w).real / torus.integrate(phi_true * w).real
        dev = np.abs(res.factor - phi_true).max()
        print(f"{a:>6.2f} {res.q_residual:>12.3e} {res.kernel_gap:>12.3e} "
              f"{dev:>12.3e} {res.factor.min():>11.6f} {res.converged!s:>9}")
        unconverged += not res.converged
    return 1 if unconverged else 0


if __name__ == "__main__":
    sys.exit(main())
