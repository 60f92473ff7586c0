#!/usr/bin/env python3
"""Rank-1 sweep on grids larger than the test suite runs: flat line bundles
with monodromies lambda_k = r_k e^{i theta_k} on T^1 N=128 (spectral and fd),
T^2 N=31 and 32 and T^3 N=15 and 16, on a constant non-diagonal metric and on
the Gauduchon metric of the conformal_sin metric (1 + 0.5 sin 2 pi x^1) I,
from backgrounds perturbed as ``affinehe solve`` perturbs them (modes 1,
seed 0) with amplitudes 0.1 and 0.3.

A rank-1 run ends at the background normalization, so every run must be
``converged`` with no Krylov matvec and K_defect <= 1e-10; the script exits 1
otherwise.

Usage: python scripts/run_rank1_sweep.py
"""

import sys
import time

import numpy as np

from affinehe.bundle import (build_bundle, canonical_metric, hermitize,
                             random_hermitian_metric)
from affinehe.continuation import run_continuation
from affinehe.forms import MetricField
from affinehe.gauduchon import find_gauduchon_factor
from affinehe.torus import AffineTorus

GRIDS = [(1, 128, "spectral"), (1, 128, "fd"), (2, 31, "spectral"), (2, 32, "spectral"),
         (3, 15, "spectral"), (3, 16, "spectral")]
MONODROMY = [2.0 * np.exp(0.3j), 0.5 * np.exp(2.0j), 1.5 * np.exp(-1.0j)]
K_DEFECT_MAX = 1e-10


def metric(torus, kind):
    n = torus.dim
    if kind == "constant":
        B = np.random.default_rng(0).standard_normal((n, n))
        return MetricField(torus, np.eye(n) + 0.5 * B @ B.T)
    c = 1.0 + 0.5 * np.sin(2 * np.pi * torus.coordinate(0))
    return MetricField(torus, np.eye(n) * c[..., None, None])


def main():
    print(f"{'grid':>16} {'metric':>13} {'amp':>4} {'status':>9} {'K_defect':>10} "
          f"{'matvecs':>7} {'ms':>6}")
    failures = 0
    for dim, N, backend in GRIDS:
        torus = AffineTorus(dim, N, backend)
        bundle = build_bundle([np.array([[lam]]) for lam in MONODROMY[:dim]])
        for kind in ("constant", "conformal_sin"):
            gG = find_gauduchon_factor(metric(torus, kind)).metric
            for amplitude in (0.1, 0.3):
                h0p = hermitize(canonical_metric(bundle, torus) @ random_hermitian_metric(
                    bundle, torus, np.random.default_rng(0), amplitude=amplitude, modes=1))
                t0 = time.perf_counter()
                res = run_continuation(bundle, torus, gG, h0p)
                ms = 1e3 * (time.perf_counter() - t0)
                matvecs = res.diagnostics["krylov_matvecs"]
                ok = (res.status == "converged" and matvecs == 0
                      and res.K_defect <= K_DEFECT_MAX)
                failures += not ok
                print(f"{f'T^{dim} N={N} {backend}':>16} {kind:>13} {amplitude:>4} "
                      f"{res.status:>9} {res.K_defect:>10.2e} {matvecs:>7} {ms:>6.0f}"
                      + ("" if ok else "  FAIL"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
