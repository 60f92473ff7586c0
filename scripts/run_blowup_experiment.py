#!/usr/bin/env python3
"""Blow-up experiment: drive the unipotent rank-2 bundle along the eps-path
until m = max |log f| crosses the threshold, then extract and certify the
destabilizing subbundle.

Writes the convergence log and prints the certification summary.

Usage: python scripts/run_blowup_experiment.py [N] [m_max]
"""

import sys
import time

import numpy as np

from affinehe.bundle import build_bundle
from affinehe.continuation import run_continuation
from affinehe.destabilizer import destabilize
from affinehe.forms import MetricField
from affinehe.torus import AffineTorus


def main():
    N = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    m_max = float(sys.argv[2]) if len(sys.argv) > 2 else 25.0

    torus = AffineTorus(1, N)
    g = MetricField(torus, np.eye(1))
    bundle = build_bundle([np.array([[1.0, 1.0], [0.0, 1.0]])])

    t0 = time.time()
    result = run_continuation(bundle, torus, g, max_steps=400, m_max=m_max)
    print(f"continuation finished in {time.time() - t0:.1f}s: {result.status}")
    with open("blowup_log.csv", "w") as fh:
        fh.write("step,epsilon,residual,m,det_defect\n")
        for i, row in enumerate(result.history):
            fh.write(f"{i}," + ",".join(f"{v:.17g}" for v in row) + "\n")
    print(f"log written to blowup_log.csv ({len(result.history)} rows)")
    print("max eps*m along the run:",
          max(r[0] * r[2] for r in result.history))

    if result.status != "blowup":
        print("no blow-up; nothing to extract")
        return

    print(f"m at blow-up: {result.diagnostics['m_at_blowup']:.2f} "
          f"(eps = {result.diagnostics['eps_at_blowup']:.3e})")
    rep = destabilize(bundle, torus, result.h0, g, result.blowup_data)
    print("destabilizer certificate:")
    for k, v in rep.summary().items():
        print(f"  {k}: {v}")


if __name__ == "__main__":
    main()
