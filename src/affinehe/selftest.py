"""Quick built-in invariant checks, runnable without pytest.

Each check prints one line with the measured value and the tolerance it was
tested against.  Used by the CLI ``selftest`` subcommand.
"""

from __future__ import annotations

import numpy as np

from .bundle import (
    build_bundle,
    canonical_metric,
    mean_curvature,
    random_hermitian_metric,
    shift_equivariant,
)
from .forms import MetricField, laplacian_symbol, laplacian_type
from .gauduchon import (apply_Q, apply_Qstar, find_gauduchon_factor,
                        gauduchon_residual, pairing)
from .stability import commutant_dimension, degree, enumerate_flat_subbundles
from .torus import AffineTorus, random_smooth_scalar


def run_selftest(quiet: bool = False, seed: int = 0):
    """Returns the number of failed checks."""
    n, N = 2, 16  # T^2, the lowest dimension the Q checks need
    rng = np.random.default_rng(seed)
    torus = AffineTorus(n, N)
    failures = 0
    lines = []

    def check(name, value, tol):
        nonlocal failures
        ok = value <= tol
        if not ok:
            failures += 1
        lines.append(f"{'PASS' if ok else 'FAIL'} {name}: {value:.3e} (tol {tol:.1e})")

    x1 = torus.coordinate(0)
    gm = MetricField(torus, np.eye(n)[(None,) * n]
                     * (1.0 + 0.5 * np.sin(2 * np.pi * x1))[..., None, None])
    res = find_gauduchon_factor(gm)
    A = rng.standard_normal((n, n))
    g = MetricField(torus, A @ A.T + n * np.eye(n))

    # int tr_g del delbar psi omega^n/nu = 0 on a Gauduchon metric: the
    # reason the degree does not depend on h
    psi = random_smooth_scalar(torus, rng)
    check("int tr_g ddbar psi omega^n/nu (Gauduchon)",
          abs(torus.integrate(laplacian_type(res.metric, psi)
                              * res.metric.volume_density())), 10.0 / N**2)
    check("int D_k psi", max(abs(torus.integrate(torus.partial(psi, k)))
                             for k in range(n)), 10.0 / N**2)
    check("D_0 D_1 psi - D_1 D_0 psi",
          float(np.abs(torus.partial(torus.partial(psi, 1), 0)
                       - torus.partial(torus.partial(psi, 0), 1)).max()), 10.0 / N**2)

    # on a constant metric tr_g del delbar multiplies each Fourier mode by
    # -laplacian_symbol, the preconditioner's symbol
    k = (1, 2)
    mode = np.exp(2j * np.pi * sum(kj * torus.coordinate(j) for j, kj in enumerate(k)))
    sigma = laplacian_symbol(g)[k]
    check("tr_g ddbar of a mode + symbol, relative",
          float(np.abs(laplacian_type(g, mode) + sigma * mode).max() / sigma), 10.0 / N**2)
    real = random_smooth_scalar(torus, rng, real=True)
    check("Im tr_g ddbar of a real field",
          float(np.abs(laplacian_type(g, real).imag).max()), 1e-12)

    # the Gauduchon residual is sup |Q(1) omega^n/nu| over its scale
    ddbar = np.abs(apply_Q(gm, np.ones(torus.grid_shape)) * gm.volume_density()).max()
    scale = gm.det.mean() ** ((n - 1) / n)
    check("residual = sup|Q(1) omega^n/nu| / scale",
          abs(gauduchon_residual(gm) * scale / ddbar - 1.0), 1e-12)

    # Q adjointness
    f1 = random_smooth_scalar(torus, rng, real=True)
    f2 = random_smooth_scalar(torus, rng, real=True)
    lhs = pairing(g, apply_Q(g, f1), f2)
    rhs = pairing(g, f1, apply_Qstar(g, f2))
    check("Q adjointness", abs(lhs - rhs), 10.0 / N**2)

    check("gauduchon residual", res.q_residual, 1e-8)
    check("gauduchon positivity", float(-res.factor.min()), 0.0)

    # twisted shift round trip
    bu = build_bundle([np.array([[1.0, 1.0], [0.0, 1.0]])] * n)
    F = random_hermitian_metric(bu, torus, rng)
    Ff = bu.gauge(torus).herm_to_flat(F)
    back = shift_equivariant(bu, torus,
                             shift_equivariant(bu, torus, Ff, 0, 1, "herm"),
                             0, -1, "herm")
    check("shift +1 then -1", float(np.abs(back - Ff).max()), 1e-10)

    # degree of a random metric on a flat torus bundle, on the Gauduchon metric
    # of a diagonal g that is not conformally flat (a wrong-axis term shows)
    Hr = random_hermitian_metric(bu, torus, rng)
    waves = 1.0 + 0.5 * np.sin(2 * np.pi * np.stack([torus.coordinate(1), x1], -1))
    gd = MetricField(torus, waves[..., None] * np.eye(n))
    d = degree(torus, Hr, find_gauduchon_factor(gd).metric)
    check("torus degree", abs(d), 10.0 / N**2)

    # commutant dimension of the unipotent pair
    check("unipotent commutant dim - 2",
          abs(commutant_dimension(bu.monodromy) - 2), 0)
    subs = enumerate_flat_subbundles(bu)
    check("unipotent subbundle count - 1", abs(len(subs) - 1), 0)

    # the canonical metric has tr_g c1 = 0
    H = canonical_metric(bu, torus)
    tr_c1 = -laplacian_type(g, np.linalg.slogdet(H)[1])
    check("canonical sup |tr_g c1|", float(np.abs(tr_c1).max()), 1e-12)

    # the End path against the scalar path: tr K = -tr_g ddbar log det H
    trK = np.einsum("...aa->...", mean_curvature(gm, bu, torus, Hr))
    check("sup |tr K + tr_g ddbar log det H|",
          float(np.abs(trK + laplacian_type(gm, np.linalg.slogdet(Hr)[1])).max()), 10.0 / N**2)

    if not quiet:
        for ln in lines:
            print(ln)
    return failures
