"""Quick built-in invariant checks, runnable without pytest.

Each check prints one line with the measured value and the tolerance it was
tested against.  Used by the CLI ``selftest`` subcommand.
"""

from __future__ import annotations

import math

import numpy as np

from .bundle import (
    build_bundle,
    canonical_metric,
    first_chern_form,
    mean_curvature,
    random_hermitian_metric,
    shift_equivariant,
)
from .forms import (
    Form,
    MetricField,
    conjugate_form,
    div_by_nu,
    dolbeault_del,
    dolbeault_delbar,
)
from .gauduchon import (apply_Q, apply_Qstar, find_gauduchon_factor,
                        gauduchon_residual, pairing)
from .stability import commutant_dimension, degree, enumerate_flat_subbundles
from .torus import AffineTorus, random_smooth_scalar


def _random_form(torus, rng, p, q):
    n = torus.dim
    coeffs = np.stack(
        [np.stack([random_smooth_scalar(torus, rng) for _ in range(math.comb(n, q))],
                  axis=-1) for _ in range(math.comb(n, p))],
        axis=-2,
    )
    return Form(torus, p, q, coeffs)


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

    # integration by parts: int del(chi)/nu for chi in A^{n-1,n}
    chi = _random_form(torus, rng, n - 1, n)
    check("int-by-parts del", abs(torus.integrate(div_by_nu(dolbeault_del(chi)))),
          10.0 / N**2)
    chi2 = _random_form(torus, rng, n, n - 1)
    check("int-by-parts delbar",
          abs(torus.integrate(div_by_nu(dolbeault_delbar(chi2)))), 10.0 / N**2)

    # d^2 = 0
    phi = _random_form(torus, rng, 0, 0)
    check("del^2", dolbeault_del(dolbeault_del(phi)).sup_norm(), 10.0 / N**2)
    check("delbar^2", dolbeault_delbar(dolbeault_delbar(phi)).sup_norm(),
          10.0 / N**2)

    # conjugation involution
    om = _random_form(torus, rng, 1, 1)
    c2 = conjugate_form(conjugate_form(om))
    check("conj involution", float(np.abs(c2.coeffs - om.coeffs).max()), 1e-12)

    # the Gauduchon residual is sup |Q(1) omega^n/nu| over its scale
    x1 = torus.coordinate(0)
    gm = MetricField(torus, np.eye(n)[(None,) * n]
                     * (1.0 + 0.5 * np.sin(2 * np.pi * x1))[..., None, None])
    ddbar = np.abs(apply_Q(gm, np.ones(torus.grid_shape)) * gm.volume_density()).max()
    scale = gm.det.mean() ** ((n - 1) / n)
    check("residual = sup|Q(1) omega^n/nu| / scale",
          abs(gauduchon_residual(gm) * scale / ddbar - 1.0), 1e-12)

    # Q adjointness
    A = rng.standard_normal((n, n))
    g = MetricField(torus, A @ A.T + n * np.eye(n))
    f1 = random_smooth_scalar(torus, rng, real=True)
    f2 = random_smooth_scalar(torus, rng, real=True)
    lhs = pairing(g, apply_Q(g, f1), f2)
    rhs = pairing(g, f1, apply_Qstar(g, f2))
    check("Q adjointness", abs(lhs - rhs), 10.0 / N**2)

    res = find_gauduchon_factor(gm)
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

    # degree of a random metric on a flat torus bundle
    d = degree(bu, torus, random_hermitian_metric(bu, torus, rng), g)
    check("torus degree", abs(d), 10.0 / N**2)

    # commutant dimension of the unipotent pair
    check("unipotent commutant dim - 2",
          abs(commutant_dimension(bu.monodromy) - 2), 0)
    subs = enumerate_flat_subbundles(bu)
    check("unipotent subbundle count - 1", abs(len(subs) - 1), 0)

    # mean curvature of the canonical metric is h-self-adjoint
    K = mean_curvature(g, bu, torus, canonical_metric(bu, torus))
    c1 = first_chern_form(bu, torus, canonical_metric(bu, torus))
    check("canonical c1", c1.sup_norm(), 1e-12)
    tr = torus.integrate(np.einsum("...aa->...", K) * g.volume_density())
    check("tr K integral", abs(tr), 10.0 / N**2)

    if not quiet:
        for ln in lines:
            print(ln)
    return failures
