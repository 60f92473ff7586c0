"""Acceptance suite.

One test per criterion; each prints PASS lines with the measured value and
the tolerance it was checked against.  Tolerances are fixed here, not
calibrated: sup norms, 10 N^-2 for quadrature-limited quantities, 1e-6 for
solver-limited quantities, 1e-12 for the spectral backend, 1e-4 for
projection defects, 1e-10 for reality and invariance residuals.
"""

import numpy as np
from derivatives import d_fL, d_fL_fd

from affinehe.bundle import (
    build_bundle,
    random_hermitian_metric,
)
from affinehe.continuation import (
    ContinuationProblem,
    normalize_background,
    real_he_metric,
    run_continuation,
)
from affinehe.destabilizer import destabilize
from affinehe.forms import MetricField
from affinehe.gauduchon import find_gauduchon_factor
from affinehe.stability import (
    commutant_dimension,
    degree,
    enumerate_flat_subbundles,
    stability_verdict,
)
from affinehe.torus import AffineTorus, random_smooth_scalar
from oracles import (
    Form,
    degree_additivity_check,
    div_by_nu,
    dolbeault_del,
    dolbeault_delbar,
    he_K_defect,
)

UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])


def report(name, value, tol):
    status = "PASS" if value <= tol else "FAIL"
    print(f"{status} {name}: {value:.3e} (tol {tol:.1e})")
    assert value <= tol, f"{name}: {value:.3e} > {tol:.3e}"


def random_form(torus, rng, p, q):
    from math import comb

    n = torus.dim
    coeffs = np.stack(
        [np.stack([random_smooth_scalar(torus, rng) for _ in range(comb(n, q))],
                  axis=-1) for _ in range(comb(n, p))],
        axis=-2,
    )
    return Form(torus, p, q, coeffs)


def test_criterion_1_integration_by_parts():
    """50 random smooth forms: |int del chi / nu| and the delbar version
    within 10 N^-2 at N = 32 and N = 64 (the bound shrinks 4x); spectral
    backend at 1e-12."""
    rng = np.random.default_rng(1)
    for N in (32, 64):
        t = AffineTorus(2, N, backend="fd")
        worst = 0.0
        for _ in range(50):
            chi = random_form(t, rng, 1, 2)
            worst = max(worst, abs(t.integrate(div_by_nu(dolbeault_del(chi)))))
            chi2 = random_form(t, rng, 2, 1)
            worst = max(worst,
                        abs(t.integrate(div_by_nu(dolbeault_delbar(chi2)))))
        report(f"int-by-parts fd N={N}", worst, 10.0 / N**2)
    t = AffineTorus(2, 32, backend="spectral")
    worst = 0.0
    for _ in range(50):
        chi = random_form(t, rng, 1, 2)
        worst = max(worst, abs(t.integrate(div_by_nu(dolbeault_del(chi)))))
    report("int-by-parts spectral N=32", worst, 1e-12)


def test_criterion_2_gauduchon():
    """T^2, g = (1 + sin(2 pi x1)/2) I, N = 32: Q-residual <= 1e-8, strictly
    positive factor, one-dimensional discrete kernel, idempotent rerun."""
    t = AffineTorus(2, 32)
    x1 = t.coordinate(0)
    g = MetricField(t, np.eye(2)[None, None]
                    * (1 + 0.5 * np.sin(2 * np.pi * x1))[..., None, None])
    res = find_gauduchon_factor(g)
    report("gauduchon Q-residual", res.q_residual, 1e-8)
    report("gauduchon positivity (-min factor)", -float(res.factor.min()), 0.0)
    # kernel is one dimensional: the solver certifies sigma_2 separation
    report("gauduchon kernel gap (1e-6/gap)", 1e-6 / res.kernel_gap, 1.0)
    res2 = find_gauduchon_factor(res.metric)
    report("gauduchon idempotence", float(np.abs(res2.factor - 1.0).max()), 1e-6)


def test_criterion_3_degree_well_defined():
    """10 random bundles (rank <= 3) and metric pairs: metric independence,
    vanishing torus degrees, and additivity, all within 10 N^-2."""
    N = 32
    t = AffineTorus(1, N)
    g = MetricField(t, np.eye(1))
    rng = np.random.default_rng(3)
    tol = 10.0 / N**2
    worst_pair, worst_abs, worst_add = 0.0, 0.0, 0.0
    for k in range(10):
        r = 1 + k % 3
        # commuting monodromy: polynomial in one upper triangular seed
        T = np.triu(rng.standard_normal((r, r)), 1)
        D = np.diag(1.0 + np.arange(r) + 0.1 * rng.standard_normal(r))
        seed = D + T
        rho = seed @ seed + 0.5 * seed + 2.0 * np.eye(r)
        b = build_bundle([rho])
        H1 = random_hermitian_metric(b, t, rng, amplitude=0.3)
        H2 = random_hermitian_metric(b, t, rng, amplitude=0.3)
        d1, d2 = degree(t, H1, g), degree(t, H2, g)
        worst_pair = max(worst_pair, abs(d1 - d2))
        worst_abs = max(worst_abs, abs(d1), abs(d2))
        subs = enumerate_flat_subbundles(b)
        if subs:
            *_, defect = degree_additivity_check(b, t, subs[0], g, H1)
            worst_add = max(worst_add, defect)
    report("degree metric independence", worst_pair, tol)
    report("torus degrees vanish", worst_abs, tol)
    report("degree additivity", worst_add, tol)


def test_criterion_4_linearization():
    """20 random states: analytic vs finite-difference directional derivative
    of f L_eps(f) agree to 1e-5 relative; Richardson order check."""
    t = AffineTorus(1, 64)
    g = MetricField(t, np.eye(1))
    rng = np.random.default_rng(4)
    b = build_bundle([UNIPOTENT])
    H0, _, _ = normalize_background(
        b, t, random_hermitian_metric(b, t, rng, amplitude=0.1, modes=1), g)
    prob = ContinuationProblem(b, t, H0, g, 0.0)
    calc = prob.calc0
    worst = 0.0
    for _ in range(20):
        f = calc.from_hermitian(random_hermitian_metric(b, t, rng, amplitude=0.3))
        phi = calc.hermitize(random_hermitian_metric(b, t, rng) - np.eye(2))
        eps = float(rng.uniform(0.05, 1.0))
        an = d_fL(prob, f, phi, eps)
        fd = d_fL_fd(prob, f, phi, eps)
        worst = max(worst, float(np.abs(an - fd).max() / np.abs(fd).max()))
    report("linearization fd vs analytic (relative)", worst, 1e-5)

    f = calc.from_hermitian(random_hermitian_metric(b, t, rng, amplitude=0.4))
    phi = calc.hermitize(random_hermitian_metric(b, t, rng) - np.eye(2))
    an = d_fL(prob, f, phi, 0.4)
    errs = [float(np.abs(d_fL_fd(prob, f, phi, 0.4, t_rel=tr) - an).max())
            for tr in (4e-2, 2e-2, 1e-2)]
    ratios = [errs[0] / errs[1], errs[1] / errs[2]]
    # second-order central differences: halving t quarters the error
    report("richardson order deviation", max(abs(r - 4.0) for r in ratios), 1.6)


def test_criterion_5_positive_cases():
    """(a) trivial rank-1 with perturbed h0 converges to the constant metric
    with K-defect <= 1e-6, on T^1 (N=64) and T^2 (N=32); (b) diag(2,3)
    converges block diagonally, off-diagonal <= 1e-6; (c) det f stays within
    1e-6 of one along the diag(2,3) run, and the rank-1 runs, which end at
    the normalization, do no Newton work; (d) tr K_0 = r gamma after
    normalization within 10 N^-2."""
    # (a) T^1
    t = AffineTorus(1, 64)
    g = MetricField(t, np.eye(1))
    b1 = build_bundle([np.array([[1.0]])])
    x = t.coordinate(0)
    h0p = np.exp(-np.sin(2 * np.pi * x))[..., None, None].astype(complex)
    res_a = run_continuation(b1, t, g, h0p)
    assert res_a.status == "converged"
    report("5a T1 K-defect", res_a.K_defect, 1e-6)
    vals = res_a.final_metric[..., 0, 0].real
    report("5a T1 constant up to scale",
           float((vals.max() - vals.min()) / vals.mean()), 1e-6)

    # (a) T^2 with the Gauduchon-rescaled conformal metric
    t2 = AffineTorus(2, 32)
    x1 = t2.coordinate(0)
    g2 = MetricField(t2, np.eye(2)[None, None]
                     * (1 + 0.5 * np.sin(2 * np.pi * x1))[..., None, None])
    gG = find_gauduchon_factor(g2).metric
    b2 = build_bundle([np.array([[1.0]])] * 2)
    rng = np.random.default_rng(5)
    h0p2 = random_hermitian_metric(b2, t2, rng, amplitude=0.3, modes=1)
    res_a2 = run_continuation(b2, t2, gG, h0p2)
    assert res_a2.status == "converged"
    report("5a T2 K-defect", res_a2.K_defect, 1e-6)

    # (b) diag(2,3) from a non-diagonal start
    bd = build_bundle([np.diag([2.0, 3.0])])
    h0pd = random_hermitian_metric(bd, t, rng, amplitude=0.1, modes=1)
    res_b = run_continuation(bd, t, g, h0pd)
    assert res_b.status == "converged"
    report("5b K-defect", res_b.K_defect, 1e-6)
    report("5b off-diagonal", float(np.abs(res_b.final_metric[..., 0, 1]).max()),
           1e-6)

    # (c) determinant defect along the rank-2 run; the rank-1 runs take no
    # eps-path
    report("5c det f defect along runs", max(r[3] for r in res_b.history), 1e-6)
    for res in (res_a, res_a2):
        assert res.history == []
        assert res.diagnostics["newton_directions"] == 0
        assert res.diagnostics["krylov_matvecs"] == 0

    # (d) normalization identity for the runs above
    worst_tr = max(res.diagnostics["trK_defect"]
                   for res in (res_a, res_b))
    report("5d tr K0 = r gamma (N=64)", worst_tr, 10.0 / 64**2)
    report("5d tr K0 = r gamma (T2 N=32)",
           res_a2.diagnostics["trK_defect"], 10.0 / 32**2)


def test_criterion_6_blowup_and_destabilizer():
    """Unipotent rank-2: m reaches 25, the extracted projection has all four
    defects within 1e-4, the flattened subbundle is span(e1), the slope
    inequality holds with both slopes near zero, and the two Chern-Weil
    paths agree within 10 N^-2."""
    N = 64
    t = AffineTorus(1, N)
    g = MetricField(t, np.eye(1))
    b = build_bundle([UNIPOTENT])
    res = run_continuation(b, t, g, max_steps=400)
    assert res.status == "blowup", res.status
    report("6 blow-up m reaches 25", 25.0 - res.diagnostics["m_at_blowup"], 0.0)

    rep = destabilize(b, t, res.h0, g, res.blowup_data)
    for name in ("pi2", "adjoint", "delbar", "flat"):
        report(f"6 projection defect {name}", rep.projection_defects[name], 1e-4)
    basis = np.abs(rep.subbundle.basis[:, 0])
    report("6 flattened subbundle is span(e1)",
           float(np.abs(basis - [1.0, 0.0]).max()), 1e-10)
    tol = 10.0 / N**2
    report("6 slope of F near zero", abs(rep.slopes[0]), tol)
    report("6 slope of E near zero", abs(rep.slopes[1]), tol)
    report("6 slope inequality mu(E) - mu(F)", rep.slopes[1] - rep.slopes[0], tol)
    report("6 chern-weil two-path agreement", rep.chern_weil_defect, tol)


def test_criterion_7_real_bundles():
    """Rotation by sqrt(2) pi: R-stable with a conjugate splitting; the
    extended real Hermitian-Einstein metric has reality defect <= 1e-10 and
    K-defect <= 1e-6."""
    t = AffineTorus(1, 64)
    g = MetricField(t, np.eye(1))
    th = np.sqrt(2) * np.pi
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    br = build_bundle([R], field="real")
    rep = stability_verdict(br, t, g)
    assert rep.label == "R-stable", rep.label
    assert rep.splitting is not None
    print("PASS 7 verdict: R-stable with V+conj(V) splitting")
    Hreal, result, reality = real_he_metric(br, t, g, splitting=rep.splitting)
    assert result.status == "converged"
    report("7 reality defect", reality, 1e-10)
    report("7 K-defect of extended metric", he_K_defect(br, t, g, Hreal), 1e-6)


def test_criterion_8_simplicity():
    """Commutant dimensions are exact on rank <= 4: the unipotent bundle is
    not C-simple, every stable example is C-simple."""
    uni = commutant_dimension([UNIPOTENT])
    print(f"PASS 8 unipotent commutant dimension = {uni} (not C-simple)")
    assert uni == 2
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    rep = stability_verdict(build_bundle([UNIPOTENT]), t, g)
    assert rep.simplicity == "not-simple" and not rep.is_stable()

    stable_examples = [
        build_bundle([np.array([[2.0]])]),
        build_bundle([np.array([[np.exp(1j * 0.7)]])]),
        build_bundle([np.array([[3.0]])]),
    ]
    for bb in stable_examples:
        r = stability_verdict(bb, t, g)
        assert r.is_stable() and r.simplicity == "C-simple"
    print("PASS 8 every stable example is C-simple")

    exact = {
        "diag(2,3)": ([np.diag([2.0, 3.0])], 2),
        "J3": ([np.array([[1.0, 1, 0], [0, 1, 1], [0, 0, 1]])], 3),
        "J2+J2": ([np.block([[UNIPOTENT, np.zeros((2, 2))],
                             [np.zeros((2, 2)), UNIPOTENT]])], 8),
        "diag4": ([np.diag([2.0, 3.0, 5.0, 7.0])], 4),
        "pair": ([np.diag([2.0, 2.0, 3.0]), np.diag([1.0, 5.0, 1.0])], 3),
    }
    for name, (mats, want) in exact.items():
        got = commutant_dimension(mats)
        assert got == want, (name, got, want)
    print("PASS 8 exact commutant dimensions on rank <= 4")
