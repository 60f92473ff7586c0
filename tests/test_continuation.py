"""Continuity method: normalization, residual, linearization, Newton, runs."""

import warnings

import numpy as np
import pytest
from derivatives import d_fL, d_fL_fd
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import he_K_defect, herm_defect, newton_trial, renormalize_det

from affinehe.bundle import (
    HermCalculus,
    build_bundle,
    canonical_metric,
    hermitize,
    pmul,
    random_hermitian_metric,
)
import affinehe.continuation as continuation
import affinehe.torus as torus_module
from affinehe import krylov
from affinehe.continuation import (
    CUT_MIN,
    DEFAULT_FACTOR,
    ETA_MAX,
    ETA_MIN,
    STALL_ACCEPT,
    ContinuationProblem,
    einstein_constant,
    forcing_term,
    newton_solve,
    normalize_background,
    real_he_metric,
    run_continuation,
    solve_scalar_elliptic,
)
from affinehe.destabilizer import destabilize
from affinehe.errors import Diverged
from affinehe.forms import MetricField
from affinehe.gauduchon import find_gauduchon_factor
from affinehe.stability import degree, stability_verdict
from affinehe.torus import AffineTorus, random_smooth_scalar
from test_gauduchon import bbt_metric

UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def t64():
    return AffineTorus(1, 64)


@pytest.fixture
def gI(t64):
    return MetricField(t64, np.eye(1))


def spectral_second_derivative(v, N):
    # independent oracle along axis 0: plain FFT differentiation, written
    # without the package's operator stack
    k = np.fft.fftfreq(N, d=1.0 / N)
    symbol = ((2j * np.pi * k) ** 2).reshape((N,) + (1,) * (np.ndim(v) - 1))
    return np.fft.ifft(np.fft.fft(v, axis=0) * symbol, axis=0)


# ---------------------------------------------------------------------------
# einstein constant
# ---------------------------------------------------------------------------

def test_gamma_zero_on_torus(t64, gI, rng):
    b = build_bundle([UNIPOTENT])
    H = random_hermitian_metric(b, t64, rng, amplitude=0.3)
    assert einstein_constant(b, t64, H, gI) == 0.0
    raw = t64.dim * degree(t64, H, gI) / b.rank / gI.total_volume()
    assert abs(raw) <= 10 / 64**2


# ---------------------------------------------------------------------------
# scalar elliptic solve and normalization
# ---------------------------------------------------------------------------

def test_scalar_elliptic_oracle(t64, gI):
    x = t64.coordinate(0)
    rho_true = np.sin(2 * np.pi * x) + 0.3 * np.cos(4 * np.pi * x)
    from affinehe.forms import laplacian_type

    rhs = laplacian_type(gI, rho_true)
    rho, res = solve_scalar_elliptic(gI, rhs)
    assert res < 1e-10
    assert np.abs(rho.real - (rho_true - rho_true.mean())).max() < 1e-8


def test_normalize_trivial_already_flat(t64, gI):
    b = build_bundle([np.array([[1.0]])])
    H0, f1, diag = normalize_background(b, t64, canonical_metric(b, t64), gI)
    assert diag["trK_defect"] < 1e-12
    assert np.abs(f1 - 1.0).max() < 1e-12
    assert np.abs(H0 - 1.0).max() < 1e-12


def test_normalize_rank1_sin_oracle(t64, gI):
    # h0' = e^{-sin}: the potential solves (1/4) rho'' = (1/4) sin'', so
    # rho = sin(2 pi x) up to a constant
    b = build_bundle([np.array([[1.0]])])
    x = t64.coordinate(0)
    h0p = np.exp(-np.sin(2 * np.pi * x))[..., None, None].astype(complex)
    H0, f1, diag = normalize_background(b, t64, h0p, gI)
    assert diag["gamma"] == 0.0
    assert diag["trK_defect"] <= 1e-6
    # f1 positive
    assert f1[..., 0, 0].real.min() > 0
    prob = ContinuationProblem(b, t64, H0, gI, 0.0)
    at = prob.res_norm(f1, 1.0)
    assert prob.m_and_det_defect(at.w, at.logf)[1] <= 1e-6
    assert at.res <= 1e-6
    # the normalized h1 = e^rho h0' is the flat metric up to scale
    H1 = H0 @ f1
    vals = H1[..., 0, 0].real
    assert (vals.max() - vals.min()) / vals.mean() < 1e-8


def test_normalize_imbalance_recorded(t64, gI, rng):
    b = build_bundle([np.diag([2.0, 3.0])])
    h0p = random_hermitian_metric(b, t64, rng, amplitude=0.1, modes=1)
    H0, f1, diag = normalize_background(b, t64, h0p, gI)
    assert diag["rhs_imbalance"] < 1e-10
    assert diag["trK_defect"] <= 10 / 64**2


# ---------------------------------------------------------------------------
# residual oracles
# ---------------------------------------------------------------------------

def test_residual_trivial_zero(t64, gI):
    b = build_bundle([np.array([[1.0]])])
    prob = ContinuationProblem(b, t64, canonical_metric(b, t64), gI, 0.0)
    f = canonical_metric(b, t64)
    assert prob.res_norm(f, 0.7).res < 1e-14


def test_residual_constant_scalar_exact(t64, gI):
    # f = e^c I on the trivial bundle: L_eps(f) = eps c I exactly
    b = build_bundle([np.eye(2)])
    prob = ContinuationProblem(b, t64, canonical_metric(b, t64), gI, 0.0)
    c = 0.37
    f = np.broadcast_to(np.exp(c) * np.eye(2, dtype=complex), (64, 2, 2)).copy()
    L = prob.res_norm(f, 0.25).L
    assert np.abs(L - 0.25 * c * np.eye(2)).max() < 1e-13


def test_residual_scalar_reduction_oracle(t64, gI, rng):
    # rank 1, trivial bundle, h0 = 1, f = e^{-v}:
    # L_eps(f) = (1/4) v'' - eps v, checked against plain FFT arithmetic
    b = build_bundle([np.array([[1.0]])])
    prob = ContinuationProblem(b, t64, canonical_metric(b, t64), gI, 0.0)
    v = random_smooth_scalar(t64, rng, real=True).real
    f = np.exp(-v)[..., None, None].astype(complex)
    for eps in (1.0, 0.3, 0.0):
        L = prob.res_norm(f, eps).L
        oracle = 0.25 * spectral_second_derivative(v, 64) - eps * v
        assert np.abs(L[..., 0, 0] - oracle).max() < 1e-10


def test_residual_hat_hermitian(t64, gI, rng):
    b = build_bundle([UNIPOTENT])
    H0, f1, _ = normalize_background(
        b, t64, random_hermitian_metric(b, t64, rng, amplitude=0.1, modes=1), gI)
    prob = ContinuationProblem(b, t64, H0, gI, 0.0)
    Lhat = f1 @ prob.res_norm(f1, 0.5).L
    assert herm_defect(prob.calc0, Lhat) < 1e-6


# ---------------------------------------------------------------------------
# linearization
# ---------------------------------------------------------------------------

def test_linearize_zero_direction(t64, gI):
    b = build_bundle([UNIPOTENT])
    prob = ContinuationProblem(b, t64, canonical_metric(b, t64), gI, 0.0)
    f = canonical_metric(b, t64)
    assert np.abs(d_fL(prob, f, np.zeros_like(f), 0.5)).max() == 0.0


def test_linearize_identity_formula(t64, gI, rng):
    # trivial bundle at f = I: the derivative is phi -> tr_g delbar del0 phi
    # + eps phi = -(1/4) phi'' + eps phi exactly, checked against plain FFT
    # arithmetic
    b = build_bundle([np.eye(2)])
    prob = ContinuationProblem(b, t64, canonical_metric(b, t64), gI, 0.0)
    f = canonical_metric(b, t64)
    phi = prob.calc0.hermitize(random_hermitian_metric(b, t64, rng) - np.eye(2))
    eps = 0.35
    out = d_fL(prob, f, phi, eps)
    expect = -0.25 * spectral_second_derivative(phi, 64) + eps * phi
    scale = np.abs(expect).max()
    assert np.abs(out - expect).max() < 1e-5 * scale
    fd = d_fL_fd(prob, f, phi, eps)
    assert np.abs(fd - expect).max() < 1e-5 * scale


def test_linearize_fd_vs_analytic_random_states(t64, gI, rng):
    b = build_bundle([UNIPOTENT])
    H0, f1, _ = normalize_background(
        b, t64, random_hermitian_metric(b, t64, rng, amplitude=0.1, modes=1), gI)
    prob = ContinuationProblem(b, t64, H0, gI, 0.0)
    calc = prob.calc0
    for _ in range(5):
        f = calc.from_hermitian(random_hermitian_metric(b, t64, rng, amplitude=0.3))
        phi = calc.hermitize(random_hermitian_metric(b, t64, rng) - np.eye(2))
        an = d_fL(prob, f, phi, 0.4)
        fd = d_fL_fd(prob, f, phi, 0.4)
        assert np.abs(an - fd).max() <= 1e-5 * np.abs(fd).max()


@pytest.mark.parametrize("eps", [0.0, 0.4])
@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_linearize_fd_vs_analytic_grid(dim, backend, r, eps):
    # unipotent on axis 0, identity (B = 0 exactly) on axis 1, twice
    # unipotent on axis 2; a perturbed background, so theta_0 varies
    rng = np.random.default_rng(100 * dim + 10 * r + (backend == "fd"))
    t = AffineTorus(dim, 16 if dim == 1 else 8, backend)
    g = MetricField(t, np.eye(dim))
    J = np.eye(r) + np.eye(r, k=1)
    b = build_bundle([J, np.eye(r), 2.0 * J][:dim])
    H0 = random_hermitian_metric(b, t, rng, amplitude=0.2, modes=1)
    prob = ContinuationProblem(b, t, H0, g, 0.0)
    calc = prob.calc0
    f = calc.from_hermitian(random_hermitian_metric(b, t, rng, amplitude=0.3, modes=1))
    phi = calc.hermitize(random_hermitian_metric(b, t, rng, modes=1) - np.eye(r))
    an = d_fL(prob, f, phi, eps)
    fd = d_fL_fd(prob, f, phi, eps)
    assert np.abs(an - fd).max() <= 1e-5 * np.abs(fd).max()


def test_newton_direction_freezes_linearization(monkeypatch):
    # the blowup_t2 benchmark input: every linearize_residual call is one
    # gmres matvec (no matvec on x = 0, no check matvec after gmres), and a
    # direction's eigendecompositions do not grow with its matvecs
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2))
    b = build_bundle([UNIPOTENT, np.eye(2)])
    H0, f1, _ = normalize_background(b, t, canonical_metric(b, t), g)
    prob = ContinuationProblem(b, t, H0, g, 0.0)
    far = renormalize_det(prob.calc0.from_hermitian(random_hermitian_metric(
        b, t, np.random.default_rng(0), amplitude=0.3, modes=1)))
    counts = dict(eig=0, linearize=0, matvec=0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    gmres = krylov.gmres

    def counting_gmres(matvec, rhs, psolve, **kwargs):
        return gmres(counting("matvec", matvec), rhs, psolve, **kwargs)

    monkeypatch.setattr(HermCalculus, "eig", counting("eig", HermCalculus.eig))
    monkeypatch.setattr(ContinuationProblem, "linearize_residual",
                        counting("linearize", ContinuationProblem.linearize_residual))
    monkeypatch.setattr(krylov, "gmres", counting_gmres)
    per_solve = []
    for f in (f1, far):
        at = prob.res_norm(f, 0.5)
        counts.update(eig=0, linearize=0, matvec=0)
        prob.solve_newton_direction(prob.linearization(at), at.L, 1e-8)
        per_solve.append(dict(counts))
    for c in per_solve:
        assert c["linearize"] == c["matvec"]
    assert per_solve[0]["matvec"] < per_solve[1]["matvec"]
    assert per_solve[0]["eig"] == per_solve[1]["eig"]


def dag(X):
    return np.conj(np.swapaxes(X, -1, -2))


def traceless(s):
    r = s.shape[-1]
    return s - (np.einsum("...aa->...", s) / r)[..., None, None] * np.eye(r)


@given(dim=st.integers(1, 2), r=st.integers(2, 3), conjugated=st.booleans(),
       amplitude=st.sampled_from([0.3, 1.0]), step=st.sampled_from([1.0, 0.5, 2**-8, -0.7]),
       seed=st.integers(0, 2**16))
def test_newton_state_frame_matches_the_reference_formulas(dim, r, conjugated, amplitude,
                                                           step, seed):
    # log f, f^{-1}, f^{1/2} and Dlog_f from the frame of f's one
    # eigendecomposition, and a line-search trial built from a Newton
    # direction's (sigma, C), against from_eig, LAPACK's inv, the two-sided
    # Daleckii-Krein formula and the trial as the h_0-adjoint and slogdet
    # built it; h_0 is a constant metric P^dag P with cond(P) <= 10 (the
    # canonical metric in a conjugated frame) or a random smooth one
    rng = np.random.default_rng(seed)
    t = AffineTorus(dim, 8)
    J = np.eye(r) + np.eye(r, k=1)
    b = build_bundle([J, np.eye(r)][:dim])
    if conjugated:
        P = np.eye(r) + 0.5 * rng.standard_normal((r, r))
        while np.linalg.cond(P) > 10:
            P = np.eye(r) + 0.5 * rng.standard_normal((r, r))
        H0 = hermitize(dag(P) @ canonical_metric(b, t) @ P)
    else:
        H0 = random_hermitian_metric(b, t, rng, amplitude=0.5, modes=1)
    prob = ContinuationProblem(b, t, H0, MetricField(t, np.eye(dim)), 0.0)
    calc = prob.calc0
    f = calc.from_hermitian(random_hermitian_metric(b, t, rng, amplitude=amplitude, modes=1))
    at = prob.res_norm(f, 0.5)
    lin = prob.linearization(at)

    def close(got, ref):
        assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    w, U = at.w, at.U
    close(at.logf, calc.from_eig(U, np.log(w)))
    close(at.finv, np.linalg.inv(f))
    close(lin.sqrt_f, calc.from_eig(U, np.sqrt(w)))
    wi, wj = w[..., :, None], w[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wi == wj, 1.0 / wi, np.log(wi / wj) / (wi - wj))
    Phi = rng.standard_normal(f.shape) + 1j * rng.standard_normal(f.shape)
    sq, isq = calc.sqrt, calc.isqrt
    close(lin.dlog(Phi), isq @ U @ ((dag(U) @ sq @ Phi @ isq @ U) * ratio) @ dag(U) @ sq)
    solves = []
    gmres = krylov.gmres

    def recording(matvec, b, psolve, **kwargs):
        solves.append(gmres(matvec, b, psolve, **kwargs))
        return solves[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov, "gmres", recording)
        s = prob.solve_newton_direction(lin, at.L, 1e-8)
    x = solves[0][0].reshape(f.shape)
    sigma, V = calc.eig(traceless(calc.hermitize(x)))
    close(s[0], sigma)
    f_try, image = prob.update(lin, s, step)
    close(f_try, newton_trial(calc, lin.sqrt_f, sigma, V, step))
    close(image, calc.sqrt @ f_try @ calc.isqrt)
    assert np.abs(np.linalg.det(f_try) - 1.0).max() <= 1e-13


def test_blowup_t2_gmres_solves_take_their_residual_from_one_matvec(monkeypatch):
    # every Newton direction and path tangent of the blowup_t2 run is a
    # first gmres cycle that ends after one Arnoldi step: it makes exactly
    # `steps` matvecs, none to check its residual, and its x meets rtol by a
    # fresh ||b - A x|| as well as by the residual from the step's image
    solves = []
    gmres = krylov.gmres

    def recording(matvec, b, psolve, rtol, maxiter):
        calls = []

        def counted(v):
            calls.append(1)
            return matvec(v)
        x, info, steps, rnorm = gmres(counted, b, psolve, rtol=rtol, maxiter=maxiter)
        solves.append((matvec, b, x, info, steps, rnorm, rtol, len(calls)))
        return x, info, steps, rnorm

    monkeypatch.setattr(krylov, "gmres", recording)
    t = AffineTorus(2, 16)
    res = run_continuation(build_bundle([UNIPOTENT, np.eye(2)]), t,
                           MetricField(t, np.eye(2)), m_max=25.0)
    d = res.diagnostics
    assert res.status == "blowup"
    assert len(solves) == d["newton_directions"] + d["tangent_solves"] == d["krylov_matvecs"]
    for matvec, b, x, info, steps, rnorm, rtol, calls in solves:
        assert (info, steps, calls) == (0, 1, 1)
        bound = rtol * np.linalg.norm(b)
        assert rnorm <= bound
        assert np.linalg.norm(b - matvec(x)) <= bound


def test_newton_step_diagonalizes_each_state_once(monkeypatch):
    # the blowup_t2 input off the path: a Newton step makes one
    # eigendecomposition per line-search trial (in res_norm) and one for its
    # direction s, and freezing DL at an evaluated state makes no
    # eigendecomposition, inverse or del_0 of f
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2))
    b = build_bundle([UNIPOTENT, np.eye(2)])
    H0, f1, diag = normalize_background(b, t, canonical_metric(b, t), g)
    prob = ContinuationProblem(b, t, H0, g, diag["gamma"])
    counts = dict(eig=0, inv=0, del0=0)

    def counting(name, fn):
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    monkeypatch.setattr(HermCalculus, "eig", counting("eig", HermCalculus.eig))
    monkeypatch.setattr(np.linalg, "inv", counting("inv", np.linalg.inv))
    monkeypatch.setattr(continuation, "covariant_del0",
                        counting("del0", continuation.covariant_del0))
    at = prob.res_norm(f1, 0.5)
    assert counts == dict(eig=1, inv=0, del0=1)
    prob.linearization(at)
    assert counts == dict(eig=1, inv=0, del0=1)
    counts.update(eig=0)
    st = newton_solve(prob, 0.5, f1)
    work = prob.work
    assert st.converged and work["newton_directions"] >= 2
    assert counts["eig"] == 1 + work["line_search_trials"] + work["newton_directions"]


@pytest.mark.parametrize("N,metric,fields", [(16, "identity", 4), (15, "bbt", 2 + 4)])
def test_matvec_differentiates_the_nonzero_pairs_of_g_inverse(N, metric, fields, rng,
                                                             monkeypatch):
    # one Newton matvec on T^2 differentiates phi once per axis for del_0 phi
    # (2 fields) and, for tr_g delbar, a_i along axis j only where g^{ij} is
    # not identically zero: 2 fields for g = I (the blowup_t2 config), 4 for
    # the full g^{-1} of bbt_metric; all n^2 pairs would make 6 for either
    t = AffineTorus(2, N)
    g = MetricField(t, np.eye(2)) if metric == "identity" else bbt_metric(t)
    b = build_bundle([UNIPOTENT, np.eye(2)])
    H0 = canonical_metric(b, t)
    calc = HermCalculus(H0)
    f = calc.from_hermitian(random_hermitian_metric(b, t, rng, amplitude=0.3))
    prob = ContinuationProblem(b, t, H0, g, 0.0)
    lin = prob.linearization(prob.res_norm(f, 0.5))
    phi = calc.hermitize(random_hermitian_metric(b, t, rng, amplitude=0.3))
    differentiated = []
    along = torus_module.along

    def counting(values, *ops):
        differentiated.append(values.size // (t.n_points * 4))
        return along(values, *ops)

    monkeypatch.setattr(torus_module, "along", counting)
    prob.linearize_residual(lin, phi)
    assert sum(differentiated) == fields


def test_newton_direction_stops_at_its_forcing_term(monkeypatch):
    # the blowup_t2 benchmark input away from the solution: gmres stops at
    # the relative residual it is given, and a loose one takes fewer matvecs
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2))
    b = build_bundle([UNIPOTENT, np.eye(2)])
    H0, _, _ = normalize_background(b, t, canonical_metric(b, t), g)
    prob = ContinuationProblem(b, t, H0, g, 0.0)
    far = renormalize_det(prob.calc0.from_hermitian(random_hermitian_metric(
        b, t, np.random.default_rng(0), amplitude=0.3, modes=1)))
    solves = []
    gmres = krylov.gmres

    def recording_gmres(matvec, rhs, psolve, **kwargs):
        x, info, steps, rnorm = gmres(matvec, rhs, psolve, **kwargs)
        solves.append((matvec, rhs, x, info))
        return x, info, steps, rnorm

    monkeypatch.setattr(krylov, "gmres", recording_gmres)
    at = prob.res_norm(far, 0.5)
    lin, L = prob.linearization(at), at.L
    matvecs = {}
    for eta in (1e-2, 1e-8):
        before = prob.work["krylov_matvecs"]
        prob.solve_newton_direction(lin, L, eta)
        matvecs[eta] = prob.work["krylov_matvecs"] - before
        matvec, rhs, x, info = solves[-1]
        assert info == 0
        assert np.linalg.norm(matvec(x) - rhs) <= eta * np.linalg.norm(rhs)
    assert matvecs[1e-2] < matvecs[1e-8]
    assert prob.work["newton_directions"] == 2
    assert prob.work["krylov_unconverged"] == 0
    # at eta = 1e-8 the far state needs a second gmres cycle (the first
    # meets its preconditioned estimate, not the true residual), so a cap of
    # one cycle returns info = 1, which is counted
    monkeypatch.setattr(krylov, "gmres", lambda matvec, rhs, psolve, **kwargs: (
        recording_gmres(matvec, rhs, psolve, **(kwargs | {"maxiter": 1}))))
    prob.solve_newton_direction(lin, L, 1e-8)
    assert solves[-1][3] == 1
    assert prob.work["krylov_unconverged"] == 1


@pytest.mark.parametrize("tol_eff", [1e-300, 1e-14, 1e-8, 1.0, 1e300])
@pytest.mark.parametrize("res", [1e-300, 1e-14, 1e-8, 1.0, 1e300])
def test_forcing_term_stays_in_bounds(tol_eff, res):
    eta = forcing_term(tol_eff, res)
    assert (ETA_MIN, ETA_MAX) == (1e-8, 0.1)
    assert ETA_MIN <= eta <= ETA_MAX
    if ETA_MIN <= 0.5 * tol_eff / res <= ETA_MAX:
        assert eta == 0.5 * tol_eff / res


def test_linearize_richardson_order(t64, gI, rng):
    # central differences converge at second order: quartering the error
    # when t halves (up to roundoff), so fd(t) approaches the analytic value
    b = build_bundle([UNIPOTENT])
    H0, f1, _ = normalize_background(
        b, t64, random_hermitian_metric(b, t64, rng, amplitude=0.1, modes=1), gI)
    prob = ContinuationProblem(b, t64, H0, gI, 0.0)
    calc = prob.calc0
    f = calc.from_hermitian(random_hermitian_metric(b, t64, rng, amplitude=0.4))
    phi = calc.hermitize(random_hermitian_metric(b, t64, rng) - np.eye(2))
    an = d_fL(prob, f, phi, 0.4)
    errs = []
    for t_rel in (4e-2, 2e-2, 1e-2):
        fd = d_fL_fd(prob, f, phi, 0.4, t_rel=t_rel)
        errs.append(np.abs(fd - an).max())
    r1 = errs[0] / errs[1]
    r2 = errs[1] / errs[2]
    assert 2.5 < r1 < 6.0
    assert 2.5 < r2 < 6.0


# ---------------------------------------------------------------------------
# newton and full runs
# ---------------------------------------------------------------------------

def test_newton_at_solution_zero_iterations(t64, gI):
    # f = I solves L_eps = 0 for diag(2,3) on the canonical metric
    b = build_bundle([np.diag([2.0, 3.0])])
    prob = ContinuationProblem(b, t64, canonical_metric(b, t64), gI, 0.0)
    st = newton_solve(prob, 0.5, canonical_metric(b, t64))
    assert st.converged
    assert st.history == []
    assert prob.work["newton_directions"] == 0


@pytest.fixture(scope="module")
def polystable_t1():
    """The eps = 1 problem of a T^1 N=32 diag(2,3) solve whose background is
    perturbed with amplitude 0.1, modes 1, seed 0, built as the CLI builds
    it.  Its first Newton step finds no better trial: the entry residual,
    about 4e-10, is 33x the rel_target tolerance 0.03 * |L|."""
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    b = build_bundle([np.diag([2.0, 3.0]).astype(complex)])
    h0p = canonical_metric(b, t) @ random_hermitian_metric(
        b, t, np.random.default_rng(0), amplitude=0.1, modes=1)
    h0p = 0.5 * (h0p + np.conj(np.swapaxes(h0p, -1, -2)))
    H0, f1, diag = normalize_background(b, t, h0p, g)
    return ContinuationProblem(b, t, H0, g, diag["gamma"]), f1


def test_newton_accepts_stall_within_stall_accept(polystable_t1):
    prob, f1 = polystable_t1
    st = newton_solve(prob, 1.0, f1, rel_target=0.03)
    assert st.converged
    # one rejected line search: f and its residual are the entry ones
    assert np.array_equal(st.at.f, prob.calc0.hermitize(f1))
    assert st.history == [(1.0, st.at.res, st.m, st.det_defect)]
    # the entry residual, above the rel_target tolerance of newton_solve but
    # within STALL_ACCEPT of it
    assert st.at.res == prob.res_norm(prob.calc0.hermitize(f1), 1.0).res
    hard_floor = 1e-14 * max(1.0, float(np.abs(prob.K0).max()))
    tol_eff = max(min(max(1e-8, hard_floor), 0.03 * st.at.res), hard_floor)
    assert tol_eff < st.at.res <= STALL_ACCEPT * tol_eff


def test_newton_solve_passes_its_forcing_term(polystable_t1, monkeypatch):
    # every direction is solved to forcing_term(tol_eff, res) at the residual
    # it starts from
    prob, f1 = polystable_t1
    calls = []
    solve = ContinuationProblem.solve_newton_direction

    def recording(self, lin, L, eta):
        calls.append((self.calc0.sup_norm(L), eta))
        return solve(self, lin, L, eta)

    monkeypatch.setattr(ContinuationProblem, "solve_newton_direction", recording)
    st = newton_solve(prob, 0.5, f1)
    assert st.converged and calls
    assert [eta for _, eta in calls] == [forcing_term(1e-8, res) for res, _ in calls]


@pytest.fixture(scope="module")
def blowup_t2_eps_zero_probe():
    """The problem and starting state of the first eps = 0 probe of the
    blowup_t2 run (T^2 N=16, unipotent x I, m_max 25).  The probe contracts
    by about 0.37 per step, so no line-search trial reaches the 0.3 cut."""
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2))
    probes = []
    newton = continuation.newton_solve

    def capturing(problem, eps, f, **kwargs):
        if eps == 0.0 and not probes:
            probes.append((problem, np.array(f)))
        return newton(problem, eps, f, **kwargs)

    mp = pytest.MonkeyPatch()
    mp.setattr(continuation, "newton_solve", capturing)
    try:
        run_continuation(build_bundle([UNIPOTENT, np.eye(2)]), t, g, m_max=25.0)
    finally:
        mp.undo()
    return probes[0]


@pytest.mark.parametrize("case", ["polystable_t1", "blowup_t2_eps_zero_probe"])
def test_line_search_picks_the_exhaustive_best(case, request, monkeypatch):
    # newton_solve stops its line search once a shorter step stops helping;
    # every direction still ends at the f an exhaustive search over all 9
    # step lengths picks, computed here beside it
    prob, f0 = request.getfixturevalue(case)
    eps = 0.5 if case == "polystable_t1" else 0.0
    searches = []
    solve = ContinuationProblem.solve_newton_direction

    def searching(self, lin, L, eta):
        s = solve(self, lin, L, eta)
        trials = [self.update(lin, s, 0.5**k) for k in range(9)]
        res = [self.res_norm(f, lin.eps, image).res for f, image in trials]
        searches.append((self.calc0.sup_norm(L), trials[int(np.argmin(res))][0], min(res)))
        return s

    monkeypatch.setattr(ContinuationProblem, "solve_newton_direction", searching)
    before = prob.work["line_search_trials"]
    st = newton_solve(prob, eps, f0, m_max=25.0)
    trials = prob.work["line_search_trials"] - before
    assert len(searches) == len(st.history) >= 2
    assert trials < 9 * len(searches)
    for i, (res, _, res_best) in enumerate(searches):
        assert res_best < res * (1.0 - 1e-4)  # the exhaustive pick is accepted
        assert st.history[i][1] == res_best
        if i + 1 < len(searches):
            assert searches[i + 1][0] == res_best
    assert np.array_equal(st.at.f, searches[-1][1])


def test_line_search_rejects_a_singular_trial(polystable_t1, monkeypatch):
    # a trial whose residual raises LinAlgError (a numerically singular f in
    # f^{-1} del_0 f) is rejected like a non-finite one: with the first full
    # step singular, newton_solve takes the half step
    prob, f1 = polystable_t1
    steps, seen = [None], []
    update, res_norm = ContinuationProblem.update, ContinuationProblem.res_norm

    def recording_update(self, lin, s, step=1.0):
        steps.append(step)
        return update(self, lin, s, step)

    def singular_first_full_step(self, f, eps, image=None):
        if steps[-1] == 1.0 and not any(step == 1.0 for step, _ in seen):
            seen.append((1.0, None))
            raise np.linalg.LinAlgError("Singular matrix")
        seen.append((steps[-1], res_norm(self, f, eps, image)))
        return seen[-1][1]

    monkeypatch.setattr(ContinuationProblem, "update", recording_update)
    monkeypatch.setattr(ContinuationProblem, "res_norm", singular_first_full_step)
    st = newton_solve(prob, 0.5, f1)
    assert st.converged
    assert [step for step, _ in seen[:3]] == [None, 1.0, 0.5]
    assert st.history[0][1] == seen[2][1].res < seen[0][1].res


def test_line_search_rejects_an_overflowing_trial(polystable_t1, monkeypatch):
    # a trial whose update overflows is rejected before its residual is
    # evaluated, and the overflow raises no RuntimeWarning: with the first
    # full step overflowing, newton_solve takes the half step
    prob, f1 = polystable_t1
    update, res_norm = ContinuationProblem.update, ContinuationProblem.res_norm
    steps, evaluated = [], []

    def overflowing_first_step(self, lin, s, step=1.0):
        steps.append(step)
        f, image = update(self, lin, s, step)
        return (f * np.float64(1e300) * np.float64(1e300) if len(steps) == 1 else f), image

    def recording_res_norm(self, f, eps, image=None):
        evaluated.append(steps[-1] if steps else None)
        return res_norm(self, f, eps, image)

    monkeypatch.setattr(ContinuationProblem, "update", overflowing_first_step)
    monkeypatch.setattr(ContinuationProblem, "res_norm", recording_res_norm)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        st = newton_solve(prob, 0.5, f1)
    assert st.converged
    assert steps[:2] == [1.0, 0.5]
    assert evaluated[:2] == [None, 0.5]


def test_newton_stall_beyond_stall_accept_diverges(polystable_t1):
    prob, f1 = polystable_t1
    with pytest.raises(Diverged):
        newton_solve(prob, 1.0, f1, rel_target=0.01)


def test_newton_hands_off_hot_state_at_m_max(polystable_t1):
    prob, f1 = polystable_t1
    st = newton_solve(prob, 1.0, f1, m_max=0.0, rel_target=0.03)
    assert not st.converged
    assert st.history == []


def test_run_trivial_rank1_recovers_constant(t64, gI):
    b = build_bundle([np.array([[1.0]])])
    x = t64.coordinate(0)
    h0p = np.exp(-np.sin(2 * np.pi * x))[..., None, None].astype(complex)
    res = run_continuation(b, t64, gI, h0p)
    assert res.status == "converged"
    assert res.K_defect <= 1e-6
    vals = res.final_metric[..., 0, 0].real
    assert (vals.max() - vals.min()) / vals.mean() < 1e-8
    # rank 1 ends at the background normalization: no eps-path, no Krylov work
    assert res.history == []
    assert res.diagnostics["krylov_matvecs"] == 0


@st.composite
def rank1_grids(draw):
    """(dim, N, backend) within the suite's grid caps, odd and even N; fd
    only on T^1 (at even N on T^2 and T^3 the fd Gauduchon kernel of the
    conformal metric is not one-dimensional)."""
    dim = draw(st.integers(1, 3))
    N = draw(st.integers(8, {1: 32, 2: 16, 3: 9}[dim]))
    return dim, N, draw(st.sampled_from(["spectral", "fd"] if dim == 1 else ["spectral"]))


@given(grid=rank1_grids(),
       radii=st.lists(st.floats(0.5, 3.0), min_size=3, max_size=3),
       angles=st.lists(st.floats(-np.pi, np.pi), min_size=3, max_size=3),
       conformal=st.booleans(), amplitude=st.sampled_from([0.0, 0.1, 0.3]),
       seed=st.integers(0, 2**16))
@example(grid=(3, 8, "spectral"), radii=[2.0, 1.5, 0.5], angles=[0.3, 2.0, -1.0],
         conformal=False, amplitude=0.3, seed=0)
def test_rank1_ends_at_the_normalization(grid, radii, angles, conformal, amplitude, seed):
    # a flat line bundle with monodromies lambda_k = r e^{i theta} has the
    # HE metric c |lambda|^{-2x} in the flat frame, constant in the periodic
    # gauge; the run reaches it with no eps-path and no Krylov matvec, from a
    # perturbed background, on a constant non-diagonal metric or on the
    # Gauduchon metric of (1 + 0.5 sin 2 pi x^1) I.  The example is a T^3
    # N=8 input that the eps-path ended max-iters.
    dim, N, backend = grid
    t = AffineTorus(dim, N, backend)
    rng = np.random.default_rng(seed)
    if conformal:
        c = 1 + 0.5 * np.sin(2 * np.pi * t.coordinate(0))
        g = find_gauduchon_factor(MetricField(t, np.eye(dim) * c[..., None, None])).metric
    else:
        B = rng.standard_normal((dim, dim))
        g = MetricField(t, np.eye(dim) + 0.5 * B @ B.T)
    b = build_bundle([np.array([[r * np.exp(1j * th)]])
                      for r, th in zip(radii[:dim], angles[:dim])])
    h0p = canonical_metric(b, t)
    if amplitude:
        h0p = hermitize(h0p @ random_hermitian_metric(b, t, rng, amplitude=amplitude, modes=1))
    res = run_continuation(b, t, g, h0p)
    assert res.status == "converged"
    assert res.K_defect <= 1e-11
    assert res.history == []
    assert res.diagnostics["krylov_matvecs"] == 0
    vals = res.final_metric[..., 0, 0].real
    assert (vals.max() - vals.min()) / vals.mean() <= 1e-10


def test_rank1_pass_computes_one_mean_curvature(monkeypatch):
    # the T^3 N=8 rank-1 example from an amplitude-0.3 background (seed 1):
    # each defect-correction pass makes one Poisson solve and computes the
    # mean curvature of its own rescaled metric only, which is also the next
    # pass's input; the run adds only that of the background h_0'
    counts = dict(K=0, passes=0)
    mean_curvature, poisson = continuation.mean_curvature, continuation.solve_scalar_elliptic

    def counted_K(*args):
        counts["K"] += 1
        return mean_curvature(*args)

    def counted_pass(*args, **kwargs):
        counts["passes"] += 1
        return poisson(*args, **kwargs)

    monkeypatch.setattr(continuation, "mean_curvature", counted_K)
    monkeypatch.setattr(continuation, "solve_scalar_elliptic", counted_pass)
    t = AffineTorus(3, 8)
    b = build_bundle([np.array([[r * np.exp(1j * th)]])
                      for r, th in zip([2.0, 1.5, 0.5], [0.3, 2.0, -1.0])])
    h0p = hermitize(canonical_metric(b, t) @ random_hermitian_metric(
        b, t, np.random.default_rng(1), amplitude=0.3, modes=1))
    res = run_continuation(b, t, MetricField(t, np.eye(3)), h0p)
    assert res.status == "converged" and res.K_defect <= 1e-11
    assert counts["passes"] >= 2
    assert counts["K"] == counts["passes"] + 1


def test_run_polystable_block_diagonal(t64, gI, rng):
    b = build_bundle([np.diag([2.0, 3.0])])
    h0p = random_hermitian_metric(b, t64, rng, amplitude=0.1, modes=1)
    res = run_continuation(b, t64, gI, h0p)
    assert res.status == "converged"
    assert res.K_defect <= 1e-6
    assert np.abs(res.final_metric[..., 0, 1]).max() <= 1e-6
    assert max(r[3] for r in res.history) <= 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_polystable_eps_zero_stage_stays_on_path(seed):
    # at eps = 0 the linearization of a polystable bundle is singular along
    # the commutant; the eps = 0 Newton solve must not move the metric along
    # that kernel, so m stays where the eps-path left it
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    b = build_bundle([np.diag([2.0, 3.0])])
    rng = np.random.default_rng(seed)
    h0p = canonical_metric(b, t) @ random_hermitian_metric(
        b, t, rng, amplitude=0.1, modes=1)
    h0p = 0.5 * (h0p + np.conj(np.swapaxes(h0p, -1, -2)))
    res = run_continuation(b, t, g, h0p)
    assert res.status == "converged"
    assert res.K_defect <= 1e-6
    i = next(i for i, row in enumerate(res.history) if row[0] == 0.0)
    assert i > 0
    assert abs(res.history[i][2] - res.history[i - 1][2]) <= 1e-3


@pytest.mark.parametrize("lam", [(2.0, 3.0, 4.0), (2.0, 3.0, 4.0, 5.0)])
def test_polystable_higher_rank_perturbed_converges(lam):
    # diag(lambda) on T^1 N=32 from a perturbed background, built as the CLI
    # builds it (amplitude 0.1, modes 1, seed 0)
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    b = build_bundle([np.diag(lam)])
    h0p = canonical_metric(b, t) @ random_hermitian_metric(
        b, t, np.random.default_rng(0), amplitude=0.1, modes=1)
    h0p = 0.5 * (h0p + np.conj(np.swapaxes(h0p, -1, -2)))
    res = run_continuation(b, t, g, h0p)
    assert res.status == "converged"
    assert res.K_defect <= 1e-6


def polystable_t1_background():
    """T^1 N=32 diag(2,3) with the background perturbed as the CLI perturbs
    it (amplitude 0.1, modes 1, seed 0): the he_polystable_t1 input."""
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    b = build_bundle([np.diag([2.0, 3.0])])
    h0p = canonical_metric(b, t) @ random_hermitian_metric(
        b, t, np.random.default_rng(0), amplitude=0.1, modes=1)
    return b, t, g, 0.5 * (h0p + np.conj(np.swapaxes(h0p, -1, -2)))


def failing_stage(monkeypatch, stage, attempts):
    """Make the run's newton_solve raise Diverged at its ``stage``-th call
    (counting from 1), and record every call as (eps, raised)."""
    newton = continuation.newton_solve

    def solve(problem, eps, *args, **kwargs):
        try:
            if len(attempts) + 1 == stage:
                raise Diverged("injected")
            st = newton(problem, eps, *args, **kwargs)
        except Diverged:
            attempts.append((eps, True))
            raise
        attempts.append((eps, False))
        return st
    monkeypatch.setattr(continuation, "newton_solve", solve)


def recorded_run(monkeypatch, *args, **kwargs):
    """run_continuation(*args, **kwargs) with each newton_solve call recorded
    as a dict: its eps, starting f and m_max, the state it returned (None if
    it raised), the Newton directions it made, and ``prediction``, the state
    of the last ``update`` made outside newton_solve before it (the tangent
    predictor's).  Returns (result, calls)."""
    calls, predictions, inside = [], [], []
    newton, update = continuation.newton_solve, ContinuationProblem.update

    def recording_newton(problem, eps, f, **kw):
        call = dict(eps=eps, f=np.array(f), m_max=kw.get("m_max"), state=None,
                    prediction=predictions[-1] if predictions else None)
        calls.append(call)
        before = problem.work["newton_directions"]
        inside.append(eps)
        try:
            call["state"] = newton(problem, eps, f, **kw)
            return call["state"]
        finally:
            inside.pop()
            call["directions"] = problem.work["newton_directions"] - before

    def recording_update(self, *a):
        out = update(self, *a)
        if not inside:
            predictions.append(out[0])
        return out

    monkeypatch.setattr(continuation, "newton_solve", recording_newton)
    monkeypatch.setattr(ContinuationProblem, "update", recording_update)
    return run_continuation(*args, **kwargs), calls


def test_run_reports_its_krylov_work(monkeypatch):
    # the counters in the diagnostics match an independent count of the
    # Krylov solves made inside newton_solve (directions) and outside it
    # (tangents), the gmres matvecs and unconverged gmres stops of both (the
    # background normalization's lgmres solve is counted apart), the
    # line-search trials
    # (the updates made inside newton_solve), the diverged eps > 0 stages
    # (one is injected) and the eps = 0 probes
    counts = dict(newton_directions=0, tangent_solves=0, krylov_matvecs=0,
                  krylov_unconverged=0, eps_backtracks=0, line_search_trials=0,
                  eps_zero_probes=0)
    gmres, lgmres = krylov.gmres, krylov.lgmres
    solve = ContinuationProblem.solve_newton_direction
    update = ContinuationProblem.update
    inside, normalization_solves = [], []
    attempts = []
    failing_stage(monkeypatch, 3, attempts)
    newton = continuation.newton_solve

    def counting_newton(*args, **kwargs):
        inside.append("newton")
        try:
            return newton(*args, **kwargs)
        finally:
            inside.pop()

    def counting_solve(self, *args):
        counts["newton_directions" if inside else "tangent_solves"] += 1
        inside.append("krylov")
        try:
            return solve(self, *args)
        finally:
            inside.pop()

    def counting_update(self, *args):
        counts["line_search_trials"] += inside == ["newton"]
        return update(self, *args)

    def counting_gmres(matvec, rhs, psolve, **kwargs):
        assert "krylov" in inside

        def counted(v):
            counts["krylov_matvecs"] += 1
            return matvec(v)
        x, info, steps, rnorm = gmres(counted, rhs, psolve, **kwargs)
        counts["krylov_unconverged"] += info != 0
        return x, info, steps, rnorm

    def counting_lgmres(matvec, rhs, psolve, **kwargs):
        assert "krylov" not in inside
        normalization_solves.append(rhs)
        return lgmres(matvec, rhs, psolve, **kwargs)

    monkeypatch.setattr(continuation, "newton_solve", counting_newton)
    monkeypatch.setattr(ContinuationProblem, "solve_newton_direction", counting_solve)
    monkeypatch.setattr(ContinuationProblem, "update", counting_update)
    monkeypatch.setattr(krylov, "gmres", counting_gmres)
    monkeypatch.setattr(krylov, "lgmres", counting_lgmres)
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    b = build_bundle([np.diag([2.0, 3.0])])
    h0p = random_hermitian_metric(b, t, np.random.default_rng(0), amplitude=0.1, modes=1)
    res = run_continuation(b, t, g, h0p)
    assert res.status == "converged"
    counts["eps_backtracks"] = sum(raised for eps, raised in attempts if eps > 0)
    counts["eps_zero_probes"] = sum(eps == 0.0 for eps, _ in attempts)
    assert counts["krylov_matvecs"] > counts["newton_directions"] > 0
    assert len(normalization_solves) == 1
    assert counts["tangent_solves"] > 0 and counts["eps_backtracks"] == 1
    assert counts["eps_zero_probes"] == 1
    assert counts["line_search_trials"] >= counts["newton_directions"]
    assert {k: res.diagnostics[k] for k in counts} == counts


def test_tangent_predictor_is_second_order():
    # the blowup_t2 input at its eps = 1 solution f1: the tangent step to
    # eps e^dt leaves a residual far below that of f1 itself, falling like
    # dt^2 (the step error of a first-order predictor)
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2))
    b = build_bundle([UNIPOTENT, np.eye(2)])
    H0, f1, diag = normalize_background(b, t, canonical_metric(b, t), g)
    prob = ContinuationProblem(b, t, H0, g, diag["gamma"])
    lin, sdot = prob.tangent(prob.res_norm(f1, 1.0))
    assert prob.work["tangent_solves"] == 1 and prob.work["newton_directions"] == 0
    predicted = {}
    for dt in (-0.2, -0.1):
        f_pred, image = prob.update(lin, sdot, dt)
        predicted[dt] = prob.res_norm(f_pred, np.exp(dt), image).res
        assert predicted[dt] < 0.1 * prob.res_norm(f1, np.exp(dt)).res
    assert 3.0 < predicted[-0.2] / predicted[-0.1] < 5.0


@pytest.mark.parametrize("dim, N, mono", [
    (2, 16, [UNIPOTENT, np.eye(2)]),
    (1, 32, [UNIPOTENT]),
], ids=["blowup_t2", "t1-unipotent"])
def test_blowup_hands_off_near_m_max(dim, N, mono):
    # a predicted state at m >= m_max is discarded, so the hot state handed
    # to the destabilizer comes from a Newton step, not from a long tangent
    # step past m_max
    t = AffineTorus(dim, N)
    g = MetricField(t, np.eye(dim))
    res = run_continuation(build_bundle(mono), t, g, m_max=25.0)
    assert res.status == "blowup"
    assert 25.0 <= res.diagnostics["m_at_blowup"] < 26.0


@pytest.mark.parametrize("stage", [None, 3])
def test_eps_cut_stays_in_bounds_and_backs_off(monkeypatch, stage):
    # along the he_polystable_t1 run every eps > 0 stage is at a cut of the
    # last accepted eps in [CUT_MIN, epsilon_factor]; a diverged stage (one
    # is injected) is retried at a milder cut, and the stage after the
    # retry is no more aggressive than the retry
    attempts = []
    failing_stage(monkeypatch, stage, attempts)
    res = run_continuation(*polystable_t1_background())
    assert res.status == "converged"
    assert res.diagnostics["eps_backtracks"] == (stage is not None)
    good, cuts = None, []
    for eps, raised in attempts:
        if eps == 0.0:
            continue
        if good is not None:
            cuts.append((eps / good, raised))
        if not raised:
            good = eps
    assert len(cuts) >= 3
    for i, (cut, raised) in enumerate(cuts):
        after_backtrack = i > 0 and cuts[i - 1][1]
        if after_backtrack:
            assert cuts[i - 1][0] < cut <= 0.97
        elif i > 1 and cuts[i - 2][1]:
            assert cut >= cuts[i - 1][0]
        else:
            assert CUT_MIN * (1 - 1e-12) <= cut <= DEFAULT_FACTOR * (1 + 1e-12)


def test_run_unipotent_blowup_small():
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    b = build_bundle([UNIPOTENT])
    res = run_continuation(b, t, g, max_steps=400)
    assert res.status == "blowup"
    assert res.diagnostics["m_at_blowup"] >= 25.0
    assert res.blowup_data is not None
    # eps * m stays bounded along the run
    assert max(r[0] * r[2] for r in res.history) < 5.0


def test_conjugated_unipotent_blows_up_to_P_e1():
    # rho_1 = P U P^{-1} is the unipotent bundle written in another frame, so
    # the path blows up and the destabilizer is span(P e1), the one invariant
    # line that the enumeration finds for the Jordan block.
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2))
    for seed in (0, 4):
        P = np.eye(2) + 0.5 * np.random.default_rng(seed).standard_normal((2, 2))
        b = build_bundle([P @ UNIPOTENT @ np.linalg.inv(P), np.eye(2)])
        res = run_continuation(b, t, g)
        assert res.status == "blowup"
        F = destabilize(b, t, res.h0, g, res.blowup_data).subbundle.basis
        v = P[:, :1] / np.linalg.norm(P[:, 0])
        assert np.linalg.norm(F - v @ (np.conj(v.T) @ F)) < 1e-8


def test_m_drift_rejects_semistable_eps_zero_probe(monkeypatch):
    # with m_max = 50 an eps = 0 probe of the unipotent path, run to the
    # end, reaches the residual tolerance at m ~ 22, below 0.5 m_max, and a
    # later probe starts at m ~ 43 with a residual at round-off; only the
    # m-drift test keeps such a probe from being reported as a
    # Hermitian-Einstein metric, and as it is held at every Newton state,
    # each probe stops within two directions
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    b = build_bundle([UNIPOTENT])
    res, calls = recorded_run(monkeypatch, b, t, g, m_max=50.0, max_steps=20)
    assert res.status != "converged"
    probes = [c for c in calls if c["eps"] == 0.0]
    assert probes and res.diagnostics["eps_zero_probes"] == len(probes)
    for probe in probes:
        st0 = probe["state"]
        assert probe["directions"] <= 2
        assert st0 is None or not (st0.converged and st0.m <= probe["m_max"])


def test_blowup_t2_eps_zero_probe_stops_at_its_m_drift_bound(monkeypatch):
    # on the blowup_t2 input (T^2 N=16, unipotent x I, m_max 25) the eps = 0
    # equation has no solution; the first probe starts from the last stage's
    # f with m bounded by min(m + 0.5, m_max / 2), crosses that bound after
    # one Newton direction and returns unconverged
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2))
    res, calls = recorded_run(monkeypatch, build_bundle([UNIPOTENT, np.eye(2)]), t, g,
                              m_max=25.0)
    assert res.status == "blowup"
    i = next(i for i, c in enumerate(calls) if c["eps"] == 0.0)
    stage, probe = calls[i - 1]["state"], calls[i]
    assert np.array_equal(probe["f"], stage.at.f)
    assert probe["m_max"] == min(stage.m + 0.5, 12.5)
    assert probe["directions"] <= 1
    assert not probe["state"].converged and probe["state"].m >= probe["m_max"]
    assert res.diagnostics["eps_zero_probes"] == 1

    # the rejected probe's state is dropped: the next stage starts from the
    # tangent predictor
    after = calls[i + 1]
    assert after["eps"] > 0.0
    assert np.array_equal(after["f"], after["prediction"])
    assert not np.array_equal(after["f"], probe["state"].at.f)


def test_he_polystable_t1_eps_zero_probe_is_accepted_after_one_direction(monkeypatch):
    # the polystable path ends at its one eps = 0 probe, which converges
    # after one Newton direction, inside its m-drift bound, so the bound
    # leaves the answer as it was
    res, calls = recorded_run(monkeypatch, *polystable_t1_background())
    assert res.status == "converged"
    assert sum(c["eps"] == 0.0 for c in calls) == 1
    probe = calls[-1]
    assert probe["eps"] == 0.0 and probe["state"].converged
    assert probe["directions"] == 1
    assert res.diagnostics["eps_zero_probes"] == 1
    assert res.K_defect == pytest.approx(4.414679869035334e-09, rel=1e-6)


def test_real_he_metric_rotation(t64, gI):
    th = np.sqrt(2) * np.pi
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    br = build_bundle([R], field="real")
    rep = stability_verdict(br, t64, gI)
    assert rep.label == "R-stable"
    Hreal, result, reality = real_he_metric(br, t64, gI,
                                            splitting=rep.splitting)
    assert result.status == "converged"
    assert reality <= 1e-10
    assert he_K_defect(br, t64, gI, Hreal, 0.0) <= 1e-6


def test_real_he_metric_fallthrough_C_simple(t64, gI):
    b1 = build_bundle([np.array([[2.0]])], field="real")
    Hreal, result, reality = real_he_metric(b1, t64, gI)
    assert result.status == "converged"
    assert reality <= 1e-10


def test_real_he_metric_rank4_double_rotation(t64, gI):
    th = np.sqrt(2) * np.pi
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    R4 = np.block([[R, np.zeros((2, 2))], [np.zeros((2, 2)), R]])
    br = build_bundle([R4], field="real")
    Hreal, result, reality = real_he_metric(br, t64, gI)
    assert result.status == "converged"
    assert reality <= 1e-10
    assert he_K_defect(br, t64, gI, Hreal) <= 1e-6


def test_two_axis_bundle_normalization():
    # nontrivial commuting monodromy on both axes of T^2
    t = AffineTorus(2, 24)
    g = MetricField(t, np.eye(2))
    b = build_bundle([np.array([[1.0, 1.0], [0.0, 1.0]]),
                      np.array([[2.0, 3.0], [0.0, 2.0]])])
    rng = np.random.default_rng(0)
    h0p = random_hermitian_metric(b, t, rng, amplitude=0.2, modes=1)
    H0, f1, diag = normalize_background(b, t, h0p, g)
    assert diag["trK_defect"] <= 10 / 24**2
    prob = ContinuationProblem(b, t, H0, g, 0.0)
    at = prob.res_norm(f1, 1.0)
    assert at.res <= 1e-5
    assert prob.m_and_det_defect(at.w, at.logf)[1] <= 1e-6
