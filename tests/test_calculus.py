"""Dolbeault calculus on the discrete torus: operator oracles and identities."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinehe.bundle import (
    HermCalculus,
    build_bundle,
    covariant_del0,
    d_end,
    d_herm,
    hermitian_connection,
    pmul,
    random_hermitian_metric,
)
from affinehe import krylov
from affinehe.continuation import ContinuationProblem
from affinehe.errors import LinearSolveStagnation, ValidationError
from affinehe.forms import MetricField, laplacian_symbol, laplacian_type
import affinehe.torus as torus_module
from affinehe.torus import AffineTorus, random_smooth_scalar
from oracles import (
    EndForm,
    Form,
    conjugate_form,
    div_by_nu,
    dolbeault_del,
    dolbeault_delbar,
    end_delbar,
    end_trace_g,
    fft_partial,
    increasing_indices,
    merge_sign,
    omega_pow,
    trace_g,
    wedge,
)
from test_gauduchon import bbt_metric


def random_form(torus, rng, p, q, modes=3):
    from math import comb

    n = torus.dim
    coeffs = np.stack(
        [np.stack([random_smooth_scalar(torus, rng, modes=modes)
                   for _ in range(comb(n, q))], axis=-1)
         for _ in range(comb(n, p))],
        axis=-2,
    )
    return Form(torus, p, q, coeffs)


# ---------------------------------------------------------------------------
# partial derivatives
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [2, 3])
def test_end_derivatives_match_matmul_reference(r, rng):
    # the cached r^2 x r^2 contractions against the plain matrix products,
    # on T^3 with B = 0 exactly on the middle axis
    t = AffineTorus(3, 8)
    J = np.eye(r) + np.eye(r, k=1)
    b = build_bundle([J, np.eye(r), 2.0 * J])
    assert b.ad_logs[1] is None and b.ad_logs[0] is not None
    V = np.stack([random_smooth_scalar(t, rng, modes=2) for _ in range(r * r)],
                 axis=-1).reshape(t.grid_shape + (r, r))
    H = random_hermitian_metric(b, t, rng, amplitude=0.3, modes=1)
    theta = hermitian_connection(b, t, H)
    d0 = covariant_del0(b, t, theta, V)
    for k in range(3):
        B = b.logs[k]
        flat = t.partial(V, k) + B @ V - V @ B
        got = d_end(b, t, V, k)
        assert np.abs(got - flat).max() <= 1e-13 * np.abs(flat).max()
        th = theta[..., k, :, :]
        ref = 0.5 * flat + th @ V - V @ th
        got = d0[..., k, :, :]
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
        ref = t.partial(H, k) - np.conj(B.T) @ H - H @ B
        assert np.abs(d_herm(b, t, H, k) - ref).max() <= 1e-13 * np.abs(ref).max()
        ref = np.linalg.inv(H) @ (0.5 * ref)
        assert np.abs(theta[..., k, :, :] - ref).max() <= 1e-13 * np.abs(ref).max()

    def close(got, ref):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    def dag(X):
        return np.conj(np.swapaxes(X, -1, -2))

    # the Hermitian calculus of h = H against plain products
    calc = HermCalculus(H)
    wH, UH = np.linalg.eigh(H)
    sq = (UH * np.sqrt(wH)[..., None, :]) @ dag(UH)
    isq = np.linalg.inv(sq)
    close(calc.adjoint(V), np.linalg.inv(H) @ dag(V) @ H)
    X = calc.hermitize(0.3 * V)
    f = calc.exp(X)
    w, U = np.linalg.eigh(0.5 * (sq @ f @ isq + dag(sq @ f @ isq)))
    close(calc.from_eig(U, np.sqrt(w)), isq @ (U * np.sqrt(w)[..., None, :]) @ dag(U) @ sq)
    wi, wj = w[..., :, None], w[..., None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(wi == wj, 1.0 / wi, np.log(wi / wj) / (wi - wj))

    def dlog_ref(Phi):
        return isq @ U @ ((dag(U) @ sq @ Phi @ isq @ U) * ratio) @ dag(U) @ sq

    wf, Uf = calc.eig(f)
    close(calc.dlog(wf, *calc.frame(Uf))(V), dlog_ref(V))

    # the Krylov operator of one Newton direction solve at eps = 1/2
    g = MetricField(t, np.eye(3))
    prob = ContinuationProblem(b, t, H, g, 0.0)
    lin = prob.linearization(prob.res_norm(f, 0.5))
    captured = {}

    def capture(matvec, rhs, psolve, **kwargs):
        captured["A"] = matvec
        return np.zeros_like(rhs), 0, 0, np.linalg.norm(rhs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov, "gmres", capture)
        with pytest.raises(LinearSolveStagnation):
            prob.solve_newton_direction(lin, V, 1e-8)
    finv = np.linalg.inv(f)
    d0f = covariant_del0(b, t, theta, f)
    finv_d0f = finv[..., None, :, :] @ d0f
    sqf = isq @ (U * np.sqrt(w)[..., None, :]) @ dag(U) @ sq

    def traceless(s):
        return s - (np.einsum("...aa->...", s) / r)[..., None, None] * np.eye(r)

    def matvec_ref(v):
        phi = sqf @ traceless(v) @ sqf
        d0phi = covariant_del0(b, t, theta, phi)
        a = finv[..., None, :, :] @ (d0phi - phi[..., None, :, :] @ finv_d0f)
        out = end_trace_g(g, end_delbar(EndForm.one_zero(t, b, a))) + 0.5 * dlog_ref(phi)
        return traceless(out)

    close(captured["A"](V.ravel()).reshape(V.shape), matvec_ref(V))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
def test_pmul_matches_matmul(r, rng):
    # field x field, the (1,0)-form slot shapes of the Newton matvec, a
    # constant matrix on either side, and a left-to-right triple product
    def field(*shape):
        shape = shape + (r, r)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    grid = (6, 5)
    F, G, C = field(*grid), field(*grid), field()
    slot = F[..., None, :, :]
    for ops in [(F, G), (slot, field(*grid, 2)), (field(*grid, 2), slot),
                (C, F), (F, C), (C, F, G)]:
        ref = ops[0]
        for B in ops[1:]:
            ref = np.matmul(ref, B)
        got = pmul(*ops)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


def test_partial_constant_is_zero():
    t = AffineTorus(2, 16)
    c = np.full(t.grid_shape, 2.7 + 0.3j)
    assert np.abs(t.partial(c, 0)).max() < 1e-13
    assert np.abs(t.partial(c, 1)).max() < 1e-13


@pytest.mark.parametrize("backend", ["fd", "spectral"])
def test_partial_sin_oracle(backend):
    N = 64
    t = AffineTorus(1, N, backend)
    x = t.coordinate(0)
    f = np.sin(2 * np.pi * x).astype(complex)
    df = t.partial(f, 0)
    err = np.abs(df - 2 * np.pi * np.cos(2 * np.pi * x)).max()
    if backend == "fd":
        assert err <= (2 * np.pi) ** 3 / (6 * N**2)
    else:
        assert err <= 1e-11


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("dim,N", [(1, 32), (1, 15), (2, 16), (2, 9), (3, 12), (3, 9)])
def test_matrix_partial_matches_fft_oracle(backend, dim, N, rng):
    # white noise with trailing (n, r, r) value axes reaches every mode,
    # the Nyquist mode of even grids included
    t = AffineTorus(dim, N, backend)
    shape = t.grid_shape + (dim, 2, 2)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for axis in range(dim):
        expect = fft_partial(t, values, axis)
        assert np.abs(t.partial(values, axis) - expect).max() <= \
            1e-13 * N * np.abs(expect).max()


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("dim,N", [(1, 64), (2, 16), (3, 12), (3, 9)])
def test_partial_of_a_field_constant_along_the_axis_is_exactly_zero(backend, dim, N, rng):
    t = AffineTorus(dim, N, backend)
    shape = t.grid_shape + (2, 2)
    values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    for axis in range(dim):
        constant = np.broadcast_to(values[(slice(None),) * axis + (slice(0, 1),)], shape)
        assert np.all(t.partial(constant, axis) == 0)


def test_conformal_carries_inverse_and_determinant(rng):
    t = AffineTorus(3, 8)
    B = rng.standard_normal(t.grid_shape + (3, 3))
    g = MetricField(t, np.eye(3) + 0.5 * B @ np.swapaxes(B, -1, -2))
    f = np.exp(random_smooth_scalar(t, rng, real=True).real)
    scaled = g.conformal(f)
    inv, det = np.linalg.inv(scaled.g), np.linalg.det(scaled.g)
    assert np.abs(scaled.inv - inv).max() <= 1e-14 * np.abs(inv).max()
    assert np.abs(scaled.det - det).max() <= 1e-14 * np.abs(det).max()


def test_partial_axis_range():
    t = AffineTorus(2, 8)
    with pytest.raises(ValidationError):
        t.partial(np.zeros(t.grid_shape), 2)


def test_fft_divide_zero_mode_rule(rng):
    # symbol 4 pi^2 |k|^2 vanishes on the mean mode only: a constant plus a
    # single Fourier mode comes back as the constant plus the mode / symbol,
    # slot by slot over trailing (r, r) value axes
    t = AffineTorus(2, 16)
    x, y = t.coordinate(0), t.coordinate(1)
    k = np.fft.fftfreq(16, d=1.0 / 16)
    kx, ky = np.meshgrid(k, k, indexing="ij")
    symbol = 4 * np.pi**2 * (kx**2 + ky**2)
    wave = np.exp(2j * np.pi * (x + 2 * y))
    c = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    values = (1.0 + wave)[..., None, None] * c
    out = t.fft_divider(symbol, (2, 2))(values)
    expect = (1.0 + wave / (4 * np.pi**2 * 5))[..., None, None] * c
    assert np.abs(out - expect).max() < 1e-14
    scalar = t.fft_divider(symbol)(values[..., 0, 0])
    assert np.abs(scalar - out[..., 0, 0]).max() < 1e-14
    # one transform per axis, in np.fft.fftn's order: the same numbers
    divisor = np.where(symbol == 0, 1, symbol)[..., None, None]
    assert np.array_equal(out, np.fft.ifftn(np.fft.fftn(values, axes=(0, 1)) / divisor,
                                            axes=(0, 1)))


@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("N", [15, 16])
def test_symbol_zero_modes(backend, N):
    # partial multiplies mode k by i s[k]; s vanishes exactly on the modes
    # the discrete partial annihilates: k = 0, and for fd at even N also
    # k = N/2, and so does the Laplacian symbol built from it
    t = AffineTorus(2, N, backend)
    k = np.fft.fftfreq(N, d=1.0 / N)
    s = t.derivative_symbol()
    x = t.coordinate(0)
    for kk, sk in zip(k, s):
        wave = np.exp(2j * np.pi * kk * x)
        assert np.abs(t.partial(wave, 0) - 1j * sk * wave).max() < 1e-10 * N
    null = (k == 0) | ((backend == "fd") & (2 * np.abs(k) == N))
    assert np.all(s[null] == 0) and np.all(s[~null] != 0)
    if backend == "fd" and N % 2 == 0:
        checker = np.broadcast_to((-1.0) ** np.arange(N)[:, None], t.grid_shape)
        assert np.all(t.partial(checker.astype(complex), 0) == 0)
    lap = laplacian_symbol(MetricField(t, np.array([[2.0, 0.5], [0.5, 1.0]])))
    both = null[:, None] & null[None, :]
    assert np.all(lap[both] == 0) and np.all(lap[~both] > 0)


# ---------------------------------------------------------------------------
# dolbeault operators
# ---------------------------------------------------------------------------

def test_del_of_constant_zero():
    t = AffineTorus(2, 16)
    phi = Form.from_scalar(t, np.full(t.grid_shape, 1.5))
    assert dolbeault_del(phi).sup_norm() < 1e-13


def test_del_sin_oracle_T2():
    t = AffineTorus(2, 32)
    x1 = t.coordinate(0)
    phi = Form.from_scalar(t, np.sin(2 * np.pi * x1))
    d = dolbeault_del(phi)
    expect = 0.5 * 2 * np.pi * np.cos(2 * np.pi * x1)
    assert np.abs(d.coeffs[..., 0, 0] - expect).max() < 1e-10
    assert np.abs(d.coeffs[..., 1, 0]).max() < 1e-13


def test_delbar_sign_oracle_T2():
    # (1,0)-form psi(x^2) dz^1: delbar = -(1/2) d_2 psi dz^1 (x) dzbar^2
    t = AffineTorus(2, 32)
    x2 = t.coordinate(1)
    psi = np.sin(2 * np.pi * x2)
    om = Form.zero(t, 1, 0)
    om.coeffs[..., 0, 0] = psi
    d = dolbeault_delbar(om)
    expect = -0.5 * 2 * np.pi * np.cos(2 * np.pi * x2)
    assert np.abs(d.coeffs[..., 0, 1] - expect).max() < 1e-10
    assert np.abs(d.coeffs[..., 0, 0]).max() < 1e-13


def test_d_squared_zero(rng):
    t = AffineTorus(2, 16)
    phi = random_form(t, rng, 0, 0)
    assert dolbeault_del(dolbeault_del(phi)).sup_norm() <= 10 / 16**2
    assert dolbeault_delbar(dolbeault_delbar(phi)).sup_norm() <= 10 / 16**2
    om = random_form(t, rng, 1, 0)
    assert dolbeault_delbar(dolbeault_delbar(om)).sup_norm() <= 10 / 16**2


def test_anticommutation(rng):
    t = AffineTorus(2, 16)
    phi = random_form(t, rng, 0, 0)
    a = dolbeault_del(dolbeault_delbar(phi))
    b = dolbeault_delbar(dolbeault_del(phi))
    assert np.abs(a.coeffs + b.coeffs).max() < 1e-12


# ---------------------------------------------------------------------------
# wedge
# ---------------------------------------------------------------------------

def test_wedge_sign_oracles():
    t = AffineTorus(2, 8)
    a = Form.zero(t, 1, 0)
    a.coeffs[..., 0, 0] = 1.0  # dz^1
    b = Form.zero(t, 0, 1)
    b.coeffs[..., 0, 0] = 1.0  # dzbar^1
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert np.abs(ab.coeffs[..., 0, 0] - 1.0).max() < 1e-14
    assert np.abs(ba.coeffs[..., 0, 0] + 1.0).max() < 1e-14


@given(
    p1=st.integers(0, 2), q1=st.integers(0, 2),
    p2=st.integers(0, 2), q2=st.integers(0, 2),
)
def test_wedge_graded_commutativity(p1, q1, p2, q2):
    n = 2
    if p1 + p2 > n or q1 + q2 > n:
        return
    t = AffineTorus(n, 8)
    rng = np.random.default_rng(7)
    a = random_form(t, rng, p1, q1, modes=1)
    b = random_form(t, rng, p2, q2, modes=1)
    sign = (-1) ** ((p1 + q1) * (p2 + q2))
    ab = wedge(a, b)
    ba = wedge(b, a)
    assert np.abs(ab.coeffs - sign * ba.coeffs).max() < 1e-12


def test_wedge_associative(rng):
    t = AffineTorus(3, 8)
    a = random_form(t, rng, 1, 0, modes=1)
    b = random_form(t, rng, 0, 1, modes=1)
    c = random_form(t, rng, 1, 1, modes=1)
    lhs = wedge(wedge(a, b), c)
    rhs = wedge(a, wedge(b, c))
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 1e-12


def test_wedge_degree_overflow():
    t = AffineTorus(2, 8)
    a = Form.zero(t, 2, 0)
    with pytest.raises(ValidationError):
        wedge(a, a)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------

def test_conjugation_oracle():
    t = AffineTorus(2, 8)
    om = Form.zero(t, 1, 1)
    om.coeffs[..., 0, 1] = 1.0  # dz^1 (x) dzbar^2
    c = conjugate_form(om)
    # (-1)^{pq} swaps slots: -dz^2 (x) dzbar^1
    assert np.abs(c.coeffs[..., 1, 0] + 1.0).max() < 1e-14
    assert np.abs(c.coeffs[..., 0, 1]).max() < 1e-14


def test_conjugation_involution(rng):
    t = AffineTorus(2, 8)
    for (p, q) in [(0, 0), (1, 0), (1, 1), (2, 1)]:
        om = random_form(t, rng, p, q, modes=1)
        back = conjugate_form(conjugate_form(om))
        assert np.abs(back.coeffs - om.coeffs).max() < 1e-13


def test_conjugation_of_metric_form():
    # the sign convention makes the (1,1) metric form anti-fixed:
    # conj(omega_g) = -omega_g for real symmetric g
    t = AffineTorus(2, 8)
    g = np.array([[2.0, 0.5], [0.5, 1.0]])
    om = Form(t, 1, 1, np.broadcast_to(g, t.grid_shape + (2, 2)))
    c = conjugate_form(om)
    assert np.abs(c.coeffs + om.coeffs).max() < 1e-14


# ---------------------------------------------------------------------------
# trace, volume, integration
# ---------------------------------------------------------------------------

def test_trace_g_identity_oracle():
    t = AffineTorus(2, 8)
    g = MetricField(t, np.eye(2))
    T = Form.zero(t, 1, 1)
    T.coeffs[..., 0, 0] = 1.0
    assert np.abs(trace_g(g, T) - 1.0).max() < 1e-14
    assert np.abs(trace_g(g, Form.zero(t, 1, 1))).max() == 0.0


@pytest.mark.parametrize("metric,fields", [("identity", 4), ("bbt", 6)])
def test_laplacian_type_differentiates_the_nonzero_pairs_of_g_inverse(metric, fields, rng,
                                                                     monkeypatch):
    # D_j psi once per axis j, then D_i of it where g^{ij} is not identically
    # zero: 2 + 2 fields for g = I, 2 + 4 for the full g^{-1} of bbt_metric;
    # the form oracle's del delbar takes 2 + 4 for either
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2)) if metric == "identity" else bbt_metric(t)
    psi = random_smooth_scalar(t, rng)
    differentiated = []
    along = torus_module.along

    def counting(values, *ops):
        differentiated.append(values.size // t.n_points)
        return along(values, *ops)

    monkeypatch.setattr(torus_module, "along", counting)
    laplacian_type(g, psi)
    assert sum(differentiated) == fields
    differentiated.clear()
    dolbeault_del(dolbeault_delbar(Form.from_scalar(t, psi)))
    assert sum(differentiated) == 6


def test_src_defines_no_form_algebra():
    # the (p,q)-form algebra is the test reference in oracles.py
    import affinehe.bundle
    import affinehe.continuation
    import affinehe.forms
    import affinehe.stability

    assert not hasattr(affinehe.forms, "Form")
    moved = {
        affinehe.forms: ("increasing_indices", "index_position", "merge_sign",
                         "_derivative_table", "dolbeault_del", "dolbeault_delbar",
                         "conjugate_form", "div_by_nu", "trace_g"),
        affinehe.bundle: ("first_chern_form",),
        affinehe.stability: ("degree_additivity_check", "quotient_monodromy"),
        affinehe.continuation: ("he_K_defect",),
    }
    for module, names in moved.items():
        assert not [name for name in names if hasattr(module, name)], module.__name__


def test_trace_laplacian_oracle():
    t = AffineTorus(1, 64)
    g = MetricField(t, np.eye(1))
    x = t.coordinate(0)
    psi = np.sin(2 * np.pi * x)
    lap = laplacian_type(g, psi)
    assert np.abs(lap - (-np.pi**2) * psi).max() < 1e-10


def test_div_by_nu_oracles(rng):
    t1 = AffineTorus(1, 8)
    chi = Form.zero(t1, 1, 1)
    f = rng.standard_normal(t1.grid_shape)
    chi.coeffs[..., 0, 0] = f
    assert np.abs(div_by_nu(chi) - f).max() < 1e-14

    for n, N in [(1, 8), (2, 8), (3, 8)]:
        t = AffineTorus(n, N)
        A = rng.standard_normal((n, n))
        g = MetricField(t, A @ A.T + n * np.eye(n))
        w = div_by_nu(omega_pow(g, n))
        assert np.abs(w - g.volume_density()).max() < 1e-12 * w.real.max()


def test_volume_density_positive_random(rng):
    t = AffineTorus(2, 8)
    for _ in range(100):
        A = rng.standard_normal((2, 2))
        g = MetricField(t, A @ A.T + 2 * np.eye(2))
        assert g.volume_density().min() > 0


def test_integrate_oracles():
    t = AffineTorus(2, 16)
    assert abs(t.integrate(np.ones(t.grid_shape)) - 1.0) < 1e-15
    x = t.coordinate(0)
    assert abs(t.integrate(np.sin(2 * np.pi * x).astype(complex))) < 1e-15


@pytest.mark.parametrize("backend,tol", [("fd", 10 / 16**2), ("spectral", 1e-12)])
def test_integration_by_parts(backend, tol, rng):
    t = AffineTorus(2, 16, backend)
    for _ in range(10):
        chi = random_form(t, rng, 1, 2)
        val = abs(t.integrate(div_by_nu(dolbeault_del(chi))))
        assert val <= tol
        chi2 = random_form(t, rng, 2, 1)
        val2 = abs(t.integrate(div_by_nu(dolbeault_delbar(chi2))))
        assert val2 <= tol


def test_gauduchon_weighted_laplacian_integral(rng):
    # int tr_g(del delbar psi) omega^n/nu = 0 for Gauduchon g
    from affinehe.gauduchon import find_gauduchon_factor

    t = AffineTorus(2, 16)
    x1 = t.coordinate(0)
    g0 = MetricField(t, np.eye(2)[None, None]
                     * (1 + 0.4 * np.sin(2 * np.pi * x1))[..., None, None])
    gG = find_gauduchon_factor(g0).metric
    psi = random_smooth_scalar(t, rng, real=True)
    val = abs(t.integrate(laplacian_type(gG, psi) * gG.volume_density()))
    assert val <= 10 / 16**2


# ---------------------------------------------------------------------------
# multi-index combinatorics
# ---------------------------------------------------------------------------

@given(st.integers(1, 3), st.integers(0, 3))
def test_increasing_indices_sorted(n, p):
    idx = increasing_indices(n, p)
    from math import comb

    assert len(idx) == comb(n, p)
    for tup in idx:
        assert list(tup) == sorted(tup)


@given(st.permutations(range(4)))
def test_merge_sign_is_permutation_sign(perm):
    a, b = tuple(sorted(perm[:2])), tuple(sorted(perm[2:]))
    merged, sign = merge_sign(a, b)
    assert merged == tuple(sorted(perm))
    # recompute as inversion parity of concatenation
    concat = a + b
    inv = sum(1 for i in range(4) for j in range(i + 1, 4)
              if concat[i] > concat[j])
    assert sign == (-1) ** inv


def test_del_top_degree_flagged():
    t = AffineTorus(2, 8)
    om = Form.zero(t, 2, 0)
    om.coeffs[...] = 1.0
    with pytest.warns(UserWarning):
        out = dolbeault_del(om)
    assert out.sup_norm() == 0.0 or out.coeffs.shape[-2] == 0
