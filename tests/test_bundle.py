"""Flat bundle geometry: twists, connection, curvature, chern form."""

import numpy as np
import pytest

from affinehe.bundle import (
    HermCalculus,
    Del0,
    build_bundle,
    canonical_metric,
    covariant_del0,
    d_end,
    end_delbar,
    hermitian_connection,
    mean_curvature,
    pmul,
    random_hermitian_metric,
    shift_equivariant,
)
from affinehe.errors import NonCommuting, Singular, ValidationError
from affinehe.destabilizer import validate_projection
from affinehe.forms import MetricField
from affinehe.stability import degree
from affinehe.torus import AffineTorus, random_smooth_scalar
from oracles import (
    EndForm,
    Form,
    connection,
    curvature,
    dolbeault_del,
    dolbeault_delbar,
    end_del,
    end_trace_g,
    first_chern_form,
    herm_defect,
    inner,
    wedge,
)
from oracles import end_delbar as form_delbar
from test_gauduchon import bbt_metric

UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def t64():
    return AffineTorus(1, 64)


@pytest.fixture
def gI(t64):
    return MetricField(t64, np.eye(1))


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def test_build_trivial_and_unipotent():
    trivial = build_bundle([np.eye(1)])
    assert trivial.rank == 1 and trivial.ad_logs == [None]
    b = build_bundle([UNIPOTENT])
    assert b.rank == 2 and b.ad_logs[0] is not None


def test_build_noncommuting_rejected():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(NonCommuting) as exc:
        build_bundle([swap, UNIPOTENT])
    assert exc.value.norm > 0


def test_build_singular_rejected():
    with pytest.raises(Singular):
        build_bundle([np.zeros((2, 2))])


# ---------------------------------------------------------------------------
# equivariant shifts
# ---------------------------------------------------------------------------

def test_shift_trivial_is_roll(t64, rng):
    b = build_bundle([np.eye(2)])
    F = rng.standard_normal((64, 2, 2)) + 0j
    out = shift_equivariant(b, t64, F, 0, 1, "end")
    assert np.abs(out - np.roll(F, -1, 0)).max() == 0.0


def test_shift_commuting_constant_unchanged(t64):
    b = build_bundle([np.diag([2.0, 3.0])])
    F0 = np.broadcast_to(np.diag([5.0, 7.0]).astype(complex), (64, 2, 2)).copy()
    out = shift_equivariant(b, t64, F0, 0, 1, "end")
    assert np.abs(out - F0).max() < 1e-14


def test_shift_rank1_twist_exact(t64):
    b = build_bundle([np.array([[2.0]])])
    x = t64.coordinate(0)
    H = (4.0 ** (-x))[..., None, None].astype(complex)
    out = shift_equivariant(b, t64, H, 0, 1, "herm")
    exact = (4.0 ** (-(x + 1 / 64)))[..., None, None]
    assert np.abs(out - exact).max() < 1e-14


def test_shift_round_trip_and_full_period(t64, rng):
    b = build_bundle([UNIPOTENT])
    F = rng.standard_normal((64, 2, 2)) + 1j * rng.standard_normal((64, 2, 2))
    back = shift_equivariant(b, t64,
                             shift_equivariant(b, t64, F, 0, 1, "end"),
                             0, -1, "end")
    assert np.abs(back - F).max() < 1e-12
    # a full wind around the torus applies the twist once: rho F rho^{-1}
    cur = F.copy()
    for _ in range(64):
        cur = shift_equivariant(b, t64, cur, 0, 1, "end")
    twisted = UNIPOTENT @ F @ np.linalg.inv(UNIPOTENT)
    assert np.abs(cur - twisted).max() < 1e-10


# ---------------------------------------------------------------------------
# connection and curvature oracles
# ---------------------------------------------------------------------------

def test_connection_identity_metric_zero(t64):
    b = build_bundle([np.eye(2)])
    th = hermitian_connection(b, t64, canonical_metric(b, t64))
    assert np.abs(th).max() == 0.0


def test_connection_rank1_conformal(t64):
    # h = e^{-u}: theta = -del u, coefficient -(1/2) u'
    b = build_bundle([np.eye(1)])
    x = t64.coordinate(0)
    u = np.sin(2 * np.pi * x)
    H = np.exp(-u)[..., None, None].astype(complex)
    th = hermitian_connection(b, t64, H)
    expect = -0.5 * 2 * np.pi * np.cos(2 * np.pi * x)
    assert np.abs(th[..., 0, 0, 0] - expect).max() < 1e-10


def test_connection_rank1_pure_linear_exact(t64):
    # rho = [a], canonical metric: theta = -log a, curvature exactly zero
    a = 2.0
    b = build_bundle([np.array([[a]])])
    H = canonical_metric(b, t64)
    th = hermitian_connection(b, t64, H)
    assert np.abs(th + np.log(a)).max() < 1e-14
    assert np.abs(curvature(b, t64, H).coeffs).max() < 1e-14
    assert np.abs(mean_curvature(MetricField(t64, np.eye(1)), b, t64, H)).max() < 1e-14


def test_curvature_rank1_is_ddbar_u(t64, gI):
    b = build_bundle([np.eye(1)])
    x = t64.coordinate(0)
    u = np.sin(2 * np.pi * x)
    H = np.exp(-u)[..., None, None].astype(complex)
    Om = curvature(b, t64, H)
    dd = dolbeault_del(dolbeault_delbar(Form.from_scalar(t64, u)))
    assert np.abs(Om.coeffs[..., 0, 0, 0, 0] - dd.coeffs[..., 0, 0]).max() < 1e-9
    K = mean_curvature(gI, b, t64, H)
    assert np.abs(K[..., 0, 0] - dd.coeffs[..., 0, 0]).max() < 1e-9


def test_mean_curvature_oracle_and_blocks(t64, gI, rng):
    b = build_bundle([np.eye(1)])
    x = t64.coordinate(0)
    u = np.sin(2 * np.pi * x)
    H = np.exp(-u)[..., None, None].astype(complex)
    K = mean_curvature(gI, b, t64, H)
    assert np.abs(K[..., 0, 0] - (-np.pi**2) * u).max() < 1e-8

    # direct sums map to block diagonal mean curvature
    b2 = build_bundle([np.eye(2)])
    u2 = random_smooth_scalar(t64, rng, real=True)
    H2 = np.zeros((64, 2, 2), dtype=complex)
    H2[..., 0, 0] = np.exp(-u)
    H2[..., 1, 1] = np.exp(-u2)
    K2 = mean_curvature(gI, b2, t64, H2)
    b1 = build_bundle([np.eye(1)])
    Ka = mean_curvature(gI, b1, t64, np.exp(-u)[..., None, None].astype(complex))
    Kb = mean_curvature(gI, b1, t64, np.exp(-u2)[..., None, None].astype(complex))
    assert np.abs(K2[..., 0, 0] - Ka[..., 0, 0]).max() < 1e-9
    assert np.abs(K2[..., 1, 1] - Kb[..., 0, 0]).max() < 1e-9
    assert np.abs(K2[..., 0, 1]).max() < 1e-12


def test_unipotent_canonical_curvature_oracle(t64, gI):
    # gauge mean curvature of the canonical metric is diag(1,-1)/4 exactly
    b = build_bundle([UNIPOTENT])
    K = mean_curvature(gI, b, t64, canonical_metric(b, t64))
    assert np.abs(K - 0.25 * np.diag([1.0, -1.0])).max() < 1e-13


def test_mean_curvature_h_self_adjoint(t64, gI, rng):
    b = build_bundle([UNIPOTENT])
    H = random_hermitian_metric(b, t64, rng, amplitude=0.3)
    K = mean_curvature(gI, b, t64, H)
    calc = HermCalculus(H)
    assert herm_defect(calc, K) < 1e-8


@pytest.mark.parametrize("r", [1, 2, 3])
def test_norm_is_sqrt_of_inner(r, t64, rng):
    b = build_bundle([np.eye(r)])
    calc = HermCalculus(random_hermitian_metric(b, t64, rng, amplitude=0.5))
    F = rng.standard_normal(t64.grid_shape + (r, r)) + 1j * rng.standard_normal(
        t64.grid_shape + (r, r))
    ref = np.sqrt(inner(calc, F, F).real)
    assert np.abs(calc.norm(F) - ref).max() <= 1e-13 * ref.max()


def test_real_bundle_reality(t64, gI, rng):
    th = np.sqrt(2) * np.pi
    R = np.array([[np.cos(th), -np.sin(th)], [np.sin(th), np.cos(th)]])
    b = build_bundle([R], field="real")
    # a real metric in the flat frame
    gauge = b.gauge(t64)
    H = random_hermitian_metric(b, t64, rng, amplitude=0.2)
    Hflat = gauge.herm_to_flat(H)
    Hreal = gauge.herm_to_gauge(Hflat.real)
    thf = hermitian_connection(b, t64, Hreal)
    Om = curvature(b, t64, Hreal)
    K = mean_curvature(gI, b, t64, Hreal)
    c1 = first_chern_form(b, t64, Hreal)
    for obj in (gauge.end_to_flat(K),):
        assert np.abs(obj.imag).max() < 1e-9
    # flat frame connection and curvature coefficients are real
    th_flat = gauge.end_to_flat(thf[..., 0, :, :])
    om_flat = gauge.end_to_flat(Om.coeffs[..., 0, 0, :, :])
    assert np.abs(th_flat.imag).max() < 1e-9
    assert np.abs(om_flat.imag).max() < 1e-9
    assert np.abs(c1.coeffs.imag).max() < 1e-9


# ---------------------------------------------------------------------------
# first chern form and log decomposition
# ---------------------------------------------------------------------------

def test_c1_oracles(t64, rng):
    b = build_bundle([np.eye(1)])
    assert first_chern_form(b, t64, canonical_metric(b, t64)).sup_norm() == 0.0
    x = t64.coordinate(0)
    u = np.sin(2 * np.pi * x)
    H = np.exp(-u)[..., None, None].astype(complex)
    c1 = first_chern_form(b, t64, H)
    dd = dolbeault_del(dolbeault_delbar(Form.from_scalar(t64, u)))
    assert np.abs(c1.coeffs - dd.coeffs).max() < 1e-9


def test_c1_difference_is_ddbar(t64, rng):
    b = build_bundle([UNIPOTENT])
    H1 = random_hermitian_metric(b, t64, rng, amplitude=0.3)
    H2 = random_hermitian_metric(b, t64, rng, amplitude=0.3)
    c1a = first_chern_form(b, t64, H1)
    c1b = first_chern_form(b, t64, H2)
    u = np.linalg.slogdet(H1)[1] - np.linalg.slogdet(H2)[1]
    dd = dolbeault_del(dolbeault_delbar(Form.from_scalar(t64, u)))
    assert np.abs((c1b.coeffs - c1a.coeffs) - dd.coeffs).max() < 1e-10


def test_log_decomposition_slopes(t64, rng):
    # the twist fixes the slope exactly: crossing the axis scales det h by
    # |det rho|^{-2}, so the flat-frame log det h is -2 log 6 x plus log det
    # of the periodic gauge-stored array
    b = build_bundle([np.diag([2.0, 3.0])])
    H = random_hermitian_metric(b, t64, rng)
    ld = np.log(np.linalg.det(b.gauge(t64).herm_to_flat(H)).real)
    lin = -2 * np.log(6.0) * t64.coordinate(0)
    assert np.abs(ld - lin - np.linalg.slogdet(H)[1]).max() < 1e-10


# ---------------------------------------------------------------------------
# covariant derivative and second fundamental form
# ---------------------------------------------------------------------------

def test_del0_of_identity_zero(t64, rng):
    b = build_bundle([UNIPOTENT])
    H = random_hermitian_metric(b, t64, rng, amplitude=0.3)
    th = hermitian_connection(b, t64, H)
    eye = np.broadcast_to(np.eye(2, dtype=complex), (64, 2, 2)).copy()
    assert np.abs(covariant_del0(b, t64, th, eye)).max() < 1e-13


def test_del0_trivial_is_del(t64, rng):
    b = build_bundle([np.eye(2)])
    th = hermitian_connection(b, t64, canonical_metric(b, t64))
    phi = np.stack([random_smooth_scalar(t64, rng) for _ in range(4)],
                   axis=-1).reshape(64, 2, 2)
    d0 = covariant_del0(b, t64, th, phi)
    expect = 0.5 * t64.partial(phi, 0)
    assert np.abs(d0[..., 0, :, :] - expect).max() < 1e-13


def test_distribution_identity(t64, gI, rng):
    # delbar[h0(del0 phi, xi)] = h0(delbar del0 phi, xi) - h0(del0 phi, del0 xi);
    # on T^1 with g = 1, tr_g delbar is the one (1,1) component
    b = build_bundle([UNIPOTENT])
    H0 = random_hermitian_metric(b, t64, rng, amplitude=0.2)
    calc = HermCalculus(H0)
    th = hermitian_connection(b, t64, H0)
    phi = calc.hermitize(random_hermitian_metric(b, t64, rng, amplitude=0.3))
    xi = calc.hermitize(random_hermitian_metric(b, t64, rng, amplitude=0.3))
    d0phi = covariant_del0(b, t64, th, phi)
    d0xi = covariant_del0(b, t64, th, xi)
    dd0phi = end_delbar(gI, b, d0phi)

    # pairings: h0 acts on the endomorphism part only
    lhs_base = Form.zero(t64, 1, 0)
    lhs_base.coeffs[..., 0, 0] = inner(calc, d0phi[..., 0, :, :], xi)
    lhs = dolbeault_delbar(lhs_base)
    rhs = Form.zero(t64, 1, 1)
    rhs.coeffs[..., 0, 0] = (
        inner(calc, dd0phi, xi)
        - inner(calc, d0phi[..., 0, :, :], d0xi[..., 0, :, :])
    )
    assert np.abs(lhs.coeffs - rhs.coeffs).max() < 5e-7


def second_fundamental_form(b, t, H, pi):
    """A = (I - pi) del_0 pi for an h-orthogonal projection field pi; it
    vanishes exactly when the h-orthogonal complement of the image is flat."""
    d0pi = covariant_del0(b, t, hermitian_connection(b, t, H), pi)
    comp = np.eye(b.rank) - pi
    return pmul(comp[..., None, :, :], d0pi)


def test_second_fundamental_form_trivial_cases(t64, rng):
    b = build_bundle([UNIPOTENT])
    H = random_hermitian_metric(b, t64, rng, amplitude=0.2)
    eye = np.broadcast_to(np.eye(2, dtype=complex), (64, 2, 2)).copy()
    assert np.abs(second_fundamental_form(b, t64, H, eye)).max() < 1e-12
    assert np.abs(second_fundamental_form(b, t64, H, 0 * eye)).max() < 1e-12


def test_second_fundamental_form_orthogonal_splitting(t64):
    b = build_bundle([np.diag([2.0, 3.0])])
    H = canonical_metric(b, t64)
    pi = np.broadcast_to(np.diag([1.0, 0.0]).astype(complex), (64, 2, 2)).copy()
    A = second_fundamental_form(b, t64, H, pi)
    assert np.abs(A).max() < 1e-13


def test_second_fundamental_form_unipotent_oracle(t64, gI):
    # analytic value: in the gauge, A = -(1/2) [[0,0],[1,0]] and |A|^2 = 1/4
    b = build_bundle([UNIPOTENT])
    H = canonical_metric(b, t64)
    gauge = b.gauge(t64)
    x = t64.coordinate(0)
    pi_flat = np.zeros((64, 2, 2), dtype=complex)
    pi_flat[..., 0, 0] = 1.0
    pi_flat[..., 0, 1] = -x
    pi = gauge.end_to_gauge(pi_flat)
    A = second_fundamental_form(b, t64, H, pi)
    expect = -0.5 * np.array([[0.0, 0.0], [1.0, 0.0]])
    assert np.abs(A[..., 0, :, :] - expect).max() < 1e-12
    calc = HermCalculus(H)
    assert np.abs(calc.form_norm_sq(gI, A) - 0.25).max() < 1e-12
    assert np.abs(A).max() > 0.4  # nontrivial extension is detected


# ---------------------------------------------------------------------------
# End(E)-valued forms: the reference calculus of tests/oracles.py
# ---------------------------------------------------------------------------

def _random_end_field(t, rng, r=2):
    return np.stack([random_smooth_scalar(t, rng) for _ in range(r * r)],
                    axis=-1).reshape(t.grid_shape + (r, r))


def test_end_form_derivative_adds_ad_B(rng):
    # non-trivial commuting monodromy on T^2: flat-frame derivative in the
    # gauge, from the reference forms and from the program's d_end
    t = AffineTorus(2, 16)
    b = build_bundle([UNIPOTENT, np.array([[2.0, 1.0], [0.0, 2.0]])])
    F = _random_end_field(t, rng)
    d = end_del(EndForm.from_end(t, b, F))
    dbar = form_delbar(EndForm.from_end(t, b, F))
    assert (d.p, d.q, dbar.p, dbar.q) == (1, 0, 0, 1)
    assert d.bundle is b and dbar.bundle is b
    for k in range(2):
        B = b.logs[k]
        assert np.abs(B).max() > 0.1
        expect = 0.5 * (t.partial(F, k) + B @ F - F @ B)
        assert np.abs(d.coeffs[..., k, 0, :, :] - expect).max() < 1e-12
        assert np.abs(dbar.coeffs[..., 0, k, :, :] - expect).max() < 1e-12
        assert np.abs(0.5 * d_end(b, t, F, k) - expect).max() < 1e-12


@pytest.mark.parametrize("p,q", [(0, 0), (1, 0), (0, 1), (1, 1)])
def test_end_form_trivial_monodromy_is_entrywise_scalar(p, q, rng):
    t = AffineTorus(2, 12)
    b = build_bundle([np.eye(2), np.eye(2)])
    shape = t.grid_shape + (2 if p else 1, 2 if q else 1, 2, 2)
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    omega = EndForm(t, p, q, coeffs, b)
    for op, scalar_op in ((end_del, dolbeault_del), (form_delbar, dolbeault_delbar)):
        out = op(omega)
        assert out.bundle is b
        for a in range(2):
            for c in range(2):
                scalar = scalar_op(Form(t, p, q, coeffs[..., a, c]))
                assert np.abs(out.coeffs[..., a, c] - scalar.coeffs).max() < 1e-12


def _monodromy(kind, n):
    """Commuting monodromies on T^n: rank-1 diagonal, rank-2 unipotent (with
    B = 0 on the middle axis) or rank-3 conjugated Jordan."""
    if kind == "diagonal":
        return [np.array([[c]]) for c in (2.0, 3.0, 0.5)[:n]]
    if kind == "unipotent":
        return [UNIPOTENT, np.eye(2), np.array([[2.0, 1.0], [0.0, 2.0]])][:n]
    N = np.eye(3, k=1)
    P = np.eye(3) + 0.3 * np.random.default_rng(7).standard_normal((3, 3))
    Pinv = np.linalg.inv(P)
    return [P @ (c * np.eye(3) + d * N + e * N @ N) @ Pinv
            for c, d, e in ((2.0, 1.0, 0.3), (0.5, -0.2, 0.1), (1.5, 0.4, -0.6))[:n]]


@pytest.mark.parametrize("metric", ["diagonal", "bbt"])
@pytest.mark.parametrize("kind", ["diagonal", "unipotent", "jordan"])
@pytest.mark.parametrize("backend", ["spectral", "fd"])
@pytest.mark.parametrize("dim,N", [(1, 16), (2, 12), (3, 8)])
def test_array_operators_match_form_reference(dim, N, backend, kind, metric, rng):
    # the program's End-valued derivatives on (..., n, r, r) arrays against
    # the End-valued form calculus of tests/oracles.py, which builds all n^2
    # components of delbar and contracts them with the full g^{-1}
    t = AffineTorus(dim, N, backend)
    b = build_bundle(_monodromy(kind, dim))
    r = b.rank
    g = (MetricField(t, np.diag([1.3, 0.7, 2.1][:dim])) if metric == "diagonal"
         else bbt_metric(t))
    H = random_hermitian_metric(b, t, rng, amplitude=0.3, modes=1)
    V = _random_end_field(t, rng, r)
    a = np.stack([_random_end_field(t, rng, r) for _ in range(dim)], axis=-3)

    def close(got, ref):
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()

    theta = connection(b, t, H)
    close(hermitian_connection(b, t, H), theta)
    ref = end_del(EndForm.from_end(t, b, V)).coeffs[..., 0, :, :] + theta @ V[..., None, :, :] \
        - V[..., None, :, :] @ theta
    close(covariant_del0(b, t, theta, V), ref)
    close(Del0(b, t, theta)(V), ref)
    close(end_delbar(g, b, a), end_trace_g(g, form_delbar(EndForm.one_zero(t, b, a))))
    close(mean_curvature(g, b, t, H), end_trace_g(g, curvature(b, t, H)))

    calc = HermCalculus(H)
    dbar = form_delbar(EndForm.from_end(t, b, V)).coeffs[..., 0, :, :, :]
    comp = np.eye(r) - V
    ref = max(np.sqrt(np.abs(np.einsum("...ab,...ab->...", c, np.conj(c)))).max()
              for c in (comp @ dbar[..., k, :, :] for k in range(dim)))
    close(validate_projection(b, t, calc, V)["delbar"], ref)
    ref = sum(g.inv[..., i, j] * inner(calc, a[..., i, :, :], a[..., j, :, :])
              for i in range(dim) for j in range(dim)).real
    close(calc.form_norm_sq(g, a), ref)


def test_form_rejects_end_value_axes(t64):
    # the oracle's Form is scalar-only; End(E)-valued forms are EndForms
    b = build_bundle([UNIPOTENT])
    with pytest.raises(ValidationError):
        Form(t64, 0, 0, np.zeros((64, 1, 1, 2, 2)))
    with pytest.raises(TypeError):
        Form(t64, 0, 0, np.zeros((64, 1, 1, 2, 2)), b)
    with pytest.raises(ValidationError):
        EndForm(t64, 0, 0, np.zeros((64, 1, 1, 3, 3)), b)
    with pytest.raises(ValidationError):
        wedge(EndForm(t64, 1, 0, np.zeros((64, 1, 1, 2, 2)), b), Form.zero(t64, 0, 1))


# ---------------------------------------------------------------------------
# integral identities
# ---------------------------------------------------------------------------

def test_trace_K_identity(t64, rng):
    # int tr K omega^n/nu = n int c1 ^ omega^{n-1} / nu
    b = build_bundle([UNIPOTENT])
    g = MetricField(t64, np.array([[1.7]]))
    H = random_hermitian_metric(b, t64, rng, amplitude=0.3)
    K = mean_curvature(g, b, t64, H)
    lhs = t64.integrate(np.einsum("...aa->...", K) * g.volume_density())
    rhs = 1 * degree(t64, H, g)
    assert abs(lhs - rhs) <= 10 / 64**2


def test_metric_change_identity(t64, rng):
    from affinehe.continuation import ContinuationProblem

    b = build_bundle([np.diag([2.0, 3.0])])
    g = MetricField(t64, np.eye(1))
    H0 = random_hermitian_metric(b, t64, rng, amplitude=0.2)
    calc = HermCalculus(H0)
    f = calc.from_hermitian(random_hermitian_metric(b, t64, rng, amplitude=0.3))
    K0 = mean_curvature(g, b, t64, H0)
    K1 = mean_curvature(g, b, t64, H0 @ f)
    prob = ContinuationProblem(b, t64, H0, g, 0.0)
    change = prob.res_norm(f, 0.0).L - prob.K0_shift
    assert np.abs((K1 - K0) - change).max() < 1e-9


def test_dual_connection_identity(t64, rng):
    # real bundles: d[h(u,v)] = h(u, nabla* v) with nabla* = 2 theta, for
    # constant sections u = v; the twisted derivative of h(u,v) comes from
    # the gauge machinery since the pairing is not a periodic scalar
    from affinehe.bundle import d_herm

    b = build_bundle([np.array([[2.0]])], field="real")
    gauge = b.gauge(t64)
    x = t64.coordinate(0)
    Hflat = (4.0 ** (-x) * np.exp(0.3 * np.sin(2 * np.pi * x)))[..., None, None]
    H = gauge.herm_to_gauge(Hflat.astype(complex))
    th = hermitian_connection(b, t64, H)
    th_flat = gauge.end_to_flat(th[..., 0, :, :])[..., 0, 0]
    dH_flat = gauge.herm_to_flat(d_herm(b, t64, H, 0))[..., 0, 0]
    rhs = Hflat[..., 0, 0] * 2 * th_flat
    assert np.abs(dH_flat - rhs).max() < 1e-9
    # and against the analytic derivative of the twisted scalar
    exact = Hflat[..., 0, 0] * (-2 * np.log(2.0)
                                + 0.6 * np.pi * np.cos(2 * np.pi * x))
    assert np.abs(dH_flat - exact).max() < 1e-8
