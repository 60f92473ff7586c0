"""krylov.lgmres, gmres and lobpcg against scipy's on the systems the
continuation and the Gauduchon factor solve."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg as spla

from affinehe import krylov
from affinehe.bundle import (
    build_bundle,
    canonical_metric,
    hermitize,
    random_hermitian_metric,
)
from affinehe.continuation import ContinuationProblem, normalize_background
from affinehe.errors import NoPositiveKernel
from affinehe.forms import MetricField
from affinehe.gauduchon import find_gauduchon_factor
from affinehe.torus import AffineTorus
from oracles import renormalize_det
from test_gauduchon import assemble_Q, bbt_metric, gauduchon_t3_seed1_metric, sin_metric

UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])


def captured_system(solve, solver="gmres"):
    """The positional and then the keyword arguments of the one
    krylov.``solver`` call that ``solve`` makes: (matvec, b, psolve, kwargs)
    for lgmres and gmres."""
    calls = []
    original = getattr(krylov, solver)

    def capture(*args, **kwargs):
        calls.append((*args, kwargs))
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov, solver, capture)
        solve()
    assert len(calls) == 1
    return calls[0]


def blowup_t2_far():
    # the blowup_t2 input at the off-path state of
    # test_newton_direction_freezes_linearization, eps = 1/2
    t = AffineTorus(2, 16)
    g = MetricField(t, np.eye(2))
    b = build_bundle([UNIPOTENT, np.eye(2)])
    H0, _, _ = normalize_background(b, t, canonical_metric(b, t), g)
    prob = ContinuationProblem(b, t, H0, g, 0.0)
    far = renormalize_det(prob.calc0.from_hermitian(random_hermitian_metric(
        b, t, np.random.default_rng(0), amplitude=0.3, modes=1)))
    at = prob.res_norm(far, 0.5)
    return lambda: prob.solve_newton_direction(prob.linearization(at), at.L, 1e-8)


def he_polystable_t1_input():
    t = AffineTorus(1, 32)
    g = MetricField(t, np.eye(1))
    b = build_bundle([np.diag([2.0, 3.0])])
    h0p = canonical_metric(b, t) @ random_hermitian_metric(
        b, t, np.random.default_rng(0), amplitude=0.1, modes=1)
    return b, t, h0p, g


def he_polystable_t1_eps1():
    # the he_polystable_t1 input at its eps = 1 solution f1
    b, t, h0p, g = he_polystable_t1_input()
    H0, f1, diag = normalize_background(b, t, hermitize(h0p), g)
    prob = ContinuationProblem(b, t, H0, g, diag["gamma"])
    at = prob.res_norm(f1, 1.0)
    return lambda: prob.solve_newton_direction(prob.linearization(at), at.L, 1e-8)


def scalar_elliptic():
    # the conformal rescaling of the he_polystable_t1 background
    b, t, h0p, g = he_polystable_t1_input()
    return lambda: normalize_background(b, t, hermitize(h0p), g)


# each system with the solver that solves it in the program
SYSTEMS = {"blowup_t2_far": (blowup_t2_far, "gmres"),
           "he_polystable_t1_eps1": (he_polystable_t1_eps1, "gmres"),
           "scalar_elliptic": (scalar_elliptic, "lgmres")}


@pytest.fixture(scope="module", params=list(SYSTEMS))
def system(request):
    """(matvec, b, psolve, kwargs) of the system, with kwargs rtol, atol and
    maxiter as lgmres takes them: a Newton system's gmres tolerance
    rtol ||b|| is lgmres's max(atol, rtol ||b||) at atol = 0."""
    solve, solver = SYSTEMS[request.param]
    matvec, b, psolve, kwargs = captured_system(solve(), solver)
    return matvec, b, psolve, {"atol": 0.0} | kwargs


def counting(matvec):
    def counted(v):
        counted.calls += 1
        return matvec(v)
    counted.calls = 0
    return counted


def scipy_lgmres(matvec, b, psolve, **kwargs):
    """scipy's lgmres from x0 = 0: (x, info, its matvecs)."""
    counted = counting(matvec)
    n = b.size
    x, info = spla.lgmres(
        spla.LinearOperator((n, n), matvec=counted, dtype=b.dtype), b,
        M=spla.LinearOperator((n, n), matvec=psolve, dtype=b.dtype), **kwargs)
    return x, info, counted.calls


def test_lgmres_matches_scipy_with_one_matvec_less(system):
    # it reaches the tolerance with scipy's iterates, returns the true
    # residual of its x, and makes one matvec less than scipy's lgmres from
    # x0 = 0 (no A 0) and none after it
    matvec, b, psolve, kwargs = system
    rtol, atol, maxiter = kwargs["rtol"], kwargs["atol"], kwargs["maxiter"]
    ours = counting(matvec)
    x, info, rnorm = krylov.lgmres(ours, b, psolve, rtol=rtol, atol=atol, maxiter=maxiter)
    assert info == 0
    assert rnorm <= max(atol, rtol * np.linalg.norm(b))
    assert rnorm == pytest.approx(np.linalg.norm(matvec(x) - b), rel=1e-12)
    x_scipy, scipy_info, scipy_calls = scipy_lgmres(matvec, b, psolve, rtol=rtol,
                                                    atol=atol, maxiter=maxiter)
    assert scipy_info == 0
    assert np.array_equal(x, x_scipy)
    assert 0 < ours.calls == scipy_calls - 1


def test_lgmres_zero_rhs_makes_no_matvec(system):
    matvec, b, psolve, _ = system
    ours = counting(matvec)
    x, info, rnorm = krylov.lgmres(ours, np.zeros_like(b), psolve, rtol=1e-8, atol=0.0,
                                   maxiter=10)
    assert (info, rnorm, ours.calls) == (0, 0.0, 0)
    assert not x.any() and x.shape == b.shape


def test_gmres_returns_the_true_residual_of_its_x(system):
    # converged, and after one cycle short of rtol = 0, which no x meets,
    # rnorm is ||A x - b|| of the x returned
    matvec, b, psolve, kwargs = system
    for rtol, maxiter in ((kwargs["rtol"], 40), (0.0, 1)):
        x, info, steps, rnorm = krylov.gmres(matvec, b, psolve, rtol=rtol, maxiter=maxiter)
        assert steps > 0 and (info == 0) == (rnorm <= rtol * np.linalg.norm(b))
        assert rnorm == pytest.approx(np.linalg.norm(matvec(x) - b), rel=1e-12)
    assert info == 1


def test_gmres_zero_rhs_makes_no_matvec(system):
    matvec, b, psolve, _ = system
    ours, preconditioned = counting(matvec), counting(psolve)
    x, info, steps, rnorm = krylov.gmres(ours, np.zeros_like(b), preconditioned, rtol=1e-8,
                                         maxiter=10)
    assert (info, steps, rnorm, ours.calls, preconditioned.calls) == (0, 0, 0.0, 0, 0)
    assert not x.any() and x.shape == b.shape


def test_lgmres_one_cycle_on_a_hard_system_is_unconverged():
    # the blowup_t2 off-path system at rtol 1e-12: one outer cycle does not
    # reach it, and rnorm is still the true residual, for one matvec more,
    # so as many as scipy's lgmres makes with its A 0
    matvec, b, psolve, _ = captured_system(blowup_t2_far())
    ours = counting(matvec)
    x, info, rnorm = krylov.lgmres(ours, b, psolve, rtol=1e-12, atol=0.0, maxiter=1)
    assert info != 0
    assert 1e-12 * np.linalg.norm(b) < rnorm < np.linalg.norm(b)
    assert rnorm == pytest.approx(np.linalg.norm(matvec(x) - b), rel=1e-12)
    x_scipy, _, scipy_calls = scipy_lgmres(matvec, b, psolve, rtol=1e-12, atol=0.0,
                                           maxiter=1)
    assert np.array_equal(x, x_scipy)
    assert ours.calls == scipy_calls


def operator(fn, n):
    return spla.LinearOperator((n, n), matvec=fn, dtype=complex)


def gauduchon_kernel_solve(metric):
    """find_gauduchon_factor on ``metric``, up to the NoPositiveKernel that
    a complex kernel vector raises after the solve."""
    def solve():
        try:
            find_gauduchon_factor(metric)
        except NoPositiveKernel:
            pass
    return solve


@pytest.mark.parametrize("metric", [gauduchon_t3_seed1_metric,
                                    lambda: bbt_metric(AffineTorus(2, 16))],
                         ids=["gauduchon_t3_seed1", "complex_bbt_T2_N16"])
def test_gmres_matches_scipy_on_the_gauduchon_kernel_solve(metric):
    # the bordered system (Q + beta mean) phi = 1 of the gauduchon_t3 seed 1
    # input, and a complex one (a nondiagonal metric at even N): scipy's
    # gmres takes the same steps to the same solution
    matvec, b, psolve, kwargs = captured_system(gauduchon_kernel_solve(metric()))
    x, info, steps, _ = krylov.gmres(matvec, b, psolve, **kwargs)
    assert info == 0
    assert np.linalg.norm(matvec(x) - b) <= kwargs["rtol"] * np.linalg.norm(b)
    scipy_steps = []
    x_scipy, scipy_info = spla.gmres(
        operator(matvec, b.size), b, M=operator(psolve, b.size), rtol=kwargs["rtol"],
        atol=0.0, restart=krylov.RESTART, maxiter=kwargs["maxiter"],
        callback=scipy_steps.append, callback_type="pr_norm")
    assert scipy_info == 0
    assert steps == len(scipy_steps)
    assert np.linalg.norm(x - x_scipy) <= 1e-12 * np.linalg.norm(x_scipy)


@pytest.mark.parametrize("metric", [lambda: sin_metric(AffineTorus(3, 8), 0.4, axis=1),
                                    lambda: bbt_metric(AffineTorus(3, 9))],
                         ids=["sin_T3_N8", "bbt_T3_N9"])
def test_lobpcg_matches_scipy_and_the_dense_svd(metric):
    # sigma_2^2 on the complement of the kernel vector, from the start
    # vector, preconditioner and tolerance of kernel_singular_values: scipy's
    # lobpcg agrees to round-off and applies Q^H Q at least as often
    g = metric()
    matvec, x0, psolve, y, kwargs = captured_system(lambda: find_gauduchon_factor(g),
                                                    "lobpcg")
    ours = counting(matvec)
    lam, iterations, converged = krylov.lobpcg(ours, x0, psolve, y, **kwargs)
    assert converged and ours.calls == iterations + 1
    theirs = counting(matvec)
    n = x0.size
    lam_scipy = spla.lobpcg(operator(theirs, n), x0.reshape(-1, 1), Y=y.reshape(-1, 1),
                            M=operator(psolve, n), largest=False, **kwargs)[0][0]
    assert abs(np.sqrt(lam) - np.sqrt(lam_scipy)) <= 1e-12 * np.sqrt(lam_scipy)
    assert ours.calls <= theirs.calls
    sigma_2 = scipy.linalg.svdvals(assemble_Q(g))[-2]
    assert abs(np.sqrt(lam) - sigma_2) <= 1e-6 * sigma_2


@pytest.mark.parametrize("seed", range(4))
def test_lobpcg_drops_a_dependent_update(seed):
    # the complement of y is two-dimensional, so x, w and the update p are
    # dependent from the second iteration on: p is dropped and theta stays
    # the least eigenvalue of A on the complement, an upper bound that the
    # residual's part along y (y is no eigenvector) keeps from converging
    rng = np.random.default_rng(seed)
    M = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    A = M @ M.conj().T
    y = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    y /= np.linalg.norm(y)
    U = np.linalg.svd(y.conj()[None, :])[2][1:].conj().T   # a basis of the complement
    lam = np.linalg.eigvalsh(U.conj().T @ A @ U)[0]
    theta, iterations, converged = krylov.lobpcg(
        lambda v: A @ v, rng.standard_normal(3) + 0j, lambda r: r, y,
        tol=1e-10 * np.linalg.norm(A, 2), maxiter=20)
    assert not converged and iterations > 1
    assert abs(theta - lam) <= 1e-12 * lam
