"""krylov.lgmres against scipy's lgmres on the systems the continuation solves."""

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from affinehe import krylov
from affinehe.bundle import (
    build_bundle,
    canonical_metric,
    hermitize,
    random_hermitian_metric,
)
from affinehe.continuation import ContinuationProblem, normalize_background
from affinehe.forms import MetricField
from affinehe.torus import AffineTorus

UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])


def captured_system(solve):
    """The (matvec, b, psolve, keyword arguments) of the one krylov.lgmres
    call that ``solve`` makes."""
    calls = []
    lgmres = krylov.lgmres

    def capture(matvec, b, psolve, **kwargs):
        calls.append((matvec, b, psolve, kwargs))
        return lgmres(matvec, b, psolve, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(krylov, "lgmres", capture)
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
    far = prob.renormalize_det(prob.calc0.from_hermitian(random_hermitian_metric(
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


SYSTEMS = {"blowup_t2_far": blowup_t2_far, "he_polystable_t1_eps1": he_polystable_t1_eps1,
           "scalar_elliptic": scalar_elliptic}


@pytest.fixture(scope="module", params=list(SYSTEMS))
def system(request):
    return captured_system(SYSTEMS[request.param]())


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
