"""Continuity method for affine Hermitian-Einstein metrics.

Solves L_eps(f) = K_0 - gamma I + tr_g delbar(f^{-1} del_0 f) + eps log f = 0
along a decreasing eps-path from 1, where f is Hermitian positive with
respect to a normalized background metric h_0 with tr K_0 = r gamma.  Each
eps-stage runs a damped Newton iteration on L_eps: each step solves
DL_eps(f)[f^{1/2} s f^{1/2}] = -L_eps(f) for traceless h_0-Hermitian s and
moves f -> f^{1/2} exp(t s) f^{1/2}, which keeps f positive and det f = 1.
Stages start on the path's tangent; eps cuts follow the Newton contraction.
A line bundle takes no path: rank 1 ends at the normalization.

On convergence (eps below eps_min and the eps = 0 equation solvable) the
final metric h = h_0 f satisfies K = gamma I to solver accuracy.  When the
bundle admits no Hermitian-Einstein metric the path blows up instead:
m = max |log f| grows as eps decreases, and once it exceeds m_max the run
stops and hands the hot endomorphism to the destabilizer.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from . import krylov
from .bundle import (
    Del0,
    FlatBundle,
    HermCalculus,
    canonical_metric,
    covariant_del0,
    end_delbar,
    hermitian_connection,
    hermitize,
    mean_curvature,
    pmul,
)
from .errors import Diverged, LinearSolveStagnation, PoissonSolveFailed, ValidationError
from .forms import MetricField, laplacian_symbol, laplacian_type
from .gauduchon import pairing
from .stability import degree
from .torus import AffineTorus

DEFAULT_M_MAX = 25.0
DEFAULT_EPS_MIN = 1e-4
DEFAULT_FACTOR = 0.5
CUT_MIN = 0.01  # the most aggressive eps cut eps_next / eps
THETA_TARGET = 0.1  # first Newton contraction the cut aims at (Deuflhard 2004, ch. 5)
# work of a run; krylov_unconverged counts gmres stops with info != 0
WORK_COUNTERS = ("newton_directions", "line_search_trials", "tangent_solves",
                 "krylov_matvecs", "krylov_unconverged", "eps_backtracks")


def einstein_constant(bundle: FlatBundle, torus: AffineTorus, H: np.ndarray,
                      gG: MetricField) -> float:
    """gamma with gamma int omega^n/nu = n mu_g(E), snapped to 0 on tori.

    Torus degrees vanish up to quadrature error; values below 10/N^2 are
    replaced by the exact 0 so the path target does not drift.
    """
    gamma = torus.dim * degree(torus, H, gG) / bundle.rank / gG.total_volume()
    if abs(gamma) < 10.0 / torus.resolution**2:
        gamma = 0.0
    return gamma


def solve_scalar_elliptic(gG: MetricField, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve tr_g del delbar rho = rhs for a periodic scalar field.

    Constants are pinned by augmenting the operator with the grid mean; an
    FFT inverse of the constant-coefficient principal part preconditions the
    Krylov iterates.  Returns (rho, achieved sup residual).
    """
    torus = gG.torus
    N = torus.resolution
    rhs = np.asarray(rhs, dtype=complex)
    scale = max(np.abs(rhs).max(), 1e-30)

    mult = -laplacian_symbol(gG)
    A = torus.raveled(lambda rho: laplacian_type(gG, rho) + rho.mean())
    M = torus.raveled(torus.fft_divider(mult))
    tol = 1e-12  # relative lgmres tolerance, and the scale of the acceptance test
    x, info, _ = krylov.lgmres(A, rhs.ravel(), M, rtol=tol, atol=tol * scale, maxiter=400)
    rho = x.reshape(torus.grid_shape)
    rho -= rho.mean()
    achieved = float(np.abs(laplacian_type(gG, rho) - rhs).max())
    # fd consistency floor: the discrete range misses rhs by O(N^-2)
    floor = tol * scale if torus.backend == "spectral" else 20.0 * scale / N**2
    if achieved > max(100 * tol * scale, 2 * floor, 1e-13):
        if info != 0 or achieved > max(1e-8 * scale, 10 * floor):
            raise PoissonSolveFailed(
                f"scalar elliptic solve residual {achieved:.3e} "
                f"(rhs scale {scale:.3e}, lgmres info {info})"
            )
    return rho, achieved


def normalize_background(bundle: FlatBundle, torus: AffineTorus,
                         h0_prime: np.ndarray, gG: MetricField):
    """Produce the normalized background h_0 with tr K_0 = r gamma and the
    eps = 1 solution f_1; gamma is ``diagnostics["gamma"]``.

    Conformally rescales h_0' to h_1 = e^rho h_0' (``rescale_trace``), then
    sets f_1 = exp(-K_1 + gamma I) and h_0 = h_1 f_1^{-1}; by construction
    L_1(f_1) = 0 up to discretization error.
    """
    gamma = einstein_constant(bundle, torus, h0_prime, gG)
    H1, K1, diagnostics = rescale_trace(
        bundle, torus, gG, h0_prime, mean_curvature(gG, bundle, torus, h0_prime), gamma)
    calc1 = HermCalculus(H1)
    f1 = calc1.hermitize(calc1.exp(-(K1 - gamma * np.eye(bundle.rank))))
    H0 = hermitize(pmul(H1, np.linalg.inv(f1)))
    return H0, f1, {"gamma": gamma} | diagnostics


def rescale_trace(bundle: FlatBundle, torus: AffineTorus, gG: MetricField,
                  h: np.ndarray, K: np.ndarray, gamma: float):
    """The conformal rescaling h_1 = e^rho h with tr K(h_1) = r gamma, from h
    and its mean curvature K: returns (h_1, K(h_1), diagnostics)."""
    r = bundle.rank
    tr0 = np.einsum("...aa->...", K)
    # tr K is real in exact arithmetic; residual imaginary content is
    # truncation noise of the derivative backend
    imag_noise = float(np.abs(tr0.imag).max())
    if imag_noise > 0.1 * max(1.0, np.abs(tr0.real).max()):
        raise PoissonSolveFailed(
            f"trace of the mean curvature is not real (imag {imag_noise:.2e}); "
            "the background metric is not resolved on this grid"
        )
    rhs = tr0.real / r - gamma
    imbalance = abs(pairing(gG, rhs, np.ones(torus.grid_shape)))
    rho, solve_res = solve_scalar_elliptic(gG, rhs)
    H1 = hermitize(np.exp(rho.real)[..., None, None] * h)
    K1 = mean_curvature(gG, bundle, torus, H1)
    tr_defect = float(np.abs(np.einsum("...aa->...", K1) - r * gamma).max())
    return H1, K1, {
        "trK_defect": tr_defect,
        "rhs_imbalance": imbalance,
        "poisson_residual": solve_res,
        "trK_imag_noise": imag_noise,
    }


@dataclass(frozen=True)
class Evaluation:
    """L_eps at one state f, with what evaluating it computed that the Newton
    step from f reuses: one h_0-eigendecomposition f = P diag(w) Q, log f,
    f^{-1} = P diag(1/w) Q and f^{-1} del_0 f.  A line search keeps the
    record of its best trial."""

    f: np.ndarray
    eps: float
    w: np.ndarray             # eigenvalues of f, ascending (``HermCalculus.eig``)
    U: np.ndarray             # their h_0-orthonormal frame
    P: np.ndarray             # h_0^{-1/2} U (``HermCalculus.frame``)
    Q: np.ndarray             # U^dag h_0^{1/2}
    logf: np.ndarray          # log f
    finv: np.ndarray          # f^{-1}
    finv_d0f: np.ndarray      # f^{-1} del_0 f, (1,0)-form coefficients grid + (n, r, r)
    L: np.ndarray             # L_eps(f)
    res: float                # sup_x |L_eps(f)|_{h_0}


@dataclass(frozen=True)
class Linearization:
    """What DL_eps(f) and the line search from f need that depends only on
    f, frozen per Newton direction, all from f's evaluation."""

    eps: float
    finv: np.ndarray          # f^{-1}
    finv_d0f: np.ndarray      # f^{-1} del_0 f, (1,0)-form coefficients grid + (n, r, r)
    sqrt_f: np.ndarray        # f^{1/2}
    root: np.ndarray          # h_0^{1/2} f^{1/2} h_0^{-1/2}, the Hermitian image of f^{1/2}
    logdet: np.ndarray        # log det f, pointwise
    dlog: Callable | None     # Phi -> Dlog_f[Phi]; None at eps = 0


class ContinuationProblem:
    """Fixed data of one eps-path run: bundle, grids, h_0, gamma.  Rank >= 2
    only, as rank 1 ends at the normalization; Newton steps are traceless."""

    def __init__(self, bundle: FlatBundle, torus: AffineTorus, H0: np.ndarray,
                 gG: MetricField, gamma: float):
        self.bundle = bundle
        self.torus = torus
        self.gG = gG
        self.rank = bundle.rank
        self.calc0 = HermCalculus(H0)
        theta0 = hermitian_connection(bundle, torus, H0)
        self.del0 = Del0(bundle, torus, theta0)
        self.K0 = end_delbar(gG, bundle, theta0)
        self.eye = np.eye(bundle.rank)
        self.K0_shift = self.K0 - gamma * self.eye
        # symbol of -tr_g delbar del_0 at f = I
        self._symbol = laplacian_symbol(gG)
        self.work = dict.fromkeys(WORK_COUNTERS, 0)

    # -- residual ----------------------------------------------------------
    def spectrum(self, f: np.ndarray, image: np.ndarray | None = None):
        """The h_0-eigendecomposition (w, U) of f, through its Hermitian
        image when given, and log f from its image U diag(log w) U^dag: the
        frame product P diag(log w) Q is the same field, but its round-off
        sent two conjugated-unipotent blow-ups (T^2 N=12) to max-iters."""
        w, U = self.calc0.eig(f, image)
        return w, U, self.calc0.from_eig(U, np.log(np.maximum(w, 1e-30)))

    def res_norm(self, f: np.ndarray, eps: float,
                 image: np.ndarray | None = None) -> Evaluation:
        """Evaluate L_eps at f: the field L_eps(f) (gauge storage), its
        sup_x |L_eps(f)|_{h_0} (``res``) and the pieces that the Newton step
        from f reuses.  A line-search trial comes with its Hermitian image
        h_0^{1/2} f h_0^{-1/2} (``image``), diagonalized in place of f.

        The curvature term tr_g delbar (f^{-1} del_0 f) has the same formula
        at every rank; ``linearize_residual`` is its exact derivative.
        Raises LinAlgError when f is not numerically positive definite.
        """
        w, U, logf = self.spectrum(f, image)
        if not w[..., 0].min() > np.finfo(float).tiny:
            raise np.linalg.LinAlgError("f is numerically singular")
        P, Q = self.calc0.frame(U)
        finv = pmul(P / w[..., None, :], Q)
        d0f = covariant_del0(self.bundle, self.torus, self.del0, f)
        finv_d0f = pmul(finv[..., None, :, :], d0f)
        L = self.K0_shift + end_delbar(self.gG, self.bundle, finv_d0f) + eps * logf
        return Evaluation(f, eps, w, U, P, Q, logf, finv, finv_d0f, L,
                          self.calc0.sup_norm(L))

    def m_and_det_defect(self, w: np.ndarray, logf: np.ndarray) -> tuple[float, float]:
        """m = max over the grid of the flat-frame Frobenius norm of log f,
        and sup |det f - 1|, from the eigenvalues w of f and log f."""
        logf_flat = self.bundle.gauge(self.torus).end_to_flat(logf)
        m = float(np.sqrt(
            np.abs(np.einsum("...ab,...ab->...", logf_flat, np.conj(logf_flat)))
        ).max())
        return m, float(np.abs(w.prod(axis=-1) - 1.0).max())

    # -- linearization ------------------------------------------------------
    def linearization(self, at: Evaluation) -> Linearization:
        """Freeze DL_eps at the evaluated f: f^{-1}, f^{-1} del_0 f, log det f
        and Dlog_f from f's frame, and f^{1/2} from its Hermitian image R,
        the R that every trial along the direction is built from
        (``update``), so the Newton model and its trials share one root."""
        dlog = self.calc0.dlog(at.w, at.P, at.Q) if at.eps != 0.0 else None
        w = np.maximum(at.w, 1e-30)
        root = pmul(at.U * np.sqrt(w)[..., None, :], np.conj(np.swapaxes(at.U, -1, -2)))
        return Linearization(at.eps, at.finv, at.finv_d0f, self.calc0.from_hermitian(root),
                             root, np.log(w).sum(axis=-1), dlog)

    def linearize_residual(self, lin: Linearization, phi: np.ndarray) -> np.ndarray:
        """The Krylov matvec: the derivative of L_eps at the f frozen in ``lin``
        along phi, tr_g delbar (f^{-1}(del_0 phi - phi f^{-1} del_0 f)) + eps Dlog_f[phi]."""
        d0phi = covariant_del0(self.bundle, self.torus, self.del0, phi)
        a = pmul(lin.finv[..., None, :, :], d0phi - pmul(phi[..., None, :, :], lin.finv_d0f))
        out = end_delbar(self.gG, self.bundle, a)
        if lin.dlog is not None:
            out = out + lin.eps * lin.dlog(phi)
        return out

    # -- inner linear solves -------------------------------------------------
    def _traceless(self, s: np.ndarray) -> np.ndarray:
        """Pointwise traceless part of s."""
        tr = np.einsum("...aa->...", s) / self.rank
        return s - tr[..., None, None] * self.eye

    def solve_newton_direction(self, lin: Linearization, L: np.ndarray, eta: float,
                               counter: str = "newton_directions"):
        """Solve DL(f)[f^{1/2} s f^{1/2}] = -L over traceless Hermitian s,
        with DL frozen at f in ``lin``, to the relative linear residual
        ``eta`` that ``newton_solve`` takes from ``forcing_term``; counted in
        ``work[counter]``.  Returns s as (sigma, C): sigma its eigenvalues and
        C = R V, with V the eigenframe (``HermCalculus.eig``) of the Hermitian
        image of the gmres solution and R the Hermitian image of f^{1/2}
        (``Linearization.root``); every step length along s reuses them
        (``update``).

        The traceless constraint restricts the step to determinant-preserving
        moves, where every solution lives (det f = 1); the pointwise-trace
        sector of L vanishes there up to discretization, so nothing is lost.
        Without the restriction the scale sector couples to the eps log f
        term and produces useless giant Newton directions near scale
        degeneracy.

        The solve is matrix-free: ``krylov.gmres`` (at most 40 cycles) on the
        analytic matvec, preconditioned by the FFT inverse of the principal
        symbol plus eps.
        At eps = 0 the symbol vanishes on the mean mode, which
        ``AffineTorus.fft_divider`` passes unchanged; on a polystable bundle
        the operator is singular along the commutant there, and a
        preconditioner that amplified that mode would throw the step off the
        solution path.  Raises LinearSolveStagnation when the true relative
        residual that gmres returns stays above 0.9.
        """
        r, sqf, eps, work = self.rank, lin.sqrt_f, lin.eps, self.work
        work[counter] += 1
        b = self._traceless(-L).ravel()
        bnorm = np.linalg.norm(b)

        def matvec(s):
            work["krylov_matvecs"] += 1
            phi = pmul(sqf, self._traceless(s), sqf)
            return self._traceless(self.linearize_residual(lin, phi))
        A = self.torus.raveled(matvec, (r, r))
        M = self.torus.raveled(self.torus.fft_divider(self._symbol + eps, (r, r)), (r, r))
        with np.errstate(over="ignore", invalid="ignore"):
            x, info, _, rnorm = krylov.gmres(A, b, M, rtol=eta, maxiter=40)
        work["krylov_unconverged"] += info != 0
        if not rnorm <= 0.9 * bnorm:
            raise LinearSolveStagnation(
                f"Newton linear solve stagnated (relative residual {rnorm / bnorm:.2e})"
            )
        sigma, V = self.calc0.eig(self._traceless(x.reshape(L.shape)))
        return sigma, pmul(lin.root, V)

    def update(self, lin: Linearization, s: tuple[np.ndarray, np.ndarray],
               step: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
        """The trial f^{1/2} exp(step s) f^{1/2} at the f frozen in ``lin``
        for s = (sigma, C) from ``solve_newton_direction``, rescaled to det 1,
        and its Hermitian image T = C diag(exp(step sigma)) C^dag
        exp(-(log det f + step sum sigma) / r), positive by construction."""
        sigma, C = s
        shift = (lin.logdet + step * sigma.sum(axis=-1)) / self.rank
        # clip keeps a wild Newton trial finite; the line search rejects it
        e = np.exp(np.minimum(step * sigma - shift[..., None], 500.0))
        T = hermitize(pmul(C * e[..., None, :], np.conj(np.swapaxes(C, -1, -2))))
        return self.calc0.from_hermitian(T), T

    def tangent(self, at: Evaluation) -> tuple[Linearization, tuple[np.ndarray, np.ndarray]]:
        """DL_eps frozen at an evaluated solution f of L_eps = 0, and the
        path's tangent sdot in t = log eps: DL_eps(f)[f^{1/2} sdot f^{1/2}] =
        -eps log f, solved to ETA_MAX (zero if that stagnates; Allgower &
        Georg, ch. 2)."""
        lin = self.linearization(at)
        try:
            return lin, self.solve_newton_direction(
                lin, at.eps * at.logf, ETA_MAX, "tangent_solves")
        except LinearSolveStagnation:
            return lin, (np.zeros(at.w.shape), lin.root)


@dataclass
class ContinuationState:
    at: Evaluation            # the current f, evaluated at its eps
    m: float
    det_defect: float
    entry_residual: float
    history: list = field(default_factory=list)
    converged: bool = False


@dataclass
class HEResult:
    status: str                  # converged | blowup | max-iters
    final_metric: np.ndarray | None
    gamma: float
    K_defect: float
    blowup_data: np.ndarray | None
    history: list
    h0: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)


STALL_ACCEPT = 50.0  # accept a stalled Newton iterate within this factor of tol
MAX_NEWTON = 30
ETA_MAX, ETA_MIN = 0.1, 1e-8  # bounds of the inexact-Newton forcing term


def forcing_term(tol_eff: float, res: float) -> float:
    """Relative residual for a Newton direction's Krylov solve: half the cut
    from res to tol_eff, clipped to [ETA_MIN, ETA_MAX].  The gmres residual
    is then about tol_eff / 2, so the inexact solve alone cannot keep the step
    from the target, and a tighter solve would only oversolve."""
    return min(ETA_MAX, max(ETA_MIN, 0.5 * tol_eff / res))


def newton_solve(problem: ContinuationProblem, eps: float, f_init: np.ndarray,
                 tol: float = 1e-8, m_max: float | None = None,
                 rel_target: float | None = None) -> ContinuationState:
    """Newton iteration for L_eps(f) = 0 from f_init.

    With ``rel_target`` set, the goal is a fixed reduction of the entry
    residual (path-following mode: every eps-step must make real progress
    tracking the solution family even when residuals are tiny).  The loop
    ends at the target, after MAX_NEWTON steps, or when the line search
    finds no better trial.  Then one stall rule decides: a residual within
    STALL_ACCEPT of the target counts as converged, since discretization
    bounds the achievable residual below; a larger one raises Diverged, as
    does a stagnating linear solve.  Returns early, unconverged, with the
    hot state when m crosses m_max (blow-up hand-off).  Newton is inexact:
    each direction is solved only to ``forcing_term(tol_eff, res)``.

    The line search tries the step lengths 1, 1/2, ..., 1/256 in turn and
    keeps the best trial examined.  It stops at the first trial below 0.3 res
    or, once some trial has beaten res, at the first trial that is not below
    the best so far: shortening the step has stopped helping (Nocedal &
    Wright 2006, ch. 3).  A trial that is not finite, or numerically singular,
    is rejected.  Trials are counted in ``work["line_search_trials"]``.
    """
    at = problem.res_norm(problem.calc0.hermitize(np.asarray(f_init, dtype=complex)), eps)
    state = ContinuationState(at, *problem.m_and_det_defect(at.w, at.logf),
                              entry_residual=at.res)
    hard_floor = 1e-14 * max(1.0, float(np.abs(problem.K0).max()))
    tol_eff = max(tol, hard_floor)
    if rel_target is not None:
        tol_eff = max(min(tol_eff, rel_target * at.res), hard_floor)
    for _ in range(MAX_NEWTON):
        if at.res <= tol_eff:
            break
        if m_max is not None and state.m >= m_max:
            return state
        lin = problem.linearization(at)
        try:
            s = problem.solve_newton_direction(lin, at.L, forcing_term(tol_eff, at.res))
        except LinearSolveStagnation as exc:
            raise Diverged(f"Newton at eps={eps:.3e}: {exc}") from exc
        best = None
        for k in range(9):
            problem.work["line_search_trials"] += 1
            # a wild trial may overflow; it is rejected before its evaluation
            with np.errstate(over="ignore", invalid="ignore"):
                f_try, image = problem.update(lin, s, 0.5**k)
            if not np.isfinite(f_try).all():
                continue
            try:
                trial = problem.res_norm(f_try, eps, image)
            except np.linalg.LinAlgError:  # a numerically singular trial
                continue
            if not np.isfinite(trial.res):
                continue
            if best is not None and best.res < at.res and trial.res >= best.res:
                break  # shortening the step has stopped helping
            if best is None or trial.res < best.res:
                best = trial
            if trial.res < 0.3 * at.res:
                break
        accepted = best is not None and best.res < max(at.res * (1.0 - 1e-4), tol_eff)
        if accepted:
            at = state.at = best
            state.m, state.det_defect = problem.m_and_det_defect(at.w, at.logf)
        state.history.append((eps, at.res, state.m, state.det_defect))
        if not accepted:
            break
    if at.res > STALL_ACCEPT * tol_eff:
        raise Diverged(f"Newton at eps={eps:.3e} stalled at residual {at.res:.3e}")
    state.converged = True
    return state


def _K_defect(K: np.ndarray, gamma: float) -> float:
    """sup_x Frobenius norm of K - gamma I for a mean curvature K (gauge)."""
    D = K - gamma * np.eye(K.shape[-1])
    return float(np.sqrt(np.abs(
        np.einsum("...ab,...ba->...", D, np.conj(np.swapaxes(D, -1, -2)))
    )).max())


def run_continuation(bundle: FlatBundle, torus: AffineTorus, gG: MetricField,
                     h0_prime: np.ndarray | None = None,
                     factor: float = DEFAULT_FACTOR,
                     eps_min: float = DEFAULT_EPS_MIN,
                     newton_tol: float = 1e-8,
                     max_steps: int = 200,
                     m_max: float = DEFAULT_M_MAX) -> HEResult:
    """Full continuity-method run: normalization, eps-path, blow-up watch.

    Each stage solves L_eps = 0 by Newton to a relative target, then moves
    to eps * cut from the tangent predictor (``tangent``) unless its m
    reaches m_max.  The cut starts at ``factor``, its largest value; dt =
    log cut scales by sqrt(THETA_TARGET / theta) within [1/2, 2], theta the
    first Newton contraction, and the cut stays >= CUT_MIN.  A diverged
    stage is retried from the last accepted state with the square root of
    the failed cut, and its retry does not grow the cut.  Below eps_min the
    eps = 0 equation is attempted directly; a converged attempt only counts
    if m barely moved, since for strictly semistable bundles the eps = 0
    residual decays along the degenerating family without a solution.
    Otherwise the path descends from the attempt's state until m_max, the
    step budget, or a retry cut above 0.97 ("stuck below").  Never silently
    returns a non-converged metric.

    Rank 1 ends at the conformal rescaling of the normalization
    (``rescale_trace``), which solves its whole equation: it is rerun from
    its own h_1 while each pass lowers K_defect, at most ``max_steps``
    times (defect correction, Stetter 1978).  Each pass computes one mean
    curvature, that of its h_1, which is both its K_defect and the next
    pass's input; the result has no h_0.
    """
    if h0_prime is None:
        h0_prime = canonical_metric(bundle, torus)
    if bundle.rank == 1:
        gamma = einstein_constant(bundle, torus, h0_prime, gG)
        H, K, norm_diag = rescale_trace(
            bundle, torus, gG, h0_prime, mean_curvature(gG, bundle, torus, h0_prime), gamma)
        Kdef = _K_defect(K, gamma)
        for _ in range(max_steps - 1):
            H_next, K_next, _ = rescale_trace(bundle, torus, gG, H, K, gamma)
            Kdef_next = _K_defect(K_next, gamma)
            if not Kdef_next < Kdef:
                break
            H, K, Kdef = H_next, K_next, Kdef_next
        return HEResult("converged", H, gamma, Kdef, None, [], None,
                        {"gamma": gamma} | norm_diag | dict.fromkeys(WORK_COUNTERS, 0))
    H0, f1, norm_diag = normalize_background(bundle, torus, h0_prime, gG)
    gamma = norm_diag["gamma"]
    problem = ContinuationProblem(bundle, torus, H0, gG, gamma)

    history: list[tuple[float, float, float, float]] = []
    eps, f, cut = 1.0, f1, factor
    good = None  # (eps, f, DL frozen at f, tangent) of the last accepted stage
    retried, tried_zero_at = False, -10

    def stop(status: str, blowup_data: np.ndarray | None = None,
             H: np.ndarray | None = None, **diag) -> HEResult:
        Kdef = np.inf if H is None else _K_defect(mean_curvature(gG, bundle, torus, H), gamma)
        return HEResult(status, H, gamma, Kdef, blowup_data, history, H0,
                        norm_diag | problem.work | diag)

    def predict() -> np.ndarray:
        _, f0, lin, sdot = good
        f_pred, image = problem.update(lin, sdot, np.log(cut))
        w, _, logf = problem.spectrum(f_pred, image)
        return f_pred if problem.m_and_det_defect(w, logf)[0] < m_max else f0

    for steps in range(1, max_steps + 1):
        try:
            st = newton_solve(problem, eps, f, tol=newton_tol, m_max=m_max,
                              rel_target=0.03)
        except Diverged:
            if good is None:
                return stop("max-iters", message="diverged at eps=1")
            cut = float(np.sqrt(eps / good[0]))
            if cut > 0.97:
                return stop("max-iters", message=f"stuck below eps={good[0]:.3e}")
            problem.work["eps_backtracks"] += 1
            retried = True
            eps, f = good[0] * cut, predict()
            continue
        history.append((st.at.eps, st.at.res, st.m, st.det_defect))
        if st.m >= m_max:
            return stop("blowup", st.at.f, eps_at_blowup=st.at.eps, m_at_blowup=st.m)
        theta = st.history[0][1] / st.entry_residual if st.history else 0.0
        grow = 1.0 if retried else 2.0  # a retry does not grow the cut
        ratio = float(np.clip(np.sqrt(THETA_TARGET / max(theta, 1e-12)), 0.5, grow))
        cut = min(max(cut ** ratio, CUT_MIN), max(cut, factor))
        retried = False
        f_next = None
        if eps <= eps_min and steps - tried_zero_at >= 8:
            tried_zero_at = steps
            try:
                st0 = newton_solve(problem, 0.0, st.at.f, tol=newton_tol, m_max=m_max)
            except Diverged:
                pass
            else:
                history.append((st0.at.eps, st0.at.res, st0.m, st0.det_defect))
                f_next = st0.at.f  # keep: for semistable bundles this pushes m up
                if st0.m >= m_max:
                    return stop("blowup", st0.at.f, eps_at_blowup=st0.at.eps,
                                m_at_blowup=st0.m)
                # m-drift test; st0 is converged, as only m >= m_max returns unconverged
                if st0.m - st.m <= 0.5 and st0.m <= 0.5 * m_max:
                    return stop("converged", H=hermitize(H0 @ st0.at.f))
        good = (eps, st.at.f, *problem.tangent(st.at))
        eps *= cut
        f = predict() if f_next is None else f_next
    return stop("max-iters", message="step budget exhausted")


def real_he_metric(bundle: FlatBundle, torus: AffineTorus, gG: MetricField,
                   splitting=None):
    """Real Hermitian-Einstein metric on an R-stable real bundle.

    With a conjugate splitting E (x) C = V + conj(V), solves on V (half
    rank) and extends by h(xi, conj eta) = 0, h(conj xi, conj eta) =
    conj h(xi, eta); the result is real in the original frame.  Without a
    splitting (C-simple complexification) the complex solver runs directly.

    Returns (flat-frame metric on E (x) C, HEResult, reality_defect).
    """
    if bundle.field != "real":
        raise ValidationError("real_he_metric expects a real bundle")
    from .stability import conjugate_splitting, induced_monodromy

    ec = FlatBundle(bundle.monodromy, "complex")
    if splitting is None:
        splitting = conjugate_splitting(bundle)
    if splitting is None:
        result = run_continuation(ec, torus, gG)
        if result.status != "converged":
            return None, result, np.inf
        Hflat = ec.gauge(torus).herm_to_flat(result.final_metric)
        reality = float(np.abs(Hflat.imag).max() / max(1.0, np.abs(Hflat).max()))
        return Hflat, result, reality

    V, _ = splitting
    r = bundle.rank
    s = V.rank
    if 2 * s != r:
        raise ValidationError(
            f"conjugate splitting V of rank {s} does not halve rank {r}; "
            "E (x) C = V + conj(V) needs 2 rank(V) = rank(E)"
        )
    sub = FlatBundle(induced_monodromy(ec, V), "complex")
    result = run_continuation(sub, torus, gG)
    if result.status != "converged":
        return None, result, np.inf
    HV_flat = sub.gauge(torus).herm_to_flat(result.final_metric)
    T = np.hstack([V.basis, np.conj(V.basis)])
    if np.linalg.cond(T) > 1e8:
        raise ValidationError("conjugate splitting basis is ill conditioned")
    Tinv = np.linalg.inv(T)
    HC = np.zeros(torus.grid_shape + (r, r), dtype=complex)
    HC[..., :s, :s] = HV_flat
    HC[..., s:, s:] = np.conj(HV_flat)
    Hreal = np.conj(Tinv.T) @ HC @ Tinv
    reality = float(np.abs(Hreal.imag).max() / max(1.0, np.abs(Hreal).max()))
    return Hreal, result, reality
