"""Affine Gauduchon conformal factors.

Every conformal class [g] on the special affine torus contains a metric with
del delbar (omega^{n-1}) = 0, obtained as phi^{1/(n-1)} g from a positive
zero mode of the linear operator

    Q(phi) = del delbar (phi omega_g^{n-1}) / omega_g^n
           = (1 / 4n det g) sum_ij d_i d_j (det g g^{ij} phi),

applied pair by pair: each nonzero det g g^{ij} phi is differentiated along
axes i and j only, by the torus's N x N derivative matrices (d_i d_i by the
second-derivative matrix).  The same terms give the Gauduchon residual:
del delbar omega^{n-1} / nu = Q(1) omega^n / nu
= ((n-1)!/4) sum_ij d_i d_j (det g g^{ij}), with omega^n / nu = n! det g.

Q is only applied, never assembled: a GMRES solve of a bordered system,
preconditioned by its exact inverse under a conformally flat model of the
metric, gives the kernel vector, and a Lanczos (sigma_max) and a LOBPCG
(sigma_2, preconditioned by that inverse and its adjoint) on Q^H Q certify
that the discrete kernel is one-dimensional; all three are the package's
own numpy loops (``krylov.gmres``, ``largest_eigenvalue``,
``krylov.lobpcg``) on raveled grid fields.  For n = 1 every metric is
affine Gauduchon and the factor is identically one.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from math import factorial

import numpy as np

from . import krylov
from .errors import (KernelNotOneDimensional, NoPositiveKernel, SolverError,
                     ValidationError)
from .forms import MetricField, laplacian_type
from .torus import along


@dataclass
class GauduchonResult:
    """Positive factor, rescaled metric, and certification diagnostics."""

    factor: np.ndarray          # positive scalar field, normalized
    metric: MetricField         # g_G = factor^{1/(n-1)} g
    residual: float             # gauduchon_residual(g_G)
    q_residual: float           # sup |Q(factor)|
    kernel_gap: float           # sigma_2 / sigma_max of the discrete Q
    iterations: int = 0         # GMRES iterations of the kernel solve
    converged: bool = True      # that solve met its relative residual 1e-12
    already_gauduchon: bool = False
    q_applications: int = 0     # apply_Q calls that found and certified it
    lanczos_steps: int = 0      # Q^H Q products of the sigma_max Lanczos
    lobpcg_iterations: int = 0  # LOBPCG iterations for sigma_2
    lobpcg_converged: bool = True  # LOBPCG met LOBPCG_TOL


_MULTIPLIERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _multiplier(metric: MetricField):
    """(terms, d) with Q(phi) = sum along(a phi, *ops) / d over the terms
    (a, ops), one per pair i <= j with a = det g g^{ij} (doubled for i < j)
    not identically zero: ops = ((i, D2),) or ((i, D), (j, D)), the
    torus's derivative matrices, each with the axis it acts along; d =
    4n det g.  Kept per metric, freed with it."""
    if metric not in _MULTIPLIERS:
        n = metric.torus.dim
        D, D2 = metric.torus.derivative_matrices
        adj = metric.det[..., None, None] * metric.inv
        terms = []
        for i, j in zip(*np.triu_indices(n)):
            a = (1 + (i != j)) * adj[..., i, j]
            if a.any():
                terms.append((a, ((i, D2),) if i == j else ((i, D), (j, D))))
        _MULTIPLIERS[metric] = (terms, 4 * n * metric.det)
    return _MULTIPLIERS[metric]


def gauduchon_residual(metric: MetricField) -> float:
    """sup |del delbar omega^{n-1} / nu| over mean(det g)^{(n-1)/n}; zero
    means affine Gauduchon.  The numerator, Q(1) omega^n / nu, scales as
    c^{n-1} under g -> c g, which the divisor cancels; the divisor is 1
    when det g = 1."""
    n = metric.torus.dim
    if n == 1:
        return 0.0
    terms, _ = _multiplier(metric)
    ddbar = sum(along(a, *ops) for a, ops in terms)
    scale = metric.det.mean() ** ((n - 1) / n)
    return factorial(n - 1) / 4 * float(np.abs(ddbar).max()) / scale


def apply_Q(metric: MetricField, phi: np.ndarray) -> np.ndarray:
    """Q(phi) = del delbar (phi omega^{n-1}) / omega^n; linear in phi."""
    if metric.torus.dim < 2:
        raise ValidationError("Q is identically zero for n = 1; every metric is "
                              "affine Gauduchon")
    terms, d = _multiplier(metric)
    return sum(along(a * phi, *ops) for a, ops in terms) / d


def apply_QH(metric: MetricField, psi: np.ndarray) -> np.ndarray:
    """Euclidean adjoint of the discrete Q (not the continuum Q*), to round-off.

    The steps of apply_Q in reverse: a and d are real, D2 is Hermitian and
    D anti-Hermitian, so Q^H psi = sum a along(psi / d, *ops).
    """
    terms, d = _multiplier(metric)
    psi = psi / d
    return sum(a * along(psi, *ops) for a, ops in terms)


def apply_Qstar(metric: MetricField, psi: np.ndarray) -> np.ndarray:
    """Adjoint of Q in the omega^n/nu pairing: (1/4n) g^{ij} psi_{,ij}."""
    return laplacian_type(metric, psi) / metric.torus.dim


def pairing(metric: MetricField, phi: np.ndarray, psi: np.ndarray) -> complex:
    """<phi, psi>_g = int phi psi omega^n / nu."""
    density = np.asarray(phi) * np.asarray(psi) * metric.volume_density()
    return metric.torus.integrate(density)


GAUDUCHON_TOL = 1e-10       # gauduchon_residual below this: already Gauduchon
SIGN_TOL = 1e-6             # relative negativity allowed in the kernel vector
KERNEL_GAP_MIN = 1e-6       # sigma_2 must exceed this times sigma_max
LOBPCG_TOL = 1e-10          # eigen-residual tolerance, relative to sigma_max^2
LANCZOS_TOL = 1e-10         # Ritz residual tolerance, relative to sigma_max^2
LANCZOS_MAXITER = 100       # Lanczos steps allowed for sigma_max^2


def largest_eigenvalue(op, v: np.ndarray) -> tuple[float, int]:
    """Largest eigenvalue of the Hermitian map ``op`` and the steps taken:
    Lanczos from ``v`` with full reorthogonalization, stopped on ARPACK's
    test that the largest Ritz pair (theta, V y) has residual
    |beta_k y_k| <= LANCZOS_TOL theta; SolverError if LANCZOS_MAXITER steps
    do not meet it."""
    V = np.empty((LANCZOS_MAXITER + 1, v.size), dtype=complex)  # rows touched on use
    T = np.zeros((LANCZOS_MAXITER + 1, LANCZOS_MAXITER + 1))
    V[0] = v / np.linalg.norm(v)
    for k in range(LANCZOS_MAXITER):
        B = V[:k + 1]
        w = op(V[k])
        h = (B @ w.conj()).conj()
        w -= h @ B
        w -= (B @ w.conj()).conj() @ B    # Gram-Schmidt twice is enough
        T[k, k] = h[k].real
        theta, Y = np.linalg.eigh(T[:k + 1, :k + 1])
        b = np.linalg.norm(w)
        if b * abs(Y[-1, -1]) <= LANCZOS_TOL * theta[-1]:
            return float(theta[-1]), k + 1
        T[k, k + 1] = T[k + 1, k] = b
        V[k + 1] = w / b
    raise SolverError(f"Lanczos did not reach Ritz residual {LANCZOS_TOL:g} "
                      f"relative to the largest eigenvalue in {LANCZOS_MAXITER} steps")


def kernel_singular_values(metric: MetricField, phi: np.ndarray, Q) -> tuple[float, float, dict]:
    """(sigma_2, sigma_max) of the discrete Q, from Q^H Q without a matrix,
    and the work of the two eigensolvers (``lanczos_steps``,
    ``lobpcg_iterations``, ``lobpcg_converged``).

    ``Q(v)`` applies Q to a grid field, e.g. a counted ``apply_Q``.  sigma_max^2 by
    the Lanczos of ``largest_eigenvalue`` from a fixed-seed vector;
    sigma_2^2 by ``krylov.lobpcg`` on the complement of the raveled kernel
    vector ``phi`` (a degenerate kernel leaves a null vector there), from the next
    draw of the same generator smoothed by the preconditioner (white noise
    stalls it on strongly varying metrics).  The preconditioner is
    M M^H = (B^H B)^{-1}, with M and M^H the ``conformal_inverse`` of the
    kernel solve's B = Q + beta mean: exact for every conformally flat g,
    where B^H B is Q^H Q plus a rank-one term that the complement of the
    kernel vector does not see.
    """
    torus = metric.torus
    QHQ = torus.raveled(lambda v: apply_QH(metric, Q(v)))
    rng = np.random.default_rng(0)
    lam_max, steps = largest_eigenvalue(QHQ, rng.standard_normal(torus.n_points) + 0j)
    solve, adjoint = conformal_inverse(metric, metric.det.mean() ** (-1 / torus.dim))
    start = solve(adjoint(rng.standard_normal(torus.grid_shape) + 0j)).ravel()
    lam, iterations, converged = krylov.lobpcg(
        QHQ, start, torus.raveled(lambda v: solve(adjoint(v))), phi / np.linalg.norm(phi),
        tol=LOBPCG_TOL * lam_max, maxiter=200)
    work = {"lanczos_steps": steps, "lobpcg_iterations": iterations,
            "lobpcg_converged": converged}
    return float(np.sqrt(max(lam, 0.0))), float(np.sqrt(lam_max)), work


def conformal_inverse(metric: MetricField, beta: float):
    """(M, M^H): M the inverse of B phi = Q phi + beta mean(phi) when
    det g g^{-1} = alpha Abar, alpha = det(g)^{(n-1)/n} and Abar the grid
    mean of det g g^{-1} / alpha, as for every conformally flat g.  Then
    Q phi = L(alpha phi) / d with d = 4n det g and L = Abar^{ij} d_i d_j;
    every L u has grid mean zero, so beta mean(phi) = mean(d r) / mean(d),
    and alpha phi is L^{-1} of the rest plus the constant giving that mean.
    M^H, the Euclidean adjoint, takes M's steps in reverse: d and alpha
    are real, and L^{-1} divides by a real symbol, so it is Hermitian."""
    torus, n = metric.torus, metric.torus.dim
    d = 4 * n * metric.det
    alpha = metric.det ** ((n - 1) / n)
    mean_inv_alpha = (1 / alpha).mean()
    Abar = (metric.inv * (metric.det / alpha)[..., None, None]).reshape(-1, n, n).mean(axis=0)
    s = np.meshgrid(*(torus.derivative_symbol(),) * n, indexing="ij")
    divide = torus.fft_divider(-sum(Abar[i, j] * s[i] * s[j] for i in range(n) for j in range(n)))

    def solve(r):
        mu = (d * r).mean() / d.mean()
        u = divide(d * (r - mu))
        return (u + (mu / beta - (u / alpha).mean()) / mean_inv_alpha) / alpha

    def adjoint(y):
        z = y / alpha
        v = d * divide(z - z.mean() / (mean_inv_alpha * alpha))
        return v + d * (z.mean() / (beta * mean_inv_alpha) - v.mean()) / d.mean()
    return solve, adjoint


def find_gauduchon_factor(metric: MetricField) -> GauduchonResult:
    """Positive kernel element of Q, normalized, with the rescaled metric.

    Solves (Q + beta mean) phi = 1, beta = mean(det g)^{-1/n} scaling with
    Q, by ``krylov.gmres`` preconditioned with ``conformal_inverse``, to
    relative residual 1e-12 within eight cycles of 50 (``converged`` says if
    it got there); the volume weights annihilate Q from the left, so phi
    has mean 1 / beta and Q phi = 0.  Raises KernelNotOneDimensional if a second near-null
    direction exists, then NoPositiveKernel unless phi is real and of one
    sign.
    """
    torus = metric.torus
    n = torus.dim
    applications = 0

    def Q(v):
        nonlocal applications
        applications += 1
        return apply_Q(metric, v)

    res0 = gauduchon_residual(metric)  # zero for n = 1
    if res0 <= GAUDUCHON_TOL:
        ones = np.ones(torus.grid_shape)
        q_res = float(np.abs(Q(ones)).max()) if n > 1 else 0.0
        return GauduchonResult(factor=ones, metric=metric, residual=res0,
                               q_residual=q_res, kernel_gap=np.inf,
                               already_gauduchon=True, q_applications=applications)

    beta = metric.det.mean() ** (-1 / n)
    x, info, steps, _ = krylov.gmres(torus.raveled(lambda v: Q(v) + beta * v.mean()),
                                     np.ones(torus.n_points, dtype=complex),
                                     torus.raveled(conformal_inverse(metric, beta)[0]),
                                     rtol=1e-12, maxiter=8)
    if not 0.0 < np.linalg.norm(x) < np.inf:
        # (Q + beta mean) v = 0 forces mean(v) = 0 and Q v = 0
        raise KernelNotOneDimensional(
            "GMRES found no finite nonzero solution of the bordered system Q + "
            "beta mean, which is singular exactly when Q has a null vector of mean zero")
    sigma_2, sigma_max, work = kernel_singular_values(metric, x, Q)
    if sigma_2 < KERNEL_GAP_MIN * sigma_max:
        raise KernelNotOneDimensional(
            f"second smallest singular value {sigma_2:.3e} is not separated "
            f"from zero (largest {sigma_max:.3e}); discrete kernel is degenerate")

    phi = x.reshape(torus.grid_shape)
    if np.abs(phi.imag).max() > 1e-8 * np.abs(phi.real).max():
        raise NoPositiveKernel("kernel vector has a significant imaginary part")
    phi = phi.real
    if phi.min() < -SIGN_TOL * phi.max():
        raise NoPositiveKernel(
            f"kernel vector changes sign (min {phi.min():.3e}, max {phi.max():.3e}); "
            "discretization failed to produce a signed zero mode")
    phi = np.maximum(phi, 1e-300)
    w = metric.volume_density()
    phi *= w.sum() / (phi * w).sum()     # int phi omega^n/nu = int omega^n/nu
    g_G = metric.conformal(phi ** (1.0 / (n - 1)))
    return GauduchonResult(
        factor=phi, metric=g_G, residual=gauduchon_residual(g_G),
        q_residual=float(np.abs(Q(phi)).max()), kernel_gap=sigma_2 / sigma_max,
        iterations=steps, converged=info == 0, q_applications=applications, **work)
