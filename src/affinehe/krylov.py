"""Krylov solvers on plain callables: GMRES for the Newton directions, path
tangents and Gauduchon kernel, LOBPCG for the kernel's certificate, LGMRES
for the scalar elliptic solve of the background normalization.

``gmres`` (Saad & Schultz, SIAM J. Sci. Stat. Comput. 7, 1986) and
``lobpcg`` (single-vector LOBPCG, Knyazev, SIAM J. Sci. Comput. 23, 2001)
are numpy: each step is one operator application, one preconditioner
application and a few vector operations.

``lgmres`` is ``scipy.sparse.linalg.lgmres`` (Baker, Jessup & Manteuffel, SIAM
J. Matrix Anal. Appl. 26, 2005: restarted GMRES whose search space in each
cycle is augmented by the error corrections of the last few cycles) without
two operator applications that do no work.  Started from x0 = 0, scipy's
first residual is A 0 - b; here A 0 is zero without a matvec.  Its last
convergence test applies A to the x it returns, so the true residual
||A x - b|| is returned with x.  Only the scalar solve runs it; it stays
because the benchmark's tracer looks ``scipy.sparse.linalg`` up in
``sys.modules`` and fails when nothing has imported it.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np
import scipy.sparse.linalg as spla

INNER_M = 30  # Arnoldi steps per LGMRES outer cycle
OUTER_K = 3   # outer error corrections kept for the augmentation
RESTART = 50  # Arnoldi steps per GMRES cycle
DROP_TOL = 1e-8  # least part of LOBPCG's update outside span(x, w) it keeps


def lgmres(matvec: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
           psolve: Callable[[np.ndarray], np.ndarray], rtol: float, atol: float,
           maxiter: int) -> tuple[np.ndarray, int, float]:
    """Solve A x = b from x = 0 to ||A x - b|| <= max(atol, rtol ||b||), with
    ``matvec`` the linear map A and ``psolve`` the left preconditioner
    M ~ A^{-1}, both on vectors of b's shape and dtype.

    Returns (x, info, rnorm): info is scipy's (0 on convergence, else the
    number of outer cycles made) and rnorm = ||A x - b||.  Only a stop short
    of the tolerance makes a matvec for rnorm.
    """
    if not b.any():
        return np.zeros_like(b), 0, 0.0
    last = []  # the latest A v

    def applied(v):
        last[:] = [matvec(v) if v.any() else np.zeros_like(b)]
        return last[0]

    n = b.size
    x, info = spla.lgmres(
        spla.LinearOperator((n, n), matvec=applied, dtype=b.dtype), b,
        M=spla.LinearOperator((n, n), matvec=psolve, dtype=b.dtype),
        rtol=rtol, atol=atol, maxiter=maxiter, inner_m=INNER_M, outer_k=OUTER_K)
    # scipy returns info = 0 only right after testing A x, its latest matvec
    Ax = last[0] if info == 0 else matvec(x)
    return x, info, float(np.linalg.norm(Ax - b))


def gmres(matvec: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
          psolve: Callable[[np.ndarray], np.ndarray], rtol: float,
          maxiter: int) -> tuple[np.ndarray, int, int, float]:
    """Solve A x = b from x = 0 to ||A x - b|| <= rtol ||b|| (b complex) by
    GMRES(RESTART) left-preconditioned with ``psolve`` ~ A^{-1} (which
    returns a new array), in at most ``maxiter`` cycles: Arnoldi by modified Gram-Schmidt, least
    squares by Givens rotations (LAPACK's zlartg convention, as scipy's
    gmres).

    A cycle ends when the preconditioned residual estimate meets its target,
    after RESTART steps, or at the "exact solution" breakdown (the new
    Arnoldi vector cancels to eps of its norm); then x is updated and its
    true residual tested, and an unconverged cycle restarts from it.  The
    target is scipy's (gh-8400): ||M r|| rtol ||b|| / ||r|| times a factor
    cut by 4 after a cycle whose estimate met it but whose true residual
    did not, and raised by 1.5 (to at most 1) after any other.

    Returns (x, info, steps, rnorm): info 0 on convergence, else
    ``maxiter``, the Arnoldi steps made, and rnorm = ||b - A x||, the last
    cycle's true residual.  A zero b returns x = 0 without applying A or M.

    A first cycle (x = 0) that ends after one Arnoldi step has x = y_0 v_0
    and takes its true residual as b - y_0 (A v_0), from the image the step
    applied: b - A x in exact arithmetic, with the same rounding bound.
    Every other cycle applies A to its x afresh, as the residual that the
    Arnoldi relation A V_k = V_{k+1} Hbar_k carries through longer or
    restarted cycles drifts on ill-conditioned systems (on a Gauduchon
    kernel system it met rtol = 1e-12 where b - A x was 136 times larger).
    """
    if not b.any():
        return np.zeros_like(b), 0, 0, 0.0
    atol = rtol * np.linalg.norm(b)
    eps = np.finfo(b.dtype).eps
    V = np.empty((RESTART + 1, b.size), dtype=b.dtype)
    x, r, rnorm = np.zeros_like(b), b, np.linalg.norm(b)
    factor, steps = 1.0, 0
    for cycle in range(maxiter):
        z = psolve(r)
        beta = np.linalg.norm(z)
        target = beta * min(factor, atol / rnorm)
        V[0] = z / beta
        g = [complex(beta)]   # the rotated right-hand side
        R, rotations = [], []  # columns of the triangular factor
        for col in range(RESTART):
            Av = matvec(V[col])
            w = psolve(Av)
            h0 = np.linalg.norm(w)
            h = []
            for k in range(col + 1):
                h.append(complex(np.vdot(V[k], w)))
                w -= h[k] * V[k]
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * h0
            if breakdown:
                h1 = 0.0
            else:
                V[col + 1] = w / h1
            for k, (c, s) in enumerate(rotations):
                h[k], h[k + 1] = c * h[k] + s * h[k + 1], -s.conjugate() * h[k] + c * h[k + 1]
            f = h[col]
            d = math.hypot(abs(f), h1)
            u = f / abs(f) if f else 1.0
            c, s, h[col] = (abs(f) / d, u * h1 / d, u * d) if d else (1.0, 0.0, f)
            rotations.append((c, s))
            R.append(h)
            g[col], residual = c * g[col], -s.conjugate() * g[col]
            g.append(residual)
            steps += 1
            if abs(residual) <= target or breakdown:
                break
        y = g[:col + 1]
        for i in reversed(range(col + 1)):
            y[i] -= sum(R[j][i] * y[j] for j in range(i + 1, col + 1))
            y[i] = y[i] / R[i][i] if R[i][i] else 0j
        x += np.array(y) @ V[:col + 1]
        r = b - (y[0] * Av if cycle == col == 0 else matvec(x))
        rnorm = np.linalg.norm(r)
        if rnorm <= atol:
            return x, 0, steps, rnorm
        factor = max(eps, factor / 4) if abs(residual) <= target else min(1.0, 1.5 * factor)
    return x, maxiter, steps, rnorm


def lobpcg(matvec: Callable[[np.ndarray], np.ndarray], x: np.ndarray,
           psolve: Callable[[np.ndarray], np.ndarray], y: np.ndarray, tol: float,
           maxiter: int) -> tuple[float, int, bool]:
    """Smallest eigenvalue of the Hermitian map A = ``matvec`` on the
    orthogonal complement of the unit vector ``y``, by single-vector LOBPCG
    from ``x`` preconditioned by ``psolve``.

    Each iteration applies A once: Rayleigh-Ritz on an orthonormal basis of
    [x, w, p], with w the preconditioned part of the residual orthogonal to
    y (its part along y is no search direction) and p the last update, each
    orthogonalized twice against what precedes it (w against y and x).
    p is dropped when less than DROP_TOL of it lies outside span(x, w): the
    Gram matrix of [x, w, p] has lost rank.  The images under A are
    updated with the vectors, so A is applied to w alone.  It stops when
    the unit Ritz vector's residual ||A x - theta x|| is at most ``tol``
    (which must exceed the round-off of A x), after ``maxiter`` iterations,
    or when the update p vanishes: x is then the Ritz vector of its own
    search space and cannot move.

    Returns (theta, iterations, converged); an unconverged theta is still a
    Rayleigh quotient on the complement, an upper bound.
    """
    S = np.empty((3, x.size), dtype=complex)   # rows x, w, p: orthonormal in the Rayleigh-Ritz
    AS = np.empty_like(S)
    x = x - y * np.vdot(y, x)
    S[0] = x / np.linalg.norm(x)
    AS[0] = matvec(S[0])
    theta, rows = np.vdot(S[0], AS[0]).real, 2
    for iteration in range(maxiter + 1):
        r = AS[0] - theta * S[0]
        if np.linalg.norm(r) <= tol:
            return theta, iteration, True
        if iteration == maxiter:
            break
        w = psolve(r - y * np.vdot(y, r))
        for _ in range(2):   # twice: psolve need not keep w in the complement
            w -= y * np.vdot(y, w)
            w -= S[0] * np.vdot(S[0], w)
        S[1] = w / np.linalg.norm(w)
        AS[1] = matvec(S[1])
        if rows == 3:
            for _ in range(2):
                a = S[:2].conj() @ S[2]
                S[2] -= a @ S[:2]
                AS[2] -= a @ AS[:2]
            outside = np.linalg.norm(S[2])
            if outside > DROP_TOL * pnorm:
                S[2] /= outside
                AS[2] /= outside
            else:
                rows = 2
        H = S[:rows].conj() @ AS[:rows].T
        mu, Z = np.linalg.eigh((H + H.conj().T) / 2)
        theta, c = float(mu[0]), Z[:, 0]
        p, Ap = c[1:] @ S[1:rows], c[1:] @ AS[1:rows]
        S[0], AS[0] = c @ S[:rows], c @ AS[:rows]
        pnorm = np.linalg.norm(p)
        if not pnorm > 0:   # the Ritz vector stayed x: no direction is left
            return theta, iteration + 1, False
        S[2], AS[2], rows = p, Ap, 3
    return theta, iteration, False
