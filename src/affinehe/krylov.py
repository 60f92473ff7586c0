"""LGMRES on plain callables: the Krylov solver of the continuation.

This is ``scipy.sparse.linalg.lgmres`` (Baker, Jessup & Manteuffel, SIAM J.
Matrix Anal. Appl. 26, 2005: restarted GMRES whose search space in each cycle
is augmented by the error corrections of the last few cycles) without two
operator applications that do no work.  Started from x0 = 0, scipy's first
residual is A 0 - b; here A 0 is zero without a matvec.  Its last convergence
test applies A to the x it returns, so the true residual ||A x - b|| is
returned with x and no caller applies A again.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
import scipy.sparse.linalg as spla

INNER_M = 30  # Arnoldi steps per outer cycle
OUTER_K = 3   # outer error corrections kept for the augmentation


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
