"""The directional derivative of f L_eps(f) two ways, for the linearization
tests: from the solver's own Krylov matvec, and by central differences of the
residual."""

import numpy as np

from affinehe.bundle import pmul


def d_fL(prob, f, phi, eps):
    """phi L_eps(f) + f DL_eps(f)[phi], with DL_eps from
    ``ContinuationProblem.linearize_residual``."""
    lin = prob.linearization(prob.res_norm(f, eps))
    return pmul(phi, prob.res_norm(f, eps).L) + pmul(f, prob.linearize_residual(lin, phi))


def d_fL_fd(prob, f, phi, eps, t_rel=1e-6):
    """Central difference of f L_eps(f) along phi with step
    t = t_rel |f| / |phi|."""
    t = t_rel * max(np.abs(f).max(), 1e-30) / max(np.abs(phi).max(), 1e-30)

    def fL(g):
        return pmul(g, prob.res_norm(g, eps).L)
    return (fL(f + t * phi) - fL(f - t * phi)) / (2.0 * t)
