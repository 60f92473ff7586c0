"""Test-only reference implementations that the program does not run.

The exterior algebra of scalar forms (``wedge`` and the metric form's
powers) is the oracle for the closed forms the program uses in its place:
omega^n / nu = n! det g, the Gauduchon residual from Q's terms and the
degree (1/n) int tr_g(c_1) omega^n / nu.  ``fft_partial`` is the grid
derivative by one FFT pair, the oracle for the derivative matrices.  The
h-pairing helpers check the bundle's functional calculus.
"""

from functools import lru_cache

import numpy as np

from affinehe.errors import ValidationError
from affinehe.forms import Form, increasing_indices, index_position, merge_sign


@lru_cache(maxsize=None)
def _wedge_table(n, pa, qa, pb, qb):
    """Entries (ia, ja, ib, jb, iout, jout, sign) including (-1)^{qa pb}."""
    table = []
    front = (-1) ** (qa * pb)
    for ia, I1 in enumerate(increasing_indices(n, pa)):
        for ib, I2 in enumerate(increasing_indices(n, pb)):
            Iout, sI = merge_sign(I1, I2)
            if Iout is None:
                continue
            io = index_position(n, pa + pb)[Iout]
            for ja, J1 in enumerate(increasing_indices(n, qa)):
                for jb, J2 in enumerate(increasing_indices(n, qb)):
                    Jout, sJ = merge_sign(J1, J2)
                    if Jout is None:
                        continue
                    jo = index_position(n, qa + qb)[Jout]
                    table.append((ia, ja, ib, jb, io, jo, front * sI * sJ))
    return tuple(table)


def wedge(a, b):
    """Wedge of scalar forms with the sign (-1)^{q1 p2} in front of the
    slot-wise exterior products:
    (phi1 (x) psi1) ^ (phi2 (x) psi2) = (-1)^{q1 p2} (phi1^phi2) (x) (psi1^psi2)."""
    if a.bundle is not None or b.bundle is not None:
        raise ValidationError("wedge is defined for scalar forms only")
    if a.torus is not b.torus:
        raise ValidationError("wedge of forms on different tori")
    n = a.torus.dim
    if a.p + b.p > n or a.q + b.q > n:
        raise ValidationError(
            f"wedge degree overflow: ({a.p},{a.q}) ^ ({b.p},{b.q}) on n={n}")
    out = Form.zero(a.torus, a.p + b.p, a.q + b.q)
    for ia, ja, ib, jb, io, jo, sgn in _wedge_table(n, a.p, a.q, b.p, b.q):
        out.coeffs[..., io, jo] += sgn * a.coeffs[..., ia, ja] * b.coeffs[..., ib, jb]
    return out


def omega(metric):
    """The (1,1)-form g_ij dz^i (x) dzbar^j."""
    return Form(metric.torus, 1, 1, metric.g.astype(complex))


def omega_pow(metric, k):
    """The wedge power omega^k (omega^0 = 1)."""
    out = Form.from_scalar(metric.torus, np.ones(metric.torus.grid_shape))
    for _ in range(k):
        out = wedge(out, omega(metric))
    return out


def fft_partial(torus, values, axis):
    """d/dx^axis as ifft(i s fft) along the axis, s the backend's
    ``derivative_symbol``; on fd grids that is the central difference."""
    shape = [1] * values.ndim
    shape[axis] = torus.resolution
    multiplier = (1j * torus.derivative_symbol()).reshape(shape)
    return np.fft.ifft(multiplier * np.fft.fft(values, axis=axis), axis=axis)


def herm_defect(calc, F):
    """sup |F - F^*| for the h-adjoint of ``calc``."""
    return float(np.abs(F - calc.adjoint(F)).max())


def inner(calc, F, G):
    """Pointwise h-pairing tr(F G^*); scalar field."""
    return np.einsum("...ab,...ba->...", F, calc.adjoint(G))


def projector(F):
    """Orthogonal projector onto the span of a FlatSubbundle's basis."""
    return F.basis @ np.conj(F.basis.T)
