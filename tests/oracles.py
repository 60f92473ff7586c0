"""Test-only reference implementations that the program does not run.

The exterior algebra of scalar forms (``wedge`` and the metric form's
powers) is the oracle for the closed forms the program uses in its place:
omega^n / nu = n! det g, the Gauduchon residual from Q's terms and the
degree (1/n) int tr_g(c_1) omega^n / nu.  ``fft_partial`` is the grid
derivative by one FFT pair, the oracle for the derivative matrices.  The
h-pairing helpers check the bundle's functional calculus.

``EndForm`` with its Dolbeault operators is the End(E)-valued form calculus
that the bundle's array operators replace: all n^2 components of delbar of a
(1,0)-form, each with its flat-frame twist [B_k, .] written as plain matrix
products, contracted with g^{-1} by ``end_trace_g``.
"""

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from affinehe.errors import ValidationError
from affinehe.forms import (
    Form,
    _derivative_table,
    increasing_indices,
    index_position,
    merge_sign,
)


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
    if not isinstance(a, Form) or not isinstance(b, Form):
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


@dataclass
class EndForm:
    """End(E)-valued (p,q)-form of a flat bundle: coefficients
    grid_shape + (C(n,p), C(n,q), r, r) in the bundle's periodic gauge."""

    torus: object
    p: int
    q: int
    coeffs: np.ndarray
    bundle: object

    def __post_init__(self):
        n, r = self.torus.dim, self.bundle.rank
        want = self.torus.grid_shape + (comb(n, self.p), comb(n, self.q), r, r)
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != want:
            raise ValidationError(f"coefficient shape {self.coeffs.shape} != expected {want}")

    @classmethod
    def from_end(cls, torus, bundle, F):
        """The (0,0)-form of a gauge-stored endomorphism field."""
        return cls(torus, 0, 0, np.asarray(F)[..., None, None, :, :], bundle)

    @classmethod
    def one_zero(cls, torus, bundle, a):
        """The (1,0)-form with coefficients a, grid + (n, r, r)."""
        return cls(torus, 1, 0, np.asarray(a)[..., None, :, :], bundle)


def _flat_partial(omega, values, axis):
    """Flat-frame d/dx^axis D_k F + B_k F - F B_k of coefficient values."""
    B = omega.bundle.logs[axis]
    return omega.torus.partial(values, axis) + B @ values - values @ B


def _dolbeault(omega, slot, sign):
    """(sign / 2) d on the first (slot 0) or second (slot 1) form slot."""
    n = omega.torus.dim
    deg = (omega.p, omega.q)
    out_deg = (deg[0] + 1 - slot, deg[1] + slot)
    out = EndForm(omega.torus, *out_deg,
                  np.zeros(omega.torus.grid_shape + (comb(n, out_deg[0]), comb(n, out_deg[1]))
                           + omega.coeffs.shape[-2:], dtype=complex), omega.bundle)
    for axis, i_in, i_out, sgn in _derivative_table(n, deg[slot]):
        src = np.take(omega.coeffs, i_in, axis=n + slot)
        dst = [slice(None)] * out.coeffs.ndim
        dst[n + slot] = i_out
        out.coeffs[tuple(dst)] += (0.5 * sign * sgn) * _flat_partial(omega, src, axis)
    return out


def end_del(omega):
    """del = (1/2)(d (x) I): (p,q) -> (p+1,q)."""
    return _dolbeault(omega, 0, 1)


def end_delbar(omega):
    """delbar = (-1)^p (1/2)(I (x) d): (p,q) -> (p,q+1)."""
    return _dolbeault(omega, 1, (-1) ** omega.p)


def end_trace_g(metric, T):
    """g^{ij} T_{i jbar} of an End-valued (1,1)-form; End field."""
    return np.einsum("...ij,...ijab->...ab", metric.inv, T.coeffs)


def connection(bundle, torus, H):
    """theta = h^{-1} del h, coefficients grid + (n, r, r), from plain
    products of the flat-frame derivative d_k H - B_k^dag H - H B_k."""
    Hinv = np.linalg.inv(H)
    return np.stack([Hinv @ (0.5 * (torus.partial(H, k) - np.conj(B.T) @ H - H @ B))
                     for k, B in enumerate(bundle.logs)], axis=-3)


def curvature(bundle, torus, H):
    """Omega = delbar theta, an End-valued (1,1)-form."""
    return end_delbar(EndForm.one_zero(torus, bundle, connection(bundle, torus, H)))
