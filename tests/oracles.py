"""Test-only reference implementations that the program does not run.

``Form`` is the scalar (p,q)-form algebra: a (p,q)-form stores its
coefficients densely as ``grid_shape + (C(n,p), C(n,q))`` over increasing
multi-indices, and the two Dolbeault operators act by

    del    = (1/2) (d (x) I)          on the first slot,
    delbar = (-1)^p (1/2) (I (x) d)   on the second slot,

with d_k the grid partial.  Conjugation maps a (p,q)-form to a (q,p)-form
with the sign (-1)^{pq}.  Division of an (n,n)-form by the parallel volume
form uses the sign (-1)^{n(n-1)/2}, which makes omega_g^n / nu = n! det g
positive for positive definite g.

With ``wedge`` and the metric form's powers, it is the oracle for the closed
forms the program uses in its place: omega^n / nu = n! det g, the Gauduchon
residual from Q's terms, tr_g del delbar (``laplacian_type``) and the degree
-(1/n) int tr_g(del delbar log det h) omega^n / nu, against c_1 from
``first_chern_form``.  ``fft_partial`` is the grid derivative by one FFT
pair, the oracle for the derivative matrices.  The h-pairing helpers check
the bundle's functional calculus; ``he_K_defect`` and
``degree_additivity_check`` check solved metrics and degrees.
``newton_trial`` is the Newton line-search trial f^{1/2} exp(t s) f^{1/2}
built with an h-adjoint and a determinant, as the continuation built it
before its trials came from the h_0-eigenframe; ``renormalize_det``
projects a test state onto det f = 1.

``EndForm`` with its Dolbeault operators is the End(E)-valued form calculus
that the bundle's array operators replace: all n^2 components of delbar of a
(1,0)-form, each with its flat-frame twist [B_k, .] written as plain matrix
products, contracted with g^{-1} by ``end_trace_g``.
"""

import warnings
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations
from math import comb

import numpy as np

from affinehe.bundle import FlatBundle, canonical_metric, check_hpd, mean_curvature
from affinehe.continuation import _K_defect
from affinehe.errors import ValidationError
from affinehe.stability import _orth, degree, induced_metric


@lru_cache(maxsize=None)
def increasing_indices(n: int, p: int) -> tuple[tuple[int, ...], ...]:
    """All strictly increasing p-tuples from range(n), lexicographic."""
    return tuple(combinations(range(n), p))


@lru_cache(maxsize=None)
def index_position(n: int, p: int) -> dict[tuple[int, ...], int]:
    return {idx: i for i, idx in enumerate(increasing_indices(n, p))}


def merge_sign(a: tuple[int, ...], b: tuple[int, ...]):
    """Sort the concatenation of two disjoint increasing tuples.

    Returns (sorted tuple, permutation sign), or (None, 0) on overlap.
    """
    if set(a) & set(b):
        return None, 0
    merged = a + b
    # count inversions of the concatenation
    inv = sum(1 for i in range(len(merged)) for j in range(i + 1, len(merged))
              if merged[i] > merged[j])
    return tuple(sorted(merged)), (-1) ** inv


@lru_cache(maxsize=None)
def _derivative_table(n: int, p: int):
    """Entries (axis, column_in, column_out, sign) for d on the p-slot."""
    table = []
    for i_in, idx in enumerate(increasing_indices(n, p)):
        for k in range(n):
            out, sgn = merge_sign((k,), idx)
            if out is None:
                continue
            table.append((k, i_in, index_position(n, p + 1)[out], sgn))
    return tuple(table)


@dataclass
class Form:
    """Scalar (p,q)-form with dense increasing-multi-index storage."""

    torus: object
    p: int
    q: int
    coeffs: np.ndarray  # grid_shape + (C(n,p), C(n,q)), complex

    def __post_init__(self):
        n = self.torus.dim
        if not (0 <= self.p <= n and 0 <= self.q <= n):
            raise ValidationError(f"degree ({self.p},{self.q}) out of range for n={n}")
        want = self.torus.grid_shape + (comb(n, self.p), comb(n, self.q))
        self.coeffs = np.asarray(self.coeffs, dtype=complex)
        if self.coeffs.shape != want:
            raise ValidationError(
                f"coefficient shape {self.coeffs.shape} != expected {want}"
            )

    @classmethod
    def zero(cls, torus, p: int, q: int) -> "Form":
        n = torus.dim
        return cls(torus, p, q, torus.zeros(comb(n, p), comb(n, q)))

    @classmethod
    def from_scalar(cls, torus, values: np.ndarray) -> "Form":
        return cls(torus, 0, 0, np.asarray(values, dtype=complex)[..., None, None])

    def _new(self, coeffs: np.ndarray) -> "Form":
        return Form(self.torus, self.p, self.q, coeffs)

    def __add__(self, other: "Form") -> "Form":
        self._same_degree(other)
        return self._new(self.coeffs + other.coeffs)

    def __sub__(self, other: "Form") -> "Form":
        self._same_degree(other)
        return self._new(self.coeffs - other.coeffs)

    def __mul__(self, c) -> "Form":
        # scalar constant or pointwise scalar field
        c = np.asarray(c)
        if c.ndim > 0:
            c = c.reshape(c.shape + (1,) * (self.coeffs.ndim - c.ndim))
        return self._new(self.coeffs * c)

    __rmul__ = __mul__

    def __neg__(self) -> "Form":
        return self._new(-self.coeffs)

    def _same_degree(self, other: "Form"):
        if (self.p, self.q) != (other.p, other.q) or self.torus is not other.torus:
            raise ValidationError("forms live on different spaces or degrees")

    def sup_norm(self) -> float:
        return float(np.abs(self.coeffs).max())


def dolbeault_del(omega: Form) -> Form:
    """del = (1/2)(d (x) I): (p,q) -> (p+1,q)."""
    n, p, q = omega.torus.dim, omega.p, omega.q
    if p >= n:
        warnings.warn("del of a top-degree form vanishes identically")
        return Form.zero(omega.torus, p, q)
    grid = (slice(None),) * n
    out = Form.zero(omega.torus, p + 1, q)
    for axis, i_in, i_out, sgn in _derivative_table(n, p):
        out.coeffs[grid + (i_out,)] += (0.5 * sgn) * omega.torus.partial(
            omega.coeffs[grid + (i_in,)], axis
        )
    return out


def dolbeault_delbar(omega: Form) -> Form:
    """delbar = (-1)^p (1/2)(I (x) d): (p,q) -> (p,q+1)."""
    n, p, q = omega.torus.dim, omega.p, omega.q
    if q >= n:
        warnings.warn("delbar of a top-degree form vanishes identically")
        return Form.zero(omega.torus, p, q)
    sign_p = (-1) ** p
    grid = (slice(None),) * n
    out = Form.zero(omega.torus, p, q + 1)
    for axis, j_in, j_out, sgn in _derivative_table(n, q):
        out.coeffs[grid + (slice(None), j_out)] += (0.5 * sign_p * sgn) * omega.torus.partial(
            omega.coeffs[grid + (slice(None), j_in)], axis
        )
    return out


def conjugate_form(omega: Form) -> Form:
    """conj(alpha (x) beta) = (-1)^{pq} conj(beta) (x) conj(alpha): (p,q) -> (q,p)."""
    sign = (-1) ** (omega.p * omega.q)
    coeffs = sign * np.conj(np.swapaxes(omega.coeffs, -1, -2))
    return Form(omega.torus, omega.q, omega.p, coeffs)


def div_by_nu(chi: Form) -> np.ndarray:
    """Divide an (n,n)-form by the parallel volume form; scalar field out."""
    n = chi.torus.dim
    if (chi.p, chi.q) != (n, n):
        raise ValidationError(f"div_by_nu needs degree ({n},{n}), got ({chi.p},{chi.q})")
    sign = (-1) ** (n * (n - 1) // 2)
    return sign * chi.coeffs[..., 0, 0]


def trace_g(metric, T):
    """g^{ij} T_{i jbar} for a (1,1)-form; scalar field."""
    if (T.p, T.q) != (1, 1):
        raise ValidationError(f"trace_g needs a (1,1)-form, got ({T.p},{T.q})")
    return np.einsum("...ij,...ij->...", metric.inv, T.coeffs)


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


def first_chern_form(bundle, torus, H):
    """c_1(E,h) = -del delbar log det h as a scalar (1,1)-form; only log det
    of the stored, periodic H is differentiated."""
    check_hpd(H)
    u = Form.from_scalar(torus, np.linalg.slogdet(H)[1].real.astype(complex))
    return -dolbeault_del(dolbeault_delbar(u))


def renormalize_det(f):
    """Pointwise rescale to det f = 1."""
    sign, logdet = np.linalg.slogdet(f)
    return f * np.exp(-logdet.real / f.shape[-1])[..., None, None]


def newton_trial(calc, sqrt_f, w, U, step):
    """renormalize_det of the h-Hermitian part of f^{1/2} exp(step s)
    f^{1/2}, for s = calc.from_eig(U, w) and f^{1/2} = ``sqrt_f``."""
    exp_s = calc.from_eig(U, np.exp(step * w))
    return renormalize_det(calc.hermitize(sqrt_f @ exp_s @ sqrt_f))


def he_K_defect(bundle, torus, gG, H_flat, gamma=0.0):
    """sup_x Frobenius norm of K(h) - gamma I for a flat-frame metric."""
    ec = bundle if bundle.field == "complex" else FlatBundle(bundle.monodromy, "complex")
    Hg = ec.gauge(torus).herm_to_gauge(np.asarray(H_flat, dtype=complex))
    return _K_defect(mean_curvature(gG, ec, torus, Hg), gamma)


def quotient_monodromy(bundle, F):
    """Orthonormal complement basis T of F, the frame of the quotient.

    In the block frame [S T] each rho is block triangular; the quotient
    bundle acts by the lower-right block T^H rho T.
    """
    S = F.basis
    return _orth(np.eye(bundle.rank, dtype=complex) - S @ np.conj(S.T))


def degree_additivity_check(bundle, torus, F, gG, H=None):
    """(deg F, deg E/F, deg E, |defect|) for the exact sequence through F."""
    if H is None:
        H = canonical_metric(bundle, torus)
    HF = induced_metric(bundle, F, H)
    T = quotient_monodromy(bundle, F)
    HQ = np.conj(T.T) @ H @ T
    dF = degree(torus, HF, gG)
    dQ = degree(torus, HQ, gG)
    dE = degree(torus, H, gG)
    return dF, dQ, dE, abs(dF + dQ - dE)
