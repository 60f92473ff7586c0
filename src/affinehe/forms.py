"""Scalar (p,q)-forms on the discrete affine torus, and the metric g.

A (p,q)-form is stored densely as a complex array of shape
``grid_shape + (C(n,p), C(n,q))`` over increasing multi-indices.  The two
Dolbeault operators act by

    del    = (1/2) (d (x) I)          on the first slot,
    delbar = (-1)^p (1/2) (I (x) d)   on the second slot,

with d_k the grid partial.  End(E)-valued fields are not forms: the bundle
module holds them, and (1,0)-forms of them, as plain arrays with trailing
``(r, r)`` and ``(n, r, r)`` axes.

Conjugation maps a (p,q)-form to a (q,p)-form with the sign (-1)^{pq}.
Division of an (n,n)-form by the parallel volume form uses the sign
(-1)^{n(n-1)/2}, which makes omega_g^n / nu = n! det g positive for
positive definite g.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb, factorial

import numpy as np

from .errors import NonHPD, ValidationError
from .torus import AffineTorus


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

    torus: AffineTorus
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
    def zero(cls, torus: AffineTorus, p: int, q: int) -> "Form":
        n = torus.dim
        return cls(torus, p, q, torus.zeros(comb(n, p), comb(n, q)))

    @classmethod
    def from_scalar(cls, torus: AffineTorus, values: np.ndarray) -> "Form":
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


class MetricField:
    """Riemannian metric g: one real SPD n x n matrix per grid point."""

    def __init__(self, torus: AffineTorus, g: np.ndarray):
        self.torus = torus
        n = torus.dim
        g = np.asarray(g, dtype=float)
        if g.shape == (n, n):
            g = np.broadcast_to(g, torus.grid_shape + (n, n)).copy()
        if g.shape != torus.grid_shape + (n, n):
            raise ValidationError(f"metric shape {g.shape} invalid for {torus}")
        if not np.isfinite(g).all():
            raise ValidationError("metric g has non-finite entries")
        sym_defect = np.abs(g - np.swapaxes(g, -1, -2)).max()
        if sym_defect > 1e-12 * max(1.0, np.abs(g).max()):
            raise ValidationError(f"metric not symmetric (defect {sym_defect:.2e})")
        ev = np.linalg.eigvalsh(g)
        if ev.min() <= 0:
            raise NonHPD(f"metric not positive definite (min eigenvalue {ev.min():.3e})")
        self.g = g
        self._inv = None
        self._det = None

    @property
    def inv(self) -> np.ndarray:
        if self._inv is None:
            self._inv = np.linalg.inv(self.g)
        return self._inv

    @property
    def det(self) -> np.ndarray:
        if self._det is None:
            self._det = np.linalg.det(self.g)
        return self._det

    @cached_property
    def inv_pairs(self) -> tuple[tuple[int, int], ...]:
        """The index pairs (i, j), row-major, where g^{ij} is not identically zero."""
        n = self.torus.dim
        return tuple((i, j) for i in range(n) for j in range(n) if self.inv[..., i, j].any())

    def volume_density(self) -> np.ndarray:
        """omega^n / nu = n! det g, a positive scalar field."""
        return factorial(self.torus.dim) * self.det

    def total_volume(self) -> float:
        return self.torus.integrate(self.volume_density()).real

    def conformal(self, factor: np.ndarray) -> "MetricField":
        """factor * g for a positive scalar field; g^{-1} and det g rescaled, not recomputed."""
        f = np.asarray(factor, dtype=float)
        if f.shape != self.torus.grid_shape:
            raise ValidationError("conformal factor must be a scalar grid field")
        if f.min() <= 0:
            raise NonHPD("conformal factor must be positive")
        out = MetricField(self.torus, self.g * f[..., None, None])
        out._inv, out._det = self.inv / f[..., None, None], self.det * f**self.torus.dim
        return out


def trace_g(metric: MetricField, T: Form) -> np.ndarray:
    """g^{ij} T_{i jbar} for a (1,1)-form; scalar field."""
    if (T.p, T.q) != (1, 1):
        raise ValidationError(f"trace_g needs a (1,1)-form, got ({T.p},{T.q})")
    return np.einsum("...ij,...ij->...", metric.inv, T.coeffs)


def laplacian_type(metric: MetricField, psi: np.ndarray) -> np.ndarray:
    """tr_g del delbar psi = (1/4) g^{ij} psi_{,ij} for a scalar field."""
    phi = Form.from_scalar(metric.torus, psi)
    return trace_g(metric, dolbeault_del(dolbeault_delbar(phi)))


def laplacian_symbol(metric: MetricField) -> np.ndarray:
    """-symbol of ``laplacian_type`` with g^{-1} frozen at its grid mean:
    (1/4) gbar^{ij} s_i s_j, s the backend's ``derivative_symbol``.

    It vanishes exactly where the discrete partials annihilate a mode.
    """
    torus = metric.torus
    n = torus.dim
    gbar = metric.inv.reshape(-1, n, n).mean(axis=0)
    s = np.meshgrid(*(torus.derivative_symbol(),) * n, indexing="ij")
    return sum(gbar[i, j] * s[i] * s[j] for i in range(n) for j in range(n)) / 4
