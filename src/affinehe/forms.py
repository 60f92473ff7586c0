"""The metric g on the discrete affine torus, and tr_g del delbar of scalars.

The program needs one scalar operator and no exterior algebra.  On a
scalar psi, del delbar psi has the coefficients (1/4) D_i D_j psi, with D_k
the grid partial (del and delbar each carry a factor 1/2), so

    tr_g del delbar psi = (1/4) g^{ij} D_i D_j psi      (``laplacian_type``).

It gives the degree, (1/n) int tr_g(c_1) omega^n / nu with
c_1 = -del delbar log det h, the scalar solve of the background
normalization and the adjoint Q* of the Gauduchon operator.  End(E)-valued
fields are plain arrays in the bundle module.  The (p,q)-form algebra these
closed forms replace is the test reference in ``tests/oracles.py``.
"""

from __future__ import annotations

from functools import cached_property
from math import factorial

import numpy as np

from .errors import NonHPD, ValidationError
from .torus import AffineTorus


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


def laplacian_type(metric: MetricField, psi: np.ndarray) -> np.ndarray:
    """tr_g del delbar psi = (1/4) sum g^{ij} D_i(D_j psi) for a scalar field,
    summed in row-major order over the pairs (i, j) where g^{ij} is not
    identically zero, with D_j psi taken once per axis j they need: a
    diagonal g differentiates 2n fields where all n^2 pairs take n + n^2."""
    torus, pairs = metric.torus, metric.inv_pairs
    first = {j: torus.partial(psi, j) for j in sorted({j for _, j in pairs})}
    return sum(metric.inv[..., i, j] * torus.partial(first[j], i) for i, j in pairs) / 4


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
