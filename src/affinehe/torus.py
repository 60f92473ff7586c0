"""Discrete special affine torus: periodic grid, derivatives, quadrature.

The manifold is the unit torus [0,1)^n with the standard flat connection and
the constant volume form dx^1 ^ ... ^ dx^n, sampled on a uniform periodic
grid with N points per axis.  All scalar data lives in complex arrays whose
first ``dim`` axes are the grid axes; trailing axes (matrix indices, form
slots) broadcast through every operation.

Two derivative backends sit behind the same signature:

``fd``
    second-order central differences with periodic wrap.
``spectral``
    trigonometric interpolation.  The Nyquist mode keeps numpy's native
    frequency -N/2.  The asymmetric choice matters: it leaves the
    derivative with a one-dimensional kernel (constants), so second-order
    compositions such as the Gauduchon operator do not pick up spurious
    grid-scale null vectors at even N.

Both apply a derivative along an axis as an N x N matrix by one matmul
(Trefethen, *Spectral Methods in MATLAB*, 2000, ch. 3), cheaper than an FFT
pair on grids of a few dozen points.  ``fft_divider`` stays on the FFT: a dense
DFT leaks round-off into the mean mode, which the continuation divides by eps.
"""

from __future__ import annotations

from functools import cached_property
from itertools import product
from math import prod

import numpy as np

from .errors import ValidationError

BACKENDS = ("spectral", "fd")


class AffineTorus:
    """Uniform periodic grid model of the special affine torus T^n."""

    def __init__(self, dim: int, resolution: int, backend: str = "spectral"):
        if dim not in (1, 2, 3):
            raise ValidationError(f"dim must be 1, 2 or 3, got {dim}")
        if resolution < 8:
            raise ValidationError(f"resolution must be >= 8, got {resolution}")
        if backend not in BACKENDS:
            raise ValidationError(f"backend must be one of {BACKENDS}, got {backend!r}")
        self.dim = dim
        self.resolution = resolution
        self.backend = backend
        self.grid_shape = (resolution,) * dim
        self.n_points = resolution**dim
        # integer wavenumbers per axis; numpy's ordering, Nyquist = -N/2
        self._freq = np.fft.fftfreq(resolution, d=1.0 / resolution)
        axes = np.meshgrid(
            *(np.arange(resolution) / resolution for _ in range(dim)), indexing="ij"
        )
        self._coords = tuple(axes)

    def __repr__(self):
        return f"AffineTorus(dim={self.dim}, N={self.resolution}, backend={self.backend!r})"

    def coordinate(self, axis: int) -> np.ndarray:
        """Grid values of x^axis, shape ``grid_shape``."""
        self._check_axis(axis)
        return self._coords[axis]

    def zeros(self, *trailing: int) -> np.ndarray:
        return np.zeros(self.grid_shape + trailing, dtype=complex)

    def _check_axis(self, axis: int):
        if not 0 <= axis < self.dim:
            raise ValidationError(f"axis must be in [0, {self.dim}), got {axis}")

    def partial(self, values: np.ndarray, axis: int) -> np.ndarray:
        """d/dx^axis of a periodic grid function.

        ``values`` may carry trailing non-grid axes.  Exact for band-limited
        data under the spectral backend, O(N^-2) for the fd backend; exactly
        zero on fields constant along the axis (``along``).
        """
        self._check_axis(axis)
        values = np.asarray(values)
        if values.shape[: self.dim] != self.grid_shape:
            raise ValidationError(
                f"field shape {values.shape} does not start with {self.grid_shape}"
            )
        return along(values, (axis, self.derivative_matrices[0]))

    @cached_property
    def derivative_matrices(self) -> tuple[np.ndarray, np.ndarray]:
        """(D, D2), the N x N matrices of d/dx and d^2/dx^2 along an axis:
        the fd stencil and its square, or each spectral one from its own
        symbol (i s, -s^2) by an FFT pair of the identity, not D2 = D D;
        complex, as a real one times a complex field misses BLAS."""
        N = self.resolution
        if self.backend == "fd":
            D = (N / 2) * (np.roll(np.eye(N), 1, axis=1) - np.roll(np.eye(N), -1, axis=1))
            return D + 0j, D @ D + 0j
        s = self.derivative_symbol()[:, None]
        F = np.fft.fft(np.eye(N), axis=0)
        return np.fft.ifft(1j * s * F, axis=0), np.fft.ifft(-s**2 * F, axis=0)

    def integrate(self, values: np.ndarray) -> complex:
        """Integral over the unit fundamental domain.

        Periodic trapezoid rule = plain mean times volume 1; spectrally
        accurate for smooth integrands.
        """
        values = np.asarray(values)
        if values.shape != self.grid_shape:
            raise ValidationError(
                f"integrate expects a scalar field of shape {self.grid_shape}, "
                f"got {values.shape}"
            )
        return complex(values.mean())

    def derivative_symbol(self) -> np.ndarray:
        """Per-axis Fourier symbol s: ``partial`` multiplies mode k by i s[k].

        2 pi k for the spectral backend, N sin(2 pi k / N) for fd.  The fd
        symbol is exactly zero where the central difference annihilates the
        mode: k = 0 and, at even N, k = N/2, where sin(pi) would round to
        about 1e-16.
        """
        if self.backend == "fd":
            s = self.resolution * np.sin(2 * np.pi * self._freq / self.resolution)
            s[2 * np.abs(self._freq) == self.resolution] = 0.0
            return s
        return 2 * np.pi * self._freq

    def fft_divider(self, symbol: np.ndarray, value_shape: tuple[int, ...] = ()):
        """The map dividing each grid Fourier mode of a field with trailing
        ``value_shape`` axes by ``symbol``, with the divisor prepared once.

        Modes where ``symbol == 0`` pass unchanged, so a preconditioner
        built from a singular symbol (zero on the mean mode) acts as the
        identity there instead of amplifying it.
        """
        divisor = np.where(symbol == 0, 1, symbol)
        divisor = divisor.reshape(divisor.shape + (1,) * len(value_shape))
        axes = range(self.dim - 1, -1, -1)  # np.fft.fftn's transforms, without its set-up

        def divide(values):
            for axis in axes:
                values = np.fft.fft(values, axis=axis)
            values = values / divisor
            for axis in axes:
                values = np.fft.ifft(values, axis=axis)
            return values
        return divide

    def raveled(self, fn, value_shape: tuple[int, ...] = ()):
        """A map of grid fields with trailing ``value_shape`` axes as a map
        of raveled vectors."""
        shape = self.grid_shape + tuple(value_shape)
        return lambda v: fn(v.reshape(shape)).ravel()


def along(values: np.ndarray, *ops) -> np.ndarray:
    """``values`` with each (axis, N x N matrix) of ``ops`` applied along its
    axis by one matmul, after subtracting the slice at index 0 there, so a
    derivative matrix gives exact zeros on fields constant along the axis
    (without this, the unipotent blow-up on T^1 N=64 ends in max-iters)."""
    for axis, matrix in ops:
        shape = values.shape
        v = values - values[(slice(None),) * axis + (slice(0, 1),)]
        v = v.reshape(prod(shape[:axis]), shape[axis], -1)
        values = (v[..., 0] @ matrix.T if v.shape[2] == 1 else matrix @ v).reshape(shape)
    return values


def random_smooth_scalar(torus, rng, modes: int = 3, amplitude: float = 1.0,
                         real: bool = False) -> np.ndarray:
    """Random band-limited periodic scalar field (test data generator).

    Sum of Fourier modes with |k_i| <= modes and geometrically decaying
    random coefficients, so both backends resolve it well.
    """
    n, shape = torus.dim, torus.grid_shape
    out = np.zeros(shape, dtype=complex)
    ks = range(-modes, modes + 1)
    grids = [torus.coordinate(i) for i in range(n)]
    for kvec in product(ks, repeat=n):
        decay = 2.0 ** (-sum(abs(k) for k in kvec))
        c = (rng.standard_normal() + 1j * rng.standard_normal()) * decay
        phase = sum(k * g for k, g in zip(kvec, grids))
        out += c * np.exp(2j * np.pi * phase)
    out *= amplitude / max(1.0, np.abs(out).max())
    if real:
        out = out.real.astype(complex)
    return out
