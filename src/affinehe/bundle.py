"""Flat bundles from commuting monodromy, and their extended Hermitian geometry.

A flat bundle over T^n is a list of commuting invertible r x r matrices
rho_1..rho_n.  Fields twisted by the monodromy (bundle metrics h, endomorphism
fields f) are stored in the *periodic gauge*: with B_k = log rho_k and
W(x) = exp(-sum_j x^j B_j),

    endomorphism fields   F_gauge = W F_flat W^{-1}     (periodic),
    metric fields         H_gauge = W^{-dag} H_flat W^{-1}  (periodic).

Periodicity of the stored arrays is exact, so both derivative backends apply
without boundary twists; the flat-frame derivative acquires the constant
correction terms

    (d_k F)_gauge = D_k F_gauge + [B_k, F_gauge],
    (d_k H)_gauge = D_k H_gauge - B_k^dag H_gauge - H_gauge B_k.

``d_end`` applies the first correction and ``d_herm`` the second.  End(E)-valued
fields are arrays with trailing (r, r) axes, and End(E)-valued (1,0)-forms
(connections, del_0 of endomorphism fields) arrays of their coefficients with
trailing (n, r, r) axes; ``end_delbar`` contracts delbar of one with g^{-1}.

The flat frame is materialized only at the edges (I/O, wrap-semantics checks).
This storage also keeps the exponentially separated eigenvalue scales of
blow-up states from mixing additively, which matters once |log f| gets large.

Conventions: the metric matrix H acts as h(v, w) = w^dag H v, so the change
endomorphism between two metrics is F = H0^{-1} H, the connection form is
theta = H^{-1} del H, curvature Omega = delbar theta, mean curvature
K = g^{ij} Omega_{ij}, and c_1 = -del delbar log det H.
"""

from __future__ import annotations

from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import NonCommuting, NonHPD, Singular, ValidationError
from .forms import MetricField
from .torus import AffineTorus


def _as_matrices(monodromy) -> list[np.ndarray]:
    mats = [np.asarray(m, dtype=complex) for m in monodromy]
    if not mats:
        raise ValidationError("monodromy list is empty")
    r = mats[0].shape[0]
    for m in mats:
        if m.ndim != 2 or m.shape != (r, r):
            raise ValidationError("monodromy matrices must be square and equally sized")
    return mats


class FlatBundle:
    """Rank-r flat vector bundle over T^n given by commuting monodromies."""

    def __init__(self, monodromy, field: str = "complex"):
        mats = _as_matrices(monodromy)
        if field not in ("real", "complex"):
            raise ValidationError(f"field must be 'real' or 'complex', got {field!r}")
        if field == "real":
            for m in mats:
                if np.abs(m.imag).max() > 0:
                    raise ValidationError("real bundle needs real monodromy matrices")
        r = mats[0].shape[0]
        for i, m in enumerate(mats):
            if abs(np.linalg.det(m)) < 1e-300 or not np.isfinite(m).all():
                raise Singular(f"monodromy matrix {i} is singular")
        scale = max(np.abs(m).max() for m in mats)
        for i in range(len(mats)):
            for j in range(i + 1, len(mats)):
                c = mats[i] @ mats[j] - mats[j] @ mats[i]
                norm = np.abs(c).max()
                if norm > 1e-12 * max(1.0, scale**2):
                    raise NonCommuting(i, j, norm)
        self.monodromy = mats
        self.rank = r
        self.field = field
        self.n_axes = len(mats)
        self._logs: list[np.ndarray] | None = None
        self._gauge_cache: dict[tuple[int, int], "GaugeData"] = {}

    def __repr__(self):
        return f"FlatBundle(rank={self.rank}, field={self.field!r}, n={self.n_axes})"

    @property
    def logs(self) -> list[np.ndarray]:
        """Principal logarithms B_k = log rho_k (commute pairwise)."""
        if self._logs is None:
            logs = [scipy.linalg.logm(m) for m in self.monodromy]
            logs = [np.asarray(b, dtype=complex) for b in logs]
            for i in range(len(logs)):
                for j in range(i + 1, len(logs)):
                    c = logs[i] @ logs[j] - logs[j] @ logs[i]
                    if np.abs(c).max() > 1e-8 * max(1.0, np.abs(logs[i]).max() * np.abs(logs[j]).max()):
                        raise ValidationError(
                            "monodromy logarithms do not commute; branch problem"
                        )
            self._logs = logs
        return self._logs

    @cached_property
    def ad_logs(self) -> list[np.ndarray | None]:
        """Per axis, V -> B_k V - V B_k as the r^2 x r^2 matrix B_k (x) I -
        I (x) B_k^T on row-major vectorized values; None where B_k = 0."""
        eye = np.eye(self.rank)
        return [np.kron(B, eye) - np.kron(eye, B.T) if B.any() else None
                for B in self.logs]

    def gauge(self, torus: AffineTorus) -> "GaugeData":
        if torus.dim != self.n_axes:
            raise ValidationError(
                f"bundle has {self.n_axes} monodromies but torus has dim {torus.dim}"
            )
        key = (torus.dim, torus.resolution)
        if key not in self._gauge_cache:
            self._gauge_cache[key] = GaugeData(self, torus)
        return self._gauge_cache[key]


def build_bundle(monodromy, field: str = "complex") -> FlatBundle:
    """Validated flat bundle; rejects non-commuting or singular input."""
    return FlatBundle(monodromy, field)


class GaugeData:
    """Cached gauge factors W(x) = exp(-sum_j x^j B_j) on one grid."""

    def __init__(self, bundle: FlatBundle, torus: AffineTorus):
        self.bundle = bundle
        self.torus = torus
        r, n, N = bundle.rank, torus.dim, torus.resolution
        logs = bundle.logs
        # per-axis cumulative powers of exp(-B_k / N); exact for commuting logs
        axis_pows = []
        for k in range(n):
            step = scipy.linalg.expm(-logs[k] / N)
            pows = np.empty((N, r, r), dtype=complex)
            pows[0] = np.eye(r)
            for i in range(1, N):
                pows[i] = pows[i - 1] @ step
            axis_pows.append(pows)
        W = axis_pows[0]
        for k in range(1, n):
            W = np.einsum("...ab,jbc->...jac", W, axis_pows[k])
        self.W = np.ascontiguousarray(W)
        self.Winv = np.linalg.inv(self.W)

    # conversions between the flat frame and the periodic gauge
    def end_to_gauge(self, F_flat: np.ndarray) -> np.ndarray:
        return pmul(self.W, F_flat, self.Winv)

    def end_to_flat(self, F_gauge: np.ndarray) -> np.ndarray:
        return pmul(self.Winv, F_gauge, self.W)

    def herm_to_gauge(self, H_flat: np.ndarray) -> np.ndarray:
        Winv_dag = np.conj(np.swapaxes(self.Winv, -1, -2))
        return pmul(Winv_dag, H_flat, self.Winv)

    def herm_to_flat(self, H_gauge: np.ndarray) -> np.ndarray:
        W_dag = np.conj(np.swapaxes(self.W, -1, -2))
        return pmul(W_dag, H_gauge, self.W)


# ---------------------------------------------------------------------------
# derivatives of twisted fields (gauge representation)
# ---------------------------------------------------------------------------

def d_end(bundle: FlatBundle, torus: AffineTorus, F: np.ndarray, axis: int) -> np.ndarray:
    """Flat-frame d/dx^axis of endomorphism fields (trailing (r, r) axes), in
    the gauge: D_k F + [B_k, F], the commutator one r^2 x r^2 contraction
    with the cached ad(B_k), skipped where B_k = 0."""
    d = torus.partial(F, axis)
    ad = bundle.ad_logs[axis]
    if ad is None:
        return d
    return d + (F.reshape(-1, ad.shape[0]) @ ad.T).reshape(F.shape)


def d_herm(bundle: FlatBundle, torus: AffineTorus, H: np.ndarray, axis: int) -> np.ndarray:
    """Flat-frame d/dx^axis of a bundle metric field, in the gauge."""
    B = bundle.logs[axis]
    dH = torus.partial(H, axis)
    return dH - pmul(np.conj(B.T), H) - pmul(H, B) if B.any() else dH


def shift_equivariant(bundle: FlatBundle, torus: AffineTorus, values: np.ndarray,
                      axis: int, step: int, kind: str = "end") -> np.ndarray:
    """Shift a *flat-frame* field by one grid step with the monodromy twist.

    Interior points shift plainly; the slab that crossed the fundamental
    domain boundary acquires the twist factor required by the field type
    (``end``: F -> rho F rho^{-1} per positive crossing, ``herm``:
    H -> rho^{-dag} H rho^{-1}).
    """
    if step not in (1, -1):
        raise ValidationError("step must be +1 or -1")
    if kind not in ("end", "herm"):
        raise ValidationError("kind must be 'end' or 'herm'")
    torus._check_axis(axis)
    rho = bundle.monodromy[axis]
    out = np.roll(values, -step, axis=axis)
    slab = [slice(None)] * out.ndim
    slab[axis] = -1 if step == 1 else 0
    slab = tuple(slab)
    if kind == "end":
        if step == 1:
            out[slab] = rho @ out[slab] @ np.linalg.inv(rho)
        else:
            out[slab] = np.linalg.inv(rho) @ out[slab] @ rho
    else:
        rho_inv = np.linalg.inv(rho)
        if step == 1:
            out[slab] = np.conj(rho_inv.T) @ out[slab] @ rho_inv
        else:
            out[slab] = np.conj(rho.T) @ out[slab] @ rho
    return out


# ---------------------------------------------------------------------------
# Hermitian metrics on the bundle
# ---------------------------------------------------------------------------

HPD_FLOOR = 1e-12  # reject if min eigenvalue < floor * max eigenvalue


def check_hpd(H: np.ndarray) -> None:
    herm_defect = np.abs(H - np.conj(np.swapaxes(H, -1, -2))).max()
    scale = max(1.0, np.abs(H).max())
    if herm_defect > 1e-10 * scale:
        raise NonHPD(f"metric is not Hermitian (defect {herm_defect:.2e})")
    ev = np.linalg.eigvalsh(H)
    if ev.min() <= HPD_FLOOR * max(ev.max(), 1e-300):
        raise NonHPD(f"metric is not positive definite (min eig {ev.min():.3e})")


def hermitize(H: np.ndarray) -> np.ndarray:
    return 0.5 * (H + np.conj(np.swapaxes(H, -1, -2)))


def pmul(A: np.ndarray, *Bs: np.ndarray) -> np.ndarray:
    """Pointwise matrix product A B_1 B_2 ... (left to right) of stacked
    fields or constant matrices, as broadcast multiply-adds over the inner
    index: numpy's stacked ``@`` makes one small BLAS call per grid point."""
    for B in Bs:
        out = A[..., :, 0, None] * B[..., 0, None, :]
        for j in range(1, A.shape[-1]):
            out += A[..., :, j, None] * B[..., j, None, :]
        A = out
    return A


def canonical_metric(bundle: FlatBundle, torus: AffineTorus) -> np.ndarray:
    """The exponential background metric; identity in the periodic gauge."""
    r = bundle.rank
    return np.broadcast_to(np.eye(r, dtype=complex),
                           torus.grid_shape + (r, r)).copy()


def random_hermitian_metric(bundle: FlatBundle, torus: AffineTorus, rng,
                            amplitude: float = 0.5, modes: int = 2) -> np.ndarray:
    """Random smooth HPD bundle metric (gauge storage): exp of a random
    low-frequency Hermitian field."""
    from .torus import random_smooth_scalar

    r = bundle.rank
    X = torus.zeros(r, r)
    for a in range(r):
        for b in range(a, r):
            s = random_smooth_scalar(torus, rng, modes=modes, amplitude=amplitude)
            if a == b:
                X[..., a, a] = s.real
            else:
                X[..., a, b] = 0.5 * s
                X[..., b, a] = 0.5 * np.conj(s)
    w, U = np.linalg.eigh(X)
    return (U * np.exp(w)[..., None, :]) @ np.conj(np.swapaxes(U, -1, -2))


def end_delbar(metric: MetricField, bundle: FlatBundle, a: np.ndarray) -> np.ndarray:
    """tr_g delbar of the End-valued (1,0)-form with coefficients a (grid +
    (n, r, r)): -(1/2) sum g^{ij} (D_j a_i + [B_j, a_i]), summed in row-major
    order over the pairs (i, j) where g^{ij} is not identically zero, so a
    diagonal g differentiates n fields where the full form has n^2."""
    torus, pairs = metric.torus, metric.inv_pairs
    terms = {}
    for j in range(torus.dim):
        rows = [i for i, k in pairs if k == j]
        d = -0.5 * d_end(bundle, torus, a[..., rows, :, :], j)
        terms.update({(i, j): d[..., m, :, :] for m, i in enumerate(rows)})
    out = torus.zeros(*a.shape[-2:])
    for i, j in pairs:
        out += metric.inv[..., i, j, None, None] * terms[i, j]
    return out


def hermitian_connection(bundle: FlatBundle, torus: AffineTorus,
                         H: np.ndarray) -> np.ndarray:
    """Connection form theta = h^{-1} del h, its coefficients grid + (n, r, r).

    One formula at every rank: the flat-frame derivative of the gauge-stored
    H (``d_herm``), so at rank 1 the constant twist term -2 Re B_k is the
    slope of log h along axis k.
    """
    check_hpd(H)
    Hinv = np.linalg.inv(H)
    return np.stack([pmul(Hinv, 0.5 * d_herm(bundle, torus, H, k))
                     for k in range(torus.dim)], axis=-3)


def mean_curvature(metric: MetricField, bundle: FlatBundle, torus: AffineTorus,
                   H: np.ndarray) -> np.ndarray:
    """Extended mean curvature K = g^{ij} R_{ij} = tr_g delbar theta; EndField (gauge)."""
    return end_delbar(metric, bundle, hermitian_connection(bundle, torus, H))


class Del0:
    """del_0 = del + [theta_0, .] on endomorphism fields for one connection
    theta_0: component k is (1/2) D_k phi + A_k phi, with the pointwise
    r^2 x r^2 table A_k(x) = ad(theta_0,k(x)) + (1/2) ad(B_k) built once."""

    def __init__(self, bundle: FlatBundle, torus: AffineTorus, theta0: np.ndarray):
        self.bundle, self.torus = bundle, torus
        r, eye = bundle.rank, np.eye(bundle.rank)
        if theta0.shape != torus.grid_shape + (torus.dim, r, r):
            raise ValidationError("theta0 must be End-valued (1,0)-form coefficients")
        ad_th = (np.einsum("...ac,bd->...abcd", theta0, eye)
                 - np.einsum("ac,...db->...abcd", eye, theta0))
        ad_B = [np.zeros((r * r,) * 2) if B is None else B for B in bundle.ad_logs]
        self.table = ad_th.reshape(theta0.shape[:-2] + (r * r,) * 2) + 0.5 * np.stack(ad_B)

    def __call__(self, phi: np.ndarray) -> np.ndarray:
        """The coefficients of del_0 phi, grid + (n, r, r)."""
        d = np.stack([self.torus.partial(phi, k) for k in range(self.torus.dim)], axis=-3)
        vec = phi.reshape(phi.shape[:-2] + (-1,))
        return 0.5 * d + np.einsum("...kij,...j->...ki", self.table, vec).reshape(d.shape)


def covariant_del0(bundle: FlatBundle, torus: AffineTorus, theta0,
                   phi: np.ndarray) -> np.ndarray:
    """The coefficients of del_0 phi = del phi + [theta_0, phi] for an
    endomorphism field phi; ``theta0`` holds those of theta_0, or is a
    ``Del0`` built from them once."""
    op = theta0 if isinstance(theta0, Del0) else Del0(bundle, torus, theta0)
    return op(phi)


# ---------------------------------------------------------------------------
# pointwise functional calculus for h-self-adjoint endomorphism fields
# ---------------------------------------------------------------------------

class HermCalculus:
    """Spectral calculus w.r.t. a fixed bundle metric h (gauge storage).

    An endomorphism F is h-self-adjoint iff S = h^{1/2} F h^{-1/2} is plain
    Hermitian; functions of F are pulled through that conjugation.
    """

    def __init__(self, H: np.ndarray):
        H = np.asarray(H, dtype=complex)
        check_hpd(H)
        self.H = H
        w, U = np.linalg.eigh(hermitize(H))
        Ud = np.conj(np.swapaxes(U, -1, -2))
        self.sqrt = pmul(U * np.sqrt(w)[..., None, :], Ud)
        self.isqrt = pmul(U * (1.0 / np.sqrt(w))[..., None, :], Ud)

    def adjoint(self, F: np.ndarray) -> np.ndarray:
        """h-adjoint F^* = h^{-1} F^dag h."""
        # h^{-1} F^dag h directly sends test_conjugated_unipotent_blows_up_to_P_e1 to max-iters
        Fd = np.conj(np.swapaxes(F, -1, -2))
        return pmul(self.isqrt, pmul(self.isqrt, Fd, self.sqrt), self.sqrt)

    def hermitize(self, F: np.ndarray) -> np.ndarray:
        return 0.5 * (F + self.adjoint(F))

    def from_hermitian(self, S: np.ndarray) -> np.ndarray:
        return pmul(self.isqrt, S, self.sqrt)

    def eig(self, F: np.ndarray, S: np.ndarray | None = None):
        """Eigenvalues (real, ascending) and h-orthonormal frame of an
        h-self-adjoint field F, diagonalized through its Hermitian image
        S = h^{1/2} F h^{-1/2}, which a caller that has it passes."""
        if S is None:
            S = pmul(self.sqrt, F, self.isqrt)
        return np.linalg.eigh(hermitize(S))

    def frame(self, U: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P = h^{-1/2} U and Q = U^dag h^{1/2} for an h-orthonormal
        eigenframe U from ``eig``: then F = P diag(w) Q, and every function
        g(F) = P diag(g(w)) Q is one product."""
        return pmul(self.isqrt, U), pmul(np.conj(np.swapaxes(U, -1, -2)), self.sqrt)

    def from_eig(self, U: np.ndarray, fw: np.ndarray) -> np.ndarray:
        """The h-self-adjoint field with h-orthonormal eigenframe U (as
        returned by ``eig``) and eigenvalues fw."""
        return self.from_hermitian(pmul(U * fw[..., None, :], np.conj(np.swapaxes(U, -1, -2))))

    def exp(self, F: np.ndarray) -> np.ndarray:
        # clip keeps the result finite, as in ``ContinuationProblem.update``
        w, U = self.eig(F)
        return self.from_eig(U, np.exp(np.minimum(w, 500.0)))

    def dlog(self, w: np.ndarray, P: np.ndarray, Q: np.ndarray):
        """The Frechet derivative Phi -> Dlog_F[Phi] of log at the HPD field
        F = P diag(w) Q, with (P, Q) from ``frame`` (complex-linear): the
        Daleckii-Krein P ((Q Phi P) * ratio) Q."""
        w = np.maximum(w, 1e-300)
        wi = w[..., :, None]
        wj = w[..., None, :]
        diff = wi - wj
        small = np.abs(diff) < 1e-14 * np.maximum(wi, wj)
        ratio = np.where(
            small,
            2.0 / (wi + wj),
            np.log(np.where(small, 1.0, wi / wj)) / np.where(small, 1.0, diff),
        )
        return lambda Phi: pmul(P, pmul(Q, Phi, P) * ratio, Q)

    def norm(self, F: np.ndarray) -> np.ndarray:
        """Pointwise h-Frobenius norm |F| = sqrt tr(F F^*), the Frobenius
        norm of h^{1/2} F h^{-1/2}; real scalar field."""
        return np.linalg.norm(pmul(self.sqrt, F, self.isqrt), axis=(-2, -1))

    def sup_norm(self, F: np.ndarray) -> float:
        return float(self.norm(F).max())

    def form_norm_sq(self, metric: MetricField, a: np.ndarray) -> np.ndarray:
        """|a|^2 = g^{ij} tr(a_i a_j^*) for End-valued (1,0)-form
        coefficients a (grid + (n, r, r)), over the nonzero g^{ij}."""
        adj = [self.adjoint(a[..., j, :, :]) for j in range(metric.torus.dim)]
        out = np.zeros(metric.torus.grid_shape, dtype=complex)
        for i, j in metric.inv_pairs:
            out += metric.inv[..., i, j] * np.einsum("...ab,...ba->...", a[..., i, :, :], adj[j])
        return out.real
