"""Slope stability of flat bundles over the torus.

Flat subbundles of a torus bundle are the common invariant subspaces of the
commuting monodromy matrices.  The enumeration splits along generalized
eigenspaces of one matrix at a time, recurses on the restrictions, and closes
the collected subspaces under direct sums across blocks; inside a block on
which every matrix acts as a scalar plus commuting nilpotents it collects the
common-kernel flag and image chains (all subset spans when the action is
purely scalar).  The result is a finite canonical family that contains every
invariant subspace when the joint spectrum is simple and always witnesses
reducibility.

Degrees are computed from c_1(E,h) ^ omega^{n-1} / nu
= (1/n) tr_g(c_1) omega^n / nu against an affine Gauduchon metric; on the
standard torus every flat bundle has degree zero up to quadrature error, so
the stable verdict reduces to irreducibility and slope ties are reported as
strictly semistable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .bundle import FlatBundle, canonical_metric, check_hpd
from .errors import (
    NonGauduchonMetric,
    RankTooLarge,
    ValidationError,
)
from .forms import MetricField, laplacian_type
from .gauduchon import gauduchon_residual
from .torus import AffineTorus

INVARIANCE_TOL = 1e-10
EIG_CLUSTER_GAP = 1e-8
GAUDUCHON_CHECK_TOL = 1e-6


@dataclass
class FlatSubbundle:
    """Monodromy-invariant subspace with an orthonormal basis."""

    basis: np.ndarray  # (r, s), orthonormal columns
    rank: int
    invariance_residual: float = 0.0

    def __post_init__(self):
        self.basis = np.asarray(self.basis, dtype=complex)
        if self.basis.ndim != 2 or self.basis.shape[1] != self.rank:
            raise ValidationError("subbundle basis shape mismatch")


def _orth(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the column span (SVD rank reveal)."""
    if cols.size == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    U, s, _ = np.linalg.svd(cols, full_matrices=False)
    keep = s > 1e-12 * max(1.0, s[0] if len(s) else 1.0)
    return U[:, keep]


def invariance_residual(bundle: FlatBundle, basis: np.ndarray) -> float:
    """sup_k || (I - P) rho_k P || for the orthogonal projector P onto span."""
    P = basis @ np.conj(basis.T)
    r = bundle.rank
    out = 0.0
    for rho in bundle.monodromy:
        out = max(out, float(np.abs((np.eye(r) - P) @ rho @ basis).max()))
    return out


def make_subbundle(bundle: FlatBundle, cols: np.ndarray) -> FlatSubbundle:
    basis = _orth(np.asarray(cols, dtype=complex))
    res = invariance_residual(bundle, basis)
    if res > INVARIANCE_TOL:
        raise ValidationError(
            f"subspace is not monodromy invariant (residual {res:.2e})"
        )
    return FlatSubbundle(basis, basis.shape[1], res)


def induced_monodromy(bundle: FlatBundle, F: FlatSubbundle) -> list[np.ndarray]:
    """Monodromy of the subbundle in the orthonormal basis: rho S = S rho_F."""
    S = F.basis
    return [np.conj(S.T) @ rho @ S for rho in bundle.monodromy]


# ---------------------------------------------------------------------------
# invariant subspace enumeration
# ---------------------------------------------------------------------------

def _cluster_eigenvalues(mat: np.ndarray):
    """The eigenvalues ev of mat and their groups, a list of index arrays.

    A run of neighbours groups together when each is within the relative gap
    EIG_CLUSTER_GAP of the next, or when it is a defective block that
    roundoff split apart: u moves the k eigenvalues of a k x k Jordan block
    by about u^(1/k), above the gap, but their eigenvectors stay dependent
    and their mean t stays accurate, so (A - t I)^k keeps a numerical kernel
    of dimension k.  Each group is the longest such run from its start.
    """
    ev, V = np.linalg.eig(mat)
    order = np.argsort(ev.real * 1e6 + ev.imag)  # stable deterministic order
    scale = max(1.0, np.abs(ev).max())
    d = mat.shape[0]

    def is_cluster(idx):
        if np.all(np.abs(np.diff(ev[idx])) <= EIG_CLUSTER_GAP * scale):
            return True
        if np.linalg.svd(V[:, idx], compute_uv=False)[-1] > 1e-6:
            return False
        k = len(idx)
        Ak = np.linalg.matrix_power(mat - ev[idx].mean() * np.eye(d), k)
        return np.linalg.svd(Ak, compute_uv=False)[d - k] <= 1e-12 * scale**k

    groups, i = [], 0
    while i < d:
        j = next(j for j in range(d, i, -1) if is_cluster(order[i:j]))
        groups.append(order[i:j])
        i = j
    return ev, groups


def _generalized_eigenspaces(mat: np.ndarray):
    """Bases of generalized eigenspaces, via repeated kernels of (A - t I)^d."""
    d = mat.shape[0]
    ev, groups = _cluster_eigenvalues(mat)
    if len(groups) == 1:
        return [np.eye(d, dtype=complex)]
    bases = []
    for grp in groups:
        t = ev[grp].mean()
        Ak = np.linalg.matrix_power(mat - t * np.eye(d), d)
        _, s, Vh = np.linalg.svd(Ak)
        k = len(grp)
        bases.append(np.conj(Vh[d - k:, :].T))
    return bases


def _common_kernel(mats: list[np.ndarray]) -> np.ndarray:
    """Orthonormal basis of the intersection of kernels."""
    d = mats[0].shape[0]
    stacked = np.vstack(mats) if mats else np.zeros((1, d))
    U, s, Vh = np.linalg.svd(stacked)
    scale = max(1.0, s[0] if len(s) else 1.0)
    null = [i for i in range(d) if i >= len(s) or s[i] <= 1e-10 * scale]
    return np.conj(Vh[null, :].T) if null else np.zeros((d, 0), dtype=complex)


def _nilpotent_invariant_subspaces(mats: list[np.ndarray]) -> list[np.ndarray]:
    """Canonical invariant subspaces of commuting nilpotents (incl. 0, full).

    Uses the common-kernel flag K_1 subset K_2 subset ..., the image chain,
    and all subset spans of the common kernel; closed under sums and
    intersections by construction of the flag.
    """
    d = mats[0].shape[0]
    out = [np.zeros((d, 0), dtype=complex)]
    if all(np.abs(m).max() < 1e-12 for m in mats):
        # scalar block: every subspace invariant; canonical finite sample =
        # spans of coordinate subsets
        eye = np.eye(d, dtype=complex)
        for k in range(1, d + 1):
            for cols in combinations(range(d), k):
                out.append(eye[:, list(cols)])
        return out
    # kernel flag
    flag = []
    K = K1 = _common_kernel(mats)
    while K.shape[1] < d:
        if K.shape[1] == 0:
            break
        flag.append(K)
        # preimage: {v : m v in span K for all m}
        P = K @ np.conj(K.T)
        lift = [(np.eye(d) - P) @ m for m in mats]
        K2 = _common_kernel(lift)
        if K2.shape[1] <= K.shape[1]:
            break
        K = K2
    # image chain
    images = _orth(np.hstack([m for m in mats]))
    if 0 < images.shape[1] < d:
        flag.append(images)
    # subset spans inside the common kernel (the family acts by zero there)
    if K1.shape[1] > 1:
        for k in range(1, K1.shape[1]):
            for cols in combinations(range(K1.shape[1]), k):
                flag.append(K1[:, list(cols)])
    out.extend(flag)
    out.append(np.eye(d, dtype=complex))
    return out


def _invariant_subspaces(mats: list[np.ndarray]) -> list[np.ndarray]:
    """All canonical invariant subspaces of a commuting family, incl. 0, full."""
    d = mats[0].shape[0]
    if d == 0:
        return [np.zeros((0, 0), dtype=complex)]
    # find a matrix that splits
    for m in mats:
        blocks = _generalized_eigenspaces(m)
        if len(blocks) > 1:
            per_block = []
            for Vb in blocks:
                restricted = [np.conj(Vb.T) @ mm @ Vb for mm in mats]
                subs = _invariant_subspaces(restricted)
                per_block.append([Vb @ s for s in subs])
            # all direct sums across blocks
            combos = []
            for choice in product(*per_block):
                cols = np.hstack(choice) if choice else np.zeros((d, 0))
                combos.append(cols)
            return combos
    # no split: single joint eigenvalue per matrix; strip scalar parts
    nil = []
    for m in mats:
        t = np.trace(m) / d
        nil.append(m - t * np.eye(d))
    return _nilpotent_invariant_subspaces(nil)


def _dedup(bases: list[np.ndarray], r: int) -> list[np.ndarray]:
    out, seen = [], []
    for b in bases:
        B = _orth(b)
        k = B.shape[1]
        if k == 0 or k == r:
            continue
        P = B @ np.conj(B.T)
        if any(np.abs(P - Q).max() < 1e-8 for Q in seen):
            continue
        seen.append(P)
        out.append(B)
    return out


def _is_conjugation_stable(basis: np.ndarray) -> bool:
    Pc = np.conj(basis) @ basis.T
    P = basis @ np.conj(basis.T)
    return bool(np.abs(P - Pc).max() < 1e-8)


def enumerate_flat_subbundles(bundle: FlatBundle) -> list[FlatSubbundle]:
    """Proper nontrivial invariant subspaces of the monodromy family.

    Over the reals only conjugation-stable subspaces are kept (real flat
    subbundles); conjugation-unstable complex subspaces contribute their
    sums and intersections with the conjugate instead.
    """
    r = bundle.rank
    if r > 6:
        raise RankTooLarge(f"enumeration supports rank <= 6, got {r}")
    raw = _invariant_subspaces(bundle.monodromy)
    if bundle.field == "real":
        real_raw = []
        for b in raw:
            B = _orth(b)
            if B.shape[1] in (0, r):
                continue
            if _is_conjugation_stable(B):
                real_raw.append(B)
            else:
                both = np.hstack([B, np.conj(B)])
                real_raw.append(_orth(both))
                # intersection with the conjugate: kernel of (I-P)conj(P)
                P = B @ np.conj(B.T)
                Pc = np.conj(P)
                inter = _common_kernel([np.eye(r) - P, np.eye(r) - Pc])
                real_raw.append(inter)
        raw = real_raw
    bases = _dedup(raw, r)
    out = []
    for B in bases:
        res = invariance_residual(bundle, B)
        if res > INVARIANCE_TOL:
            continue
        if bundle.field == "real" and not _is_conjugation_stable(B):
            continue
        out.append(FlatSubbundle(B, B.shape[1], res))
    out.sort(key=lambda F: (F.rank, tuple(np.round(np.abs(F.basis[:, 0]), 6))))
    return out


# ---------------------------------------------------------------------------
# commutant and simplicity
# ---------------------------------------------------------------------------

def commutant_dimension(mats: list[np.ndarray], real: bool = False) -> int:
    """Dimension of {X : [rho_k, X] = 0 for all k} over C (or over R)."""
    return len(commutant_basis(mats, real))


def commutant_basis(mats: list[np.ndarray], real: bool = False) -> list[np.ndarray]:
    """Basis matrices of the commutant (real solutions if ``real``)."""
    r = mats[0].shape[0]
    eye = np.eye(r)
    # row-major vec: vec(m X - X m) = (m (x) I - I (x) m^T) vec(X)
    A = [np.kron(m, eye) - np.kron(eye, m.T) for m in mats]
    vecs = _common_kernel([a.real for a in A] + [a.imag for a in A] if real else A)
    return [X.real if real else X for X in vecs.T.reshape(-1, r, r)]


def simplicity_class(bundle: FlatBundle) -> str:
    """'C-simple', 'R-simple-only', or 'not-simple' from commutant dimensions."""
    d_c = commutant_dimension(bundle.monodromy, real=False)
    if d_c == 1:
        return "C-simple"
    if bundle.field == "real":
        d_r = commutant_dimension(bundle.monodromy, real=True)
        if d_r == 1:
            return "R-simple-only"
    return "not-simple"


def conjugate_splitting(bundle: FlatBundle):
    """For a real bundle: eigen-splitting E (x) C = V + conj(V), if it exists.

    Looks for a real commutant element with no real eigenvalue; V is the
    sum of its generalized eigenspaces in the upper half plane, which the
    monodromy preserves (it commutes), and conj(V) is the complementary
    lower-half sum.  Returns (V, conj V) as FlatSubbundles of the
    complexification, or None when every commutant element has a real
    eigenvalue (the complexification is then C-simple for stable input).
    """
    if bundle.field != "real":
        return None
    r = bundle.rank
    basis = commutant_basis(bundle.monodromy, real=True)
    rng = np.random.default_rng(0)
    candidates = list(basis)
    for _ in range(6):
        coeffs = rng.standard_normal(len(basis))
        candidates.append(sum(c * X for c, X in zip(coeffs, basis)))
    cplx = FlatBundle(bundle.monodromy, "complex")
    for X in candidates:
        ev, vecs = np.linalg.eig(X)
        scale = max(1.0, np.abs(ev).max())
        if np.any(np.abs(ev.imag) <= 1e-8 * scale):
            continue  # a real eigenvalue blocks the conjugate split
        upper = ev.imag > 0
        if upper.sum() * 2 != r:
            continue
        V = _orth(vecs[:, upper])
        if V.shape[1] * 2 != r:
            continue
        if invariance_residual(bundle, V) > INVARIANCE_TOL:
            continue
        full = np.linalg.matrix_rank(np.hstack([V, np.conj(V)]), tol=1e-8)
        if full != r:
            continue
        return (make_subbundle(cplx, V), make_subbundle(cplx, np.conj(V)))
    return None


# ---------------------------------------------------------------------------
# degree, slope, verdicts
# ---------------------------------------------------------------------------

def _require_gauduchon(gG: MetricField):
    res = gauduchon_residual(gG)
    if res > GAUDUCHON_CHECK_TOL:
        raise NonGauduchonMetric(
            f"metric has Gauduchon residual {res:.3e} > {GAUDUCHON_CHECK_TOL:.1e}"
        )


def degree(torus: AffineTorus, H: np.ndarray, gG: MetricField) -> float:
    """deg_g E = int c_1(E,h) ^ omega^{n-1} / nu
    = -(1/n) int tr_g(del delbar log det h) omega^n / nu (metric h arbitrary HPD).

    The twist makes log det h linear across the fundamental domain; the gauge
    factor carries that part, whose second derivatives vanish, so only log det
    of the stored, periodic H is differentiated.
    """
    _require_gauduchon(gG)
    check_hpd(H)
    tr_c1 = -laplacian_type(gG, np.linalg.slogdet(H)[1])
    return float((torus.integrate(tr_c1 * gG.volume_density()) / torus.dim).real)


def slope(torus: AffineTorus, H: np.ndarray, gG: MetricField, rank: int) -> float:
    return degree(torus, H, gG) / rank


def subbundle_bundle(bundle: FlatBundle, F: FlatSubbundle) -> FlatBundle:
    return FlatBundle(induced_monodromy(bundle, F), "complex")


def induced_metric(bundle: FlatBundle, F: FlatSubbundle,
                   H: np.ndarray) -> np.ndarray:
    """Restriction of a gauge-stored metric to the subbundle (gauge-stored).

    The gauge factors restrict along the inclusion (the logarithm of the
    restricted monodromy is the restriction of the logarithm), so the
    induced gauge metric is simply S^dag H S.
    """
    S = F.basis
    return np.conj(S.T) @ H @ S


@dataclass
class StabilityReport:
    degree: float
    slope: float
    verdict: str                       # stable | strictly-semistable | unstable | irreducible-stable
    witnesses: list[tuple[FlatSubbundle, float]]
    simplicity: str
    splitting: tuple[FlatSubbundle, FlatSubbundle] | None = None
    field: str = "complex"
    slope_tolerance: float = 0.0

    @property
    def label(self) -> str:
        if self.verdict == "irreducible-stable":
            return "R-stable" if self.field == "real" else "C-stable"
        return self.verdict

    def is_stable(self) -> bool:
        return self.verdict in ("stable", "irreducible-stable")


def stability_verdict(bundle: FlatBundle, torus: AffineTorus, gG: MetricField,
                      H: np.ndarray | None = None) -> StabilityReport:
    """Compare slopes of every enumerated flat subbundle against the bundle.

    Ties within tolerance give strictly-semistable (the stability inequality
    is strict); with no proper flat subbundle at all the verdict is
    irreducible-stable.
    """
    _require_gauduchon(gG)
    if H is None:
        H = canonical_metric(bundle, torus)
    mu_E = slope(torus, H, gG, bundle.rank)
    tol = 10.0 / torus.resolution**2
    witnesses = [(F, slope(torus, induced_metric(bundle, F, H), gG, F.rank))
                 for F in enumerate_flat_subbundles(bundle)]
    if not witnesses:
        verdict = "irreducible-stable"
    else:
        mus = np.array([m for _, m in witnesses])
        if np.any(mus > mu_E + tol):
            verdict = "unstable"
        elif np.any(np.abs(mus - mu_E) <= tol):
            verdict = "strictly-semistable"
        else:
            verdict = "stable"
    return StabilityReport(
        degree=mu_E * bundle.rank,
        slope=mu_E,
        verdict=verdict,
        witnesses=witnesses,
        simplicity=simplicity_class(bundle),
        splitting=conjugate_splitting(bundle),
        field=bundle.field,
        slope_tolerance=tol,
    )
