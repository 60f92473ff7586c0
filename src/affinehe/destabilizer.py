"""Destabilizing flat subbundle extraction from a blown-up continuation state.

Rescales the hot endomorphism by the reciprocal of its largest eigenvalue,
confirms through a sigma-power schedule that the spectral split is stable,
thresholds at 1/2 to produce the h_0-orthogonal projection pi onto the
collapsing directions, flattens it by grid averaging and snapping to the
nearest monodromy-invariant subspace, and certifies the slope inequality
mu(F) >= mu(E) together with the Chern-Weil identity
tr K_F = tr(K_0 pi) - |del_0 pi|^2.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bundle import (
    FlatBundle,
    HermCalculus,
    covariant_del0,
    hermitian_connection,
    mean_curvature,
)
from .errors import (
    NoNearbyFlatSubbundle,
    NonHPD,
    NoSpectralGap,
    SlopeInequalityViolated,
    ValidationError,
)
from .forms import Form, MetricField, dolbeault_delbar
from .stability import (
    FlatSubbundle,
    enumerate_flat_subbundles,
    induced_metric,
    slope,
    subbundle_bundle,
)
from .torus import AffineTorus

THETA_KEEP = 0.5
DEFECT_TOL = 1e-4
SNAP_TOL = 0.2
SIGMA_SCHEDULE = (1.0, 0.5, 0.25, 0.125, 0.0625)


def _split_counts(lam: np.ndarray) -> list[int]:
    """Counts of eigenvalues of rho f with lam^sigma >= THETA_KEEP along
    SIGMA_SCHEDULE."""
    return [int((lam**sigma >= THETA_KEEP).sum()) for sigma in SIGMA_SCHEDULE]


def sigma_split_counts(calc: HermCalculus, f: np.ndarray) -> list[int]:
    """Kept-eigenvalue counts of (rho f)^sigma along the sigma schedule;
    stabilization of the count certifies an unambiguous spectral split."""
    w = calc.eigvals(f)
    if w.min() <= 0:
        raise NonHPD("endomorphism is not positive definite")
    return _split_counts(np.exp(-float(np.log(w.max()))) * w)


def extract_projection(bundle: FlatBundle, torus: AffineTorus, H0: np.ndarray,
                       f: np.ndarray) -> np.ndarray:
    """pi = I - (spectral threshold of rho f): projection onto the
    collapsing directions of a blow-up state.

    The sigma-schedule confirms that the count of eigenvalues above the
    threshold has stabilized; the one-shot threshold then keeps eigenvectors
    with eigenvalue >= THETA_KEEP^{1/sigma_last} = 2^-16 of rho f.  Equal
    counts at sigma = 1/4, 1/8 and 1/16 mean that no eigenvalue of rho f
    lies in [2^-16, 2^-4) anywhere on the grid, so kept and dropped
    eigenvalues are more than 2^12 = 4096 apart.
    """
    calc = HermCalculus(H0)
    w, U = calc.eig(f)
    if w.min() <= 0:
        raise NonHPD("blow-up endomorphism is not positive definite")
    M = float(np.log(w.max()))
    lam = np.exp(-M) * w  # eigenvalues of rho f, in (0, 1]

    counts = _split_counts(lam)
    if len(set(counts[-3:])) != 1:
        raise NoSpectralGap(
            f"sigma-power split did not stabilize (kept counts {counts})"
        )

    keep = lam >= THETA_KEEP ** (1.0 / SIGMA_SCHEDULE[-1])
    n_keep = keep.sum(axis=-1)
    if n_keep.min() != n_keep.max():
        raise NoSpectralGap("kept multiplicity varies over the grid")
    k = int(n_keep[tuple(0 for _ in range(torus.dim))])
    if k == 0 or k == bundle.rank:
        raise NoSpectralGap(
            f"threshold keeps {k} of {bundle.rank} eigenvalues; no split "
            "(the state did not blow up)"
        )

    return np.eye(bundle.rank) - calc.from_eig(U, keep.astype(float))


def validate_projection(bundle: FlatBundle, torus: AffineTorus, H0: np.ndarray,
                        pi: np.ndarray) -> dict:
    """Defect norms of a claimed h_0-orthogonal projection onto a flat
    subbundle: pi^2 - pi, pi* - pi, (I-pi) delbar pi, and the flat-frame
    constancy of the image subbundle.

    Pure measurement; nothing is raised.
    """
    calc = HermCalculus(H0)
    r = bundle.rank

    def supfro(A):
        return float(np.sqrt(np.abs(
            np.einsum("...ab,...ab->...", A, np.conj(A))
        )).max())

    d_pi2 = supfro(pi @ pi - pi)
    d_adj = supfro(calc.adjoint(pi) - pi)

    dbar = dolbeault_delbar(Form.from_end(torus, bundle, pi))
    comp = np.eye(r) - pi
    d_dbar = max(0.0, *(supfro(comp @ dbar.coeffs[..., 0, kax, :, :])
                        for kax in range(torus.dim)))

    # image subbundle in the flat frame: orthogonal projector onto im(pi)
    pi_flat = bundle.gauge(torus).end_to_flat(pi)
    Uf, sf, _ = np.linalg.svd(pi_flat)
    ranks = (sf > 0.5).sum(axis=-1)
    if ranks.min() != ranks.max():
        d_flat = float("inf")
    else:
        sel = (sf > 0.5)[..., None, :].astype(float)
        P_im = (Uf * sel) @ np.conj(np.swapaxes(Uf, -1, -2))
        P_mean = P_im.reshape(-1, r, r).mean(axis=0)
        d_flat = supfro(P_im - P_mean)

    return {
        "pi2": d_pi2,
        "adjoint": d_adj,
        "delbar": d_dbar,
        "flat": d_flat,
    }


def flatten_projection(bundle: FlatBundle, torus: AffineTorus,
                       pi: np.ndarray) -> FlatSubbundle:
    """Grid-average pi in the flat frame, round to an exact projection, and
    snap its image to the nearest monodromy-invariant subspace."""
    r = bundle.rank
    pi_flat = bundle.gauge(torus).end_to_flat(pi)
    pbar = pi_flat.reshape(-1, r, r).mean(axis=0)
    # spectral rounding: eigenvalues cluster at 0/1 for a near-projection
    ev, V = np.linalg.eig(pbar)
    order = np.argsort(-ev.real)
    s = int(np.round(ev.real.sum()))
    if s <= 0 or s >= r:
        raise NoNearbyFlatSubbundle(
            f"averaged projection has rank {s}, not a proper subbundle"
        )
    image = V[:, order[:s]]
    # orthonormalize the image of the rounded projection
    Q, _ = np.linalg.qr(image)

    best = None
    for F in enumerate_flat_subbundles(bundle):
        if F.rank != s:
            continue
        # largest principal angle between the spans
        sv = np.linalg.svd(np.conj(Q.T) @ F.basis, compute_uv=False)
        dist = float(np.sqrt(max(0.0, 1.0 - sv.min() ** 2)))
        if best is None or dist < best[0]:
            best = (dist, F)
    if best is None or best[0] > SNAP_TOL:
        got = f"{best[0]:.3f}" if best else "none available"
        raise NoNearbyFlatSubbundle(
            f"nearest invariant subspace of rank {s} is at distance {got} "
            f"(snap tolerance {SNAP_TOL})"
        )
    return best[1]


@dataclass
class DestabilizerReport:
    pi: np.ndarray
    subbundle: FlatSubbundle
    projection_defects: dict
    slopes: tuple[float, float]          # (mu_F, mu_E)
    chern_weil_defect: float
    rank: int = 0
    slope_tolerance: float = 0.0
    sigma_counts: list = field(default_factory=list)

    def summary(self) -> dict:
        return {
            "rank": self.rank,
            "mu_F": self.slopes[0],
            "mu_E": self.slopes[1],
            "defect_pi2": self.projection_defects["pi2"],
            "defect_adjoint": self.projection_defects["adjoint"],
            "defect_delbar": self.projection_defects["delbar"],
            "defect_flat": self.projection_defects["flat"],
            "chern_weil_defect": self.chern_weil_defect,
        }


def destabilizing_report(bundle: FlatBundle, torus: AffineTorus, H0: np.ndarray,
                         gG: MetricField, pi: np.ndarray,
                         F: FlatSubbundle) -> DestabilizerReport:
    """Certify the extracted subbundle: slope inequality and Chern-Weil.

    mu(F) is computed two ways: directly as the slope of F with the induced
    metric, and through tr K_F = tr(K_0 pi) - |del_0 pi|^2 integrated
    against omega^n/nu.  Raises SlopeInequalityViolated when mu(F) falls
    below mu(E) beyond tolerance (the theory forbids it).
    """
    n = torus.dim
    r = bundle.rank
    s = F.rank
    if not 0 < s < r:
        raise ValidationError("destabilizing subbundle must be proper")
    calc = HermCalculus(H0)
    tol = 10.0 / torus.resolution**2

    mu_E = slope(bundle, torus, H0, gG)
    sub = subbundle_bundle(bundle, F)
    HF = induced_metric(bundle, F, H0)
    mu_F = slope(sub, torus, HF, gG)

    # Chern-Weil two-path comparison, integrated
    w = gG.volume_density()
    KF = mean_curvature(gG, sub, torus, HF)
    tr_KF = torus.integrate(np.einsum("...aa->...", KF) * w).real

    K0 = mean_curvature(gG, bundle, torus, H0)
    theta0 = hermitian_connection(bundle, torus, H0)
    d0pi = covariant_del0(bundle, torus, theta0, pi)
    a_norm2 = calc.form_norm_sq(gG, d0pi)
    tr_formula = torus.integrate(
        (np.einsum("...ab,...ba->...", K0, pi) - a_norm2) * w
    ).real
    cw_defect = abs(tr_KF - tr_formula)

    if mu_F < mu_E - tol:
        raise SlopeInequalityViolated(
            f"mu(F) = {mu_F:.3e} < mu(E) = {mu_E:.3e} beyond tolerance "
            f"{tol:.1e}; extraction produced a non-destabilizing subbundle"
        )

    defects = validate_projection(bundle, torus, H0, pi)
    return DestabilizerReport(
        pi=pi,
        subbundle=F,
        projection_defects=defects,
        slopes=(mu_F, mu_E),
        chern_weil_defect=cw_defect,
        rank=s,
        slope_tolerance=tol,
    )


def destabilize(bundle: FlatBundle, torus: AffineTorus, H0: np.ndarray,
                gG: MetricField, f_blowup: np.ndarray) -> DestabilizerReport:
    """Full pipeline: rescale/threshold, validate, flatten, certify."""
    pi = extract_projection(bundle, torus, H0, f_blowup)
    F = flatten_projection(bundle, torus, pi)
    rep = destabilizing_report(bundle, torus, H0, gG, pi, F)
    rep.sigma_counts = sigma_split_counts(HermCalculus(H0), f_blowup)
    return rep
