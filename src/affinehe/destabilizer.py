"""Destabilizing flat subbundle extraction from a blown-up continuation state.

Without a Hermitian-Einstein metric the rescaled (rho f)^sigma, rho f =
f / max f, tends weakly to I - pi as sigma -> 0 (Uhlenbeck-Yau).  One spectral
band decides the split: the eigenvalues of rho f that are >= 2^-4 are kept,
and every other one must lie below 2^-16, anywhere on the grid, so kept and
dropped eigenvalues are more than 2^12 apart.  pi, the h_0-orthogonal
projection onto the dropped (collapsing) eigenvectors, is flattened by grid
averaging and snapping to the nearest monodromy-invariant subspace F, and
certified against the tolerances its report names: the slope inequality
mu(F) >= mu(E), the Chern-Weil identity tr K_F = tr(K_0 pi) - |del_0 pi|^2,
and the projection defects of pi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bundle import (
    FlatBundle,
    HermCalculus,
    covariant_del0,
    d_end,
    end_delbar,
    hermitian_connection,
    mean_curvature,
)
from .errors import (
    InvariantViolation,
    NoNearbyFlatSubbundle,
    NonHPD,
    NoSpectralGap,
    SlopeInequalityViolated,
    ValidationError,
)
from .forms import MetricField
from .stability import (
    INVARIANCE_TOL,
    FlatSubbundle,
    enumerate_flat_subbundles,
    induced_metric,
    slope,
    subbundle_bundle,
)
from .torus import AffineTorus

KEEP_LOG2 = -4    # eigenvalues of rho f at or above 2^KEEP_LOG2 are kept
DROP_LOG2 = -16   # every other eigenvalue of rho f must lie below 2^DROP_LOG2
DEFECT_TOL = 1e-4
SNAP_TOL = 0.2


def extract_projection(calc: HermCalculus, f: np.ndarray) -> tuple[np.ndarray, float]:
    """pi = I - (projection onto the kept eigenvectors of rho f), the
    h_0-orthogonal projection onto the collapsing directions of a blow-up
    state, and log2 of the largest dropped eigenvalue of rho f.

    ``calc`` is the calculus of h_0.  Raises NoSpectralGap when an eigenvalue
    of rho f lies in [2^DROP_LOG2, 2^KEEP_LOG2), when the kept multiplicity
    varies over the grid, or when every eigenvalue is kept.
    """
    w, U = calc.eig(f)
    if w.min() <= 0:
        raise NonHPD("blow-up endomorphism is not positive definite")
    log2_lam = np.log2(w) - np.log2(w.max())  # eigenvalues of rho f
    keep = log2_lam >= KEEP_LOG2
    dropped = log2_lam[~keep]
    if dropped.size and dropped.max() >= DROP_LOG2:
        raise NoSpectralGap(
            f"rho f = f / max f has an eigenvalue 2^{dropped.max():.2f} in "
            f"the band [2^{DROP_LOG2}, 2^{KEEP_LOG2})"
        )
    n_keep = keep.sum(axis=-1)
    if n_keep.min() != n_keep.max():
        raise NoSpectralGap("kept multiplicity varies over the grid")
    if not dropped.size:
        raise NoSpectralGap(
            f"threshold keeps all {f.shape[-1]} eigenvalues; no split "
            "(the state did not blow up)"
        )
    pi = np.eye(f.shape[-1]) - calc.from_eig(U, keep.astype(float))
    return pi, float(dropped.max())


def validate_projection(bundle: FlatBundle, torus: AffineTorus,
                        calc: HermCalculus, pi: np.ndarray) -> dict:
    """Defect norms of a claimed h_0-orthogonal projection onto a flat
    subbundle: pi^2 - pi, pi* - pi, (I-pi) delbar pi, and the flat-frame
    constancy of the image subbundle.

    ``calc`` is the calculus of h_0.  Pure measurement; nothing is raised.
    """
    r = bundle.rank

    def supfro(A):
        return float(np.sqrt(np.abs(
            np.einsum("...ab,...ab->...", A, np.conj(A))
        )).max())

    d_pi2 = supfro(pi @ pi - pi)
    d_adj = supfro(calc.adjoint(pi) - pi)

    comp = np.eye(r) - pi
    d_dbar = max(0.0, *(supfro(comp @ (0.5 * d_end(bundle, torus, pi, kax)))
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
    subbundle: FlatSubbundle
    projection_defects: dict
    slopes: tuple[float, float]          # (mu_F, mu_E)
    chern_weil_defect: float
    slope_tolerance: float
    largest_dropped_log2: float = float("nan")  # set by ``destabilize``

    @property
    def rank(self) -> int:
        return self.subbundle.rank

    def summary(self) -> dict:
        """The destabilizer_report.json payload: every measured number with
        the tolerance it was tested against."""
        def tested(value, tolerance):
            return {"value": value, "tolerance": tolerance}

        F, tol = self.subbundle, self.slope_tolerance
        return {
            "rank": self.rank,
            "subbundle_basis": [[float(z.real), float(z.imag)]
                                for z in F.basis.ravel()],
            "invariance_residual": tested(F.invariance_residual, INVARIANCE_TOL),
            "projection_defects": {k: tested(v, DEFECT_TOL)
                                   for k, v in self.projection_defects.items()},
            "mu_F": tested(self.slopes[0], tol),
            "mu_E": tested(self.slopes[1], tol),
            "chern_weil_defect": tested(self.chern_weil_defect, tol),
            "largest_dropped_log2": tested(self.largest_dropped_log2, DROP_LOG2),
        }


def destabilizing_report(bundle: FlatBundle, torus: AffineTorus,
                         calc: HermCalculus, gG: MetricField, pi: np.ndarray,
                         F: FlatSubbundle) -> DestabilizerReport:
    """Certify the extracted subbundle: slope inequality, Chern-Weil and the
    projection defects of pi.

    mu(F) is computed two ways: directly as the slope of F with the induced
    metric, and through tr K_F = tr(K_0 pi) - |del_0 pi|^2 integrated
    against omega^n/nu.  ``calc`` is the calculus of h_0.  Raises
    SlopeInequalityViolated when mu(F) falls below mu(E) beyond tolerance
    (the theory forbids it), and InvariantViolation when the two paths to
    mu(F) or a projection defect miss their tolerance.
    """
    if not 0 < F.rank < bundle.rank:
        raise ValidationError("destabilizing subbundle must be proper")
    H0 = calc.H
    tol = 10.0 / torus.resolution**2

    mu_E = slope(torus, H0, gG, bundle.rank)
    sub = subbundle_bundle(bundle, F)
    HF = induced_metric(bundle, F, H0)
    mu_F = slope(torus, HF, gG, F.rank)

    # Chern-Weil two-path comparison, integrated
    w = gG.volume_density()
    KF = mean_curvature(gG, sub, torus, HF)
    tr_KF = torus.integrate(np.einsum("...aa->...", KF) * w).real

    theta0 = hermitian_connection(bundle, torus, H0)
    K0 = end_delbar(gG, bundle, theta0)
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
    if not cw_defect <= tol:
        raise InvariantViolation(
            f"Chern-Weil defect {cw_defect:.3e} above its tolerance {tol:.1e}"
        )
    defects = validate_projection(bundle, torus, calc, pi)
    above = {k: v for k, v in defects.items() if not v <= DEFECT_TOL}
    if above:
        raise InvariantViolation(
            f"projection defects {above} above their tolerance {DEFECT_TOL:.0e}"
        )
    return DestabilizerReport(subbundle=F, projection_defects=defects,
                              slopes=(mu_F, mu_E), chern_weil_defect=cw_defect,
                              slope_tolerance=tol)


def destabilize(bundle: FlatBundle, torus: AffineTorus, H0: np.ndarray,
                gG: MetricField, f_blowup: np.ndarray) -> DestabilizerReport:
    """Full pipeline: rescale/threshold, flatten, certify."""
    calc = HermCalculus(H0)
    pi, dropped_log2 = extract_projection(calc, f_blowup)
    F = flatten_projection(bundle, torus, pi)
    rep = destabilizing_report(bundle, torus, calc, gG, pi, F)
    rep.largest_dropped_log2 = dropped_log2
    return rep
