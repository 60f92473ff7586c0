"""Destabilizing subbundle extraction: rescaling, thresholding, flattening."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from affinehe.bundle import HermCalculus, build_bundle, canonical_metric
from affinehe.destabilizer import (
    DEFECT_TOL,
    DROP_LOG2,
    destabilize,
    destabilizing_report,
    extract_projection,
    flatten_projection,
    validate_projection,
)
from affinehe.errors import InvariantViolation, NoNearbyFlatSubbundle, NoSpectralGap
from affinehe.forms import MetricField
from affinehe.stability import FlatSubbundle
from affinehe.torus import AffineTorus
from oracles import projector

UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])


@pytest.fixture
def t32():
    return AffineTorus(1, 32)


def const_field(t, M):
    return np.broadcast_to(np.asarray(M, dtype=complex),
                           t.grid_shape + M.shape).copy()


def synthetic_blowup(t, lam):
    """f = W^{-1} diag(e^{-lam}, e^{lam}) W on the unipotent bundle (gauge
    storage = the diagonal itself); canonical h0."""
    b = build_bundle([UNIPOTENT])
    f = const_field(t, np.diag([np.exp(-lam), np.exp(lam)]))
    return b, canonical_metric(b, t), f


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------

def test_extract_constant_diagonal(t32):
    # f = diag(e^{2M}, e^{-2M}) on the trivial bundle: pi = diag(0, 1)
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    f = const_field(t32, np.diag([np.exp(20.0), np.exp(-20.0)]))
    pi, _ = extract_projection(HermCalculus(H0), f)
    assert np.abs(pi - np.diag([0.0, 1.0])).max() < 1e-12


def test_extract_identity_raises(t32):
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    with pytest.raises(NoSpectralGap):
        extract_projection(HermCalculus(H0), const_field(t32, np.eye(2)))


def test_extract_no_gap_raises(t32):
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    f = const_field(t32, np.diag([1.2, 0.8]))  # eigenvalues too close
    with pytest.raises(NoSpectralGap):
        extract_projection(HermCalculus(H0), f)


def test_extract_synthetic_unipotent(t32):
    b, H0, f = synthetic_blowup(t32, 12.0)
    calc = HermCalculus(H0)
    pi, _ = extract_projection(calc, f)
    defects = validate_projection(b, t32, calc, pi)
    for name, val in defects.items():
        assert val <= DEFECT_TOL, (name, val)
    # flat-frame pi is the projection onto span(e1) along (x, 1)
    pi_flat = b.gauge(t32).end_to_flat(pi)
    x = t32.coordinate(0)
    assert np.abs(pi_flat[..., 0, 0] - 1.0).max() < 1e-10
    assert np.abs(pi_flat[..., 0, 1] + x).max() < 1e-10


# ---------------------------------------------------------------------------
# validation measurement semantics
# ---------------------------------------------------------------------------

def test_validate_constant_projection_trivial_bundle(t32):
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    pi = const_field(t32, np.diag([1.0, 0.0]))
    defects = validate_projection(b, t32, HermCalculus(H0), pi)
    assert all(v < 1e-13 for v in defects.values())


def test_validate_reports_non_projection(t32, rng):
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    junk = rng.standard_normal((32, 2, 2)) + 0j
    defects = validate_projection(b, t32, HermCalculus(H0), junk)
    assert defects["pi2"] > 0.1


# ---------------------------------------------------------------------------
# flattening
# ---------------------------------------------------------------------------

def test_flatten_exact_projection(t32):
    b = build_bundle([np.diag([2.0, 3.0])])
    pi = const_field(t32, np.diag([1.0, 0.0]))
    F = flatten_projection(b, t32, pi)
    assert F.rank == 1
    assert np.abs(np.abs(F.basis[:, 0]) - [1.0, 0.0]).max() < 1e-12


def test_flatten_synthetic_unipotent(t32):
    b, H0, f = synthetic_blowup(t32, 12.0)
    pi, _ = extract_projection(HermCalculus(H0), f)
    F = flatten_projection(b, t32, pi)
    assert F.rank == 1
    assert np.abs(np.abs(F.basis[:, 0]) - [1.0, 0.0]).max() < 1e-10


def test_flatten_idempotent(t32):
    b, H0, f = synthetic_blowup(t32, 12.0)
    pi, _ = extract_projection(HermCalculus(H0), f)
    F = flatten_projection(b, t32, pi)
    pi_exact = const_field(t32, projector(F))
    F2 = flatten_projection(b, t32, pi_exact)
    assert np.abs(projector(F2) - projector(F)).max() < 1e-12


def test_flatten_far_subspace_raises(t32):
    b = build_bundle([np.diag([2.0, 3.0])])
    # projection onto span((1,1)/sqrt 2): 45 degrees from both eigenlines
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    pi = const_field(t32, np.outer(v, v))
    with pytest.raises(NoNearbyFlatSubbundle):
        flatten_projection(b, t32, pi)


# ---------------------------------------------------------------------------
# full report
# ---------------------------------------------------------------------------

def test_report_synthetic_pipeline(t32):
    g = MetricField(t32, np.eye(1))
    b, H0, f = synthetic_blowup(t32, 12.0)
    rep = destabilize(b, t32, H0, g, f)
    assert rep.rank == 1
    assert 0 < rep.rank < 2
    assert all(v <= DEFECT_TOL for v in rep.projection_defects.values())
    assert abs(rep.slopes[0]) <= 10 / 32**2
    assert abs(rep.slopes[1]) <= 10 / 32**2
    assert rep.slopes[0] >= rep.slopes[1] - rep.slope_tolerance
    assert rep.chern_weil_defect <= 10 / 32**2


def test_report_orthogonal_splitting_chern_weil_exact(t32):
    # pi constant with vanishing second fundamental form: the Chern-Weil
    # correction term is zero and both paths agree to machine precision
    g = MetricField(t32, np.eye(1))
    b = build_bundle([np.diag([2.0, 3.0])])
    H0 = canonical_metric(b, t32)
    pi = const_field(t32, np.diag([1.0, 0.0]))
    from affinehe.stability import enumerate_flat_subbundles

    F = [s for s in enumerate_flat_subbundles(b)
         if abs(s.basis[0, 0]) > 0.9][0]
    rep = destabilizing_report(b, t32, HermCalculus(H0), g, pi, F)
    assert rep.chern_weil_defect < 1e-12


def test_largest_dropped_log2_in_report(t32):
    # rho f = diag(e^-24, 1): the one dropped eigenvalue is 2^(-24 / ln 2)
    g = MetricField(t32, np.eye(1))
    b, H0, f = synthetic_blowup(t32, 12.0)
    rep = destabilize(b, t32, H0, g, f)
    assert rep.largest_dropped_log2 == pytest.approx(-24.0 / np.log(2.0), rel=1e-12)
    assert rep.summary()["largest_dropped_log2"] == {
        "value": rep.largest_dropped_log2, "tolerance": DROP_LOG2}


def test_report_rejects_non_projection(t32, rng):
    # the junk field of test_validate_reports_non_projection
    g = MetricField(t32, np.eye(1))
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    junk = rng.standard_normal((32, 2, 2)) + 0j
    F = FlatSubbundle(np.array([[1.0], [0.0]]), 1)
    with pytest.raises(InvariantViolation):
        destabilizing_report(b, t32, HermCalculus(H0), g, junk, F)


def test_report_rejects_projection_defect(t32):
    # constant and commuting with the monodromy, so del_0 pi = 0 and the
    # Chern-Weil paths agree; pi^2 - pi = diag(0, -1/4) is the defect
    g = MetricField(t32, np.eye(1))
    b = build_bundle([np.diag([2.0, 3.0])])
    H0 = canonical_metric(b, t32)
    pi = const_field(t32, np.diag([1.0, 0.5]))
    F = FlatSubbundle(np.array([[1.0], [0.0]]), 1)
    with pytest.raises(InvariantViolation, match="projection defects"):
        destabilizing_report(b, t32, HermCalculus(H0), g, pi, F)


def test_report_rejects_chern_weil_defect(t32):
    # an exact orthogonal projection onto a line that turns once around the
    # circle: tr(K_0 pi) - |del_0 pi|^2 integrates to -pi^2 / 2 (g = 1),
    # while the constant F has tr K_F = 0
    g = MetricField(t32, np.eye(1))
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    v = np.stack([np.cos(np.pi * t32.coordinate(0)),
                  np.sin(np.pi * t32.coordinate(0))], axis=-1)
    pi = (v[..., :, None] * v[..., None, :]).astype(complex)
    F = FlatSubbundle(np.array([[1.0], [0.0]]), 1)
    with pytest.raises(InvariantViolation, match="Chern-Weil defect"):
        destabilizing_report(b, t32, HermCalculus(H0), g, pi, F)


def test_destabilize_builds_one_calculus_and_one_eigendecomposition(
        t32, monkeypatch):
    calls = {"init": 0, "eig": 0}
    init, eig = HermCalculus.__init__, HermCalculus.eig

    def counted_init(self, H):
        calls["init"] += 1
        init(self, H)

    def counted_eig(self, F):
        calls["eig"] += 1
        return eig(self, F)

    monkeypatch.setattr(HermCalculus, "__init__", counted_init)
    monkeypatch.setattr(HermCalculus, "eig", counted_eig)
    g = MetricField(t32, np.eye(1))
    b, H0, f = synthetic_blowup(t32, 12.0)
    destabilize(b, t32, H0, g, f)
    assert calls == {"init": 1, "eig": 1}


# ---------------------------------------------------------------------------
# the band test against the sigma-power schedule it replaced
# ---------------------------------------------------------------------------

def sigma_schedule_keep(lam):
    """The sigma-power split, as the oracle: counts of lam^sigma >= 1/2 for
    sigma = 1, 1/2, ..., 1/16; the split stands when the last three counts
    agree, and keeps lam >= 2^-16.  The keep mask, or None where the split
    raises NoSpectralGap."""
    counts = [int((lam**s >= 0.5).sum()) for s in (1.0, 0.5, 0.25, 0.125, 0.0625)]
    if len(set(counts[-3:])) != 1:
        return None
    keep = lam >= 0.5**16
    n_keep = keep.sum(axis=-1)
    if n_keep.min() != n_keep.max() or n_keep[0] in (0, lam.shape[-1]):
        return None
    return keep


@st.composite
def log2_spectra(draw):
    """log2-eigenvalues of a diagonal field on 8 grid points, ranks 2-4: each
    point takes one of up to three spectra, and a common shift moves max f."""
    r = draw(st.integers(2, 4))
    spectrum = st.lists(st.floats(-40.0, 0.0), min_size=r, max_size=r)
    pool = draw(st.lists(spectrum, min_size=1, max_size=3))
    at = draw(st.lists(st.integers(0, len(pool) - 1), min_size=8, max_size=8))
    return np.array([pool[i] for i in at]) + draw(st.floats(-10.0, 10.0))


@settings(max_examples=300)
@given(log2_spectra())
def test_band_test_matches_sigma_schedule(x):
    rel = x - x.max()
    # away from the edges, where lam**sigma and the band test round differently
    assume(np.abs(rel - (-4.0)).min() > 1e-9 and np.abs(rel - DROP_LOG2).min() > 1e-9)
    w = 2.0**x
    r = x.shape[-1]
    calc = HermCalculus(np.broadcast_to(np.eye(r, dtype=complex), (8, r, r)))
    f = w[..., None] * np.eye(r)
    expected = sigma_schedule_keep(np.exp(-np.log(w.max())) * w)
    if expected is None:
        with pytest.raises(NoSpectralGap):
            extract_projection(calc, f)
    else:
        pi, _ = extract_projection(calc, f)
        kept = np.diagonal(pi, axis1=-2, axis2=-1).real < 0.5
        assert (kept == expected).all()
