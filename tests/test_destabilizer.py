"""Destabilizing subbundle extraction: rescaling, thresholding, flattening."""

import numpy as np
import pytest

from affinehe.bundle import build_bundle, canonical_metric
from affinehe.destabilizer import (
    DEFECT_TOL,
    destabilize,
    destabilizing_report,
    extract_projection,
    flatten_projection,
    validate_projection,
)
from affinehe.errors import NoNearbyFlatSubbundle, NoSpectralGap
from affinehe.forms import MetricField
from affinehe.torus import AffineTorus

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
    pi = extract_projection(b, t32, H0, f)
    assert np.abs(pi - np.diag([0.0, 1.0])).max() < 1e-12


def test_extract_identity_raises(t32):
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    with pytest.raises(NoSpectralGap):
        extract_projection(b, t32, H0, const_field(t32, np.eye(2)))


def test_extract_no_gap_raises(t32):
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    f = const_field(t32, np.diag([1.2, 0.8]))  # eigenvalues too close
    with pytest.raises(NoSpectralGap):
        extract_projection(b, t32, H0, f)


def test_extract_synthetic_unipotent(t32):
    b, H0, f = synthetic_blowup(t32, 12.0)
    pi = extract_projection(b, t32, H0, f)
    defects = validate_projection(b, t32, H0, pi)
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
    defects = validate_projection(b, t32, H0, pi)
    assert all(v < 1e-13 for v in defects.values())


def test_validate_reports_non_projection(t32, rng):
    b = build_bundle([np.eye(2)])
    H0 = canonical_metric(b, t32)
    junk = rng.standard_normal((32, 2, 2)) + 0j
    defects = validate_projection(b, t32, H0, junk)
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
    pi = extract_projection(b, t32, H0, f)
    F = flatten_projection(b, t32, pi)
    assert F.rank == 1
    assert np.abs(np.abs(F.basis[:, 0]) - [1.0, 0.0]).max() < 1e-10


def test_flatten_idempotent(t32):
    b, H0, f = synthetic_blowup(t32, 12.0)
    pi = extract_projection(b, t32, H0, f)
    F = flatten_projection(b, t32, pi)
    pi_exact = const_field(t32, F.projector())
    F2 = flatten_projection(b, t32, pi_exact)
    assert np.abs(F2.projector() - F.projector()).max() < 1e-12


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
    rep = destabilizing_report(b, t32, H0, g, pi, F)
    assert rep.chern_weil_defect < 1e-12


def test_sigma_counts_in_report(t32):
    g = MetricField(t32, np.eye(1))
    b, H0, f = synthetic_blowup(t32, 12.0)
    rep = destabilize(b, t32, H0, g, f)
    assert rep.sigma_counts, "sigma schedule diagnostic missing"
    # the kept count stabilized at the kept-block size
    assert rep.sigma_counts[-1] == 32 * (2 - rep.rank)
    assert len(set(rep.sigma_counts[-3:])) == 1
