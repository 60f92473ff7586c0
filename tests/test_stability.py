"""Subbundle enumeration, commutants, degrees, verdicts."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from affinehe.bundle import build_bundle, canonical_metric, random_hermitian_metric
from affinehe.errors import NonGauduchonMetric, RankTooLarge, ValidationError
from affinehe.forms import MetricField
from affinehe.stability import (
    commutant_basis,
    commutant_dimension,
    conjugate_splitting,
    degree,
    enumerate_flat_subbundles,
    induced_monodromy,
    make_subbundle,
    simplicity_class,
    slope,
    stability_verdict,
)
from affinehe.torus import AffineTorus
from oracles import degree_additivity_check

UNIPOTENT = np.array([[1.0, 1.0], [0.0, 1.0]])


def rotation(theta):
    return np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]])


@pytest.fixture
def setup():
    t = AffineTorus(1, 32)
    return t, MetricField(t, np.eye(1))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------

def test_enumerate_diag():
    b = build_bundle([np.diag([2.0, 3.0])])
    subs = enumerate_flat_subbundles(b)
    assert len(subs) == 2
    spans = sorted(tuple(np.round(np.abs(F.basis[:, 0]), 6)) for F in subs)
    assert spans == [(0.0, 1.0), (1.0, 0.0)]


def test_enumerate_unipotent():
    b = build_bundle([UNIPOTENT])
    subs = enumerate_flat_subbundles(b)
    assert len(subs) == 1
    assert np.abs(np.abs(subs[0].basis[:, 0]) - [1.0, 0.0]).max() < 1e-12


def test_enumerate_rotation_real_empty():
    b = build_bundle([rotation(np.sqrt(2) * np.pi)], field="real")
    assert enumerate_flat_subbundles(b) == []


def test_enumerate_rank3_invariant_plane():
    M = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    subs = enumerate_flat_subbundles(build_bundle([M]))
    ranks = sorted(F.rank for F in subs)
    assert ranks == [1, 1, 2, 2]
    for F in subs:
        assert F.invariance_residual <= 1e-10


def span_distance(basis, cols):
    Q, _ = np.linalg.qr(cols)
    return np.linalg.norm(basis - Q @ (np.conj(Q.T) @ basis))


@pytest.mark.parametrize("s", range(4))
def test_enumerate_conjugated_jordan_block_once(s):
    # rho_1 = P U P^{-1}: roundoff splits its defective eigenvalue (by 1.5e-8
    # at s = 0 and 1.9e-8 at s = 2, above EIG_CLUSTER_GAP), and the one
    # invariant line span(P e1) is still enumerated, and witnessed, once
    P = np.eye(2) + 0.5 * np.random.default_rng(s).standard_normal((2, 2))
    b = build_bundle([P @ UNIPOTENT @ np.linalg.inv(P), np.eye(2)])
    subs = enumerate_flat_subbundles(b)
    assert [F.rank for F in subs] == [1]
    assert span_distance(subs[0].basis, P[:, :1]) < 1e-8
    t = AffineTorus(2, 8)
    rep = stability_verdict(b, t, MetricField(t, np.eye(2)))
    assert len(rep.witnesses) == 1


@pytest.mark.parametrize("s", range(4))
def test_enumerate_conjugated_rank3_jordan_flag(s):
    # a 3 x 3 Jordan block splits by about u^(1/3), near 1e-5; its
    # invariant flag span(P e1) < span(P e1, P e2) is still found
    J3 = np.array([[1.0, 1, 0], [0, 1, 1], [0, 0, 1]])
    P = np.eye(3) + 0.5 * np.random.default_rng(s).standard_normal((3, 3))
    subs = sorted(enumerate_flat_subbundles(build_bundle([P @ J3 @ np.linalg.inv(P)])),
                  key=lambda F: F.rank)
    assert [F.rank for F in subs] == [1, 2]
    assert span_distance(subs[0].basis, P[:, :1]) < 1e-8
    assert span_distance(subs[1].basis, P[:, :2]) < 1e-8


@pytest.mark.parametrize("gap", [1e-4, 1e-6, 1e-7])
def test_enumerate_close_distinct_eigenvalues(gap):
    # close eigenvalues of a diagonalizable matrix are not merged
    subs = enumerate_flat_subbundles(build_bundle([np.diag([2.0, 2.0 + gap])]))
    assert len(subs) == 2


def test_enumerate_multi_axis():
    b = build_bundle([np.diag([2.0, 3.0]), np.diag([5.0, 7.0])])
    assert len(enumerate_flat_subbundles(b)) == 2
    # second matrix splits what the first cannot
    b2 = build_bundle([np.eye(2), np.diag([2.0, 3.0])])
    assert len(enumerate_flat_subbundles(b2)) == 2


def test_enumerate_rank_cap():
    with pytest.raises(RankTooLarge):
        enumerate_flat_subbundles(build_bundle([np.eye(7)]))


def test_make_subbundle_rejects_non_invariant():
    b = build_bundle([UNIPOTENT])
    with pytest.raises(ValidationError):
        make_subbundle(b, np.array([[0.0], [1.0]]))


# ---------------------------------------------------------------------------
# commutant and simplicity
# ---------------------------------------------------------------------------

def test_commutant_dimensions_exact():
    assert commutant_dimension([UNIPOTENT]) == 2
    assert commutant_dimension([np.diag([2.0, 3.0])]) == 2
    assert commutant_dimension([np.array([[2.0]])]) == 1
    J3 = np.array([[1.0, 1, 0], [0, 1, 1], [0, 0, 1]])
    assert commutant_dimension([J3]) == 3
    J22 = np.block([[UNIPOTENT, np.zeros((2, 2))], [np.zeros((2, 2)), UNIPOTENT]])
    assert commutant_dimension([J22]) == 8
    D4 = np.diag([2.0, 3.0, 5.0, 7.0])
    assert commutant_dimension([D4]) == 4
    R = rotation(np.sqrt(2) * np.pi)
    assert commutant_dimension([R], real=True) == 2


@given(st.integers(2, 4))
def test_commutant_contains_polynomials(r):
    # the commutant of a single matrix contains all its polynomials
    rng = np.random.default_rng(r)
    A = np.triu(rng.standard_normal((r, r)))
    np.fill_diagonal(A, 1.0 + np.arange(r))
    d = commutant_dimension([A])
    assert d >= 1
    for X in commutant_basis([A]):
        assert np.abs(A @ X - X @ A).max() < 1e-8


def test_simplicity_classes():
    assert simplicity_class(build_bundle([np.array([[2.0]])])) == "C-simple"
    assert simplicity_class(build_bundle([UNIPOTENT])) == "not-simple"
    br = build_bundle([rotation(np.sqrt(2) * np.pi)], field="real")
    assert simplicity_class(br) == "not-simple"


def test_conjugate_splitting_rotation():
    br = build_bundle([rotation(np.sqrt(2) * np.pi)], field="real")
    spl = conjugate_splitting(br)
    assert spl is not None
    V, Vbar = spl
    assert V.rank == 1
    PV = V.basis @ np.conj(V.basis.T)
    PVbar = Vbar.basis @ np.conj(Vbar.basis.T)
    assert np.abs(np.conj(PV) - PVbar).max() < 1e-10
    # transversal: together they span C^2
    assert np.linalg.matrix_rank(np.hstack([V.basis, Vbar.basis])) == 2


def test_no_splitting_for_real_eigenvalues():
    assert conjugate_splitting(build_bundle([np.diag([2.0, 3.0])],
                                            field="real")) is None


# ---------------------------------------------------------------------------
# degree and slope
# ---------------------------------------------------------------------------

def test_degree_trivial_identity_metric(setup):
    t, g = setup
    b = build_bundle([np.eye(2)])
    assert abs(degree(t, canonical_metric(b, t), g)) < 1e-14


def test_degree_metric_independence(setup, rng):
    t, g = setup
    b = build_bundle([UNIPOTENT])
    H1 = random_hermitian_metric(b, t, rng, amplitude=0.4)
    H2 = random_hermitian_metric(b, t, rng, amplitude=0.4)
    d1, d2 = degree(t, H1, g), degree(t, H2, g)
    assert abs(d1) <= 10 / 32**2 and abs(d2) <= 10 / 32**2
    assert abs(d1 - d2) <= 10 / 32**2


def test_degree_requires_gauduchon():
    t = AffineTorus(2, 16)
    x1 = t.coordinate(0)
    g = MetricField(t, np.eye(2)[None, None]
                    * (1 + 0.5 * np.sin(2 * np.pi * x1))[..., None, None])
    b = build_bundle([np.eye(1)] * 2)
    with pytest.raises(NonGauduchonMetric):
        degree(t, canonical_metric(b, t), g)


def test_slope_of_conjugate_double(setup, rng):
    # mu(F + conj F) = mu(F)
    t, g = setup
    V = build_bundle([np.array([[np.exp(1j * 0.7)]])])
    HV = random_hermitian_metric(V, t, rng, amplitude=0.3)
    muF = slope(t, HV, g, V.rank)
    D = build_bundle([np.diag([np.exp(1j * 0.7), np.exp(-1j * 0.7)])])
    HD = np.zeros((32, 2, 2), dtype=complex)
    HD[..., 0, 0] = HV[..., 0, 0]
    HD[..., 1, 1] = np.conj(HV[..., 0, 0])
    muD = slope(t, HD, g, D.rank)
    assert abs(muD - muF) <= 10 / 32**2


def test_degree_additivity(setup, rng):
    t, g = setup
    b = build_bundle([UNIPOTENT])
    F = enumerate_flat_subbundles(b)[0]
    dF, dQ, dE, defect = degree_additivity_check(
        b, t, F, g, random_hermitian_metric(b, t, rng, amplitude=0.3))
    assert defect <= 10 / 32**2

    M = np.array([[2.0, 1.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 5.0]])
    b3 = build_bundle([M])
    plane = [F for F in enumerate_flat_subbundles(b3) if F.rank == 2][0]
    *_, defect3 = degree_additivity_check(
        b3, t, plane, g, random_hermitian_metric(b3, t, rng, amplitude=0.2))
    assert defect3 <= 10 / 32**2


def test_induced_monodromy_consistency():
    b = build_bundle([UNIPOTENT])
    F = enumerate_flat_subbundles(b)[0]
    sub = induced_monodromy(b, F)
    assert np.abs(sub[0] - np.array([[1.0]])).max() < 1e-12


# ---------------------------------------------------------------------------
# verdicts
# ---------------------------------------------------------------------------

def test_verdict_unipotent(setup):
    t, g = setup
    rep = stability_verdict(build_bundle([UNIPOTENT]), t, g)
    assert rep.verdict == "strictly-semistable"
    assert len(rep.witnesses) == 1
    assert rep.simplicity == "not-simple"
    assert not rep.is_stable()


def test_verdict_diag_two_witnesses(setup):
    t, g = setup
    rep = stability_verdict(build_bundle([np.diag([2.0, 3.0])]), t, g)
    assert rep.verdict == "strictly-semistable"
    assert len(rep.witnesses) == 2


def test_verdict_rotation_R_stable(setup):
    t, g = setup
    rep = stability_verdict(
        build_bundle([rotation(np.sqrt(2) * np.pi)], field="real"), t, g)
    assert rep.verdict == "irreducible-stable"
    assert rep.label == "R-stable"
    assert rep.splitting is not None


def test_verdict_rank1_C_stable(setup):
    t, g = setup
    rep = stability_verdict(build_bundle([np.array([[2.0]])]), t, g)
    assert rep.label == "C-stable"
    assert rep.simplicity == "C-simple"
    assert rep.is_stable()


def test_conjugate_splitting_rank4_complete(setup):
    # two rotation blocks: the splitting must aggregate the whole upper
    # half-plane spectrum so that V + conj(V) recovers all of C^4
    t, g = setup
    th = np.sqrt(2) * np.pi
    R = rotation(th)
    R4 = np.block([[R, np.zeros((2, 2))], [np.zeros((2, 2)), R]])
    br = build_bundle([R4], field="real")
    spl = conjugate_splitting(br)
    assert spl is not None
    V, Vbar = spl
    assert V.rank == 2
    assert np.linalg.matrix_rank(np.hstack([V.basis, Vbar.basis])) == 4
    # a proper real subbundle exists, so the verdict is semistable
    rep = stability_verdict(br, t, g)
    assert rep.verdict == "strictly-semistable"
