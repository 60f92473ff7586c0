"""Exception hierarchy for the affinehe package.

Every error names the mathematical check that failed so that CLI output and
logs point directly at the violated condition.
"""


class AffineHEError(Exception):
    """Base class for all package errors."""


class ValidationError(AffineHEError):
    """Malformed input: bad degrees, shapes, ranges, or config values."""


class NonCommuting(ValidationError):
    """Monodromy matrices do not commute; no Z^n representation exists."""

    def __init__(self, i, j, norm):
        self.pair = (i, j)
        self.norm = norm
        super().__init__(
            f"monodromy matrices {i} and {j} do not commute "
            f"(commutator norm {norm:.3e})"
        )


class Singular(ValidationError):
    """A monodromy matrix is not invertible."""


class NonHPD(ValidationError):
    """A metric or endomorphism field is not Hermitian positive definite."""


class RankTooLarge(ValidationError):
    """Bundle rank exceeds the supported enumeration range."""


class NonGauduchonMetric(ValidationError):
    """Degree requested against a metric whose Gauduchon residual is too large."""


class SolverError(AffineHEError):
    """A numerical solve did not reach its target."""


class PoissonSolveFailed(SolverError):
    """Scalar elliptic solve for the normalization potential stagnated."""


class LinearSolveStagnation(SolverError):
    """Krylov solve inside a Newton step stagnated."""


class Diverged(SolverError):
    """Newton iteration diverged."""


class NoPositiveKernel(SolverError):
    """Computed kernel vector of Q changes sign beyond tolerance."""


class KernelNotOneDimensional(SolverError):
    """Discrete kernel of Q has more than one smooth direction."""


class InvariantViolation(AffineHEError):
    """An internal identity the theory guarantees came out false."""


class NoSpectralGap(InvariantViolation):
    """Eigenvalues of the rescaled blow-up state straddle the threshold."""


class NoNearbyFlatSubbundle(InvariantViolation):
    """Flattened projection image is far from every invariant subspace."""


class SlopeInequalityViolated(InvariantViolation):
    """mu(F) < mu(E) for an extracted destabilizing subbundle."""
