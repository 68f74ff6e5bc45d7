"""Exception hierarchy.

Two broad groups matter for the CLI exit codes: ``DomainError`` covers bad
inputs or out-of-domain evaluations (exit code 2), ``SynthesisError`` covers
failures while constructing a curve (exit code 3).
"""


class AffineElasticaError(Exception):
    """Base class for all package errors."""


class DomainError(AffineElasticaError):
    """Invalid input or evaluation outside an operation's domain."""


class SynthesisError(AffineElasticaError):
    """Curve construction failed."""


class DegenerateDiscriminant(DomainError):
    """g2^3 - 27 g3^2 vanishes to tolerance; no non-degenerate lattice."""


class NearPole(DomainError):
    """Evaluation point too close to a lattice point."""


class InflectionPoint(DomainError):
    """|gamma', gamma''| changes sign or is too small to normalize."""


class BranchUnavailable(DomainError):
    """The requested phase-plane branch does not exist for these invariants."""


class NonConvex(DomainError):
    """Full-affine operation on a curve whose curvature is not sign-definite."""


class GridHitsPole(SynthesisError):
    """Requested sample grid comes too close to a curvature pole."""


class UnimodularizationFailed(SynthesisError):
    """Could not extract two independent real coordinate solutions."""


class NoSuchC(SynthesisError):
    """No parameter c with wp(c) = -g3/g2 on the expected segment."""


class NotBracketed(SynthesisError):
    """Root finding failed to bracket a solution on the solver's Q interval."""


class EllipseFitFailed(SynthesisError):
    """Conic fit through curvature maxima did not produce an ellipse."""
