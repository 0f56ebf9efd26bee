"""Exception hierarchy.

Two families matter downstream: :class:`ValidationError` means the input was
malformed or outside an operation's domain (CLI exit code 2), while
:class:`ObstructionError` means the computation ran fine and detected a
genuine mathematical obstruction (CLI exit code 3).  Scripts sweeping across
phase boundaries must be able to tell these apart.
"""


class AcbottError(Exception):
    """Base class for all library errors."""


class ValidationError(AcbottError):
    """Bad input: wrong shape, wrong symmetry, out-of-domain data."""


class ObstructionError(AcbottError):
    """A well-posed computation hit a mathematical obstruction."""


# -- validation family --------------------------------------------------

class ShapeMismatch(ValidationError):
    pass


class OddDimension(ValidationError):
    pass


class BadDimension(ValidationError):
    pass


class NonHermitian(ValidationError):
    pass


class NotUnitary(ValidationError):
    pass


class NearSingular(ValidationError):
    pass


class NoConvergence(ValidationError):
    pass


class NotRealSkew(ValidationError):
    pass


class NotSkew(NotRealSkew):
    pass


class NotReal(NotRealSkew):
    pass


class TooLarge(ValidationError):
    pass


class ResidualTooLarge(ValidationError):
    pass


class NotSelfDual(ValidationError):
    pass


class WrongSymmetry(ValidationError):
    pass


class NormConditionFailed(ValidationError):
    pass


class NotProjection(ValidationError):
    pass


class CommutatorTooLarge(ValidationError):
    pass


class NotExactRepresentation(ResidualTooLarge):
    """Position matrices fail the exact torus relations."""


class NotOrthonormal(ValidationError):
    pass


class NormTooLarge(ValidationError):
    pass


class NotCommuting(ValidationError):
    pass


class HypothesisFailed(ValidationError):
    pass


class RankDeficient(ValidationError):
    pass


class NoGap(ValidationError):
    pass


class PairingFailure(ValidationError):
    """No structured (time-reversal paired) basis exists for this input."""


# -- obstruction family --------------------------------------------------

class GapTooSmall(ObstructionError):
    """Spectral gap below tolerance: the index is undefined here."""


class NontrivialClass(ObstructionError):
    """The structured homotopy class is nontrivial: no witness exists."""
