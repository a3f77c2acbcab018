"""Exception hierarchy shared across the library."""


class GiryqError(Exception):
    """Base class for all errors raised by this library."""


class RationalFormatError(GiryqError):
    """A rational literal is not of the form ``n`` or ``n/d``."""


class NegativeWeightError(GiryqError):
    """A probability weight is negative."""


class MassNotOneError(GiryqError):
    """Weights of a probability distribution do not sum to exactly 1."""


class DuplicateAtomError(GiryqError):
    """Atoms of a finitely supported measure are not pairwise distinct."""


class SpaceMismatchError(GiryqError):
    """Two values that must live on the same finite space do not."""


class DimensionMismatchError(GiryqError):
    """Vector or matrix dimensions are inconsistent."""


class ValueOutOfRangeError(GiryqError):
    """A predicate value lies outside the unit interval."""


class NotDeterministicError(GiryqError):
    """A kernel with a fractional entry cannot be read back as a function."""


class ProbeSetIncompleteError(GiryqError):
    """A probe set does not cover every image point of the kernel."""


class ScenarioError(GiryqError):
    """Base class for scenario-file problems."""


class ScenarioParseError(ScenarioError):
    """The scenario document is malformed (bad JSON, missing or mistyped field)."""


class ScenarioValidationError(ScenarioError):
    """The scenario document parsed but violates a structural invariant."""


class ScenarioReferenceError(ScenarioError):
    """A name used in the scenario does not resolve to a declaration."""


class CertificateError(GiryqError):
    """A computed answer failed its exact certificate check."""
