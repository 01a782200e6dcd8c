"""Exception and warning types shared across the package."""


class WeaklabError(Exception):
    """Base class for all errors raised by weaklab."""


class DimensionMismatch(WeaklabError):
    """Operands live on Hilbert spaces of different dimensions."""


class NotHermitian(WeaklabError):
    """A matrix that must be Hermitian is not, within tolerance."""


class NotCommuting(WeaklabError):
    """Two observables that must commute do not, within tolerance."""


class OrthogonalPostselection(WeaklabError):
    """Post-selection probability fell below the configured floor."""


class ZeroCoupling(WeaklabError):
    """Extraction requested with a vanishing coupling constant, or one
    so weak that the moments it divides leave the normal float range."""


class InvalidTruncation(WeaklabError):
    """Fock-space truncation level too small to represent the pointer."""


class ZeroState(WeaklabError):
    """A state vector with (numerically) zero norm cannot be normalized."""


class ParseError(WeaklabError):
    """A scenario document is malformed or violates the schema."""


class NumericalInconsistency(WeaklabError):
    """An internally computed quantity violates an exact structural
    property (e.g. a conditional moment of a Hermitian observable came
    out with a non-negligible imaginary part). Indicates a bug, not a
    user error."""


class TruncationWarning(UserWarning):
    """Evolved pointer state has non-negligible population in the top
    Fock levels; truncated results may be inaccurate."""
