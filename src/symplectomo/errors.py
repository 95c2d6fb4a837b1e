"""Exception hierarchy for the tomography toolkit."""


class TomographyError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameter(TomographyError):
    """A physical or numerical parameter is outside its admissible range."""


class UnsupportedVariant(TomographyError):
    """The requested operation is not defined for this state variant."""


class TruncationTooSmall(TomographyError):
    """The Fock-space truncation loses more probability than tolerated."""


class DegenerateSetting(TomographyError):
    """Quadrature setting with vanishing (mu, nu) direction."""


class GridTooNarrow(TomographyError):
    """A tabulation grid misses too much of the distribution's support."""


class CutoffTooSmall(TomographyError):
    """The radial integration cutoff truncates a non-negligible tail."""


class GridUnderresolved(TomographyError):
    """A reconstruction grid is too coarse for the requested accuracy."""


class DegenerateConfig(TomographyError):
    """Inconsistent or insufficient reconstruction configuration."""


class EmptyBatches(TomographyError):
    """No measurement samples were supplied."""


class EmptySchedule(TomographyError):
    """A measurement campaign needs at least one setting."""


class PhaseLockRequired(TomographyError):
    """The squeezer-to-quadrature map assumes the local oscillator is phase locked."""


class DimMismatch(TomographyError):
    """Two density matrices must share the same truncation dimension."""


class NotSymplectic(TomographyError):
    """A two-mode setting does not define a pair of commuting quadratures."""
