"""Exception hierarchy shared across the package.

A point on the essential spectrum lies outside the domain of every
formula, so SpectrumError is a DomainError: one except clause catches a
non-finite argument and a spectral one alike.  closed._off_spectrum is
the one gate that raises either for a spectral parameter; a real
setting that is not finite, not positive or not a count raises
ConfigError from closed's setting gate; a public numeric result that
leaves the float range raises DomainError from closed's result gate,
closed._result, so no inf or NaN comes back as a value.
"""


class SgnSpecError(Exception):
    """Base class for all package errors."""


class DomainError(SgnSpecError):
    """Argument outside the validity region of a formula."""


class SpectrumError(DomainError):
    """Spectral parameter lies on (or too close to) the essential spectrum."""


class ConfigError(SgnSpecError):
    """Invalid discretization or run configuration."""


class SingularError(SgnSpecError):
    """Matrix numerically singular; requested inverse quantity undefined."""


class ConvergenceError(SgnSpecError):
    """An iterative solver failed to converge."""


class EigenvalueLost(SgnSpecError):
    """No eigenvalue located in the search box during a coupling sweep."""


class ZeroCouplingError(SgnSpecError):
    """The point-interaction coupling must be non-zero."""
