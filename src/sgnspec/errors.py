"""Exception hierarchy shared across the package."""


class SgnSpecError(Exception):
    """Base class for all package errors."""


class SpectrumError(SgnSpecError):
    """Spectral parameter lies on (or too close to) the essential spectrum."""


class DomainError(SgnSpecError):
    """Argument outside the validity region of a formula."""


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
