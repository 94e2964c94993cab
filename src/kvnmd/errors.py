"""Exception and warning types shared across the package."""


class KvnError(Exception):
    """Base class for all package errors."""


class ConfigurationError(KvnError):
    """Invalid user-supplied configuration (bad ranges, unknown keys, ...)."""


class ResolutionError(KvnError):
    """A requested feature is too narrow for the current grid."""


class DomainError(KvnError):
    """Evaluation outside the tabulated/parameterized coordinate range."""


class SingularityError(KvnError):
    """Degenerate point where a derived quantity is undefined."""


class TableFormatError(KvnError):
    """A data table failed structural validation."""


class FilterCollapseError(KvnError):
    """The momentum filter removed essentially all amplitude."""


class NonFiniteAmplitudeError(KvnError):
    """A state norm or a filter yield came out NaN or infinite."""


class MemoryBudgetError(KvnError):
    """Operator tables and working state would not fit in available memory."""


class ConvergenceError(KvnError):
    """An iterative procedure failed to reach its stopping criterion."""


class BoundaryLeakWarning(UserWarning):
    """Noticeable density loss at the momentum-grid edge."""


class FilterBandWarning(UserWarning):
    """The cosine filter is non-damping over part of the momentum band."""


class SamplerWarning(UserWarning):
    """A stochastic sampler is operating outside its comfortable regime."""
