"""Exception hierarchy shared by every module.

All library errors derive from :class:`KecError` so callers (and the CLI)
can distinguish data/usage problems from genuine bugs.
"""

from numbers import Integral


class KecError(Exception):
    """Base class for all errors raised by this package."""


class InvalidParams(KecError):
    """Arguments violate a documented precondition."""


def check_count(name: str, value, least: int) -> int:
    """``value`` as an int: a non-bool integer >= ``least``, else InvalidParams."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise InvalidParams(f"{name} must be an integer, got {value!r}")
    if value < least:
        bound = "non-negative" if least == 0 else f"at least {least}"
        raise InvalidParams(f"{name} must be {bound}, got {value}")
    return int(value)


class DimensionMismatch(KecError):
    """Vector or matrix shapes do not conform."""


class ShapeMismatch(KecError):
    """Two matrices that must share a shape do not."""


class DegenerateLength(KecError):
    """Rank-based kernel needs at least two coordinates."""


class UnknownKernel(KecError):
    """Kernel name not found among the registered kernels."""


class EmptyTrainingSet(KecError):
    """Every label is 0; nothing to train on."""


class MissingClass(KecError):
    """Some class in 1..K has no training sample."""


class NonFiniteFeature(KecError):
    """Feature matrix contains NaN or infinity."""


class NumericOverflow(KecError):
    """A value computed from finite inputs is beyond float64's range."""


class SingularCovariance(KecError):
    """Pooled covariance is not positive-definite even after the ridge."""


class ClassAbsent(KecError):
    """A class required by the discriminant fit has no rows."""


class NotFitted(KecError):
    """Model object is incomplete; fit (or load) it first."""


class NoBaselineKernel(KecError):
    """The kernel candidate set must contain the inner product."""


class UnsupportedSetting(KecError):
    """Requested analytic quantity is unavailable for this setting."""


class TooFewSamples(KecError):
    """Not enough samples for the requested fold count."""


class InsufficientGrid(KecError):
    """Benchmark grid is too small, too narrow, or not ascending."""
