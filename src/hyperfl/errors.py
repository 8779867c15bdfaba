"""Exception taxonomy shared by all hyperfl modules.

Every failure mode that callers are expected to handle gets its own class,
and each class declares the exit code the CLI returns for it: 1 for a bad
configuration or request, 2 for a numeric failure, 3 for a file, format or
privacy-boundary problem.
"""


class HyperflError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class DimensionError(HyperflError, ValueError):
    """Tensor shapes are inconsistent with the layout that owns them."""


class NumericError(HyperflError, ArithmeticError):
    """A non-finite value appeared where finite arithmetic is required."""

    exit_code = 2


class CapabilityError(HyperflError, RuntimeError):
    """An operation was asked to do something outside its contract."""


class FormatError(HyperflError, ValueError):
    """A file or byte stream does not follow its documented layout."""

    exit_code = 3


class ConsistencyError(HyperflError, ValueError):
    """Two inputs that must agree (e.g. image/label counts) do not."""

    exit_code = 3


class CapacityError(HyperflError, ValueError):
    """A sampling request exceeds the available inventory."""


class ConfigError(HyperflError, ValueError):
    """An experiment configuration is invalid."""


class PrivacyError(HyperflError, RuntimeError):
    """A message payload violates the algorithm's privacy boundary."""

    exit_code = 3
