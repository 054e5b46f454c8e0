"""Exception types raised by the simulator, and the checks every config runs."""

import math
import numbers


class ScalarFedError(Exception):
    """Base class for all library errors."""


class InvalidDimensionError(ScalarFedError):
    """A vector dimension or arity was zero/negative or mismatched."""


class SeedCollisionError(ScalarFedError):
    """The seed schedule is not injective over the declared run grid."""


class CurvatureError(ScalarFedError):
    """A diagonal curvature estimate violated its positivity/bounds contract."""


class EstimatorFailureError(ScalarFedError):
    """A loss evaluation produced a non-finite value: inside the gradient
    estimator, or the global loss of a round's new model; or a round's
    curvature EMA overflowed.

    Carries enough context (which evaluation, and the (round, step, perturbation)
    coordinates and client id inside a federated run) to locate the failure.
    """

    def __init__(self, message, which=None, coords=None, client=None):
        super().__init__(message)
        self.which = which      # "base", "perturbed", "global" or "curvature"
        self.coords = coords    # (round, step, perturbation) or None
        self.client = client    # client id or None


class ProtocolOrderError(ScalarFedError):
    """A round log arrived out of order or left a gap in the ledger."""


class LedgerRangeError(ScalarFedError):
    """A history fetch asked for rounds beyond the ledger's current round."""


class LedgerFormatError(ScalarFedError):
    """A serialized ledger stream is malformed. Carries the byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ConfigError(ScalarFedError):
    """A run specification failed validation. Carries the offending field."""

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


# bool is an Integral (and a Real), but True must not mean one round
_ADMITS = {int: (numbers.Integral, "an integer"), float: (numbers.Real, "a finite real number"),
           bool: (bool, "true or false"), str: (str, "a string")}


def check_type(name: str, value, annotation, field: str = None):
    """ConfigError naming `field` (default: `name`) unless `value` fits its
    annotation: int admits any Integral and float any finite Real (so numpy
    numbers pass, NaN and infinities do not), neither a bool; another class
    admits its instances."""
    kind, requirement = _ADMITS.get(annotation) or (annotation, f"a {annotation.__name__}")
    if (not isinstance(value, kind) or (kind is not bool and isinstance(value, bool))
            or (annotation is float and not -math.inf < value < math.inf)):
        raise ConfigError(f"{name} must be {requirement}, got {value!r}", field=field or name)


def check_range(name: str, value, holds: bool, requirement: str, field: str = None):
    """ConfigError naming `field` (default: `name`) unless `holds`."""
    if not holds:
        raise ConfigError(f"{name} must be {requirement}, got {value!r}", field=field or name)
