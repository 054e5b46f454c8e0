"""Exception types raised by the simulator."""


class ScalarFedError(Exception):
    """Base class for all library errors."""


class InvalidDimensionError(ScalarFedError):
    """A vector dimension or arity was zero/negative or mismatched."""


class SeedCollisionError(ScalarFedError):
    """The seed schedule is not injective over the declared run grid."""


class CurvatureError(ScalarFedError):
    """A diagonal curvature estimate violated its positivity/bounds contract."""


class EstimatorFailureError(ScalarFedError):
    """A loss evaluation produced a non-finite value inside the gradient estimator.

    Carries enough context (which evaluation, and the (round, step, perturbation)
    coordinates and client id inside a federated run) to locate the failure.
    """

    def __init__(self, message, which=None, coords=None, client=None):
        super().__init__(message)
        self.which = which      # "base" or "perturbed"
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
