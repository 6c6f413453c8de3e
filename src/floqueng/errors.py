"""Exception types shared across the package."""


class FloquetError(Exception):
    """Base class for all package-specific errors."""


class HermiticityError(FloquetError):
    """An operator or coefficient set that must be Hermitian is not."""


class NonPeriodicGauge(FloquetError):
    """A gauge whose z-channel winding p is not an integer, so the
    micro-motion does not return to a phase times the identity at t = nT."""


class ToleranceNotReached(FloquetError):
    """Step doubling exhausted or cannot resolve within the step budget, or
    stalled above the tolerance after converging, or a round was not finite."""


class RangeOverflow(FloquetError):
    """A real-space expansion, or its round trip, misses the general path:
    the drive has weight beyond the supported hopping range."""
