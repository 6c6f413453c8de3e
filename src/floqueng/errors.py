"""Exception types shared across the package."""


class FloquetError(Exception):
    """Base class for all package-specific errors."""


class HermiticityError(FloquetError):
    """An operator or coefficient set that must be Hermitian is not."""


class NonPeriodicGauge(FloquetError):
    """Micro-motion gauge functions fail the boundary conditions at t = nT."""


class NonHermitianInput(FloquetError):
    """A Hamiltonian handed to the propagator is not Hermitian."""


class ToleranceNotReached(FloquetError):
    """Step doubling exhausted the step budget, or a round was not finite."""


class NonUnitaryInput(FloquetError):
    """A matrix that must be unitary is not, within tolerance."""


class RangeOverflow(FloquetError):
    """A real-space expansion produced hopping beyond the supported range."""
