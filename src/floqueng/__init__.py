"""Exact stroboscopic engineering of band Hamiltonians with a closed
two-generator-plus-z operator algebra: drive synthesis from a micro-motion
factorization, and independent verification by time-ordered propagation."""

from .algebra import (
    HamiltonianSpec,
    chiral_p_wave_2d,
    cross_stitch,
    kitaev_chain,
    su3_flat,
    uncoupled_chains,
)
from .errors import (
    FloquetError,
    HermiticityError,
    NonPeriodicGauge,
    RangeOverflow,
    ToleranceNotReached,
)
from .gauge import GaugeParams
from .propagate import (
    VerificationReport,
    integrate_tdse,
    verify_protocol,
)
from .spectra import band_structure, envelope_fourier
from .su3 import su3_drive_table
from .synth import (
    DrivingProtocol,
    crossstitch_protocol,
    general_protocol,
    static_harmonic_residual,
)

__version__ = "0.1.0"
