"""Exact stroboscopic engineering of band Hamiltonians with a closed
two-generator-plus-z operator algebra: drive synthesis from a micro-motion
factorization, and independent verification by time-ordered propagation."""

from .algebra import (
    HamiltonianSpec,
    chiral_p_wave_2d,
    cross_stitch,
    custom,
    eig_bands,
    kitaev_chain,
    su3_flat,
    uncoupled_chains,
)
from .errors import (
    FloquetError,
    HermiticityError,
    HorizonMismatch,
    NonHermitianInput,
    NonPeriodicGauge,
    NonUnitaryInput,
    RangeOverflow,
    ToleranceNotReached,
)
from .gauge import (
    GaugeParams,
    boundary_report,
    complete_wei_norman,
    micromotion_matrix,
    mu_functions,
)
from .lattice import (
    LatticeTerm,
    assemble_lattice_hamiltonian,
    expand_to_lattice,
    lattice_vs_momentum_check,
)
from .propagate import (
    PropagatorTrace,
    VerificationReport,
    cf4_fixed,
    extract_micromotion,
    floquet_operator,
    integrate_tdse,
    verify_protocol,
)
from .spectra import (
    BandTable,
    FourierTable,
    band_structure,
    envelope_fourier,
    quasienergies,
)
from .su3 import su3_drive_table, verify_su3
from .synth import (
    DrivingProtocol,
    crossstitch_protocol,
    general_protocol,
    static_harmonic_residual,
    su3_protocol,
    transform_m1,
    transform_m2,
)

__version__ = "0.1.0"
