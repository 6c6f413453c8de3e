"""Exact stroboscopic engineering of band Hamiltonians with a closed
two-generator-plus-z operator algebra: drive synthesis from a micro-motion
factorization, and independent verification by time-ordered propagation."""

# the names the README uses; every other name is imported from its module
from .algebra import HamiltonianSpec, chiral_p_wave_2d, kitaev_chain, su3_flat
from .gauge import GaugeParams
from .propagate import verify_protocol
from .synth import crossstitch_protocol, general_protocol

__version__ = "0.1.0"
