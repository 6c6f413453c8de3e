"""Three-band drive engineering as an embedding of the two-band path.

The couplings of the three-band target act on the first two levels only and
close the spin-1/2 commutator table, so the three-band protocol is
:func:`floqueng.synth.general_protocol` from the zero static Hamiltonian,
and synthesis and propagation run on that 2x2 block unchanged.  The third
level carries nothing but the identity channel, which synthesis requires to
be zero: it never couples, its evolution is exactly 1, and it hosts the flat
band of the engineered spectrum.
"""

from __future__ import annotations

from .algebra import ZERO, HamiltonianSpec
from .gauge import GaugeParams
from .propagate import DEFAULT_TOL, VerificationReport, verify_protocol
from .synth import DrivingProtocol, general_protocol


def verify_su3(spec: HamiltonianSpec, gauge: GaugeParams, k_grid,
               tol: float = DEFAULT_TOL) -> VerificationReport:
    """Propagate the three-band drive over one period against the target.

    ``spec`` is a three-band target such as :func:`floqueng.algebra.su3_flat`
    with a zero identity channel, which the drive checks at every momentum
    it is evaluated on.  Only the coupled block is propagated and compared:
    the third level's evolution and target entries are both exactly 1, so it
    adds zero error.
    """
    return verify_protocol(general_protocol(ZERO, spec, gauge), k_grid, tol=tol)


def su3_drive_table(protocol: DrivingProtocol, k_grid, t_grid):
    """Fields (fx, fy, fz) as one (3, n_k, n_t) array, of ``protocol``'s
    drive over a (k, t) mesh: its :meth:`DrivingProtocol.drive_table`
    without f0, which a three-band target requires to be zero."""
    return protocol.drive_table(k_grid, t_grid)[1:]
