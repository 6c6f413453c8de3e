"""The field table of a three-band drive.

A three-band target's couplings act on its first two levels only, so its
drive is :func:`floqueng.synth.general_protocol`'s from the zero static
Hamiltonian, and the table is that drive's without the identity channel f0,
which a three-band target requires to be zero.
"""

from __future__ import annotations

# unused here, but perfbench/layers.py traces verify_protocol on this module
# too and its smoke test requires every site to exist; it goes with the module
from .propagate import verify_protocol  # noqa: F401
from .synth import DrivingProtocol


def su3_drive_table(protocol: DrivingProtocol, k_grid, t_grid):
    """Fields (fx, fy, fz) as one (3, n_k, n_t) array, of ``protocol``'s
    drive over a (k, t) mesh: its :meth:`DrivingProtocol.drive_table`
    without f0, which a three-band target requires to be zero."""
    return protocol.drive_table(k_grid, t_grid)[1:]
