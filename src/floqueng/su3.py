"""Three-band drive engineering as an embedding of the two-band path.

The couplings of the three-band target act on the first two levels only and
close the spin-1/2 commutator table, so synthesis and propagation run on that
2x2 block unchanged.  The third level carries nothing but the identity
channel, which synthesis requires to be zero: it never couples, its
evolution is exactly 1, and it hosts the flat band of the engineered
spectrum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra
from .algebra import HamiltonianSpec
from .propagate import VerificationReport, verify_protocol
from .synth import su3_protocol


@dataclass(frozen=True)
class EtaProfile:
    """Momentum profile of the three-band target coefficients.

    ``fn(k) -> (eta_x, eta_y, eta_z)``; ``eta0`` shifts all bands rigidly and
    must be zero for drive synthesis (no static Hamiltonian is available).
    """

    fn: Callable
    eta0: float = 0.0

    def spec(self) -> HamiltonianSpec:
        return algebra.su3_flat(eta_fn=self.fn, eta0=self.eta0)


def flat_band_profile(delta: float = 2.0) -> EtaProfile:
    """The worked three-band case: eta_x = -eta_y = 2 cos k + delta, eta_z = 0."""

    def fn(k):
        base = 2 * np.cos(k) + delta
        return base, -base, np.zeros_like(k)

    return EtaProfile(fn=fn)


def verify_su3(eta: EtaProfile, omega, a_plus, p, k_grid,
               tol: float = 1e-9, periods: int = 1) -> VerificationReport:
    """Propagate the three-band drive and compare against the target.

    Only the coupled block is propagated and compared: the third level's
    evolution and target entries are both exactly 1, so it adds zero error.
    """
    if eta.eta0 != 0.0:
        raise ValueError("three-band verification requires eta0 = 0")
    proto = su3_protocol(eta.spec(), omega=omega, a_plus=a_plus, p=p)
    return verify_protocol(proto, k_grid, periods=periods, tol=tol)


def su3_drive_table(eta: EtaProfile, omega, a_plus, p, k_grid, t_grid):
    """Field table over a (k, t) mesh from the general synthesis path.

    Returns a dict of arrays shaped (n_k, n_t) with keys k, t, fx, fy, fz.
    """
    proto = su3_protocol(eta.spec(), omega=omega, a_plus=a_plus, p=p)
    k = np.asarray(k_grid, dtype=float)[:, None]
    t = np.asarray(t_grid, dtype=float)[None, :]
    _, fx, fy, fz = proto.drive_table(k_grid, t_grid)
    return {
        "k": np.broadcast_to(k, fx.shape),
        "t": np.broadcast_to(t, fx.shape),
        "fx": fx, "fy": fy, "fz": fz,
    }
