"""Operator basis, coefficient arrays, and Hermitian matrix assembly.

Operators are the spin-1/2 set S = sigma/2 with ladder combinations
S_pm = S_x +- i S_y.  A three-band model couples only its first two levels,
so it is stored and assembled as the same 2x2 block; its third level carries
the identity coefficient h0 alone and is appended as the flat band only where
a spectrum is formed (:func:`floqueng.spectra.band_structure`).  A
Hamiltonian is stored as four real coefficient arrays (h0, hx, hy, hz)
meaning h0*I + hx*Sx + hy*Sy + hz*Sz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HermiticityError

SX = np.array([[0, 0.5], [0.5, 0]], dtype=complex)
SY = np.array([[0, -0.5j], [0.5j, 0]], dtype=complex)
SZ = np.array([[0.5, 0], [0, -0.5]], dtype=complex)


def assemble_batch(h0, hx, hy, hz) -> np.ndarray:
    """Hermitian h0*I + hx*Sx + hy*Sy + hz*Sz: coefficient arrays of a
    common broadcast shape yield a (..., 2, 2) stack."""
    h0, hx, hy, hz = np.broadcast_arrays(h0, hx, hy, hz)
    out = np.zeros(h0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = h0 + hz / 2
    out[..., 1, 1] = h0 - hz / 2
    out[..., 0, 1] = (hx - 1j * hy) / 2
    out[..., 1, 0] = (hx + 1j * hy) / 2
    return out


# ---------------------------------------------------------------------------
# Momentum-space model library
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HamiltonianSpec:
    """A momentum-resolved coefficient table for a band Hamiltonian.

    ``coeff_fn`` maps momentum (scalar/array, or trailing-axis pair in 2D)
    to the four arrays (h0, hx, hy, hz).  Assembly always yields the 2x2
    block; ``band_count`` = 3 marks a model whose decoupled third level sits
    at energy h0.  ValueError is raised for a band count other than 2 or 3,
    a dimension other than 1 or 2, or 2D momenta not of shape (..., 2).
    """

    name: str
    coeff_fn: Callable
    band_count: int = 2
    dimension: int = 1

    def __post_init__(self):
        if self.band_count not in (2, 3) or self.dimension not in (1, 2):
            raise ValueError(f"model {self.name!r} needs 2 or 3 bands in 1 or 2 dimensions, "
                             f"got {self.band_count} bands in {self.dimension}D")

    def _momenta(self, k) -> np.ndarray:
        if np.iscomplexobj(k := np.asarray(k)):  # a float cast keeps the real parts only
            raise ValueError(f"model {self.name!r} takes real momenta, got {k.dtype}")
        k = np.asarray(k, dtype=float)
        if self.dimension == 2 and k.shape[-1:] != (2,):
            raise ValueError(f"2D model {self.name!r} takes momenta of shape (..., 2), got {k.shape}")
        return k

    def coeffs(self, k):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # checked below
            h0, hx, hy, hz = self.coeff_fn(self._momenta(k))
        out = np.broadcast_arrays(h0, hx, hy, hz)
        if any(np.iscomplexobj(a) for a in out):
            raise HermiticityError(f"model {self.name!r} produced complex coefficients")
        if not all(np.all(np.isfinite(a)) for a in out):
            raise ValueError(f"model {self.name!r} produced non-finite coefficients")
        return out

    def k_labels(self, k) -> np.ndarray:
        """One label per momentum of the array ``k``: k, or kx on a 2D grid."""
        return self._momenta(k)[..., 0] if self.dimension == 2 else self._momenta(k)

    def ladder_angle(self, k) -> np.ndarray:
        """Phase angle of the ladder-channel momentum profile e^{ik} at the
        array ``k``: k, or kx + ky on a 2D grid."""
        return self._momenta(k).sum(axis=-1) if self.dimension == 2 else self._momenta(k)


def cross_stitch(alpha: float = 1.0, delta: float = 2.0) -> HamiltonianSpec:
    """Two-band chain with one flat band at energy ``delta`` and one
    dispersive band -4*alpha*cos(k) - delta."""

    def fn(k):
        h0 = -2 * alpha * np.cos(k)
        hx = -2 * (2 * alpha * np.cos(k) + delta)
        return h0, hx, np.zeros_like(k), np.zeros_like(k)

    return HamiltonianSpec("crossstitch", fn)


def uncoupled_chains(alpha: float = 1.0) -> HamiltonianSpec:
    """Two identical 1D chains with nearest-neighbor hopping and no
    inter-chain coupling; purely an identity-coefficient Hamiltonian."""

    def fn(k):
        h0 = -2 * alpha * np.cos(k)
        z = np.zeros_like(k)
        return h0, z, z, z

    return HamiltonianSpec("uncoupledchains", fn)


def kitaev_chain(mu: float = 1.0, hopping: float = 1.0, pairing: float = 1.0) -> HamiltonianSpec:
    """1D spinless p-wave chain in the particle-hole pseudo-spin basis:
    (mu - hopping*cos k) tau_z - (pairing*sin k) tau_y."""

    def fn(k):
        hz = 2 * (mu - hopping * np.cos(k))
        hy = -2 * pairing * np.sin(k)
        z = np.zeros_like(k)
        return z, z, hy, hz

    return HamiltonianSpec("kitaev", fn)


def chiral_p_wave_2d(mu: float = 1.0, pairing: float = 0.5) -> HamiltonianSpec:
    """2D chiral p-wave pseudo-spin Hamiltonian
    (2 - mu - cos kx - cos ky) tau_z - 2*pairing*(sin kx tau_y + sin ky tau_x)."""

    def fn(k):
        kx, ky = k[..., 0], k[..., 1]
        hz = 2 * (2 - mu - np.cos(kx) - np.cos(ky))
        hy = -4 * pairing * np.sin(kx)
        hx = -4 * pairing * np.sin(ky)
        return np.zeros_like(kx), hx, hy, hz

    return HamiltonianSpec("pwave2d", fn, dimension=2)


def su3_flat(delta: float = 2.0) -> HamiltonianSpec:
    """Three-band model whose couplings live on the first two levels: the
    flat-band profile eta_x = -eta_y = 2 cos(k) + delta, eta_z = 0 with a
    zero identity channel, whose spectrum is {-|eta|/2, 0, |eta|/2} with a
    flat middle band.
    """

    def fn(k):
        base = 2 * np.cos(k) + delta
        return np.zeros_like(k), base, -base, np.zeros_like(k)

    return HamiltonianSpec("su3flat", fn, band_count=3)


#: Static Hamiltonian with no channel at all; its scalar coefficients
#: broadcast against any momentum grid, 1D or 2D.
ZERO = HamiltonianSpec("zero", lambda k: (0.0, 0.0, 0.0, 0.0))

