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

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

SX = SIGMA_X / 2
SY = SIGMA_Y / 2
SZ = SIGMA_Z / 2
S_PLUS = SX + 1j * SY
S_MINUS = SX - 1j * SY


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
    at energy h0.
    """

    name: str
    band_count: int
    dimension: int
    coeff_fn: Callable

    def coeffs(self, k):
        h0, hx, hy, hz = self.coeff_fn(np.asarray(k, dtype=float))
        out = np.broadcast_arrays(h0, hx, hy, hz)
        if any(np.iscomplexobj(a) for a in out):
            raise HermiticityError(f"model {self.name!r} produced complex coefficients")
        if not all(np.all(np.isfinite(a)) for a in out):
            raise ValueError(f"model {self.name!r} produced non-finite coefficients")
        return out

    def matrices(self, k) -> np.ndarray:
        return assemble_batch(*self.coeffs(k))


def cross_stitch(alpha: float = 1.0, delta: float = 2.0) -> HamiltonianSpec:
    """Two-band chain with one flat band at energy ``delta`` and one
    dispersive band -4*alpha*cos(k) - delta."""

    def fn(k):
        h0 = -2 * alpha * np.cos(k)
        hx = -2 * (2 * alpha * np.cos(k) + delta)
        return h0, hx, np.zeros_like(k), np.zeros_like(k)

    return HamiltonianSpec("crossstitch", 2, 1, fn)


def uncoupled_chains(alpha: float = 1.0) -> HamiltonianSpec:
    """Two identical 1D chains with nearest-neighbor hopping and no
    inter-chain coupling; purely an identity-coefficient Hamiltonian."""

    def fn(k):
        h0 = -2 * alpha * np.cos(k)
        z = np.zeros_like(k)
        return h0, z, z, z

    return HamiltonianSpec("uncoupledchains", 2, 1, fn)


def kitaev_chain(mu: float = 1.0, hopping: float = 1.0, pairing: float = 1.0) -> HamiltonianSpec:
    """1D spinless p-wave chain in the particle-hole pseudo-spin basis:
    (mu - hopping*cos k) tau_z - (pairing*sin k) tau_y."""

    def fn(k):
        hz = 2 * (mu - hopping * np.cos(k))
        hy = -2 * pairing * np.sin(k)
        z = np.zeros_like(k)
        return z, z, hy, hz

    return HamiltonianSpec("kitaev", 2, 1, fn)


def chiral_p_wave_2d(mu: float = 1.0, pairing: float = 0.5) -> HamiltonianSpec:
    """2D chiral p-wave pseudo-spin Hamiltonian
    (2 - mu - cos kx - cos ky) tau_z - 2*pairing*(sin kx tau_y + sin ky tau_x)."""

    def fn(k):
        kx, ky = k[..., 0], k[..., 1]
        hz = 2 * (2 - mu - np.cos(kx) - np.cos(ky))
        hy = -4 * pairing * np.sin(kx)
        hx = -4 * pairing * np.sin(ky)
        return np.zeros_like(kx), hx, hy, hz

    return HamiltonianSpec("pwave2d", 2, 2, fn)


def su3_flat(eta_fn: Callable | None = None, delta: float = 2.0,
             eta0: float = 0.0) -> HamiltonianSpec:
    """Three-band model whose couplings live on the first two levels.

    ``eta_fn(k) -> (eta_x, eta_y, eta_z)`` defaults to the flat-band profile
    eta_x = -eta_y = 2 cos(k) + delta, eta_z = 0, whose spectrum is
    {eta0 - |eta|/2, eta0, eta0 + |eta|/2} with a flat middle band.
    """

    def default_eta(k):
        base = 2 * np.cos(k) + delta
        return base, -base, np.zeros_like(k)

    eta = eta_fn if eta_fn is not None else default_eta

    def fn(k):
        ex, ey, ez = eta(k)
        return np.full_like(k, eta0), np.asarray(ex, dtype=float), \
            np.asarray(ey, dtype=float), np.asarray(ez, dtype=float)

    return HamiltonianSpec("su3flat", 3, 1, fn)


def custom(coeff_fn: Callable, band_count: int = 2, dimension: int = 1,
           name: str = "custom") -> HamiltonianSpec:
    """Wrap a user-supplied k -> (h0, hx, hy, hz) map."""
    return HamiltonianSpec(name, band_count, dimension, coeff_fn)
