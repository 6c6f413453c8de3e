"""Operator basis, coefficient vectors, and Hermitian matrix assembly.

Operators are the spin-1/2 set S = sigma/2 with ladder combinations
S_pm = S_x +- i S_y.  A three-band model couples only its first two levels,
so it is stored and assembled as the same 2x2 block; its third level carries
the identity coefficient h0 alone and is appended as the flat band only where
a spectrum is formed (:func:`floqueng.spectra.band_structure`).  A
Hamiltonian is stored as four real coefficients (h0, hx, hy, hz) meaning
h0*I + hx*Sx + hy*Sy + hz*Sz, or equivalently in the ladder basis as
(h0, h_minus, h_plus, hz) meaning h0*I + h_minus*S+ + h_plus*S- + hz*Sz.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import HermiticityError

HERMITICITY_TOL = 1e-12

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

SX = SIGMA_X / 2
SY = SIGMA_Y / 2
SZ = SIGMA_Z / 2
S_PLUS = SX + 1j * SY
S_MINUS = SX - 1j * SY


@dataclass(frozen=True)
class CoeffsXYZ:
    """Real coefficients of (I, Sx, Sy, Sz)."""

    h0: float
    hx: float
    hy: float
    hz: float

    def __post_init__(self):
        for name in ("h0", "hx", "hy", "hz"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"coefficient {name} must be finite")


@dataclass(frozen=True)
class CoeffsPMZ:
    """Coefficients of (I, S+, S-, Sz); h_minus multiplies S+ and h_plus
    multiplies S-, mirroring the hermitian pairing h_plus = conj(h_minus)."""

    h0: float
    h_minus: complex
    h_plus: complex
    hz: float


def xyz_to_pmz(c: CoeffsXYZ) -> CoeffsPMZ:
    """Convert Cartesian coefficients to the ladder basis.

    The identity hx*Sx + hy*Sy = h_minus*S+ + h_plus*S- fixes
    h_plus = (hx + i hy)/2 and h_minus = (hx - i hy)/2.
    """
    return CoeffsPMZ(
        h0=c.h0,
        h_minus=(c.hx - 1j * c.hy) / 2,
        h_plus=(c.hx + 1j * c.hy) / 2,
        hz=c.hz,
    )


def pmz_to_xyz(c: CoeffsPMZ, tol: float = HERMITICITY_TOL) -> CoeffsXYZ:
    """Inverse of :func:`xyz_to_pmz`; requires a conjugate ladder pair."""
    scale = max(1.0, abs(c.h_plus), abs(c.h_minus))
    if abs(c.h_plus - np.conj(c.h_minus)) > tol * scale:
        raise HermiticityError(
            f"h_plus={c.h_plus} is not the conjugate of h_minus={c.h_minus}"
        )
    return CoeffsXYZ(
        h0=float(np.real(c.h0)),
        hx=2 * float(np.real(c.h_plus)),
        hy=2 * float(np.imag(c.h_plus)),
        hz=float(np.real(c.hz)),
    )


def assemble_matrix(c: CoeffsXYZ) -> np.ndarray:
    """Hermitian 2x2 matrix h0*I + hx*Sx + hy*Sy + hz*Sz."""
    return c.h0 * np.eye(2) + c.hx * SX + c.hy * SY + c.hz * SZ


def assemble_batch(h0, hx, hy, hz) -> np.ndarray:
    """Vectorized :func:`assemble_matrix`: coefficient arrays of a common
    broadcast shape yield a (..., 2, 2) stack."""
    h0, hx, hy, hz = np.broadcast_arrays(h0, hx, hy, hz)
    out = np.zeros(h0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = h0 + hz / 2
    out[..., 1, 1] = h0 - hz / 2
    out[..., 0, 1] = (hx - 1j * hy) / 2
    out[..., 1, 0] = (hx + 1j * hy) / 2
    return out


def check_hermitian(h: np.ndarray, tol: float = HERMITICITY_TOL) -> None:
    dev = np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))))
    if dev > tol * max(1.0, float(np.max(np.abs(h)))):
        raise HermiticityError(f"matrix deviates from Hermitian by {dev:.3e}")


def eig_bands(h: np.ndarray, tol: float = HERMITICITY_TOL) -> np.ndarray:
    """Ascending real eigenvalues of a Hermitian 2x2 matrix, by the closed
    form h0 -+ |h|/2 recovered from the coefficient decomposition."""
    if h.shape != (2, 2):
        raise ValueError(f"eig_bands takes one 2x2 matrix, got shape {h.shape}")
    check_hermitian(h, tol)
    h0 = float(np.real(h[0, 0] + h[1, 1])) / 2
    hx = 2 * float(np.real(h[0, 1]))
    hy = -2 * float(np.imag(h[0, 1]))
    hz = float(np.real(h[0, 0] - h[1, 1]))
    r = 0.5 * np.sqrt(hx * hx + hy * hy + hz * hz)
    return np.array([h0 - r, h0 + r])


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
        if not all(np.all(np.isfinite(a)) for a in out):
            raise ValueError(f"model {self.name!r} produced non-finite coefficients")
        return out

    def coeffs_at(self, k) -> CoeffsXYZ:
        h0, hx, hy, hz = self.coeffs(k)
        return CoeffsXYZ(float(h0), float(hx), float(hy), float(hz))

    def matrix(self, k) -> np.ndarray:
        return assemble_matrix(self.coeffs_at(k))

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
    """Wrap a user-supplied k -> CoeffsXYZ (or 4-tuple) map."""

    def fn(k):
        out = coeff_fn(k)
        if isinstance(out, CoeffsXYZ):
            return out.h0, out.hx, out.hy, out.hz
        return out

    return HamiltonianSpec(name, band_count, dimension, fn)
