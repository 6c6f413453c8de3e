"""Band diagrams, quasienergy folding, and Fourier analysis of the shared
drive envelope 1/(1 + a_plus^2 sin^2 wt)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import HamiltonianSpec
from .errors import NonUnitaryInput

ENVELOPE_QUAD_SAMPLES = 8192


@dataclass(frozen=True)
class BandTable:
    """Energies per momentum, ascending along the band axis."""

    k_grid: np.ndarray
    energies: np.ndarray  # (n_k, n_bands)


@dataclass(frozen=True)
class FourierTable:
    """Cosine-series coefficients c_n of an even periodic function:
    f(theta) = c_0 + sum_n c_n cos(n theta)."""

    indices: np.ndarray
    coefficients: np.ndarray


def band_structure(spec: HamiltonianSpec, k_grid) -> BandTable:
    """Eigenvalues h0 -+ |h|/2 of the coefficient table on a momentum grid.

    A three-band model adds its decoupled third level, the flat band at the
    identity coefficient h0, to the two eigenvalues of the coupled block.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    h0, hx, hy, hz = spec.coeffs(k_grid)
    r = 0.5 * np.sqrt(hx * hx + hy * hy + hz * hz)
    energies = np.stack([h0 - r, h0 + r], axis=-1)
    if spec.band_count == 3:
        energies = np.sort(np.column_stack([energies, h0]), axis=1)
    return BandTable(k_grid=k_grid, energies=energies)


def envelope_values(a_plus_squared: float, theta) -> np.ndarray:
    """The drive envelope as a function of the dimensionless phase wt."""
    theta = np.asarray(theta, dtype=float)
    return 1.0 / (1.0 + a_plus_squared * np.sin(theta) ** 2)


def envelope_fourier(a_plus_squared: float, n_max: int,
                     samples: int = ENVELOPE_QUAD_SAMPLES) -> FourierTable:
    """Cosine coefficients of the envelope over one period of wt.

    The function is even and pi-periodic, so every odd coefficient vanishes
    and the sine series is identically zero; sine leakage above 1e-13 would
    indicate a quadrature bug and raises.  Trapezoid quadrature on a uniform
    grid converges spectrally for this smooth periodic integrand.
    """
    if a_plus_squared < 0:
        raise ValueError("a_plus_squared must be non-negative")
    theta = np.linspace(0.0, 2 * np.pi, samples + 1)
    fe = envelope_values(a_plus_squared, theta)
    n = np.arange(n_max + 1)
    cos_basis = np.cos(np.outer(n, theta))
    sin_basis = np.sin(np.outer(n, theta))
    coeff = np.trapezoid(fe * cos_basis, theta, axis=1) / np.pi
    coeff[0] /= 2.0
    sine_leak = np.max(np.abs(np.trapezoid(fe * sin_basis, theta, axis=1) / np.pi))
    if sine_leak > 1e-13:
        raise ValueError(f"sine leakage {sine_leak:.2e} in an even integrand")
    return FourierTable(indices=n, coefficients=coeff)


def quasienergies(u_t: np.ndarray, omega: float,
                  strobe_phase: complex = 1.0 + 0j,
                  unitarity_tol: float = 1e-10) -> np.ndarray:
    """Quasienergies of a one-period evolution, folded into (-w/2, w/2].

    Eigenphases theta of U(T)/strobe_phase map to energies -theta/T modulo
    the driving frequency; folding works entirely mod 2*pi so band energies
    larger than w/2 never require unwrapping.
    """
    u_t = np.asarray(u_t, dtype=complex)
    dev = np.max(np.abs(u_t @ np.conj(u_t.T) - np.eye(u_t.shape[-1])))
    if dev > unitarity_tol:
        raise NonUnitaryInput(f"input deviates from unitary by {dev:.2e}")
    period = 2 * np.pi / omega
    lam = np.linalg.eigvals(u_t / strobe_phase)
    eps = -np.angle(lam) / period
    folded = eps - omega * np.round(eps / omega)
    # zone is half-open: the lower edge belongs to +w/2, with a float-width
    # snap so exactly-edge eigenphases cannot straddle both sides
    edge = -omega / 2 + 16 * np.finfo(float).eps * omega
    folded = np.where(folded <= edge, folded + omega, folded)
    return np.sort(folded)
