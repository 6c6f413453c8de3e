"""Band diagrams and Fourier analysis of the shared drive envelope
1/(1 + a_plus^2 sin^2 wt)."""

from __future__ import annotations

import numpy as np

from .algebra import HamiltonianSpec

ENVELOPE_QUAD_SAMPLES = 8192


def band_structure(spec: HamiltonianSpec, k_grid) -> np.ndarray:
    """Eigenvalues h0 -+ |h|/2 of the coefficient table on a momentum grid,
    as an (n_k, n_bands) array ascending along the band axis.

    A three-band model adds its decoupled third level, the flat band at the
    identity coefficient h0, to the two eigenvalues of the coupled block.
    """
    h0, hx, hy, hz = spec.coeffs(k_grid)
    # scaling by a power of two is exact: no square overflows, and wherever
    # the plain squares are finite |h| is their root bit for bit
    scale = np.ldexp(0.5, np.frexp(np.maximum(np.maximum(abs(hx), abs(hy)), abs(hz)))[1])
    r = scale * (0.5 * np.sqrt((hx / scale) ** 2 + (hy / scale) ** 2 + (hz / scale) ** 2))
    energies = np.stack([h0 - r, h0 + r], axis=-1)
    if spec.band_count == 3:
        energies = np.sort(np.column_stack([energies, h0]), axis=1)
    return energies


def envelope_values(a_plus_squared: float, theta) -> np.ndarray:
    """The drive envelope as a function of the dimensionless phase wt."""
    theta = np.asarray(theta, dtype=float)
    return 1.0 / (1.0 + a_plus_squared * np.sin(theta) ** 2)


def envelope_fourier(a_plus_squared: float, n_max: int) -> np.ndarray:
    """Cosine coefficients c_0 .. c_{n_max} of the envelope over one period
    of wt, so that f(wt) = c_0 + sum_n c_n cos(n wt).

    The function is even and pi-periodic, so every odd coefficient vanishes
    and the sine series is identically zero; sine leakage above 1e-13 would
    indicate a quadrature bug and raises.  Trapezoid quadrature converges
    spectrally for this smooth periodic integrand, and on the uniform grid
    of N = ``ENVELOPE_QUAD_SAMPLES`` points it is the DFT X of the samples:
    c_n = (2/N) Re X_n, with c_0 halved.  There c_n equals c_{N-n}, so an
    ``n_max`` of N/2 or more raises ValueError.
    """
    if not 0 <= a_plus_squared < np.inf:  # false for NaN as well
        raise ValueError(f"a_plus_squared must be non-negative and finite, got {a_plus_squared}")
    n = ENVELOPE_QUAD_SAMPLES
    if not 0 <= n_max < n // 2:
        raise ValueError(f"n_max must lie in [0, {n // 2 - 1}], "
                         f"as the quadrature aliases from {n // 2} on, got {n_max}")
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    spectrum = np.fft.rfft(envelope_values(a_plus_squared, theta))[:n_max + 1]
    sine_leak = 2 / n * np.max(np.abs(spectrum.imag))
    if sine_leak > 1e-13:
        raise ValueError(f"sine leakage {sine_leak:.2e} in an even integrand")
    coeff = 2 / n * spectrum.real
    coeff[0] /= 2.0
    return coeff
