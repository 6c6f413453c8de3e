"""Band diagrams, and the cosine series of the shared drive envelope
1/(1 + a_plus^2 sin^2 wt) in closed form."""

from __future__ import annotations

import numpy as np

from .algebra import HamiltonianSpec


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


def envelope_fourier(a_plus_squared: float, n_max: int) -> np.ndarray:
    """Cosine coefficients c_0 .. c_{n_max} of the envelope over one period
    of wt, so that f(wt) = c_0 + sum_n c_n cos(n wt), in closed form: with
    b = sqrt(1 + a^2) and r = a^2/(1 + b)^2, (b - 1)/(b + 1) without its
    cancellation, f = (1 + 2 sum_{m>=1} r^m cos 2m wt)/b.  So c_0 = 1/b,
    c_{2m} = 2 r^m/b, and every odd coefficient is exactly 0."""
    if not 0 <= a_plus_squared < np.inf:  # false for NaN as well
        raise ValueError(f"a_plus_squared must be non-negative and finite, got {a_plus_squared}")
    if n_max < 0:
        raise ValueError(f"n_max must lie in [0, inf), got {n_max}")
    b = np.sqrt(1.0 + a_plus_squared)
    r = a_plus_squared / (1.0 + b) / (1.0 + b)  # (1 + b)**2 overflows at the float max
    coeff = np.zeros(n_max + 1)
    coeff[::2] = 2.0 * r ** np.arange(n_max // 2 + 1) / b
    coeff[0] = 1.0 / b
    return coeff
