import tracemalloc

import numpy as np
import pytest

from floqueng import algebra
from floqueng.spectra import (
    ENVELOPE_QUAD_SAMPLES,
    band_structure,
    envelope_fourier,
    envelope_values,
)

from oracles import quasienergies

RHO = 2.0 - np.sqrt(3.0)


def envelope_fourier_exact(a_plus_squared, n_max):
    """Closed-form cosine coefficients via the geometric-series expansion of
    1/(a - cos), the independent oracle for the quadrature path."""
    coeff = np.zeros(n_max + 1)
    if a_plus_squared == 0:
        coeff[0] = 1.0
        return coeff
    a = 1.0 + 2.0 / a_plus_squared
    root = np.sqrt(a * a - 1.0)
    rho = a - root
    prefactor = (2.0 / a_plus_squared) / root
    coeff[0] = prefactor
    for m in range(1, n_max // 2 + 1):
        coeff[2 * m] = prefactor * 2.0 * rho**m
    return coeff


def test_crossstitch_band_table():
    k = np.linspace(-np.pi, np.pi, 65)
    table = band_structure(algebra.cross_stitch(1.0, 2.0), k)
    flat = table[:, 1]
    disp = table[:, 0]
    assert np.std(flat[np.abs(k) < 3.0]) <= 1e-12  # clear of the band touching
    assert np.allclose(np.max(table, axis=1),
                       np.maximum(2.0, -4 * np.cos(k) - 2.0))
    assert np.allclose(np.min(table, axis=1),
                       np.minimum(2.0, -4 * np.cos(k) - 2.0))
    assert disp.min() == pytest.approx(-6.0)


def test_flat_limit_without_hopping():
    k = np.linspace(-np.pi, np.pi, 33)
    table = band_structure(algebra.cross_stitch(0.0, 2.0), k)
    assert np.allclose(table[:, 0], -2.0)
    assert np.allclose(table[:, 1], 2.0)


def test_three_band_table():
    k = np.linspace(-np.pi, np.pi, 33)
    table = band_structure(algebra.su3_flat(delta=2.0), k)
    r = 0.5 * np.sqrt(2) * np.abs(2 * np.cos(k) + 2.0)
    assert np.allclose(table[:, 1], 0.0, atol=1e-12)
    assert np.allclose(table[:, 0], -r, atol=1e-12)
    assert np.allclose(table[:, 2], r, atol=1e-12)


def test_envelope_constant_when_unmodulated():
    table = envelope_fourier(0.0, 12)
    assert table[0] == pytest.approx(1.0)
    assert np.max(np.abs(table[1:])) <= 1e-13


def test_envelope_mean_value():
    table = envelope_fourier(2.0, 12)
    assert table[0] == pytest.approx(1 / np.sqrt(3), abs=1e-10)


def test_envelope_odd_coefficients_vanish():
    for ap2 in (0.5, 1.0, 2.0, 5.0):
        table = envelope_fourier(ap2, 25)
        assert np.max(np.abs(table[1::2])) <= 1e-12


def test_envelope_even_ratio_geometric():
    table = envelope_fourier(2.0, 26)
    even = table[2::2]
    ratios = even[1:] / even[:-1]
    assert np.allclose(ratios, RHO, atol=1e-6)


def test_envelope_matches_exact_series():
    for ap2 in (0.5, 2.0, 4.0):
        quad = envelope_fourier(ap2, 30)
        exact = envelope_fourier_exact(ap2, 30)
        assert np.max(np.abs(quad - exact)) <= 1e-12


def test_envelope_partial_sum_reconstruction():
    table = envelope_fourier(2.0, 40)
    theta = np.linspace(0, 2 * np.pi, 1024, endpoint=False)
    recon = table[0] + sum(c * np.cos(n * theta) for n, c in enumerate(table) if n)
    assert np.max(np.abs(recon - envelope_values(2.0, theta))) <= 1e-10


def test_envelope_rejects_negative_modulation():
    with pytest.raises(ValueError):
        envelope_fourier(-0.1, 4)


@pytest.mark.parametrize("a_plus_squared", [np.nan, np.inf])
def test_envelope_rejects_non_finite_modulation(a_plus_squared):
    # NaN fails every comparison, so it must fail the test rather than pass it
    with pytest.raises(ValueError, match="a_plus_squared must be non-negative and finite"):
        envelope_fourier(a_plus_squared, 4)


def test_envelope_rejects_a_negative_order():
    with pytest.raises(ValueError, match="n_max must lie in"):
        envelope_fourier(2.0, -1)


def test_envelope_rejects_aliased_orders():
    # on N quadrature points c_n equals c_{N-n}
    with pytest.raises(ValueError, match="aliases"):
        envelope_fourier(2.0, ENVELOPE_QUAD_SAMPLES // 2)


def test_envelope_memory_does_not_grow_with_the_order():
    # one transform of the N samples, not an (n_max + 1) x N basis, which
    # peaked at 160 MiB at n_max = 511
    tracemalloc.start()
    try:
        envelope_fourier(2.0, 511)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_quasienergies_identity():
    eps = quasienergies(np.eye(2), omega=8.0)
    assert np.allclose(eps, 0.0)


@pytest.mark.parametrize("omega", [8.0, 4.0])
def test_quasienergies_fold_bands_together(omega):
    # at k=0 the two band energies differ by exactly one driving quantum,
    # so the folded spectrum is doubly degenerate
    T = 2 * np.pi / omega
    u = -np.diag([np.exp(-1j * 2.0 * T), np.exp(-1j * (-6.0) * T)])
    eps = quasienergies(u, omega, strobe_phase=-1.0)
    assert np.allclose(eps, [2.0, 2.0], atol=1e-12)
