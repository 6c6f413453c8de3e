import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floqueng import algebra
from floqueng.spectra import band_structure, envelope_fourier

from oracles import envelope_fourier_quad, envelope_values, quasienergies

RHO = 2.0 - np.sqrt(3.0)


def envelope_fourier_exact(a_plus_squared, n_max):
    """Closed-form cosine coefficients via the geometric-series expansion of
    1/(a - cos), an algebraic form independent of the one in src/."""
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


@pytest.mark.parametrize("a_plus_squared", [1e6, 1e8])
def test_envelope_matches_a_dense_quadrature_at_large_amplitude(a_plus_squared):
    # the spike, of width about 1/b, is resolved by 2^20 points and not by 8192
    exact = envelope_fourier(a_plus_squared, 40)
    quad = envelope_fourier_quad(a_plus_squared, 40, 2**20)
    assert np.max(np.abs(exact - quad)) <= 1e-12 * exact[0]


@settings(max_examples=30, derandomize=True, deadline=None, database=None)
@given(log_a2=st.floats(-6.0, 8.0))
def test_envelope_matches_the_quadrature_over_the_amplitude_range(log_a2):
    a_plus_squared = 10.0**log_a2
    # 64 points or more across the spike, of width about 1/b
    n = max(8192, 1 << int(np.ceil(np.log2(64 * np.sqrt(1.0 + a_plus_squared)))))
    exact = envelope_fourier(a_plus_squared, 40)
    quad = envelope_fourier_quad(a_plus_squared, 40, n)
    assert np.max(np.abs(exact - quad)) <= 1e-11 * exact[0]
    assert not np.any(exact[1::2])


def test_envelope_is_finite_up_to_the_largest_float():
    # b = sqrt(1 + a^2) stays finite, and (1 + b)^2 is never formed
    table = envelope_fourier(np.finfo(float).max, 4095)
    assert np.all(np.isfinite(table))
    assert np.all(table[::2] > 0)
    assert not np.any(table[1::2])


def test_envelope_memory_does_not_grow_with_the_order():
    # the closed form allocates the n_max + 1 coefficients; an (n_max + 1) x N
    # quadrature basis peaked at 160 MiB at n_max = 511
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
