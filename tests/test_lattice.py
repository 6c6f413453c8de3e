import dataclasses

import numpy as np
import pytest

from floqueng.errors import RangeOverflow
from floqueng.gauge import GaugeParams
from floqueng.lattice import (
    MAX_RANGE,
    LatticeTerm,
    assemble_lattice_hamiltonian,
    expand_to_lattice,
    lattice_vs_momentum_check,
    momentum_block,
)
from floqueng.synth import (TIME_LABELS, crossstitch_protocol, general_protocol,
                            harmonic_time_factors)

from oracles import envelope_values

SQRT2 = np.sqrt(2.0)
PROTO = crossstitch_protocol(alpha=1.0, delta=2.0, omega=8.0, a_plus=SQRT2, p=3)
GENERAL = general_protocol(PROTO.static, PROTO.target, PROTO.gauge)


def terms_default():
    return expand_to_lattice(PROTO)


def amplitude(term, gauge, t):
    """The term's time-dependent amplitude, envelope f_e(t) included."""
    return term.coefficient * harmonic_time_factors(gauge, t)[TIME_LABELS.index(term.time_label)]


def test_ranges_bounded_by_three():
    terms = terms_default()
    assert max(t.m for t in terms) == MAX_RANGE
    assert all(0 <= t.m <= MAX_RANGE for t in terms)


def test_no_weight_beyond_range_three():
    # independent check in momentum space: the drive numerator of the
    # general path is a degree-3 trigonometric polynomial in k
    k = 2 * np.pi * np.arange(128) / 128
    for t in (0.0, 0.11, 0.37):
        _, fx, fy, fz = GENERAL.drive_components(k, t)
        fe = 1.0 / (1.0 + 2.0 * np.sin(8.0 * t) ** 2)
        for comp in (fx, fy, fz):
            spec = np.abs(np.fft.rfft(comp / fe)) / 128
            assert np.max(spec[MAX_RANGE + 1:]) <= 1e-12


def test_drive_envelope_is_the_spectra_envelope_bit_for_bit():
    # the range check divides by the drive's own f_e, and the quadrature
    # reference of the fourier table samples this envelope: both are one
    # function of (a_plus^2, wt)
    rng = np.random.default_rng(30)
    for _ in range(500):
        g = GaugeParams(a_plus=rng.uniform(-4, 4), p=int(rng.integers(-5, 6)),
                        omega=rng.uniform(0.1, 20))
        t = rng.uniform(-3, 3, 64) * g.period
        assert np.array_equal(harmonic_time_factors(g, t)[0],
                              envelope_values(g.a_plus**2, g.omega * t))


def test_onsite_z_term_inventory():
    terms = terms_default()
    z0 = [t for t in terms if t.channel == "z" and t.m == 0]
    labels = {t.time_label: t.coefficient for t in z0}
    # the 1 - a_plus^2/2 constant drops out exactly at a_plus^2 = 2
    assert "1" not in labels
    assert labels["cos(2wt)"] == pytest.approx(3 * 8.0 * 2.0 / 2)
    assert labels["sin(wt)sin(pwt)"] == pytest.approx(-4 * SQRT2)


def test_z_channel_range_two_terms():
    terms = terms_default()
    z2 = {t.time_label for t in terms if t.channel == "z" and t.m == 2}
    assert z2 == {"sin(wt)cos(pwt)", "sin(wt)sin(pwt)"}


def test_x_channel_longest_hop_amplitudes():
    terms = terms_default()
    x3 = {(t.k_harmonic, t.time_label): t.coefficient
          for t in terms if t.channel == "x" and t.m == 3}
    assert x3[("cos", "sin2(wt)cos(pwt)")] == pytest.approx(-2 * 2.0 * 1.0)
    assert x3[("sin", "sin2(wt)sin(pwt)")] == pytest.approx(2 * 2.0 * 1.0)


def test_pure_dimer_coupling_without_gauge():
    # no micro-motion, no flat-band offset: only the hopping-born coupling
    proto = crossstitch_protocol(alpha=1.0, delta=0.0, omega=8.0, a_plus=0.0, p=0)
    terms = expand_to_lattice(proto)
    assert {(t.channel, t.m) for t in terms} == {("x", 1), ("y", 1)}
    x1 = [t for t in terms if t.channel == "x"][0]
    assert x1.coefficient == pytest.approx(-4.0)
    assert amplitude(x1, proto.gauge, 0.123) == pytest.approx(-4.0)
    # y channel amplitude must vanish for all t: sin(p w t) = 0 at p = 0
    y1 = [t for t in terms if t.channel == "y"][0]
    assert amplitude(y1, proto.gauge, 0.123) == pytest.approx(0.0)


def test_only_the_closed_form_expands():
    with pytest.raises(ValueError, match="harmonic table"):
        expand_to_lattice(GENERAL)


def test_corrupted_table_is_caught():
    # the table is checked against the general path, so a detuned drive fails
    with pytest.raises(RangeOverflow, match="misses the general path"):
        expand_to_lattice(dataclasses.replace(PROTO, fz_scale=1.5))


def test_onsite_imbalance_assembly():
    g = 1.7
    term = LatticeTerm("z", 0, "cos", "1", g)
    mat = assemble_lattice_hamiltonian([term], PROTO.gauge, L=8, t=0.0)
    assert np.allclose(mat, np.diag([g / 2] * 8 + [-g / 2] * 8))


def test_unknown_channel_rejected():
    term = LatticeTerm("w", 1, "cos", "1", 1.0)
    with pytest.raises(ValueError, match="unknown channel 'w'"):
        assemble_lattice_hamiltonian([term], PROTO.gauge, L=8, t=0.0)


def test_assembled_matrix_is_hermitian_and_banded():
    terms = terms_default()
    mat = assemble_lattice_hamiltonian(terms, PROTO.gauge, L=12, t=0.05)
    assert np.max(np.abs(mat - mat.conj().T)) <= 1e-13
    # range bound: circulant distance beyond 3 carries nothing
    for i in range(12):
        for j in range(12):
            dist = min((i - j) % 12, (j - i) % 12)
            if dist > MAX_RANGE:
                assert mat[i, j] == 0
                assert mat[12 + i, 12 + j] == 0
                assert mat[i, 12 + j] == 0


def test_assembly_broadcasts_over_time():
    # one call over a time grid stacks the matrices of one call per time
    terms = terms_default()
    t = np.array([[0.0, 0.05], [0.31, 0.7]])
    stack = assemble_lattice_hamiltonian(terms, PROTO.gauge, L=8, t=t)
    assert stack.shape == (2, 2, 16, 16)
    for idx in np.ndindex(t.shape):
        single = assemble_lattice_hamiltonian(terms, PROTO.gauge, L=8, t=float(t[idx]))
        assert np.max(np.abs(stack[idx] - single)) <= 1e-14


def test_minimum_size_enforced():
    with pytest.raises(ValueError):
        assemble_lattice_hamiltonian(terms_default(), PROTO.gauge, L=6, t=0.0)


def test_reconstruction_matches_drive():
    # the terms summed back into momentum space match the general path
    terms = terms_default()
    k = 2 * np.pi * np.arange(16) / 16
    for t in (0.0, 0.2, 0.4):
        recon = {c: np.zeros_like(k) for c in "xyz"}
        for term in terms:
            kpart = (np.cos if term.k_harmonic == "cos" else np.sin)(term.m * k)
            recon[term.channel] += amplitude(term, PROTO.gauge, t) * kpart
        _, fx, fy, fz = GENERAL.drive_components(k, t)
        assert np.max(np.abs(recon["x"] - fx)) <= 1e-11
        assert np.max(np.abs(recon["y"] - fy)) <= 1e-11
        assert np.max(np.abs(recon["z"] - fz)) <= 1e-11


def test_fourier_roundtrip_at_allowed_momenta():
    t_grid = (2 * np.pi / 8.0) * np.arange(16) / 16
    dev = lattice_vs_momentum_check(PROTO, terms_default(), L=8, t_grid=t_grid)
    assert dev <= 1e-10


def test_roundtrip_independent_of_chain_length():
    t_grid = (2 * np.pi / 8.0) * np.array([0.0, 0.3, 0.77])
    terms = terms_default()
    dev8 = lattice_vs_momentum_check(PROTO, terms, L=8, t_grid=t_grid)
    dev12 = lattice_vs_momentum_check(PROTO, terms, L=12, t_grid=t_grid)
    assert dev8 <= 1e-10 and dev12 <= 1e-10


def test_zero_drive_roundtrip():
    proto = crossstitch_protocol(alpha=1.0, delta=0.0, omega=8.0, a_plus=0.0, p=0)
    dev = lattice_vs_momentum_check(proto, expand_to_lattice(proto), L=8,
                                    t_grid=np.array([0.0, 0.1]))
    assert dev <= 1e-12


def test_momentum_block_projection():
    # single x-channel cos(k) hopping projects back to cos(k) * Sx
    term = LatticeTerm("x", 1, "cos", "1", 2.0)
    mat = assemble_lattice_hamiltonian([term], PROTO.gauge, L=8, t=0.0)
    for n in range(8):
        k = 2 * np.pi * n / 8
        block = momentum_block(mat, 8, k)
        assert np.allclose(block, 2.0 * np.cos(k) * np.array([[0, 0.5], [0.5, 0]]),
                           atol=1e-12)
