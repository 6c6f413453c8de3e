import numpy as np
import pytest

from floqueng import algebra
from floqueng.algebra import SX, SY, SZ, assemble_batch
from floqueng.errors import HermiticityError
from floqueng.spectra import band_structure


def test_ladder_pair_crossstitch_gamma_point():
    # ladder coefficients at k=0 equal the inter-lattice coupling itself:
    # the S+ entry h_minus and the S- entry h_plus of the assembled block
    spec = algebra.cross_stitch(alpha=1.0, delta=2.0)
    h = spec.matrices(0.0)
    assert h[0, 1] == pytest.approx(-4.0)
    assert h[1, 0] == pytest.approx(-4.0)
    assert spec.coeffs(0.0)[1] == pytest.approx(-8.0)


def test_assemble_sz_only():
    h = assemble_batch(0, 0, 0, 1)
    assert np.allclose(h, np.diag([0.5, -0.5]))


def test_assemble_identity_three_band():
    # the block carries h0 on both levels; the third level is the flat band h0
    spec = algebra.custom(lambda k: (np.full_like(k, 1.7),) + (np.zeros_like(k),) * 3,
                          band_count=3)
    assert np.allclose(spec.matrices(0.3), 1.7 * np.eye(2))
    assert np.allclose(band_structure(spec, [0.3]).energies, [[1.7, 1.7, 1.7]])


def test_assemble_crossstitch_gamma_point():
    spec = algebra.cross_stitch(1.0, 2.0)
    h = spec.matrices(0.0)
    assert np.allclose(h, [[-2, -4], [-4, -2]])
    assert np.allclose(band_structure(spec, [0.0]).energies, [[-6.0, 2.0]])


def test_assemble_hermitian_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        h = assemble_batch(*rng.uniform(-1e3, 1e3, size=4))
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14 * max(1, np.max(np.abs(h)))


def test_assemble_batch_matches_scalar():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(5, 4))
    batch = assemble_batch(*coeffs.T)
    for i, (h0, hx, hy, hz) in enumerate(coeffs):
        assert np.allclose(batch[i], h0 * np.eye(2) + hx * SX + hy * SY + hz * SZ)


def test_band_structure_sz():
    spec = algebra.custom(lambda k: (np.zeros_like(k),) * 3 + (np.ones_like(k),))
    assert np.allclose(band_structure(spec, [0.0]).energies, [[-0.5, 0.5]])
    assert np.allclose(np.linalg.eigvalsh(spec.matrices(0.0)), [-0.5, 0.5])


def test_band_structure_closed_form_vs_solver():
    # one random coefficient set per grid point, against the dense solver on
    # the assembled matrices and against h0 -+ |h|/2
    table = np.random.default_rng(5).uniform(-50, 50, size=(200, 4))
    spec = algebra.custom(lambda k: tuple(table[k.astype(int)].T))
    k = np.arange(len(table))
    closed = band_structure(spec, k).energies
    solver = np.linalg.eigvalsh(spec.matrices(k))
    scale = np.maximum(1, np.max(np.abs(closed), axis=1, keepdims=True))
    assert np.all(np.abs(closed - solver) <= 1e-12 * scale)
    h0, hx, hy, hz = table.T
    r = 0.5 * np.hypot(np.hypot(hx, hy), hz)
    assert np.allclose(closed, np.column_stack([h0 - r, h0 + r]), atol=1e-12)


def test_complex_coefficients_rejected():
    # a real coefficient set is Hermitian by construction; a complex one is not
    spec = algebra.custom(lambda k: (np.zeros_like(k), 1j * np.ones_like(k),
                                     np.zeros_like(k), np.zeros_like(k)))
    with pytest.raises(HermiticityError):
        band_structure(spec, [0.0])


def test_crossstitch_band_at_zone_boundary():
    spec = algebra.cross_stitch(1.0, 2.0)
    vals = band_structure(spec, [np.pi / 2]).energies
    assert np.allclose(vals, [[-2.0, 2.0]])


def test_crossstitch_flat_band_over_grid():
    spec = algebra.cross_stitch(1.0, 2.0)
    k = np.linspace(-np.pi, np.pi, 97)
    bands = band_structure(spec, k).energies
    flat = np.max(bands, axis=1)  # flat band is the upper one for these signs
    assert np.var(flat) <= 1e-24
    disp = np.min(bands, axis=1)
    assert np.allclose(disp, np.minimum(-4 * np.cos(k) - 2, 2.0), atol=1e-12)


def test_su3_flat_eigenvalues():
    # the coupled block carries -r and r; the third level is the flat band h0
    spec = algebra.su3_flat(delta=2.0)
    for kk in (0.0, 0.7, 2.1):
        ex = 2 * np.cos(kk) + 2.0
        r = 0.5 * np.sqrt(2) * abs(ex)
        assert np.allclose(np.linalg.eigvalsh(spec.matrices(kk)), [-r, r], atol=1e-12)
        assert np.allclose(band_structure(spec, [kk]).energies, [[-r, 0.0, r]],
                           atol=1e-12)
        assert spec.coeffs(kk)[0] == 0.0


def test_kitaev_coefficients():
    spec = algebra.kitaev_chain(mu=0.5, hopping=1.0, pairing=0.7)
    h0, hx, hy, hz = spec.coeffs(0.9)
    assert hz == pytest.approx(2 * (0.5 - np.cos(0.9)))
    assert hy == pytest.approx(-2 * 0.7 * np.sin(0.9))
    assert h0 == 0 and hx == 0


def test_pwave2d_coefficients():
    spec = algebra.chiral_p_wave_2d(mu=1.0, pairing=0.5)
    h0, hx, hy, hz = spec.coeffs(np.array([0.3, -1.1]))
    assert hz == pytest.approx(2 * (2 - 1 - np.cos(0.3) - np.cos(-1.1)))
    assert hy == pytest.approx(-2 * np.sin(0.3))
    assert hx == pytest.approx(-2 * np.sin(-1.1))


def test_coeffs_must_be_finite():
    spec = algebra.custom(lambda k: (np.full_like(k, np.inf),) + (np.zeros_like(k),) * 3)
    with pytest.raises(ValueError):
        spec.coeffs(0.0)
