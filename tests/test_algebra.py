import numpy as np
import pytest

from floqueng import algebra
from floqueng.algebra import (
    CoeffsPMZ,
    CoeffsXYZ,
    assemble_matrix,
    eig_bands,
    pmz_to_xyz,
    xyz_to_pmz,
)
from floqueng.errors import HermiticityError
from floqueng.spectra import band_structure


def test_xyz_to_pmz_unit_x():
    c = xyz_to_pmz(CoeffsXYZ(0, 1, 0, 0))
    assert c.h_plus == pytest.approx(0.5)
    assert c.h_minus == pytest.approx(0.5)


def test_xyz_to_pmz_zero():
    c = xyz_to_pmz(CoeffsXYZ(0, 0, 0, 0))
    assert c.h0 == 0 and c.h_plus == 0 and c.h_minus == 0 and c.hz == 0


def test_xyz_to_pmz_crossstitch_gamma_point():
    # ladder coefficients at k=0 equal the inter-lattice coupling itself
    spec = algebra.cross_stitch(alpha=1.0, delta=2.0)
    c = xyz_to_pmz(spec.coeffs_at(0.0))
    assert c.h_plus == pytest.approx(-4.0)
    assert c.h_minus == pytest.approx(-4.0)
    assert spec.coeffs_at(0.0).hx == pytest.approx(-8.0)


@pytest.mark.parametrize("pmz, expected_xy", [
    (CoeffsPMZ(0, 0.5, 0.5, 0), (1.0, 0.0)),
    (CoeffsPMZ(0, -0.5j, 0.5j, 0), (0.0, 1.0)),
])
def test_pmz_to_xyz_direct(pmz, expected_xy):
    c = pmz_to_xyz(pmz)
    assert (c.hx, c.hy) == pytest.approx(expected_xy)


def test_pmz_to_xyz_rejects_non_conjugate_pair():
    with pytest.raises(HermiticityError):
        pmz_to_xyz(CoeffsPMZ(0, 0.0, 1.0, 0))


def test_roundtrip_exact():
    rng = np.random.default_rng(7)
    for _ in range(200):
        c = CoeffsXYZ(*rng.uniform(-1e3, 1e3, size=4))
        back = pmz_to_xyz(xyz_to_pmz(c))
        assert back == c  # conversion is a pair of exact halvings


def test_assemble_sz_only():
    h = assemble_matrix(CoeffsXYZ(0, 0, 0, 1))
    assert np.allclose(h, np.diag([0.5, -0.5]))


def test_assemble_identity_three_band():
    # the block carries h0 on both levels; the third level is the flat band h0
    spec = algebra.custom(lambda k: (np.full_like(k, 1.7),) + (np.zeros_like(k),) * 3,
                          band_count=3)
    assert np.allclose(spec.matrix(0.3), 1.7 * np.eye(2))
    assert np.allclose(band_structure(spec, [0.3]).energies, [[1.7, 1.7, 1.7]])


def test_assemble_crossstitch_gamma_point():
    spec = algebra.cross_stitch(1.0, 2.0)
    h = spec.matrix(0.0)
    assert np.allclose(h, [[-2, -4], [-4, -2]])
    assert np.allclose(eig_bands(h), [-6.0, 2.0])


def test_assemble_hermitian_property():
    rng = np.random.default_rng(11)
    for _ in range(100):
        c = CoeffsXYZ(*rng.uniform(-1e3, 1e3, size=4))
        h = assemble_matrix(c)
        assert np.max(np.abs(h - h.conj().T)) <= 1e-14 * max(1, np.max(np.abs(h)))


def test_assemble_batch_matches_scalar():
    rng = np.random.default_rng(3)
    coeffs = rng.normal(size=(5, 4))
    batch = algebra.assemble_batch(*coeffs.T)
    for i, row in enumerate(coeffs):
        assert np.allclose(batch[i], assemble_matrix(CoeffsXYZ(*row)))


def test_eig_bands_sz():
    assert np.allclose(eig_bands(np.diag([0.5, -0.5]).astype(complex)), [-0.5, 0.5])


def test_eig_bands_closed_form_vs_solver():
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = CoeffsXYZ(*rng.uniform(-50, 50, size=4))
        h = assemble_matrix(c)
        closed = eig_bands(h)
        assert np.allclose(closed, np.linalg.eigvalsh(h), atol=1e-12 * max(1, np.max(np.abs(closed))))
        r = 0.5 * np.hypot(np.hypot(c.hx, c.hy), c.hz)
        assert np.allclose(closed, [c.h0 - r, c.h0 + r], atol=1e-12)


def test_eig_bands_rejects_non_hermitian():
    with pytest.raises(HermiticityError):
        eig_bands(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))
    # only the 2x2 closed form exists: no dense-solver fallback for other sizes
    with pytest.raises(ValueError):
        eig_bands(np.eye(3, dtype=complex))


def test_crossstitch_band_at_zone_boundary():
    spec = algebra.cross_stitch(1.0, 2.0)
    vals = eig_bands(spec.matrix(np.pi / 2))
    assert np.allclose(vals, [-2.0, 2.0])


def test_crossstitch_flat_band_over_grid():
    spec = algebra.cross_stitch(1.0, 2.0)
    k = np.linspace(-np.pi, np.pi, 97)
    bands = np.array([eig_bands(spec.matrix(kk)) for kk in k])
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
        assert np.allclose(eig_bands(spec.matrix(kk)), [-r, r], atol=1e-12)
        assert spec.coeffs_at(kk).h0 == 0.0


def test_kitaev_coefficients():
    spec = algebra.kitaev_chain(mu=0.5, hopping=1.0, pairing=0.7)
    c = spec.coeffs_at(0.9)
    assert c.hz == pytest.approx(2 * (0.5 - np.cos(0.9)))
    assert c.hy == pytest.approx(-2 * 0.7 * np.sin(0.9))
    assert c.h0 == 0 and c.hx == 0


def test_pwave2d_coefficients():
    spec = algebra.chiral_p_wave_2d(mu=1.0, pairing=0.5)
    c = spec.coeffs_at(np.array([0.3, -1.1]))
    assert c.hz == pytest.approx(2 * (2 - 1 - np.cos(0.3) - np.cos(-1.1)))
    assert c.hy == pytest.approx(-2 * np.sin(0.3))
    assert c.hx == pytest.approx(-2 * np.sin(-1.1))


def test_coeffs_must_be_finite():
    with pytest.raises(ValueError):
        CoeffsXYZ(np.inf, 0, 0, 0)
