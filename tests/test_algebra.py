import warnings

import numpy as np
import pytest

from floqueng import algebra
from floqueng.algebra import SX, SY, SZ, assemble_batch
from floqueng.errors import HermiticityError
from floqueng.propagate import verify_protocol
from floqueng.spectra import band_structure
from floqueng.synth import crossstitch_protocol


def test_ladder_pair_crossstitch_gamma_point():
    # ladder coefficients at k=0 equal the inter-lattice coupling itself:
    # the S+ entry h_minus and the S- entry h_plus of the assembled block
    spec = algebra.cross_stitch(alpha=1.0, delta=2.0)
    h = assemble_batch(*spec.coeffs(0.0))
    assert h[0, 1] == pytest.approx(-4.0)
    assert h[1, 0] == pytest.approx(-4.0)
    assert spec.coeffs(0.0)[1] == pytest.approx(-8.0)


def test_assemble_sz_only():
    h = assemble_batch(0, 0, 0, 1)
    assert np.allclose(h, np.diag([0.5, -0.5]))


def test_assemble_identity_three_band():
    # the block carries h0 on both levels; the third level is the flat band h0
    spec = algebra.HamiltonianSpec(
        "identity3", lambda k: (np.full_like(k, 1.7),) + (np.zeros_like(k),) * 3, band_count=3)
    assert np.allclose(assemble_batch(*spec.coeffs(0.3)), 1.7 * np.eye(2))
    assert np.allclose(band_structure(spec, [0.3]), [[1.7, 1.7, 1.7]])


def test_assemble_crossstitch_gamma_point():
    spec = algebra.cross_stitch(1.0, 2.0)
    h = assemble_batch(*spec.coeffs(0.0))
    assert np.allclose(h, [[-2, -4], [-4, -2]])
    assert np.allclose(band_structure(spec, [0.0]), [[-6.0, 2.0]])


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
    spec = algebra.HamiltonianSpec("sz", lambda k: (np.zeros_like(k),) * 3 + (np.ones_like(k),))
    assert np.allclose(band_structure(spec, [0.0]), [[-0.5, 0.5]])
    assert np.allclose(np.linalg.eigvalsh(assemble_batch(*spec.coeffs(0.0))), [-0.5, 0.5])


def test_band_structure_closed_form_vs_solver():
    # one random coefficient set per grid point, against the dense solver on
    # the assembled matrices and against h0 -+ |h|/2
    table = np.random.default_rng(5).uniform(-50, 50, size=(200, 4))
    spec = algebra.HamiltonianSpec("table", lambda k: tuple(table[k.astype(int)].T))
    k = np.arange(len(table))
    closed = band_structure(spec, k)
    solver = np.linalg.eigvalsh(assemble_batch(*spec.coeffs(k)))
    scale = np.maximum(1, np.max(np.abs(closed), axis=1, keepdims=True))
    assert np.all(np.abs(closed - solver) <= 1e-12 * scale)
    h0, hx, hy, hz = table.T
    r = 0.5 * np.hypot(np.hypot(hx, hy), hz)
    assert np.allclose(closed, np.column_stack([h0 - r, h0 + r]), atol=1e-12)


def test_band_structure_is_the_plain_root_without_its_overflow():
    # bit for bit h0 -+ sqrt(hx^2 + hy^2 + hz^2)/2 wherever the squares are
    # finite, and finite for couplings of 1e300, whose squares overflow
    table = np.random.default_rng(6).uniform(-50, 50, size=(200, 4))
    k = np.arange(len(table))
    h0, hx, hy, hz = table.T
    r = 0.5 * np.sqrt(hx * hx + hy * hy + hz * hz)
    spec = algebra.HamiltonianSpec("table", lambda k: tuple(table[k.astype(int)].T))
    assert np.array_equal(band_structure(spec, k), np.column_stack([h0 - r, h0 + r]))
    huge = algebra.HamiltonianSpec("huge", lambda k: tuple(1e300 * table[k.astype(int)].T))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        energies = band_structure(huge, k)
    assert np.all(np.isfinite(energies))
    assert np.allclose(energies / 1e300, band_structure(spec, k), rtol=0, atol=1e-12)


def test_complex_coefficients_rejected():
    # a real coefficient set is Hermitian by construction; a complex one is not
    spec = algebra.HamiltonianSpec("complex", lambda k: (np.zeros_like(k), 1j * np.ones_like(k),
                                                          np.zeros_like(k), np.zeros_like(k)))
    with pytest.raises(HermiticityError):
        band_structure(spec, [0.0])


def test_crossstitch_band_at_zone_boundary():
    spec = algebra.cross_stitch(1.0, 2.0)
    vals = band_structure(spec, [np.pi / 2])
    assert np.allclose(vals, [[-2.0, 2.0]])


def test_crossstitch_flat_band_over_grid():
    spec = algebra.cross_stitch(1.0, 2.0)
    k = np.linspace(-np.pi, np.pi, 97)
    bands = band_structure(spec, k)
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
        assert np.allclose(np.linalg.eigvalsh(assemble_batch(*spec.coeffs(kk))), [-r, r],
                           atol=1e-12)
        assert np.allclose(band_structure(spec, [kk]), [[-r, 0.0, r]],
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
    spec = algebra.HamiltonianSpec(
        "infinite", lambda k: (np.full_like(k, np.inf),) + (np.zeros_like(k),) * 3)
    with pytest.raises(ValueError):
        spec.coeffs(0.0)


def test_2d_band_structure_needs_momentum_pairs():
    # 8 momenta are not read as the one pair (k[0], k[1])
    with pytest.raises(ValueError, match=r"\(\.\.\., 2\), got \(8,\)"):
        band_structure(algebra.chiral_p_wave_2d(), np.linspace(-np.pi, np.pi, 8))
    # the zero static Hamiltonian is 1D, so it broadcasts against any grid
    assert algebra.ZERO.coeffs(np.zeros((8, 2)))[0] == 0.0


@pytest.mark.parametrize("call", ["verify_protocol", "drive_table", "band_structure"])
def test_complex_momenta_fail_instead_of_losing_their_imaginary_part(call):
    # a float cast would check k + 0.5j as k, with at most a ComplexWarning
    proto = crossstitch_protocol()
    k = np.linspace(-np.pi, np.pi, 4, endpoint=False) + 0.5j
    run = {"verify_protocol": lambda: verify_protocol(proto, k, tol=1e-8),
           "drive_table": lambda: proto.drive_table(k, [0.0]),
           "band_structure": lambda: band_structure(proto.target, k)}[call]
    with pytest.raises(ValueError, match="model 'crossstitch' takes real momenta, got complex128"):
        run()


@pytest.mark.parametrize("fields", [
    {"band_count": 1}, {"band_count": 4}, {"dimension": 0}, {"dimension": 3},
])
def test_spec_rejects_unsupported_bands_and_dimensions(fields):
    with pytest.raises(ValueError, match="needs 2 or 3 bands in 1 or 2 dimensions"):
        algebra.HamiltonianSpec("bad", lambda k: (k, k, k, k), **fields)
