import numpy as np
import pytest

from floqueng import algebra
from floqueng.algebra import S_MINUS, S_PLUS, SZ
from floqueng.gauge import GaugeParams, micromotion_matrix
from floqueng.synth import (
    crossstitch_drive_components,
    crossstitch_protocol,
    general_protocol,
    static_harmonic_residual,
    transform_m1,
    transform_m2,
)

SQRT2 = np.sqrt(2.0)


def ladder_coeffs(mat):
    """Expand the traceless part of a 2x2 matrix in (S+, S-, Sz)."""
    return np.array([mat[0, 1], mat[1, 0], mat[0, 0] - mat[1, 1]])


class TestTransformMatrices:
    def test_m1_identity(self):
        assert np.allclose(transform_m1(0.0), np.eye(3))

    def test_m1_unit_argument(self):
        expected = 0.5 * np.array([
            [1, 0, 1j],
            [0, 1, -1j],
            [1j, -1j, 0],
        ])
        assert np.allclose(transform_m1(1.0), expected)

    def test_m1_matches_finite_difference_generator(self):
        # i dP/dt P^dagger expanded in the ladder basis must equal M1 . dm
        rng = np.random.default_rng(42)
        eps = 1e-6
        worst = 0.0
        for _ in range(50):
            a = rng.normal() + 1j * rng.normal()
            b = 0.4 * rng.normal()
            w, p = 5.0, 3

            def mp(t):
                return a * np.sin(w * t) + b * np.sin(2 * w * t)

            t0 = rng.uniform(0.05, 1.0)
            pmat = lambda t: micromotion_matrix(0.0, mp(t), p * w * t)
            dp = (pmat(t0 + eps) - pmat(t0 - eps)) / (2 * eps)
            gen = 1j * dp @ pmat(t0).conj().T
            dmp = (mp(t0 + eps) - mp(t0 - eps)) / (2 * eps)
            dm = np.array([dmp, np.conj(dmp), p * w])
            worst = max(worst, np.max(np.abs(
                ladder_coeffs(gen) - transform_m1(mp(t0)) @ dm)))
        assert worst <= 1e-7  # finite-difference floor

    def test_m2_identity(self):
        assert np.allclose(transform_m2(0.0, 0.0), np.eye(3))

    def test_m2_pure_winding_is_diagonal(self):
        z = 1.234
        assert np.allclose(transform_m2(0.0, z),
                           np.diag([np.exp(-1j * z), np.exp(1j * z), 1.0]))

    def test_m2_columns_match_explicit_conjugation(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            mp = rng.normal() + 1j * rng.normal()
            mzr = 5 * rng.normal()
            pmat = micromotion_matrix(0.0, mp, mzr)
            m2 = transform_m2(mp, mzr)
            for col, op in enumerate((S_PLUS, S_MINUS, SZ)):
                conj = pmat @ op @ pmat.conj().T
                worst = max(worst, np.max(np.abs(ladder_coeffs(conj) - m2[:, col])))
        assert worst <= 1e-13

    def test_matrices_identity_at_strobe_times(self):
        g = GaugeParams(a_plus=SQRT2, p=3, omega=8.0)
        for n in range(4):
            t = n * g.period
            mp = SQRT2 * np.sin(g.omega * t) * np.exp(1j * 0.4)
            mzr = 3 * g.omega * t
            assert np.allclose(transform_m1(mp), np.eye(3), atol=1e-12)
            assert np.allclose(transform_m2(mp, mzr), np.eye(3), atol=1e-12)


class TestCrossStitchDrive:
    def test_initial_sample(self):
        f0, fx, fy, fz = crossstitch_drive_components(1.0, 2.0, 8.0, SQRT2, 3,
                                                      k=0.0, t=0.0)
        assert fx == pytest.approx(16 * SQRT2 - 8)
        assert fy == pytest.approx(0.0)
        assert fz == pytest.approx(24.0)
        assert f0 == 0.0

    def test_general_path_initial_sample(self):
        p = crossstitch_protocol()
        f0, fx, _, fz = general_protocol(p.static, p.target, p.gauge).drive_components(0.0, 0.0)
        assert fx == pytest.approx(16 * SQRT2 - 8)
        assert fz == pytest.approx(24.0)
        assert f0 == pytest.approx(0.0, abs=1e-14)

    def test_zero_gauge_drive_is_target_coupling(self):
        # with no micro-motion the drive is the constant difference
        # between target and bare Hamiltonians
        _, fx, fy, fz = crossstitch_drive_components(1.0, 2.0, 8.0, 0.0, 0,
                                                     k=0.7, t=0.123)
        heff = -(2 * np.cos(0.7) + 2.0)
        assert fx == pytest.approx(2 * heff)
        assert fy == pytest.approx(0.0)
        assert fz == pytest.approx(0.0)

    def test_time_periodicity(self):
        rng = np.random.default_rng(12)
        T = 2 * np.pi / 8.0
        for _ in range(25):
            k, t = rng.uniform(-np.pi, np.pi), rng.uniform(0, T)
            s1 = crossstitch_drive_components(1.0, 2.0, 8.0, SQRT2, 3, k, t)
            s2 = crossstitch_drive_components(1.0, 2.0, 8.0, SQRT2, 3, k, t + T)
            assert np.allclose(s1[1:], s2[1:], atol=1e-12)

    def test_closed_form_equals_general_path(self):
        closed = crossstitch_protocol()
        general = general_protocol(closed.static, closed.target, closed.gauge)
        k = np.linspace(-np.pi, np.pi, 32, endpoint=False)
        t = np.linspace(0, closed.period, 32, endpoint=False)
        for a, b in zip(closed.drive_table(k, t), general.drive_table(k, t)):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_closed_form_uses_the_given_parameters(self):
        # the protocol drives with alpha and delta as given, not as
        # recovered from coefficient samples with rounding error
        proto = crossstitch_protocol(alpha=1.0, delta=0.3)
        k = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        t = np.linspace(0, proto.period, 16, endpoint=False)
        direct = crossstitch_drive_components(1.0, 0.3, 8.0, SQRT2, 3,
                                              k[:, None], t[None, :])
        for a, b in zip(proto.drive_table(k, t), direct):
            assert np.array_equal(a, b)


class TestGeneralSynthesis:
    def test_nothing_to_engineer(self):
        chains = algebra.uncoupled_chains(1.0)
        g = GaugeParams(p=0, omega=8.0)
        proto = general_protocol(chains, chains, g)
        k = np.linspace(-np.pi, np.pi, 8, endpoint=False)
        t = np.linspace(0, proto.period, 8, endpoint=False)
        for comp in proto.drive_table(k, t):
            assert np.max(np.abs(comp)) <= 1e-14

    def test_identity_channel_matches_profile(self):
        # phi0-carrying gauges feed the identity drive channel only
        g = GaugeParams(a0=0.5, p=0, omega=8.0, phi0=lambda k: np.cos(k))
        chains = algebra.uncoupled_chains(1.0)
        f0, fx, fy, fz = general_protocol(chains, chains, g).drive_components(0.3, 0.0)
        assert f0 == pytest.approx(np.cos(0.3) * 0.5 * 8.0)
        assert (fx, fy, fz) == (0.0, 0.0, 0.0)

    def test_rejects_static_with_band_structure(self):
        g = GaugeParams(p=3, a_plus=1.0, omega=8.0)
        bad_static = algebra.cross_stitch(1.0, 2.0)
        proto = general_protocol(bad_static, bad_static, g)
        with pytest.raises(ValueError):
            proto.drive_components(0.0, 0.0)

    def test_components_stay_real_for_random_targets(self):
        rng = np.random.default_rng(3)
        for trial in range(10):
            c = rng.normal(size=(4, 3))

            def coeff(k, c=c):
                z = np.zeros_like(k)
                return (z,
                        c[1, 0] + c[1, 1] * np.cos(k) + c[1, 2] * np.sin(2 * k),
                        c[2, 0] + c[2, 1] * np.sin(k),
                        c[3, 0] + c[3, 1] * np.cos(3 * k))

            target = algebra.custom(coeff, band_count=2)
            zero = algebra.custom(lambda k: (np.zeros_like(k),) * 4, band_count=2)
            g = GaugeParams(a_plus=1.2, theta=0.7, p=2, omega=6.0)
            proto = general_protocol(zero, target, g)
            k = np.linspace(-np.pi, np.pi, 12, endpoint=False)
            t = np.linspace(0, proto.period, 12, endpoint=False)
            f0, fx, fy, fz = proto.drive_table(k, t)
            for comp in (f0, fx, fy, fz):
                assert np.isrealobj(comp)
                assert np.all(np.isfinite(comp))


class TestStaticHarmonicResidual:
    def test_chosen_parameters_cancel_all_constants(self):
        proto = crossstitch_protocol()
        for k in np.linspace(-np.pi, np.pi, 16, endpoint=False):
            assert np.max(np.abs(static_harmonic_residual(proto, k))) <= 1e-10

    def test_winding_one_leaves_z_constant(self):
        proto = crossstitch_protocol(p=1)
        k = np.pi / 3
        res = static_harmonic_residual(proto, k)
        heff = -(2 * np.cos(k) + 2.0)
        assert res[2] == pytest.approx(2 * SQRT2 * heff * np.cos(k), rel=1e-9)
        assert abs(res[2]) > 1e-3 * 8.0

    def test_winding_two_leaves_x_constant(self):
        proto = crossstitch_protocol(p=2)
        k = np.pi / 3
        res = static_harmonic_residual(proto, k)
        heff = -(2 * np.cos(k) + 2.0)
        assert res[0] == pytest.approx(-0.5 * 2.0 * heff * np.cos(2 * k), rel=1e-9)
        assert abs(res[0]) > 1e-3 * 8.0

    def test_minimal_winding_is_three(self):
        k = np.pi / 3
        leftovers = {}
        for p in (1, 2, 3):
            res = static_harmonic_residual(crossstitch_protocol(p=p), k)
            leftovers[p] = np.max(np.abs(res))
        assert leftovers[1] > 1e-3 * 8.0
        assert leftovers[2] > 1e-3 * 8.0
        assert leftovers[3] <= 1e-10
