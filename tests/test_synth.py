import dataclasses
import tracemalloc

import numpy as np
import pytest

import floqueng.propagate as prop
import floqueng.synth as synth
from floqueng import algebra
from floqueng.algebra import SZ
from floqueng.gauge import GaugeParams, micromotion_matrix, mu_functions
from floqueng.propagate import verify_protocol
from floqueng.synth import (
    _drive_general,
    _momentum_factors,
    crossstitch_protocol,
    general_protocol,
    static_harmonic_residual,
    transform_m1,
    transform_m2,
)

from oracles import S_MINUS, S_PLUS, einsum_drive

SQRT2 = np.sqrt(2.0)


def ladder_coeffs(mat):
    """Expand the traceless part of a 2x2 matrix in (S+, S-, Sz)."""
    return np.array([mat[0, 1], mat[1, 0], mat[0, 0] - mat[1, 1]])


#: The S+ and Sz rows of a full (S+, S-, Sz) matrix: the rows M1 and M2 form.
ROWS = [0, 2]


class TestTransformMatrices:
    def test_m1_identity(self):
        assert np.allclose(transform_m1(0.0), np.eye(3)[ROWS])

    def test_m1_unit_argument(self):
        expected = 0.5 * np.array([
            [1, 0, 1j],
            [0, 1, -1j],
            [1j, -1j, 0],
        ])
        assert np.allclose(transform_m1(1.0), expected[ROWS])

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
            pmat = lambda t: micromotion_matrix(mp(t), p * w * t)
            dp = (pmat(t0 + eps) - pmat(t0 - eps)) / (2 * eps)
            gen = 1j * dp @ pmat(t0).conj().T
            dmp = (mp(t0 + eps) - mp(t0 - eps)) / (2 * eps)
            dm = np.array([dmp, np.conj(dmp), p * w])
            worst = max(worst, np.max(np.abs(
                ladder_coeffs(gen)[ROWS] - transform_m1(mp(t0)) @ dm)))
        assert worst <= 1e-7  # finite-difference floor

    def test_m2_identity(self):
        assert np.allclose(transform_m2(0.0, 0.0), np.eye(3)[ROWS])

    def test_m2_pure_winding_is_diagonal(self):
        z = 1.234
        assert np.allclose(transform_m2(0.0, z),
                           np.diag([np.exp(-1j * z), np.exp(1j * z), 1.0])[ROWS])

    def test_m2_columns_match_explicit_conjugation(self):
        rng = np.random.default_rng(9)
        worst = 0.0
        for _ in range(50):
            mp = rng.normal() + 1j * rng.normal()
            mzr = 5 * rng.normal()
            pmat = micromotion_matrix(mp, mzr)
            m2 = transform_m2(mp, mzr)
            for col, op in enumerate((S_PLUS, S_MINUS, SZ)):
                conj = pmat @ op @ pmat.conj().T
                worst = max(worst, np.max(np.abs(ladder_coeffs(conj)[ROWS] - m2[:, col])))
        assert worst <= 1e-13

    def test_matrices_identity_at_strobe_times(self):
        g = GaugeParams(a_plus=SQRT2, p=3, omega=8.0)
        for n in range(4):
            t = n * g.period
            mp = SQRT2 * np.sin(g.omega * t) * np.exp(1j * 0.4)
            mzr = 3 * g.omega * t
            assert np.allclose(transform_m1(mp), np.eye(3)[ROWS], atol=1e-12)
            assert np.allclose(transform_m2(mp, mzr), np.eye(3)[ROWS], atol=1e-12)

    @pytest.mark.parametrize("which", ["m1", "m2"])
    def test_rows_pair_as_conjugates_bit_for_bit(self, which):
        # the Sz row has conjugate ladder entries and a real Sz entry,
        # exactly: so the drive's real f_z needs no floating-point check
        rng = np.random.default_rng(16)
        n = 4000
        m = 10 ** rng.uniform(-3, 3, n) * np.exp(2j * np.pi * rng.uniform(size=n))
        z = rng.uniform(-200, 200, n)
        mat = transform_m1(m) if which == "m1" else transform_m2(m, z)
        assert np.array_equal(mat[:, 1, 1], np.conj(mat[:, 1, 0]))
        assert np.array_equal(mat[:, 1, 2].imag, np.zeros(n))


class TestCrossStitchDrive:
    def test_initial_sample(self):
        f0, fx, fy, fz = crossstitch_protocol().drive_components(0.0, 0.0)
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
        proto = crossstitch_protocol(a_plus=0.0, p=0)
        _, fx, fy, fz = proto.drive_components(0.7, 0.123)
        heff = -(2 * np.cos(0.7) + 2.0)
        assert fx == pytest.approx(2 * heff)
        assert fy == pytest.approx(0.0)
        assert fz == pytest.approx(0.0)

    def test_time_periodicity(self):
        rng = np.random.default_rng(12)
        proto = crossstitch_protocol()
        T = 2 * np.pi / 8.0
        for _ in range(25):
            k, t = rng.uniform(-np.pi, np.pi), rng.uniform(0, T)
            s1 = proto.drive_components(k, t)
            s2 = proto.drive_components(k, t + T)
            assert np.allclose(s1[1:], s2[1:], atol=1e-12)

    def test_closed_form_equals_general_path(self):
        closed = crossstitch_protocol()
        general = general_protocol(closed.static, closed.target, closed.gauge)
        k = np.linspace(-np.pi, np.pi, 32, endpoint=False)
        t = np.linspace(0, closed.period, 32, endpoint=False)
        for a, b in zip(closed.drive_table(k, t), general.drive_table(k, t)):
            assert np.max(np.abs(a - b)) <= 1e-12

    def test_table_equals_general_path_over_random_drives(self):
        # the hopping-harmonic table and the M1/M2 path are independent
        # derivations of one drive, for any target, gauge and winding
        rng = np.random.default_rng(21)
        k = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        for _ in range(40):
            alpha, delta = rng.uniform(-3, 3, 2)
            closed = crossstitch_protocol(alpha, delta, omega=rng.uniform(0.5, 12),
                                          a_plus=rng.uniform(0, 3), p=int(rng.integers(-4, 5)))
            general = general_protocol(closed.static, closed.target, closed.gauge)
            t = np.linspace(0, closed.period, 16, endpoint=False)
            a, b = np.stack(closed.drive_table(k, t)), np.stack(general.drive_table(k, t))
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, np.max(np.abs(b)))

    def test_closed_form_uses_the_given_parameters(self):
        # the protocol drives with alpha, delta and a_plus as given, not as
        # recovered from coefficient samples with rounding error; a large
        # a_plus builds although a_plus sin(2 pi) rounds to a few 1e-12
        k = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        for a_plus in (SQRT2, 1e4):
            proto = crossstitch_protocol(alpha=1.0, delta=0.3, a_plus=a_plus)
            assert proto.closed_form == (1.0, 0.3) and proto.gauge.a_plus == a_plus
            general = general_protocol(proto.static, proto.target, proto.gauge)
            t = np.linspace(0, proto.period, 16, endpoint=False)
            direct = general.drive_table(k, t)
            scale = max(1.0, max(np.max(np.abs(b)) for b in direct))
            for a, b in zip(proto.drive_table(k, t), direct):
                assert np.max(np.abs(a - b)) <= 1e-12 * scale


class TestGeneralSynthesis:
    def test_nothing_to_engineer(self):
        chains = algebra.uncoupled_chains(1.0)
        g = GaugeParams(p=0, omega=8.0)
        proto = general_protocol(chains, chains, g)
        k = np.linspace(-np.pi, np.pi, 8, endpoint=False)
        t = np.linspace(0, proto.period, 8, endpoint=False)
        for comp in proto.drive_table(k, t):
            assert np.max(np.abs(comp)) <= 1e-14

    def test_rejects_static_with_band_structure(self):
        g = GaugeParams(p=3, a_plus=1.0, omega=8.0)
        bad_static = algebra.cross_stitch(1.0, 2.0)
        proto = general_protocol(bad_static, bad_static, g)
        with pytest.raises(ValueError):
            proto.drive_components(0.0, 0.0)

    @pytest.mark.parametrize("proto", [
        # a_plus^2 h sin^2 overflows in the closed form
        crossstitch_protocol(a_plus=1e154),
        # a_plus^2 overflows to inf and the M1/M2 path turns it into nan,
        # which only the finite check of the drive catches
        general_protocol(algebra.ZERO, algebra.su3_flat(),
                         GaugeParams(a_plus=1e200, p=3, omega=8.0)),
    ])
    def test_overflowing_drive_raises(self, proto):
        with pytest.raises(ValueError, match="not finite"):
            proto.drive_components(np.array([0.3]), np.array([0.1]))
        with pytest.raises(ValueError, match="not finite"):
            proto.hamiltonian_fn(np.array([0.3]))(np.array([0.1]))

    @pytest.mark.parametrize("family", ["closed", "general"])
    def test_hamiltonian_fn_is_the_stacked_drive_on_any_split(self, family):
        # propagation calls hamiltonian_fn once per chunk of times; a momentum's
        # H must be the drive_components value bit for bit, whatever times and
        # momenta share its call
        rng = np.random.default_rng(15)
        n_k, n_t = 40, 30
        for _ in range(6):
            alpha, delta = rng.uniform(-2, 2, 2)
            g = GaugeParams(a_plus=rng.uniform(0, 3), p=int(rng.integers(-4, 5)),
                            omega=rng.uniform(0.5, 12))
            proto = crossstitch_protocol(alpha, delta, g.omega, g.a_plus, g.p)
            if family == "general":
                proto = general_protocol(proto.static, proto.target, g)
            proto = dataclasses.replace(proto, fz_scale=rng.choice([1.0, rng.uniform(0.5, 2)]))
            k = rng.uniform(-np.pi, np.pi, n_k)
            t = rng.uniform(0, g.period, n_t)
            drive = proto.drive_components(k[:, None], t[None, :])
            assert type(drive) is np.ndarray and drive.shape == (4, n_k, n_t)
            f0, fx, fy, fz = drive
            # hamiltonian_fn reads f0 off the first time of each chunk
            assert np.array_equal(f0.view(np.int64),
                                  np.repeat(f0[:, :1], n_t, axis=1).view(np.int64))
            if family == "closed":  # a -0.0 here would print as -0 in the synth CSV
                assert not np.signbit(f0).any()
            h0s = proto.static.coeffs(k[:, None])[0]
            expected = np.stack(np.broadcast_arrays(h0s + f0, fx, fy, fz), axis=-1)
            for ks in np.array_split(rng.permutation(n_k), rng.integers(1, 5)):
                hfun = proto.hamiltonian_fn(k[ks])
                cuts = np.sort(rng.choice(np.arange(1, n_t), rng.integers(0, 4), replace=False))
                for ts in np.split(np.arange(n_t), cuts):
                    assert np.array_equal(hfun(t[ts]), expected[ks][:, ts].swapaxes(0, 1))

    def test_paired_drive_holds_one_matrix_stack(self):
        # the benchmark's table check evaluates the general cross-stitch drive
        # on 512 x 256 paired (k, t) points, where one complex 3x3 stack takes
        # 18 MiB.  The drive holds one stack at a time, beside less than two
        # stacks' worth of inputs, partial sums and temporaries; a second
        # live stack, or an undivided copy of one, goes over the three
        n = 512 * 256
        g = GaugeParams(a_plus=SQRT2, p=3, omega=8.0)
        proto = general_protocol(algebra.uncoupled_chains(1.0), algebra.cross_stitch(1.0, 2.0), g)
        k = np.repeat(np.linspace(-np.pi, np.pi, 512, endpoint=False), 256)
        t = np.tile(np.linspace(0, g.period, 256, endpoint=False), 512)
        proto.drive_components(k[:8], t[:8])
        tracemalloc.start()
        try:
            proto.drive_components(k, t)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * 9 * np.dtype(complex).itemsize

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

            target = algebra.HamiltonianSpec("random", coeff)
            g = GaugeParams(a_plus=1.2, p=2, omega=6.0)
            proto = general_protocol(algebra.ZERO, target, g)
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


    @pytest.mark.parametrize("make,k", [
        (lambda: crossstitch_protocol(p=1), np.linspace(-np.pi, np.pi, 16, endpoint=False)),
        (crossstitch_protocol, np.linspace(-np.pi, np.pi, 64).reshape(8, 8)),
        (lambda: general_protocol(algebra.ZERO, algebra.chiral_p_wave_2d(),
                                  GaugeParams(a_plus=1.3, p=3, omega=8.0)),
         np.random.default_rng(0).uniform(-3, 3, (2, 3, 2))),
    ], ids=["crossstitch-p1", "crossstitch-8x8", "pwave2d"])
    def test_momentum_array_matches_per_momentum_calls(self, make, k):
        # times go first against the batch, so the result is (3, *batch); the
        # quadrature sums in another order, at most 8.4e-14 apart on these cases
        proto = make()
        batch = proto.target.k_labels(k).shape
        ks = k.reshape((-1,) + k.shape[len(batch):])  # one momentum per entry
        each = np.stack([static_harmonic_residual(proto, kv) for kv in ks], axis=-1)
        assert each.shape == (3, len(ks))  # a single momentum keeps its (3,) result
        res = static_harmonic_residual(proto, k)
        assert res.shape == (3,) + batch
        assert np.max(np.abs(res - each.reshape(res.shape))) <= 1e-12


def per_sample_drive(target, static, g, k, t):
    """Reference: M1 and M2 formed at every (k, t) sample from the full
    m_plus = e^{ik} mu_plus(t)."""
    kphase = np.exp(1j * target.ladder_angle(np.asarray(k, dtype=float)))
    h0t, hxt, hyt, hzt = target.coeffs(k)
    h0s = static.coeffs(k)[0]
    mu_plus, mu_zr, dmu_plus, dmu_zr = mu_functions(g, t)
    m_plus = kphase * mu_plus
    shape = np.broadcast_shapes(m_plus.shape, np.shape(hxt), np.shape(mu_zr), np.shape(hzt))

    def bc(a):
        return np.broadcast_to(np.asarray(a, dtype=complex), shape)

    dm = np.stack([bc(kphase * dmu_plus), bc(np.conj(kphase) * dmu_plus), bc(dmu_zr)], axis=-1)
    h_pm = np.stack([bc((hxt - 1j * hyt) / 2), bc((hxt + 1j * hyt) / 2), bc(hzt)], axis=-1)
    m1 = transform_m1(np.broadcast_to(m_plus, shape))
    m2 = transform_m2(np.broadcast_to(m_plus, shape), np.broadcast_to(mu_zr, shape))
    f_pm = np.einsum("...ij,...j->...i", m1, dm) + np.einsum("...ij,...j->...i", m2, h_pm)
    f0 = np.broadcast_to(h0t - h0s + np.zeros(shape), shape)
    return f0, 2 * np.real(f_pm[..., 0]), -2 * np.imag(f_pm[..., 0]), np.real(f_pm[..., 1])


def random_trig(rng, dimension):
    """A target whose four channels are random first-harmonic polynomials in
    k (in kx and ky on a 2D grid)."""
    a = rng.normal(size=(4, 3, dimension))

    def fn(k):
        k = k if dimension == 2 else k[..., None]
        return tuple(np.sum(c[0] + c[1] * np.cos(k) + c[2] * np.sin(k), axis=-1) for c in a)

    return algebra.HamiltonianSpec("random", fn, dimension=dimension)


class TestMomentumFactorization:
    def test_momentum_enters_m1_m2_as_a_phase(self):
        # M(e^{ik} mu) = Phi M(mu) Phi^dagger with Phi = diag(e^{ik}, e^{-ik}, 1)
        rng = np.random.default_rng(14)
        k = rng.uniform(-np.pi, np.pi, 2000)
        mu = rng.normal(scale=2.0, size=2000)
        mz = rng.uniform(-10, 10, 2000)
        phi = np.stack([np.exp(1j * k), np.exp(-1j * k), np.ones_like(k)], axis=-1)
        rotate = (phi[:, :, None] * np.conj(phi[:, None, :]))[:, ROWS]
        assert np.max(np.abs(transform_m1(np.exp(1j * k) * mu)
                             - rotate * transform_m1(mu))) <= 1e-14
        assert np.max(np.abs(transform_m2(np.exp(1j * k) * mu, mz)
                             - rotate * transform_m2(mu, mz))) <= 1e-14

    @pytest.mark.parametrize("dimension", [1, 2])
    def test_drive_matches_per_sample_formula(self, dimension):
        rng = np.random.default_rng(dimension)
        static = algebra.uncoupled_chains(0.7) if dimension == 1 else algebra.ZERO
        for _ in range(5):
            target = random_trig(rng, dimension)
            g = GaugeParams(a_plus=rng.uniform(0, 2), p=int(rng.integers(-3, 4)),
                            omega=rng.uniform(1, 10))
            k = rng.uniform(-np.pi, np.pi, (24, 1, dimension) if dimension == 2 else (24, 1))
            t = rng.uniform(0, g.period, (1, 16))
            got = np.moveaxis(_drive_general(_momentum_factors(target, static, k), g, t), -1, 0)
            ref = np.stack(per_sample_drive(target, static, g, k, t))
            assert got.shape == ref.shape == (4, 24, 16)
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    def test_drive_matches_the_einsum_formula(self):
        # the drive contracts the S+ and Sz rows of M1 dmu and M2 Phi^dagger h
        # as explicit sums; the einsum contraction adds the same three
        # products per row in another order, so each of the two row sums may
        # move by 2 eps of its largest term: 4 eps of the largest entry in all
        rng = np.random.default_rng(17)
        for trial in range(60):
            dimension = 1 + trial % 2
            target = (algebra.su3_flat(rng.uniform(-3, 3)) if trial % 6 == 0
                      else random_trig(rng, dimension))
            static = (algebra.uncoupled_chains(rng.uniform(-2, 2))
                      if dimension == 1 and target.band_count == 2 else algebra.ZERO)
            g = GaugeParams(a_plus=rng.uniform(0, 3), p=int(rng.integers(-6, 7)),
                            omega=rng.uniform(0.5, 20))
            tail = (dimension,) if dimension == 2 else ()
            if trial % 4 < 2:  # paired: one momentum per time
                k = rng.uniform(-np.pi, np.pi, (50,) + tail)
                t = rng.uniform(0, g.period, 50)
            else:  # a momentum grid meshed against a time grid
                k = rng.uniform(-np.pi, np.pi, (20, 1) + tail)
                t = rng.uniform(0, g.period, (1, 15))
            got = np.stack(np.broadcast_arrays(
                *general_protocol(static, target, g).drive_components(k, t)))
            ref = np.stack(np.broadcast_arrays(*einsum_drive(target, static, g, k, t)))
            assert got.shape == ref.shape
            assert np.max(np.abs(got - ref)) <= 4 * np.finfo(float).eps * np.max(np.abs(ref))

    def test_three_band_drive_matches_per_sample_formula(self):
        g = GaugeParams(a_plus=SQRT2, p=3, omega=4.0)
        k = np.linspace(-np.pi, np.pi, 32)[:, None]
        t = np.linspace(0, g.period, 20)[None, :]
        target = algebra.su3_flat(delta=2.0)
        got = np.moveaxis(_drive_general(_momentum_factors(target, algebra.ZERO, k), g, t), -1, 0)
        ref = np.stack(per_sample_drive(target, algebra.ZERO, g, k, t))
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))


class TestMomentumFactorMemo:
    """The general drive forms its momentum-only factors once per grid."""

    GAUGE = GaugeParams(a_plus=SQRT2, p=3, omega=8.0)

    def protocol(self, family, target=algebra.su3_flat()):
        if family == "closed":
            return crossstitch_protocol()  # GAUGE holds its default gauge
        return general_protocol(algebra.ZERO, target, self.GAUGE)

    def test_target_formed_once_per_grid_whatever_the_chunking(self, monkeypatch):
        self.check_formed_once_per_grid("general", monkeypatch)

    def test_closed_form_harmonics_formed_once_per_grid(self, monkeypatch):
        self.check_formed_once_per_grid("closed", monkeypatch)

    def check_formed_once_per_grid(self, family, monkeypatch):
        # propagation evaluates the drive once per chunk of times; the
        # momentum factors (the general target's coefficients, the closed
        # form's harmonics) depend on momentum alone, so how often they are
        # formed must not depend on the number of chunks
        k = np.linspace(-np.pi, np.pi, 16, endpoint=False)
        harmonics = synth._momentum_harmonics

        def run(chunk_evals):
            calls = []

            def counted(fn):
                return lambda k: calls.append(k.shape) or fn(k)

            monkeypatch.setattr(synth, "_momentum_harmonics", counted(harmonics))
            proto = self.protocol(family, algebra.HamiltonianSpec(
                "counted", counted(algebra.su3_flat().coeff_fn), band_count=3))
            monkeypatch.setattr(prop, "_CHUNK_EVALS", chunk_evals)
            return calls, verify_protocol(proto, k, tol=1e-8)

        calls, report = run(prop._CHUNK_EVALS)
        few_calls, few_report = run(1)  # one step over every momentum per chunk
        assert len(calls) == len(few_calls) > 0
        assert np.array_equal(report.strobe_errors, few_report.strobe_errors)

    def test_grid_mutated_in_place_gets_its_new_values(self):
        self.check_mutated_grid("general")

    def test_closed_form_grid_mutated_in_place_gets_its_new_values(self):
        self.check_mutated_grid("closed")

    def check_mutated_grid(self, family):
        proto = self.protocol(family)
        k = np.linspace(-np.pi, np.pi, 8)
        t = np.linspace(0, proto.period, 5)[:, None]
        proto.drive_components(k, t)
        k += 0.3
        got = proto.drive_components(k, t)
        fresh = self.protocol(family)
        for a, b in zip(got, fresh.drive_components(k.copy(), t)):
            assert np.array_equal(a, b)

    def test_identity_channel_checked_on_each_new_grid(self):
        def fn(k):
            base = 2 * np.cos(k) + 2
            return np.where(k > 1, 1.0, 0.0), base, -base, np.zeros_like(k)

        proto = general_protocol(algebra.ZERO, algebra.HamiltonianSpec("h0-above-1", fn,
                                                                       band_count=3), self.GAUGE)
        good, bad = np.linspace(-1, 1, 5), np.linspace(-1, 2, 5)
        proto.drive_components(good, 0.1)
        for _ in range(2):  # a failed grid stores nothing, so it raises again
            with pytest.raises(ValueError, match="zero identity channel"):
                proto.drive_components(bad, 0.1)
        proto.drive_components(good, 0.1)
