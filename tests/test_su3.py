import numpy as np
import pytest

from floqueng.algebra import S_MINUS, S_PLUS, SX, SY, SZ, su3_flat
from floqueng.propagate import integrate_tdse, midpoint_fixed
from floqueng.su3 import verify_su3
from floqueng.synth import su3_protocol

SQRT2 = np.sqrt(2.0)
K16 = np.linspace(-np.pi, np.pi, 16, endpoint=False)

#: (I, Lx, Ly, Lz) on three levels: the spin-1/2 set on the first two.
OPS3 = np.zeros((4, 3, 3), dtype=complex)
OPS3[0] = np.eye(3)
OPS3[1:, :2, :2] = (SX, SY, SZ)


def with_unit_third_level(block):
    """A (..., 2, 2) block as (..., 3, 3) with the trivial third level."""
    out = np.zeros(block.shape[:-2] + (3, 3), dtype=complex)
    out[..., :2, :2] = block
    out[..., 2, 2] = 1.0
    return out


def comm(a, b):
    return a @ b - b @ a


class TestOperators:
    # the three-band couplings are the spin-1/2 block operators themselves

    def test_lz_matrix(self):
        assert np.allclose(SZ, np.diag([0.5, -0.5]))

    def test_ladder_nilpotency(self):
        assert np.allclose(S_PLUS @ S_PLUS, 0)
        assert np.allclose(S_MINUS @ S_MINUS, 0)

    def test_commutator_table_matches_spin_half(self):
        assert np.allclose(comm(S_PLUS, S_MINUS), 2 * SZ)
        assert np.allclose(comm(SZ, S_PLUS), S_PLUS)
        assert np.allclose(comm(SZ, S_MINUS), -S_MINUS)
        assert np.allclose(comm(SX, SY), 1j * SZ)


class TestDrive:
    def test_initial_sample_x_only_target(self):
        spec = su3_flat(eta_fn=lambda k: (1.5 * np.ones_like(k),
                                          np.zeros_like(k),
                                          np.zeros_like(k)))
        proto = su3_protocol(spec, omega=8.0, a_plus=SQRT2, p=3)
        for k in (0.0, 0.9):
            f0, fx, _, _ = proto.drive_components(k, 0.0)
            assert fx == pytest.approx(2 * SQRT2 * 8.0 * np.cos(k) + 1.5)
            assert f0 == 0.0

    def test_zero_target_zero_gauge(self):
        spec = su3_flat(eta_fn=lambda k: (np.zeros_like(k),) * 3)
        proto = su3_protocol(spec, omega=8.0, a_plus=0.0, p=0)
        _, fx, fy, fz = proto.drive_components(0.4, 0.2)
        assert (fx, fy, fz) == (0.0, 0.0, 0.0)

    def test_time_periodicity(self):
        proto = su3_protocol(su3_flat(delta=2.0), omega=8.0, a_plus=SQRT2, p=3)
        rng = np.random.default_rng(8)
        T = proto.period
        for _ in range(10):
            k, t = rng.uniform(-np.pi, np.pi), rng.uniform(0, T)
            a = proto.drive_components(k, t)
            b = proto.drive_components(k, t + T)
            assert all(np.allclose(x, y, atol=1e-12) for x, y in zip(a, b))


class TestVerification:
    def test_third_level_decoupled(self):
        # reference: the full 3x3 drive (zero static part) propagated through
        # the generic eigh + matmul path, against the 2x2 block propagation
        proto = su3_protocol(su3_flat(delta=2.0), omega=8.0, a_plus=SQRT2, p=3)
        k = np.array([-2.5, 0.4, 1.9])

        def h3(t):
            f = np.stack(np.broadcast_arrays(
                *proto.drive_components(k[None, :], t[:, None])))
            return np.einsum("a...,aij->...ij", f, OPS3)

        u3 = midpoint_fixed(h3, proto.period, 2048)
        u2 = midpoint_fixed(proto.hamiltonian_fn(k), proto.period, 2048)
        assert u3.shape == (3, 3, 3) and u2.shape == (3, 2, 2)
        assert np.max(np.abs(u3[:, :2, :2] - u2)) <= 1e-10
        assert np.max(np.abs(u3[:, 2, :2])) <= 1e-12
        assert np.max(np.abs(u3[:, :2, 2])) <= 1e-12
        assert np.max(np.abs(u3[:, 2, 2] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("omega", [8.0, 4.0])
    def test_strobe_exactness(self, omega):
        rep = verify_su3(su3_flat(delta=2.0), omega, SQRT2, 3, K16, tol=1e-8)
        assert rep.max_strobe_error <= 1e-8

    def test_gauge_only_evolution(self):
        # zero target: the evolution is pure micro-motion, so one period
        # lands on the winding sign in the embedded block and 1 outside
        spec = su3_flat(eta_fn=lambda k: (np.zeros_like(k),) * 3)
        proto = su3_protocol(spec, omega=8.0, a_plus=SQRT2, p=3)
        trace = integrate_tdse(proto.hamiltonian_fn(np.array([0.5, 2.0])),
                               proto.period, tol=1e-9)
        u = with_unit_third_level(trace.unitaries[-1])
        expected = np.diag([-1.0, -1.0, 1.0])
        assert np.max(np.abs(u - expected)) <= 1e-8

    def test_flat_band_eigenphase(self):
        from floqueng.spectra import quasienergies

        omega = 8.0
        proto = su3_protocol(su3_flat(delta=2.0), omega=omega, a_plus=SQRT2, p=3)
        trace = integrate_tdse(proto.hamiltonian_fn(K16), proto.period, tol=1e-8)
        u = with_unit_third_level(trace.unitaries[-1])
        phase = np.diag([-1.0, -1.0, 1.0])
        for i, k in enumerate(K16):
            eps = quasienergies(phase @ u[i], omega)
            assert np.min(np.abs(eps)) <= 1e-8
            r = 0.5 * np.sqrt(2) * abs(2 * np.cos(k) + 2.0)
            expected = sorted(
                e - omega * np.round(e / omega) for e in (-r, 0.0, r))
            assert np.allclose(np.sort(eps), expected, atol=1e-7)

    def test_eta0_rejected(self):
        spec = su3_flat(eta_fn=lambda k: (np.ones_like(k),) * 3, eta0=0.3)
        with pytest.raises(ValueError):
            verify_su3(spec, 8.0, SQRT2, 3, K16)
