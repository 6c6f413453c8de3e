import numpy as np
import pytest

from floqueng.algebra import SX, SY, SZ, ZERO, HamiltonianSpec, su3_flat
from floqueng.gauge import GaugeParams
from floqueng.propagate import integrate_tdse, verify_protocol
from floqueng.su3 import su3_drive_table
from floqueng.synth import general_protocol

from oracles import S_MINUS, S_PLUS, midpoint_fixed, quasienergies

SQRT2 = np.sqrt(2.0)
GAUGE = GaugeParams(a_plus=SQRT2, p=3, omega=8.0)
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
        spec = HamiltonianSpec("x3", lambda k: (np.zeros_like(k), 1.5 * np.ones_like(k),
                                              np.zeros_like(k), np.zeros_like(k)),
                               band_count=3)
        proto = general_protocol(ZERO, spec, GAUGE)
        for k in (0.0, 0.9):
            f0, fx, _, _ = proto.drive_components(k, 0.0)
            assert fx == pytest.approx(2 * SQRT2 * 8.0 * np.cos(k) + 1.5)
            assert f0 == 0.0

    def test_zero_target_zero_gauge(self):
        spec = HamiltonianSpec("zero3", lambda k: (np.zeros_like(k),) * 4, band_count=3)
        proto = general_protocol(ZERO, spec, GaugeParams(a_plus=0.0, p=0, omega=8.0))
        _, fx, fy, fz = proto.drive_components(0.4, 0.2)
        assert (fx, fy, fz) == (0.0, 0.0, 0.0)

    def test_time_periodicity(self):
        proto = general_protocol(ZERO, su3_flat(delta=2.0), GAUGE)
        rng = np.random.default_rng(8)
        T = proto.period
        for _ in range(10):
            k, t = rng.uniform(-np.pi, np.pi), rng.uniform(0, T)
            a = proto.drive_components(k, t)
            b = proto.drive_components(k, t + T)
            assert all(np.allclose(x, y, atol=1e-12) for x, y in zip(a, b))


class TestVerification:
    def test_third_level_decoupled(self):
        # reference: the full 3x3 drive (zero static part) propagated by its
        # own midpoint loop with eigh exponentials, against the 2x2 block
        # propagation
        proto = general_protocol(ZERO, su3_flat(delta=2.0), GAUGE)
        k = np.array([-2.5, 0.4, 1.9])
        nsteps = 2048
        dt = proto.period / nsteps
        tmid = (np.arange(nsteps) + 0.5) * dt
        f = np.stack(np.broadcast_arrays(
            *proto.drive_components(k[None, :], tmid[:, None])))
        w, v = np.linalg.eigh(np.einsum("a...,aij->...ij", f, OPS3))
        steps = np.einsum("...ij,...j,...kj->...ik", v, np.exp(-1j * dt * w),
                          np.conj(v))
        u3 = np.broadcast_to(np.eye(3, dtype=complex), (len(k), 3, 3))
        for step in steps:
            u3 = step @ u3

        u2 = midpoint_fixed(proto.hamiltonian_fn(k), proto.period, nsteps)
        assert u3.shape == (3, 3, 3) and u2.shape == (3, 2, 2)
        assert np.max(np.abs(u3[:, :2, :2] - u2)) <= 1e-10
        assert np.max(np.abs(u3[:, 2, :2])) <= 1e-12
        assert np.max(np.abs(u3[:, :2, 2])) <= 1e-12
        assert np.max(np.abs(u3[:, 2, 2] - 1.0)) <= 1e-12

    @pytest.mark.parametrize("omega", [8.0, 4.0])
    def test_strobe_exactness(self, omega):
        gauge = GaugeParams(a_plus=SQRT2, p=3, omega=omega)
        rep = verify_protocol(general_protocol(ZERO, su3_flat(delta=2.0), gauge), K16, tol=1e-8)
        assert rep.max_strobe_error <= 1e-8

    def test_gauge_only_evolution(self):
        # zero target: the evolution is pure micro-motion, so one period
        # lands on the winding sign in the embedded block and 1 outside
        spec = HamiltonianSpec("zero3", lambda k: (np.zeros_like(k),) * 4, band_count=3)
        proto = general_protocol(ZERO, spec, GAUGE)
        trace = integrate_tdse(proto.hamiltonian_fn(np.array([0.5, 2.0])),
                               proto.period, tol=1e-9)
        u = with_unit_third_level(trace.unitaries[-1])
        expected = np.diag([-1.0, -1.0, 1.0])
        assert np.max(np.abs(u - expected)) <= 1e-8

    def test_flat_band_eigenphase(self):
        omega = 8.0
        proto = general_protocol(ZERO, su3_flat(delta=2.0),
                                 GaugeParams(a_plus=SQRT2, p=3, omega=omega))
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
        # a nonzero identity channel eta0 = 0.3 under unit couplings
        spec = HamiltonianSpec("eta0", lambda k: (np.full_like(k, 0.3),) + (np.ones_like(k),) * 3,
                               band_count=3)
        with pytest.raises(ValueError):
            verify_protocol(general_protocol(ZERO, spec, GAUGE), K16)

    def test_identity_channel_checked_at_every_evaluated_momentum(self):
        # h0 = 1 - cos 6k vanishes at k = 0, +-pi/3, +-2pi/3 and +-pi, so a
        # probe of a few fixed momenta can miss it; the drive must not
        k101 = np.linspace(-np.pi, np.pi, 101)
        spec = HamiltonianSpec("eta0-between", lambda k: (1 - np.cos(6 * k), 2 * np.cos(k) + 2,
                                                        -(2 * np.cos(k) + 2), np.zeros_like(k)),
                               band_count=3)
        with pytest.raises(ValueError, match="zero identity channel"):
            su3_drive_table(general_protocol(ZERO, spec, GAUGE), k101, np.linspace(0, 0.5, 4))
        with pytest.raises(ValueError, match="zero identity channel"):
            verify_protocol(general_protocol(ZERO, spec, GAUGE), k101)
