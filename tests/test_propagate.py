import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

import floqueng.propagate as prop
from floqueng.algebra import SZ, custom
from floqueng.errors import (
    HorizonMismatch,
    NonHermitianInput,
    ToleranceNotReached,
)
from floqueng.gauge import GaugeParams, micromotion_at
from floqueng.propagate import (
    cf4_fixed,
    expm_herm,
    extract_micromotion,
    floquet_operator,
    integrate_tdse,
    midpoint_fixed,
    verify_protocol,
)
from floqueng.synth import DrivingProtocol, crossstitch_protocol, general_protocol

K8 = np.linspace(-np.pi, np.pi, 8, endpoint=False)


def test_expm_herm_against_scipy():
    rng = np.random.default_rng(2)
    for d in (2, 3):
        for _ in range(40):
            a = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            h = (a + a.conj().T) / 2
            dt = rng.uniform(-2, 2)
            assert np.allclose(expm_herm(h, dt), scipy_expm(-1j * dt * h),
                               atol=1e-12)


def test_expm_herm_block_diagonal_three_band():
    rng = np.random.default_rng(4)
    h = np.zeros((5, 3, 3), dtype=complex)
    for i in range(5):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        h[i, :2, :2] = (a + a.conj().T) / 2
        h[i, 2, 2] = rng.normal()
    out = expm_herm(h, 0.37)
    for i in range(5):
        assert np.allclose(out[i], scipy_expm(-1j * 0.37 * h[i]), atol=1e-12)


def test_zero_hamiltonian_gives_identity():
    trace = integrate_tdse(lambda t: np.zeros((2, 2)), horizon=1.0, tol=1e-9,
                           base_steps=64, sample_times=[0.25, 0.5])
    assert np.allclose(trace.unitaries, np.eye(2))
    assert trace.estimated_error == 0.0


def test_constant_sz_matches_exact_exponential():
    w = 3.7
    horizon = 2.0
    trace = integrate_tdse(lambda t: w * SZ, horizon=horizon, tol=1e-10,
                           base_steps=128)
    expected = np.diag([np.exp(-1j * w * horizon / 2), np.exp(1j * w * horizon / 2)])
    assert np.allclose(trace.unitaries[-1], expected, atol=1e-10)


def test_unitarity_preserved_along_trace():
    tol = 1e-8
    proto = crossstitch_protocol()
    trace = integrate_tdse(proto.hamiltonian_fn(K8), proto.period, tol=tol,
                           sample_times=np.linspace(0, proto.period, 16, endpoint=False))
    for u in trace.unitaries:
        gram = u @ np.conj(np.swapaxes(u, -1, -2))
        assert np.linalg.norm(gram - np.eye(2), axis=(-2, -1)).max() <= 10 * tol


def test_tolerance_not_reached(monkeypatch):
    monkeypatch.setattr(prop, "MAX_TOTAL_STEPS", 256)
    hfun = lambda t: np.array([[0.0, np.exp(-t) * 40], [np.exp(-t) * 40, 0.0]])
    with pytest.raises(ToleranceNotReached):
        integrate_tdse(hfun, horizon=3.0, tol=1e-12, base_steps=16)


def test_non_finite_round_fails_fast(monkeypatch):
    # an overflowing drive makes U non-finite in the first round; the loop
    # must stop there instead of doubling to the step budget
    monkeypatch.setattr(prop, "MAX_TOTAL_STEPS", 2**14)
    proto = crossstitch_protocol(alpha=1e300)
    with np.errstate(all="ignore"), pytest.raises(ToleranceNotReached,
                                                  match="4096-step round"):
        integrate_tdse(proto.hamiltonian_fn(K8[:4]), proto.period, tol=1e-8)


def test_non_hermitian_input_rejected():
    with pytest.raises(NonHermitianInput):
        integrate_tdse(lambda t: np.array([[0, 1], [0, 0]]), horizon=1.0)


def test_tol_range_validated():
    with pytest.raises(ValueError):
        integrate_tdse(lambda t: np.zeros((2, 2)), horizon=1.0, tol=1e-2)


def test_floquet_operator_and_horizon_mismatch():
    proto = crossstitch_protocol()
    trace = integrate_tdse(proto.hamiltonian_fn(K8), proto.period, tol=1e-8)
    u_t = floquet_operator(trace, period=proto.period)
    assert u_t.shape == (8, 2, 2)
    with pytest.raises(HorizonMismatch):
        floquet_operator(trace, period=2 * proto.period)


def test_three_period_composition_is_cube_of_floquet_operator():
    proto = crossstitch_protocol()
    T = proto.period
    trace = integrate_tdse(proto.hamiltonian_fn(K8), 3 * T, tol=1e-9,
                           base_steps=3 * 4096, sample_times=[T, 2 * T, 3 * T])
    u1 = trace.unitaries[1]
    u3 = trace.unitaries[-1]
    assert np.max(np.abs(u3 - u1 @ u1 @ u1)) <= 3e-9


def test_midpoint_convergence_order():
    proto = crossstitch_protocol()
    hfun = proto.hamiltonian_fn(np.array([0.9]))
    ref = cf4_fixed(hfun, proto.period, 16384)
    steps = np.array([256, 512, 1024, 2048])
    errs = np.array([
        np.max(np.abs(midpoint_fixed(hfun, proto.period, int(n)) - ref))
        for n in steps
    ])
    slope = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_cf4_convergence_order():
    proto = crossstitch_protocol()
    hfun = proto.hamiltonian_fn(np.array([0.9]))
    ref = cf4_fixed(hfun, proto.period, 16384)
    steps = np.array([64, 128, 256, 512])
    errs = np.array([
        np.max(np.abs(cf4_fixed(hfun, proto.period, int(n)) - ref))
        for n in steps
    ])
    slope = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert 3.7 <= slope <= 4.3


@pytest.mark.parametrize("omega", [8.0, 4.0])
def test_independent_integrators_agree(omega):
    proto = crossstitch_protocol(omega=omega)
    k = np.linspace(-np.pi, np.pi, 4, endpoint=False)
    hfun = proto.hamiltonian_fn(k)
    trace = integrate_tdse(hfun, proto.period, tol=1e-9)
    u_mid = midpoint_fixed(hfun, proto.period, 2**19)
    assert np.max(np.abs(trace.unitaries[-1] - u_mid)) <= 1e-9


_CHANNEL = st.tuples(*[st.floats(-2.0, 2.0)] * 3)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(channels=st.tuples(*[_CHANNEL] * 4), omega=st.floats(3.0, 12.0),
       p=st.integers(3, 6), a_plus=st.floats(1.0, 2.0))
def test_exactness_over_random_trigonometric_targets(channels, omega, p, a_plus):
    # every channel of the target is c0 + c1 cos k + s1 sin k
    def coeffs(k):
        k = np.asarray(k, dtype=float)
        return tuple(c0 + c1 * np.cos(k) + s1 * np.sin(k)
                     for c0, c1, s1 in channels)

    zero = custom(lambda k: (np.zeros_like(np.asarray(k, dtype=float)),) * 4)
    proto = general_protocol(zero, custom(coeffs),
                             GaugeParams(a_plus=a_plus, p=p, omega=omega))
    tol = 1e-8
    rep = verify_protocol(proto, np.linspace(-np.pi, np.pi, 4, endpoint=False),
                          tol=tol)
    assert rep.max_strobe_error <= tol


def test_extract_micromotion_trivial_drive():
    h0 = 0.8 * SZ
    trace = integrate_tdse(lambda t: h0, horizon=1.5, tol=1e-10, base_steps=192,
                           sample_times=np.linspace(0, 1.5, 7))
    ps = extract_micromotion(trace, h0)
    assert np.max(np.abs(ps - np.eye(2))) <= 1e-10


def test_extract_micromotion_matches_closed_form():
    proto = crossstitch_protocol()
    T = proto.period
    samples = np.linspace(0, T, 64, endpoint=False)
    trace = integrate_tdse(proto.hamiltonian_fn(K8), T, tol=1e-8,
                           sample_times=samples)
    heff = proto.target_matrices(K8)
    ps = extract_micromotion(trace, heff)
    worst = 0.0
    for j, t in enumerate(trace.times):
        ref = micromotion_at(proto.gauge, K8, float(t))
        worst = max(worst, float(np.max(np.abs(ps[j] - ref))))
    assert worst <= 1e-7


def test_verify_protocol_crossstitch():
    proto = crossstitch_protocol()
    tol = 1e-8
    rep = verify_protocol(proto, K8, tol=tol)
    assert rep.max_strobe_error <= 1e-8
    assert rep.max_micromotion_error <= 1e-7
    assert rep.strobe_phase_used == pytest.approx(-1.0)
    assert not rep.failures
    assert bool(rep.failures) == (rep.max_strobe_error > tol)


def test_verify_protocol_flags_corrupted_drive():
    base = crossstitch_protocol()
    bad = DrivingProtocol(target=base.target, static=base.static,
                          gauge=base.gauge, method=base.method, fz_scale=1.01)
    tol = 1e-8
    rep = verify_protocol(bad, np.linspace(-np.pi, np.pi, 4, endpoint=False),
                          tol=tol)
    assert rep.max_strobe_error > 1e-3
    assert rep.failures
    assert bool(rep.failures) == (rep.max_strobe_error > tol)


def circular_gap(a, b, omega):
    """Distance between quasienergies on the circle of circumference omega."""
    d = np.abs(np.asarray(a) - np.asarray(b)) % omega
    return np.minimum(d, omega - d)


def test_quasienergy_consistency_with_folding():
    # band energies map to eigenphases modulo the driving quantum; at the
    # zone edge the two folded images coincide, so compare circularly
    from floqueng.spectra import quasienergies

    for omega in (8.0, 4.0):
        proto = crossstitch_protocol(omega=omega)
        trace = integrate_tdse(proto.hamiltonian_fn(K8), proto.period, tol=1e-8)
        u_t = trace.unitaries[-1]
        for i, k in enumerate(K8):
            eps = quasienergies(u_t[i], omega, strobe_phase=-1.0)
            bands = np.array([2.0, -4 * np.cos(k) - 2.0])
            gaps = circular_gap(eps[:, None], bands[None, :], omega)
            # every measured quasienergy sits on some band image and the
            # assignment covers both bands
            assert np.max(np.min(gaps, axis=1)) <= 1e-7
            assert np.max(np.min(gaps, axis=0)) <= 1e-7
