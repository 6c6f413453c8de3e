import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

import floqueng.propagate as prop
from floqueng.algebra import assemble_batch, custom
from floqueng.errors import NonHermitianInput, ToleranceNotReached
from floqueng.gauge import GaugeParams, micromotion_at
from floqueng.propagate import (
    cf4_fixed,
    expm_herm,
    extract_micromotion,
    integrate_tdse,
    midpoint_fixed,
    verify_protocol,
)
from floqueng.synth import crossstitch_protocol, general_protocol

K8 = np.linspace(-np.pi, np.pi, 8, endpoint=False)


def constant(c):
    """Time-independent hfun: coefficients ``c`` = (h0, hx, hy, hz) at every
    time of a 1D batch."""
    c = np.asarray(c)
    return lambda t: np.broadcast_to(c, (len(t),) + c.shape)


def matrices(c):
    """The Hamiltonians of a (..., 4) coefficient stack as a (..., 2, 2) stack."""
    return assemble_batch(*np.moveaxis(c, -1, 0))


def test_expm_herm_against_scipy():
    rng = np.random.default_rng(2)
    for _ in range(40):
        c = rng.normal(size=4)
        dt = rng.uniform(-2, 2)
        assert np.allclose(expm_herm(c, dt), scipy_expm(-1j * dt * matrices(c)),
                           atol=1e-12)


def test_zero_hamiltonian_gives_identity():
    trace = integrate_tdse(constant(np.zeros(4)), horizon=1.0, tol=1e-9,
                           base_steps=64, sample_times=[0.25, 0.5])
    assert np.allclose(trace.unitaries, np.eye(2))
    assert trace.estimated_error == 0.0


def test_constant_sz_matches_exact_exponential():
    w = 3.7
    horizon = 2.0
    trace = integrate_tdse(constant([0.0, 0.0, 0.0, w]), horizon=horizon, tol=1e-10,
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
    hfun = lambda t: np.multiply.outer(np.exp(-t) * 80, [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ToleranceNotReached):
        integrate_tdse(hfun, horizon=3.0, tol=1e-12, base_steps=16)


def test_non_finite_round_fails_fast(monkeypatch):
    # an overflowing drive makes U non-finite in the first round; the loop
    # must stop there instead of doubling to the step budget
    monkeypatch.setattr(prop, "MAX_TOTAL_STEPS", 2**14)
    # and the overflow inside that round must not surface as warnings
    proto = crossstitch_protocol(alpha=1e300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ToleranceNotReached,
                           match=f"{prop.DEFAULT_BASE_STEPS}-step round"):
            integrate_tdse(proto.hamiltonian_fn(K8[:4]), proto.period, tol=1e-8)


def test_non_hermitian_input_rejected():
    # complex coefficients are never cast to real: every entry point raises
    hfun = constant([0.0, 1.0, 0.5j, 0.0])
    with pytest.raises(NonHermitianInput):
        integrate_tdse(hfun, horizon=1.0)
    with pytest.raises(NonHermitianInput):
        cf4_fixed(hfun, 1.0, 64)
    with pytest.raises(NonHermitianInput):
        midpoint_fixed(hfun, 1.0, 64)


def test_unbatched_hfun_rejected():
    # one coefficient row for a whole batch of times is not a time stack
    with pytest.raises(ValueError):
        integrate_tdse(lambda t: np.zeros(4), 1.0)
    # a stack of 2x2 matrices is not a coefficient stack, and nine
    # coefficients of a 3x3 Hamiltonian are not the four of its 2x2 block:
    # a three-band drive is propagated as its coupled block only
    for shape in ((4, 2, 2), (4, 9)):
        h = lambda t: np.zeros((len(t),) + shape)
        with pytest.raises(ValueError, match=r"\.\.\., 4\)"):
            integrate_tdse(h, 1.0)
        with pytest.raises(ValueError, match=r"\.\.\., 4\)"):
            midpoint_fixed(h, 1.0, 64)


def test_tol_range_validated():
    with pytest.raises(ValueError):
        integrate_tdse(constant(np.zeros(4)), horizon=1.0, tol=1e-2)


def test_three_period_composition_is_cube_of_floquet_operator():
    proto = crossstitch_protocol()
    T = proto.period
    trace = integrate_tdse(proto.hamiltonian_fn(K8), 3 * T, tol=1e-9,
                           base_steps=3 * 4096, sample_times=[T, 2 * T, 3 * T])
    u1 = trace.unitaries[1]
    u3 = trace.unitaries[-1]
    assert np.max(np.abs(u3 - u1 @ u1 @ u1)) <= 3e-9


K3 = np.array([-1.0, 0.3, 2.0])


def three_momenta(t):
    """A time-dependent hfun on three momenta with non-commuting channels."""
    t = np.asarray(t, dtype=float)
    hx = np.multiply.outer(np.cos(5 * t), 1 + K3)
    hy = np.multiply.outer(np.sin(3 * t), K3)
    hz = np.multiply.outer(t, np.ones_like(K3))
    return np.stack([np.zeros_like(hx), hx, hy, hz], axis=-1)


def stepwise_reference(scheme, hfun, horizon, nsteps):
    """U after every step, one step and one stage at a time with scipy's expm."""
    nodes, weights = scheme
    dt = horizon / nsteps
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(K3), 2, 2))
    out = [u]
    for i in range(nsteps):
        h = hfun((i + 0.5 + np.asarray(nodes)) * dt)
        for ws in weights:
            stage = matrices(sum(w * hn for w, hn in zip(ws, h)))
            u = np.stack([scipy_expm(-1j * dt * hk) @ uk for hk, uk in zip(stage, u)])
        out.append(u)
    return out


@pytest.mark.parametrize("scheme", ["cf4", "midpoint"])
@pytest.mark.parametrize("nsteps", [64, 48, 52])
@pytest.mark.parametrize("budget", [30, 42, 240, 4096])
def test_chunk_loop_matches_stepwise_product(monkeypatch, scheme, nsteps, budget):
    # samples at a quarter and a half of the horizon cut the run into blocks
    # of 16, 4 and 1 steps.  For CF4 on three momenta, budgets of 30 and 42
    # evaluations fit 5 and 7 steps, so a 16-step block spans four chunks;
    # 240 fits whole blocks with a short last chunk at 48 steps; 4096 holds
    # the whole run
    scheme = prop._CF4 if scheme == "cf4" else prop._MIDPOINT
    monkeypatch.setattr(prop, "_CHUNK_EVALS", budget)
    idx = [0, nsteps // 4, nsteps // 2, nsteps]
    snaps = prop._propagate(*scheme, three_momenta, 1.0, nsteps, set(idx))
    ref = stepwise_reference(scheme, three_momenta, 1.0, nsteps)
    assert snaps.shape == (len(idx), len(K3), 2, 2)
    for i, snap in zip(idx, snaps):
        assert np.max(np.abs(snap - ref[i])) <= 1e-13


@pytest.mark.parametrize("budget", [30, 240, 4096])
def test_momenta_propagated_together_match_each_alone(monkeypatch, budget):
    # the chunk width follows the number of momenta, and it must not change
    # a single bit of any momentum's evolution
    monkeypatch.setattr(prop, "_CHUNK_EVALS", budget)
    idx = {0, 16, 32, 256}
    together = prop._propagate(*prop._CF4, three_momenta, 1.0, 256, idx)
    for m in range(len(K3)):
        alone = prop._propagate(*prop._CF4, lambda t: three_momenta(t)[:, m:m + 1],
                                1.0, 256, idx)
        assert np.array_equal(together[:, m:m + 1], alone)


def test_chunks_stay_within_the_evaluation_budget(monkeypatch):
    # memory is bounded in the number of momenta: every hfun call holds at
    # most the budget of Hamiltonian evaluations, counted over momenta; at
    # 2048 momenta one CF4 step fills it
    monkeypatch.setattr(prop, "MAX_TOTAL_STEPS", 2048)
    for n_k in (1024, 2048):
        k = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
        calls = []

        def hfun(t):
            calls.append(len(t) * len(k))
            hx = np.multiply.outer(np.cos(2 * t), np.cos(k))
            zero = np.zeros_like(hx)
            return np.stack([zero, hx, zero, np.multiply.outer(t, k)], axis=-1)

        trace = integrate_tdse(hfun, 1.0, tol=1e-6)
        assert trace.step_count >= 512 and len(calls) > 2
        assert max(calls) <= prop._CHUNK_EVALS


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


_CHANNEL = st.tuples(*[st.floats(-2.0, 2.0)] * 7)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(channels=st.tuples(*[_CHANNEL] * 4), omega=st.floats(3.0, 12.0),
       p=st.integers(1, 6), a_plus=st.floats(1.0, 2.0),
       periods=st.integers(1, 2))
def test_exactness_over_random_trigonometric_targets(channels, omega, p, a_plus,
                                                     periods):
    # every channel of the target is c0 + sum over n = 1..3 of
    # cn cos nk + sn sin nk; windings of both parities and two-period runs
    # guard the coarse start of the step doubling against aliasing
    def coeffs(k):
        k = np.asarray(k, dtype=float)
        return tuple(c[0] + sum(c[2 * n - 1] * np.cos(n * k) + c[2 * n] * np.sin(n * k)
                                for n in (1, 2, 3))
                     for c in channels)

    zero = custom(lambda k: (np.zeros_like(np.asarray(k, dtype=float)),) * 4)
    proto = general_protocol(zero, custom(coeffs),
                             GaugeParams(a_plus=a_plus, p=p, omega=omega))
    tol = 1e-8
    rep = verify_protocol(proto, np.linspace(-np.pi, np.pi, 4, endpoint=False),
                          periods=periods, tol=tol)
    assert rep.max_strobe_error <= tol


def test_extract_micromotion_trivial_drive():
    c0 = np.array([0.0, 0.0, 0.0, 0.8])
    trace = integrate_tdse(constant(c0), horizon=1.5, tol=1e-10, base_steps=192,
                           sample_times=np.linspace(0, 1.5, 7))
    ps = extract_micromotion(trace, c0)
    assert np.max(np.abs(ps - np.eye(2))) <= 1e-10


def test_extract_micromotion_matches_closed_form():
    proto = crossstitch_protocol()
    T = proto.period
    samples = np.linspace(0, T, 64, endpoint=False)
    trace = integrate_tdse(proto.hamiltonian_fn(K8), T, tol=1e-8,
                           sample_times=samples)
    heff = np.stack(proto.target.coeffs(K8), axis=-1)
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
    assert np.all(rep.strobe_errors <= tol)


def test_verify_protocol_flags_corrupted_drive():
    base = crossstitch_protocol()
    bad = dataclasses.replace(base, fz_scale=1.01)
    tol = 1e-8
    rep = verify_protocol(bad, np.linspace(-np.pi, np.pi, 4, endpoint=False),
                          tol=tol)
    assert rep.max_strobe_error > 1e-3
    assert np.any(rep.strobe_errors > tol)


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
