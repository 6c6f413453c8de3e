import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm

import floqueng.propagate as prop
from floqueng import cli
from floqueng.algebra import ZERO, HamiltonianSpec, assemble_batch, su3_flat
from floqueng.errors import HermiticityError, ToleranceNotReached
from floqueng.gauge import GaugeParams
from floqueng.propagate import expm_herm, integrate_tdse, verify_protocol
from floqueng.synth import crossstitch_protocol, general_protocol

from oracles import (
    K4,
    MIDPOINT,
    MIDPOINT_STEPS,
    bracket_cl,
    convergence_drive,
    expm_cl,
    magnus6_cl,
    magnus6_fixed,
    magnus6_reference,
    matmul_cl,
    midpoint_errors,
    midpoint_fixed,
    midpoint_reference,
    ordered_product_cl,
    quasienergies,
    snapshots_cl,
)

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
        assert np.allclose(expm_herm(dt * c), scipy_expm(-1j * dt * matrices(c)),
                           atol=1e-12)


@pytest.mark.parametrize("shape", [(), (5,), (3, 2)])
def test_expm_herm_maps_coefficient_rows_to_matrices(shape):
    # (4,) -> (2, 2), (n, 4) -> (n, 2, 2), (a, b, 4) -> (a, b, 2, 2)
    c = np.random.default_rng(3).normal(size=shape + (4,))
    u = expm_herm(c)
    assert u.shape == shape + (2, 2)
    for index in np.ndindex(shape):
        assert np.array_equal(u[index], expm_herm(c[index]))


@pytest.mark.parametrize("shape", [(3,), (5,), (6, 3), (6, 5)])
def test_expm_herm_rejects_other_trailing_sizes(shape):
    with pytest.raises(ValueError):
        expm_herm(np.zeros(shape))


@pytest.mark.parametrize("model", ["crossstitch", "pwave2d"])
def test_trace_unitaries_are_sample_major(model):
    # one (n_k, 2, 2) stack per sample, on a 1D grid and on a (kx, ky) grid
    cfg = cli.validate({"model": model, "kpoints": 8})
    proto, k = cli.build_protocol(cfg), cli.k_grid_of(cfg)
    trace = integrate_tdse(proto.hamiltonian_fn(k), proto.period, tol=1e-8,
                           sample_steps=[16, 32])
    assert trace.unitaries.shape == (4, 8, 2, 2)
    gram = trace.unitaries @ np.conj(np.swapaxes(trace.unitaries, -1, -2))
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-12


def same_bits(a, b):
    """Equal shapes, dtypes and bytes, so signed zeros count too."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def internal(u):
    """A (..., 2, 2) stack in the propagator's contiguous (2, 2, ...) layout."""
    return np.ascontiguousarray(prop._roll_axes(u, 2))


#: Batch shapes of the kernel tests; "pwave2d" is the drive on a (kx, ky) grid.
BATCHES = [(1,), (16,), (64,), (5, 64), (3, 7), "pwave2d"]


def drive_samples(batch, n_t, seed):
    """A real (n_t, *batch, 4) coefficient stack: normal draws, or for
    "pwave2d" the pwave2d drive at n_t times on the momenta K2D."""
    if batch == "pwave2d":
        proto = cli.build_protocol(cli.validate({"model": "pwave2d"}))
        return 0.3 * proto.hamiltonian_fn(K2D)(np.linspace(0.0, proto.period, n_t))
    c = np.random.default_rng(seed).normal(size=(n_t,) + batch + (4,))
    c.reshape(-1, 4)[0, 1:] = 0.0  # a rotation-free row takes the sinc limit
    return c


@pytest.mark.parametrize("batch", BATCHES, ids=str)
def test_products_and_exponentials_are_bitwise_the_channel_last_ones(batch):
    c = drive_samples(batch, 2, 5)
    a, b = expm_cl(c[0]), expm_cl(c[1])
    assert same_bits(expm_herm(c[0]), a)
    for zero in (0.0, -0.0):  # a zero identity channel, whose phase expm_herm skips
        z = c[0].copy()
        z[..., 0] = zero
        assert same_bits(expm_herm(z), expm_cl(z))
    # the chunk loop hands expm_herm a contiguous (4, ...) exponent
    assert same_bits(expm_herm(prop._roll_axes(np.ascontiguousarray(np.moveaxis(c[1], -1, 0)),
                                               -1)), b)
    assert same_bits(prop._roll_axes(prop._matmul(internal(a), internal(b)), -2),
                     matmul_cl(a, b))


@pytest.mark.parametrize("batch", BATCHES, ids=str)
def test_magnus_exponents_are_bitwise_the_channel_last_ones(batch):
    # H at three nodes of six steps: (steps, 3, ..., 4) channel last and
    # (4, 3, steps, ...) as the chunk loop hands it to the scheme
    h = drive_samples(batch, 18, 7)
    h = h.reshape((6, 3) + h.shape[1:])
    rows = np.ascontiguousarray(prop._roll_axes(h, 1).swapaxes(1, 2))
    a, b = rows[:, 0], rows[:, 1]
    assert same_bits(prop._roll_axes(prop._bracket(a, b), -1),
                     bracket_cl(np.moveaxis(a, 0, -1), np.moveaxis(b, 0, -1)))
    assert same_bits(prop._roll_axes(prop._magnus6(rows, 0.03), -1), magnus6_cl(h, 0.03))


@pytest.mark.parametrize("n", [1, 6, 7])
@pytest.mark.parametrize("batch", BATCHES, ids=str)
def test_ordered_products_and_snapshots_are_bitwise_the_channel_last_ones(batch, n):
    e = expm_cl(drive_samples(batch, n, 11))  # (n, ..., 2, 2)
    assert same_bits(prop._roll_axes(prop._ordered_product(internal(e)), -2),
                     ordered_product_cl(e))
    assert same_bits(prop._roll_axes(prop._snapshots(internal(e)), -2), snapshots_cl(e))


@pytest.mark.parametrize("hfun", ["three_momenta", "pwave2d"])
def test_chunk_loop_is_bitwise_the_channel_last_block_chain(hfun):
    # 16 Magnus-6 steps in one chunk, sampled at 4, 8 and 16: blocks of 4
    # steps are pairwise trees, and the last segment folds two of them
    if hfun == "pwave2d":
        proto = cli.build_protocol(cli.validate({"model": "pwave2d"}))
        hfun = proto.hamiltonian_fn(K2D)
    else:
        hfun = three_momenta
    nodes, dt = prop._MAGNUS6[0], 0.7 / 16
    tmid = (np.arange(16) + 0.5) * dt
    h = hfun((tmid[:, None] + np.asarray(nodes) * dt).ravel())
    e = expm_cl(magnus6_cl(h.reshape((16, 3) + h.shape[1:]), dt))
    trees = [ordered_product_cl(e[i:i + 4]) for i in range(0, 16, 4)]
    segments = np.stack([trees[0], trees[1], matmul_cl(trees[3], trees[2])])
    got = prop._propagate(*prop._MAGNUS6, hfun, 0.7, 16, {0, 4, 8, 16})
    assert same_bits(prop._roll_axes(got, -2), segments)
    assert same_bits(prop._roll_axes(prop._snapshots(got), -2), snapshots_cl(segments))


def test_zero_hamiltonian_gives_identity():
    trace = integrate_tdse(constant(np.zeros(4)), horizon=1.0, tol=1e-9,
                           base_steps=64, sample_steps=[32, 16, 32])
    # sorted, a repeated step sampled once, and the horizon always included
    assert trace.times.tolist() == [0.0, 0.25, 0.5, 1.0]
    assert trace.unitaries.shape == (4, 2, 2)
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
                           sample_steps=range(0, prop.DEFAULT_BASE_STEPS, 4))
    for u in trace.unitaries:
        gram = u @ np.conj(np.swapaxes(u, -1, -2))
        assert np.linalg.norm(gram - np.eye(2), axis=(-2, -1)).max() <= 10 * tol


def test_tolerance_not_reached(monkeypatch):
    # Magnus-6 meets this tol at 128 steps, so the cap sits below that
    monkeypatch.setattr(prop, "MAX_TOTAL_STEPS", 64)
    hfun = lambda t: np.multiply.outer(np.exp(-t) * 80, [0.0, 1.0, 0.0, 0.0])
    with pytest.raises(ToleranceNotReached, match="exceeded 64 steps"):
        integrate_tdse(hfun, horizon=3.0, tol=1e-12, base_steps=16)


def test_long_horizon_sample_grid_accepted(monkeypatch):
    # 2^18 periods, sampled at every period end, put sample steps near 1.7e7;
    # a stub propagator that returns identities and a stub snapshot chain
    # (2^18 serial products take seconds) keep the run short, and a doubled
    # cap lets it reach the second round
    monkeypatch.setattr(prop, "MAX_TOTAL_STEPS", 2**25)
    periods = 2**18
    period = 2 * np.pi / 8.0
    base_steps = prop.DEFAULT_BASE_STEPS * periods

    eye = np.eye(2, dtype=complex)[:, :, None]

    def identities(nodes, exponent, hfun, horizon, nsteps, sample_indices, base_shape, observe):
        # one (2, 2) segment ends at every sampled step count but the first
        return np.broadcast_to(eye, (2, 2, len(sample_indices) - 1))

    monkeypatch.setattr(prop, "_propagate", identities)
    monkeypatch.setattr(prop, "_snapshots", lambda segments: np.broadcast_to(
        eye, (2, 2, segments.shape[2] + 1)))
    trace = integrate_tdse(constant(np.zeros(4)), periods * period, tol=1e-8,
                           base_steps=base_steps,
                           sample_steps=range(0, base_steps + 1, prop.DEFAULT_BASE_STEPS))
    assert trace.step_count == 2 * base_steps
    assert len(trace.times) == len(trace.unitaries) == periods + 1


def record_rounds(monkeypatch):
    """Replace ``_propagate`` by a recorder of its calls, so that a test can
    assert that a run failed before its first round."""
    rounds = []
    monkeypatch.setattr(prop, "_propagate", lambda *args: rounds.append(args))
    return rounds


def test_base_steps_without_a_second_round_fail_before_the_first(monkeypatch):
    # a first round of more than half the cap could only end in a raise
    rounds = record_rounds(monkeypatch)
    with pytest.raises(ToleranceNotReached, match=f"cap of {prop.MAX_TOTAL_STEPS} steps"):
        integrate_tdse(constant(np.zeros(4)), 1.0, base_steps=prop.MAX_TOTAL_STEPS // 2 + 1)
    assert rounds == []


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


def test_stalled_round_difference_fails_fast(monkeypatch):
    # a horizon phase of +-1e-9, alternating between rounds, floors the round
    # difference near 2e-9 once the scheme has converged: that must raise at
    # once instead of doubling on to the step budget (lowered here, so that a
    # loop without the rule ends quickly too)
    monkeypatch.setattr(prop, "MAX_TOTAL_STEPS", 2**14)
    propagate, rounds = prop._propagate, []

    def jittered(*args):
        u = propagate(*args)
        u[:, :, -1] *= np.exp(1e-9j * (-1) ** len(rounds))  # the last segment, so the horizon
        rounds.append(args[4])
        return u

    monkeypatch.setattr(prop, "_propagate", jittered)
    proto = crossstitch_protocol()
    with pytest.raises(ToleranceNotReached, match=r"round differences (\S+e-\d+, ){3}") as err:
        integrate_tdse(proto.hamiltonian_fn(K8[:4]), proto.period, tol=1e-10)
    assert rounds == [prop.DEFAULT_BASE_STEPS * 2**n for n in range(5)]
    assert f"at {rounds[-1]} steps" in str(err.value)


def phased_rounds(monkeypatch, phases):
    """Replace ``_propagate`` by one that turns the last segment, so the
    horizon, by the phase ``phases(r)`` in its r-th round: on the zero drive
    the round differences are the steps between successive phases.  Returns
    the list the round sizes are recorded in."""
    propagate, rounds = prop._propagate, []

    def phased(*args):
        u = propagate(*args)
        u[:, :, -1] *= np.exp(-1j * phases(len(rounds)))
        rounds.append(args[4])
        return u

    monkeypatch.setattr(prop, "_propagate", phased)
    return rounds


def test_asymptotic_round_accepts_on_its_error_estimate(monkeypatch):
    # a horizon error of 1e-3 (64/n)^6, the sixth order's, cuts each round
    # difference 64x: 9.8e-4 at 128 steps, 1.5e-5 at 256 and 2.4e-7 at 512,
    # so diff < tol first holds at 512, but 8 diff/63 = 2.0e-6 < tol at 256
    rounds = phased_rounds(monkeypatch, lambda r: 1e-3 / 64.0**r)
    trace = integrate_tdse(constant(np.zeros(4)), 1.0, tol=1e-5)
    assert rounds == [64, 128, 256]
    assert trace.step_count == 256
    # the estimate diff/63 is the returned horizon's own error
    error = float(np.max(np.abs(trace.unitaries[-1] - np.eye(2))))
    assert trace.estimated_error == pytest.approx(error, rel=1e-6)
    assert 63 * trace.estimated_error > 1e-5 > error


def test_rounding_floor_round_does_not_accept_on_its_estimate(monkeypatch):
    # round differences 1e-4, 1.6e-6, 1e-7, 4.5e-8, 5e-9: the 1024-step round
    # has 8 diff/63 = 5.7e-9 below tol 1e-8, but it cut the difference only
    # 2.2x, as rounds at the rounding floor do, so only the 2048-step round,
    # whose difference is below tol, is accepted
    phases = np.cumsum([0.0, 1e-4, 1.6e-6, -1e-7, 4.5e-8, -5e-9])
    rounds = phased_rounds(monkeypatch, lambda r: phases[r])
    trace = integrate_tdse(constant(np.zeros(4)), 1.0, tol=1e-8)
    assert rounds == [64 * 2**r for r in range(6)]
    assert trace.step_count == 2048
    assert trace.estimated_error == pytest.approx(5e-9 / 63, rel=1e-6)


def test_unresolvable_drive_fails_after_two_rounds(monkeypatch):
    # |h| = 1e3 over a horizon of 1e6 leaves a phase of about 30 per step even
    # at the 2^24-step cap: the first round difference above tol must raise
    propagate, rounds = prop._propagate, []

    def counted(*args):
        rounds.append(args[4])
        return propagate(*args)

    monkeypatch.setattr(prop, "_propagate", counted)
    hfun = lambda t: np.multiply.outer(np.cos(t), [0.0, 1e3, 0.0, 0.0])
    with pytest.raises(ToleranceNotReached, match=r"> pi per step"):
        integrate_tdse(hfun, horizon=1e6, tol=1e-8)
    assert rounds == [prop.DEFAULT_BASE_STEPS, 2 * prop.DEFAULT_BASE_STEPS]


def test_non_hermitian_input_rejected():
    # complex coefficients are never cast to real: every entry point raises
    hfun = constant([0.0, 1.0, 0.5j, 0.0])
    with pytest.raises(HermiticityError):
        integrate_tdse(hfun, horizon=1.0)
    with pytest.raises(HermiticityError):
        magnus6_fixed(hfun, 1.0, 64)
    with pytest.raises(HermiticityError):
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


@pytest.mark.parametrize("batch", [(0,), (3, 0)])
def test_empty_batch_rejected(batch):
    # no momentum to propagate: named as such rather than sizing chunks by zero
    with pytest.raises(ValueError, match=re.escape(f"empty batch of shape {batch}")):
        integrate_tdse(lambda t: np.zeros((len(t),) + batch + (4,)), 1.0)


def test_tol_range_validated():
    with pytest.raises(ValueError):
        integrate_tdse(constant(np.zeros(4)), horizon=1.0, tol=1e-2)


@pytest.mark.parametrize("step", [-1, prop.DEFAULT_BASE_STEPS + 1])
def test_sample_steps_outside_the_horizon_rejected(monkeypatch, step):
    # past either end of the run no snapshot is ever formed, so the trace
    # would hold fewer unitaries than times; they must fail before the first
    # round
    rounds = record_rounds(monkeypatch)
    with pytest.raises(ValueError, match=rf"span .*{step}.*, outside \[0, 64\]"):
        integrate_tdse(constant(np.zeros(4)), 1.0, sample_steps=[step])
    assert rounds == []


def test_float_sample_step_rejected(monkeypatch):
    # a sample is a count of base steps: a float is never rounded onto the grid
    rounds = record_rounds(monkeypatch)
    with pytest.raises(TypeError):
        integrate_tdse(constant(np.zeros(4)), 1.0, sample_steps=[2.5])
    assert rounds == []


@pytest.mark.parametrize("name,value", [
    ("horizon", 0.0), ("horizon", -1.0), ("horizon", math.nan), ("horizon", math.inf),
    ("base_steps", 0), ("base_steps", -4),
])
def test_degenerate_step_grid_rejected(monkeypatch, name, value):
    # no step grid spans such a run: each fails before the first round,
    # naming the value
    rounds = record_rounds(monkeypatch)
    with pytest.raises(ValueError, match=rf"^{name} must be .*, got {re.escape(str(value))}$"):
        integrate_tdse(constant(np.zeros(4)), **{"horizon": 1.0, name: value})
    assert rounds == []


def test_verify_protocol_rejects_zero_periods(monkeypatch):
    rounds = record_rounds(monkeypatch)
    with pytest.raises(ValueError, match=r"^periods must be at least 1, got 0$"):
        verify_protocol(crossstitch_protocol(), K8, periods=0)
    assert rounds == []


def test_verify_protocol_beyond_the_cap_fails_before_listing_its_samples():
    # 10^6 periods need 6.4e7 base steps, above the 2^24 cap, which fires
    # before the sampled steps, one per base step of the run, are listed
    tracemalloc.start()
    try:
        with pytest.raises(ToleranceNotReached, match="cap of"):
            verify_protocol(crossstitch_protocol(), K4, periods=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("model", ["crossstitch", "kitaev"])
def test_momentum_batches_of_any_shape_verify_as_the_flat_grid(monkeypatch, model):
    # the closed form and the general path: a (4, 3) grid is the flat
    # 12-point grid bit for bit, a scalar momentum the 1-point grid, and an
    # empty grid fails before the first round, naming its shape
    proto = cli.build_protocol(cli.validate({"model": model}))
    k = np.linspace(-np.pi, np.pi, 12, endpoint=False)
    flat, grid = verify_protocol(proto, k), verify_protocol(proto, k.reshape(4, 3))
    assert grid.strobe_errors.shape == grid.k_labels.shape == (4, 3)
    assert np.array_equal(grid.strobe_errors.ravel(), flat.strobe_errors)
    assert grid.integrator_steps == flat.integrator_steps
    assert grid.worst_k == flat.worst_k
    one, scalar = verify_protocol(proto, k[5:6]), verify_protocol(proto, k[5])
    assert np.array_equal(scalar.strobe_errors, one.strobe_errors)
    assert (scalar.integrator_steps, scalar.worst_k) == (one.integrator_steps, one.worst_k)
    rounds = record_rounds(monkeypatch)
    with pytest.raises(ValueError, match=r"momentum grid of shape \(0,\) is empty"):
        verify_protocol(proto, k[:0])
    assert rounds == []


@pytest.mark.parametrize("shape", [(4, 3), (8,)])
def test_2d_model_verify_needs_momentum_pairs(monkeypatch, shape):
    # a third column is not dropped, and a 1D grid fails before propagating
    proto = cli.build_protocol(cli.validate({"model": "pwave2d"}))
    rounds = record_rounds(monkeypatch)
    with pytest.raises(ValueError, match=re.escape(f"(..., 2), got {shape}")):
        verify_protocol(proto, np.zeros(shape))
    assert rounds == []


def su3flat_protocol():
    return general_protocol(ZERO, su3_flat(), GaugeParams(a_plus=np.sqrt(2.0), p=3, omega=8.0))


@pytest.mark.parametrize("make", [crossstitch_protocol, su3flat_protocol])
def test_one_run_forms_snapshots_once_and_probes_shape_once(monkeypatch, make):
    # every round propagates and compares its horizon, but only the accepted
    # round forms the snapshot chain, and hfun's shape is learnt from one
    # single-time call per run
    proto = make()
    calls = {"rounds": 0, "snapshots": 0, "probes": 0}
    propagate, snapshots, hfun = prop._propagate, prop._snapshots, proto.hamiltonian_fn(K8)

    def counted(name, fn):
        def wrapped(*args):
            calls[name] += 1
            return fn(*args)
        return wrapped

    def probed(t):
        calls["probes"] += len(t) == 1  # a chunk holds at least the three nodes of a step
        return hfun(t)

    monkeypatch.setattr(prop, "_propagate", counted("rounds", propagate))
    monkeypatch.setattr(prop, "_snapshots", counted("snapshots", snapshots))
    samples = range(prop.DEFAULT_BASE_STEPS)
    trace = integrate_tdse(probed, proto.period, tol=1e-8, sample_steps=samples)
    assert calls["rounds"] >= 3 and calls["snapshots"] == calls["probes"] == 1
    assert trace.unitaries.shape == (len(samples) + 1, len(K8), 2, 2)


@pytest.mark.parametrize("make", [crossstitch_protocol, su3flat_protocol])
def test_one_period_snapshots_are_the_serial_block_chain(make):
    # on verify's one-period sample grid every segment is one block, so the
    # accepted snapshots are U = block @ U folded from the identity block by
    # block, bit for bit; the blocks come from a run sampled at every block
    proto = make()
    hfun = proto.hamiltonian_fn(K8)
    trace = integrate_tdse(hfun, proto.period, tol=1e-8,
                           sample_steps=range(prop.DEFAULT_BASE_STEPS))
    n = trace.step_count
    block = n // prop.DEFAULT_BASE_STEPS
    # the blocks as (2, 2, blocks, momenta), the propagator's layout
    blocks = prop._propagate(*prop._MAGNUS6, hfun, proto.period, n, set(range(0, n + 1, block)))
    u = np.broadcast_to(np.eye(2, dtype=complex)[:, :, None], (2, 2) + blocks.shape[3:])
    chain = [u]
    for i in range(blocks.shape[2]):
        u = prop._matmul(blocks[:, :, i], u)
        chain.append(u)
    assert np.array_equal(trace.unitaries, prop._roll_axes(np.stack(chain, axis=2), -2))


def test_three_period_composition_is_cube_of_floquet_operator():
    proto = crossstitch_protocol()
    T = proto.period
    trace = integrate_tdse(proto.hamiltonian_fn(K8), 3 * T, tol=1e-9,
                           base_steps=3 * 4096, sample_steps=[4096, 2 * 4096])
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


def commutator(a, b):
    return a @ b - b @ a


_R = np.sqrt(3.0) / 6  # CF4's Gauss nodes sit at -+_R dt from the midpoint
_CF4_WEIGHTS = ((0.25 + _R, 0.25 - _R), (0.25 - _R, 0.25 + _R))  # first stage first


def _cf4_exponent(h, dt):
    """The fourth-order commutator-free step exp(-i dt B2) exp(-i dt B1),
    B_s = sum of weight x H over the two nodes, as one exponent: su(2) plus
    the identity is closed, so the two rotations compose as unit quaternions
    (w, v) and the step is expm_herm of (b0_1 + b0_2, 2 atan2(|v|, w) v/|v|).
    H comes as a (4, 2, steps, ...) stack and the exponent leaves as (4,
    steps, ...), the chunk loop's component-first layout."""
    b1, b2 = (dt * (w1 * h[:, 0] + w2 * h[:, 1]) for w1, w2 in _CF4_WEIGHTS)

    def quaternion(b):
        r = np.linalg.norm(b[1:], axis=0, keepdims=True)
        v = np.divide(np.sin(r / 2) * b[1:], r, out=np.zeros_like(r * b[1:]), where=r > 0)
        return np.cos(r / 2), v

    (c1, v1), (c2, v2) = quaternion(b1), quaternion(b2)
    w = c1 * c2 - np.sum(v1 * v2, axis=0, keepdims=True)
    v = c2 * v1 + c1 * v2 + np.cross(v2, v1, axis=0)
    s = np.linalg.norm(v, axis=0, keepdims=True)
    axis = np.divide(v, s, out=np.zeros_like(v), where=s > 0)
    return np.concatenate([b1[:1] + b2[:1], 2 * np.arctan2(s, w) * axis], axis=0)


# a two-node scheme in the chunk loop: its chunks hold other step counts than
# the one- and three-node schemes of integrate_tdse and midpoint_fixed
CF4 = ((-_R, _R), _cf4_exponent)
SCHEMES = {"cf4": CF4, "magnus6": prop._MAGNUS6, "midpoint": MIDPOINT}


def stepwise_reference(scheme, hfun, horizon, nsteps):
    """U after every step, one step at a time with scipy's expm of the step's
    exponent, formed from 2x2 matrices: A = -i H at the nodes and, for
    Magnus-6, their matrix commutators; CF4 multiplies its two stages."""
    dt = horizon / nsteps
    u = np.broadcast_to(np.eye(2, dtype=complex), (len(K3), 2, 2))
    out = [u]
    for i in range(nsteps):
        if scheme == "midpoint":
            omega = -1j * dt * matrices(hfun(np.array([(i + 0.5) * dt]))[0])
        elif scheme == "cf4":
            a = [-1j * dt * matrices(hfun(np.array([(i + 0.5 + c) * dt]))[0])
                 for c in (-_R, _R)]
            for w1, w2 in _CF4_WEIGHTS:
                u = np.stack([scipy_expm(w1 * a0 + w2 * a1) @ uk
                              for a0, a1, uk in zip(a[0], a[1], u)])
            out.append(u)
            continue
        else:
            g = np.sqrt(15.0) / 10
            a = [-1j * matrices(hfun(np.array([(i + 0.5 + c) * dt]))[0])
                 for c in (-g, 0.0, g)]
            a1 = dt * a[1]
            a2 = (np.sqrt(15.0) * dt / 3) * (a[2] - a[0])
            a3 = (10 * dt / 3) * (a[2] - 2 * a[1] + a[0])
            c1 = commutator(a1, a2)
            c2 = -commutator(a1, 2 * a3 + c1) / 60
            omega = a1 + a3 / 12 + commutator(-20 * a1 - a3 + c1, a2 + c2) / 240
        u = np.stack([scipy_expm(om) @ uk for om, uk in zip(omega, u)])
        out.append(u)
    return out


@pytest.mark.parametrize("scheme", ["cf4", "magnus6", "midpoint"])
@pytest.mark.parametrize("nsteps", [64, 48, 52])
@pytest.mark.parametrize("budget", [30, 42, 240, 4096])
def test_chunk_loop_matches_stepwise_product(monkeypatch, scheme, nsteps, budget):
    # samples at a quarter and a half of the horizon cut the run into blocks
    # of 16, 4 and 1 steps.  On three momenta, budgets of 30 and 42
    # evaluations fit 3 and 4 Magnus-6 steps or 5 and 7 CF4 steps, so a
    # 16-step block spans several chunks and 52 steps end on a short chunk;
    # 240 fits 26 or 40 steps, so whole blocks; 4096 holds the whole run
    monkeypatch.setattr(prop, "_CHUNK_EVALS", budget)
    idx = [0, nsteps // 4, nsteps // 2, nsteps]
    snaps = prop._roll_axes(prop._snapshots(prop._propagate(
        *SCHEMES[scheme], three_momenta, 1.0, nsteps, set(idx))), -2)
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
    together = prop._propagate(*prop._MAGNUS6, three_momenta, 1.0, 256, idx)
    for m in range(len(K3)):
        alone = prop._propagate(*prop._MAGNUS6, lambda t: three_momenta(t)[:, m:m + 1],
                                1.0, 256, idx)
        assert np.array_equal(together[..., m:m + 1], alone)


def test_chunks_stay_within_the_evaluation_budget(monkeypatch):
    # memory is bounded in the number of momenta: every hfun call holds at
    # most the budget of Hamiltonian evaluations, counted over momenta, or
    # one Magnus-6 step (three nodes) over every momentum where that is more;
    # at 2048 and 4096 momenta one step is over the budget
    monkeypatch.setattr(prop, "MAX_TOTAL_STEPS", 2048)
    for n_k in (1024, 2048, 4096):
        k = np.linspace(-np.pi, np.pi, n_k, endpoint=False)
        calls = []

        def hfun(t):
            calls.append(len(t) * len(k))
            hx = np.multiply.outer(np.cos(2 * t), np.cos(k))
            zero = np.zeros_like(hx)
            return np.stack([zero, hx, zero, np.multiply.outer(t, k)], axis=-1)

        # Magnus-6 meets this tol within two rounds from any start, so the
        # run starts at 256 steps to end at 512, over many chunks
        trace = integrate_tdse(hfun, 1.0, tol=1e-6, base_steps=256)
        assert trace.step_count >= 512 and len(calls) > 2
        assert max(calls) <= max(prop._CHUNK_EVALS, 3 * n_k)


def test_verify_releases_the_snapshots_before_the_closed_form():
    # the 65-sample snapshot stack (4.2 KB per momentum) is gone by the time
    # the closed-form micro-motion is formed: with both alive a call peaked
    # at 23.7 KB per momentum, without at 17.8
    proto = crossstitch_protocol()
    verify_protocol(proto, K8, tol=1e-8)  # one-time allocations out of the count
    k = np.linspace(-np.pi, np.pi, 1024, endpoint=False)
    tracemalloc.start()
    try:
        verify_protocol(proto, k, tol=1e-8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / len(k) < 20e3


def test_midpoint_convergence_order():
    slope = -np.polyfit(np.log(MIDPOINT_STEPS), np.log(midpoint_errors()), 1)[0]
    assert 1.8 <= slope <= 2.2


def test_magnus6_convergence_order():
    hfun, period = convergence_drive()
    steps = np.array([32, 64, 128, 256])
    errs = np.array([
        np.max(np.abs(magnus6_fixed(hfun, period, int(n)) - magnus6_reference()))
        for n in steps
    ])
    slope = -np.polyfit(np.log(steps), np.log(errs), 1)[0]
    assert 5.7 <= slope <= 6.3


@pytest.mark.parametrize("omega", [8.0, 4.0])
def test_independent_integrators_agree(omega):
    proto = crossstitch_protocol(omega=omega)
    trace = integrate_tdse(proto.hamiltonian_fn(K4), proto.period, tol=1e-9)
    assert np.max(np.abs(trace.unitaries[-1] - midpoint_reference(omega))) <= 1e-9


_CHANNEL = st.tuples(*[st.floats(-2.0, 2.0)] * 7)
#: A random trigonometric target, frequency, winding and ladder amplitude.
_DRIVES = dict(channels=st.tuples(*[_CHANNEL] * 4), omega=st.floats(0.5, 20.0),
               p=st.integers(-6, 6), a_plus=st.floats(-3.0, 2.0).map(lambda x: 10.0**x))


def trigonometric_protocol(channels, omega, p, a_plus):
    """The general drive of a target whose every channel is c0 + sum over
    n = 1..3 of cn cos nk + sn sin nk."""
    def coeffs(k):
        k = np.asarray(k, dtype=float)
        return tuple(c[0] + sum(c[2 * n - 1] * np.cos(n * k) + c[2 * n] * np.sin(n * k)
                                for n in (1, 2, 3))
                     for c in channels)

    return general_protocol(ZERO, HamiltonianSpec("random", coeffs),
                            GaugeParams(a_plus=a_plus, p=p, omega=omega))


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(**_DRIVES, periods=st.integers(1, 2))
def test_exactness_over_random_trigonometric_targets(channels, omega, p, a_plus,
                                                     periods):
    # windings of both parities and two-period runs guard the coarse start
    # of the step doubling against aliasing
    proto = trigonometric_protocol(channels, omega, p, a_plus)
    tol = 1e-8
    rep = verify_protocol(proto, np.linspace(-np.pi, np.pi, 4, endpoint=False),
                          periods=periods, tol=tol)
    assert rep.max_strobe_error <= tol


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(**_DRIVES, log_tol=st.floats(-12.0, -4.0))
def test_strobe_error_within_tol_at_the_accepted_round(channels, omega, p, a_plus, log_tol):
    # the accepted round may be the one whose own estimate 8 diff/63 meets
    # tol, so its strobe error, not only the round before's, is within tol
    # over the whole range of tol
    tol = 10.0**log_tol
    rep = verify_protocol(trigonometric_protocol(channels, omega, p, a_plus), K4, tol=tol)
    assert rep.max_strobe_error <= tol


_CHANNEL_2D = st.tuples(*[st.floats(-2.0, 2.0)] * 9)

#: Four (kx, ky) momenta with distinct kx + ky, the angle of the ladder phase.
K2D = np.array([[-np.pi, 0.5], [-1.2, -2.9], [0.0, 1.7], [2.3, -0.8]])


@settings(max_examples=10, derandomize=True, deadline=None, database=None)
@given(channels=st.tuples(*[_CHANNEL_2D] * 4), omega=_DRIVES["omega"], p=_DRIVES["p"],
       a_plus=_DRIVES["a_plus"])
def test_exactness_over_random_two_dimensional_targets(channels, omega, p, a_plus):
    # every channel of the target is c0 plus a cos and a sin of each of the
    # angles kx, ky, kx + ky and kx - ky
    def coeffs(k):
        kx, ky = k[..., 0], k[..., 1]
        angles = (kx, ky, kx + ky, kx - ky)
        return tuple(c[0] + sum(c[2 * n + 1] * np.cos(q) + c[2 * n + 2] * np.sin(q)
                                for n, q in enumerate(angles))
                     for c in channels)

    proto = general_protocol(ZERO, HamiltonianSpec("random2d", coeffs, dimension=2),
                             GaugeParams(a_plus=a_plus, p=p, omega=omega))
    tol = 1e-8
    rep = verify_protocol(proto, K2D, tol=tol)
    assert rep.max_strobe_error <= tol


def test_undriven_target_has_identity_micromotion():
    # at zero gauge (a_plus = 0, p = 0) the drive is the constant target, so
    # U(t) = exp(-i H_eff t) and the periodic part is the identity throughout
    c0 = (0.3, -0.7, 0.4, 0.8)
    target = HamiltonianSpec("constant", lambda k: tuple(np.full_like(k, c) for c in c0))
    proto = general_protocol(ZERO, target, GaugeParams(a_plus=0.0, p=0, omega=4.2))
    rep = verify_protocol(proto, K8, tol=1e-10)
    assert rep.max_micromotion_error <= 1e-10
    assert rep.max_strobe_error <= 1e-10


@pytest.mark.parametrize("periods", [1, 2])
@pytest.mark.parametrize("model", cli.MODELS)
def test_strobe_error_is_the_distance_from_the_target(model, periods):
    # the strobe error, read off the periodic part at the horizon, is the
    # Frobenius distance of U(nT) from the phase-adjusted target exponential
    cfg = cli.validate({"model": model, "kpoints": 8})
    proto, k = cli.build_protocol(cfg), cli.k_grid_of(cfg)
    rep = verify_protocol(proto, k, periods=periods, tol=cfg["tol"])
    n, horizon = prop.DEFAULT_BASE_STEPS, periods * proto.period
    trace = integrate_tdse(proto.hamiltonian_fn(k), horizon, tol=cfg["tol"],
                           base_steps=n * periods,
                           sample_steps=[*range(n), *range(n, n * periods + 1, n)])
    sign = (-1.0) ** (proto.gauge.p * periods)
    target = sign * expm_herm(horizon * np.stack(proto.target.coeffs(k), axis=-1))
    direct = np.linalg.norm(trace.unitaries[-1] - target, axis=(-2, -1))
    assert np.max(np.abs(rep.strobe_errors - direct)) <= 1e-14


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
