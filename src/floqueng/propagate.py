"""Time-ordered integration of the Schrodinger equation for small dense
Hamiltonians, Floquet-operator extraction, and protocol verification.

Three-band drives are propagated as their coupled 2x2 block: the third level
carries no drive and no target energy, so its evolution is exactly 1 and adds
nothing to any comparison.

Two independent schemes share one chunk loop.  The workhorse is a
fourth-order commutator-free scheme: each step multiplies by two exactly
unitary exponentials of weighted averages of H at the two Gauss nodes, with
global step doubling until two successive horizon unitaries agree.  The
cross-check is a fixed-step second-order midpoint exponential,
exp(-i dt H(t + dt/2)) per step.  Verification always compares unitaries,
never extracted Hamiltonians, so quasienergy folding can never introduce a
logarithm branch choice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import (
    HorizonMismatch,
    NonHermitianInput,
    ToleranceNotReached,
)
from .gauge import micromotion_at
from .synth import DrivingProtocol

MAX_TOTAL_STEPS = 2**24
DEFAULT_BASE_STEPS = 4096
DEFAULT_TOL = 1e-9

_CF4_NODE = np.sqrt(3.0) / 6.0
_CF4_A1 = 0.25 + np.sqrt(3.0) / 6.0
_CF4_A2 = 0.25 - np.sqrt(3.0) / 6.0


def expm_herm(h: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-1j * scale * h) for Hermitian h, batched over leading axes.

    2x2 stacks use the closed Pauli form (exactly unitary); any other size
    goes through an eigendecomposition, which tests use as the reference.
    """
    h = np.asarray(h, dtype=complex)
    d = h.shape[-1]
    if d == 2:
        a = h[..., 0, 0]
        b = h[..., 0, 1]
        dd = h[..., 1, 1]
        c0 = np.real(a + dd) / 2
        cz = np.real(a - dd)
        r2 = 4.0 * (np.real(b) ** 2 + np.imag(b) ** 2) + cz * cz
        r = np.sqrt(r2)
        phi = (scale / 2) * r
        nonzero = r > 0
        sinc = np.divide(np.sin(phi), r, out=np.full_like(r, scale / 2),
                         where=nonzero)
        cosphi = np.cos(phi)
        isinc = -1j * sinc
        out = np.empty_like(h)
        out[..., 0, 0] = cosphi + isinc * cz
        out[..., 1, 1] = cosphi - isinc * cz
        out[..., 0, 1] = (2 * isinc) * b
        out[..., 1, 0] = (2 * isinc) * np.conj(b)
        out *= np.exp(-1j * scale * c0)[..., None, None]
        return out
    w, v = np.linalg.eigh(h)
    phase = np.exp(-1j * scale * w)
    return np.einsum("...ij,...j,...kj->...ik", v, phase, np.conj(v))


@dataclass
class PropagatorTrace:
    """Sampled unitaries U(t) along one integration run."""

    times: np.ndarray
    unitaries: np.ndarray  # (n_samples, ..., d, d)
    step_count: int
    estimated_error: float
    horizon: float

    def __post_init__(self):
        eye = np.eye(self.unitaries.shape[-1])
        dev = np.max(np.abs(self.unitaries[0] - eye))
        if dev > 1e-12:
            raise ValueError(f"trace must start at the identity, got deviation {dev:.1e}")


def _check_hermitian_samples(hfun: Callable, horizon: float) -> None:
    fracs = (0.0, 0.37, 0.5, 1.0)
    for frac, h in zip(fracs, _eval_h(hfun, horizon * np.array(fracs))):
        dev = np.max(np.abs(h - np.conj(np.swapaxes(h, -1, -2))))
        if dev > 1e-10 * max(1.0, float(np.max(np.abs(h)))):
            raise NonHermitianInput(
                f"H(t={frac * horizon:.6g}) deviates from Hermitian by {dev:.2e}"
            )


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    if a.shape[-1] != 2:
        return a @ b
    # elementwise 2x2 products beat generic batched matmul at this size
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """Product e[-1] @ ... @ e[0] of a (n, ..., d, d) stack, reduced pairwise
    so the work stays in large batched products."""
    while e.shape[0] > 1:
        even = e.shape[0] - (e.shape[0] % 2)
        pairs = _matmul(e[1:even:2], e[0:even:2])
        e = pairs if even == e.shape[0] else np.concatenate([pairs, e[-1:]], axis=0)
    return e[0]


def _eval_h(hfun, ts: np.ndarray, base_shape: tuple | None = None) -> np.ndarray:
    """H on a 1D batch of times as an (n_t, ..., d, d) stack, whose trailing
    shape must equal ``base_shape`` when given; any other shape raises."""
    h = np.asarray(hfun(ts), dtype=complex)
    if (h.ndim < 3 or h.shape[0] != len(ts) or h.shape[-1] != h.shape[-2]
            or base_shape not in (None, h.shape[1:])):
        expected = (f"({len(ts)}, ..., d, d)" if base_shape is None
                    else str((len(ts),) + base_shape))
        raise ValueError(f"hfun must map {len(ts)} times to shape {expected}, "
                         f"got {h.shape}")
    return h


_CHUNK_STEPS = 2048  # 4096 Hamiltonian evaluations of CF4 held at once


def _midpoint_chunk(hfun, tmid, dt, base_shape):
    return _ordered_product(expm_herm(_eval_h(hfun, tmid, base_shape), dt))


def _cf4_chunk(hfun, tmid, dt, base_shape):
    # H once on both Gauss nodes t +- sqrt(3)/6 dt of every step; the two
    # weighted averages go through one exponential batch, early stage first
    nodes = (tmid[:, None] + np.array([-_CF4_NODE, _CF4_NODE]) * dt).ravel()
    h = _eval_h(hfun, nodes, base_shape).reshape((len(tmid), 2) + base_shape)
    h1, h2 = h[:, 0], h[:, 1]
    e = expm_herm(np.stack([_CF4_A1 * h1 + _CF4_A2 * h2,
                            _CF4_A2 * h1 + _CF4_A1 * h2], axis=1), dt)
    return _ordered_product(_matmul(e[:, 1], e[:, 0]))


def _propagate(chunk, hfun, horizon, nsteps, sample_indices):
    """``nsteps`` equal steps of the scheme ``chunk`` from the identity;
    returns the unitaries at ``sample_indices`` and at the horizon."""
    dt = horizon / nsteps
    base_shape = _eval_h(hfun, np.array([0.5 * dt])).shape[1:]
    u = np.broadcast_to(np.eye(base_shape[-1], dtype=complex), base_shape).copy()
    samples = {0: u.copy()}
    bounds = sorted(set(int(i) for i in sample_indices) | {0, nsteps})
    for a, b in zip(bounds[:-1], bounds[1:]):
        for j in range(a, b, _CHUNK_STEPS):
            tmid = (np.arange(j, min(j + _CHUNK_STEPS, b)) + 0.5) * dt
            u = _matmul(chunk(hfun, tmid, dt, base_shape), u)
        if b in sample_indices:
            samples[b] = u.copy()
    return samples, u


def integrate_tdse(hfun: Callable, horizon: float, tol: float = DEFAULT_TOL,
                   base_steps: int = DEFAULT_BASE_STEPS,
                   sample_times: Sequence[float] = ()) -> PropagatorTrace:
    """Propagate dU/dt = -i H(t) U from the identity over [0, horizon].

    ``hfun`` maps a 1D array of n_t times to a Hermitian (n_t, ..., d, d)
    stack; any other shape raises ValueError.  Batching propagates every
    index between the time axis and the matrix axes independently.  The
    fourth-order commutator-free scheme doubles its step count until two
    successive horizon unitaries differ by less than ``tol`` in max-entry
    norm; the Richardson error estimate of the accepted run is ``diff/15``.
    A round whose horizon unitary is not finite raises at once; overflow
    inside a round is left to that check instead of warning.

    ``sample_times`` must lie on the base step grid so that snapshots remain
    exact as the step count doubles.
    """
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")
    _check_hermitian_samples(hfun, horizon)

    sample_times = np.asarray(sorted(set(float(s) for s in sample_times) | {0.0, float(horizon)}))
    frac = sample_times / horizon
    base_idx = frac * base_steps
    if np.max(np.abs(base_idx - np.round(base_idx))) > 1e-9:
        raise ValueError("sample_times must fall on the base step grid")
    base_idx = np.round(base_idx).astype(int)

    nsteps = base_steps
    prev_u = None
    while True:
        idx = [int(i) * (nsteps // base_steps) for i in base_idx]
        with np.errstate(over="ignore", invalid="ignore"):
            samples, u_end = _propagate(_cf4_chunk, hfun, horizon, nsteps, set(idx))
        if not np.all(np.isfinite(u_end)):
            raise ToleranceNotReached(
                f"horizon unitary is not finite after the {nsteps}-step round"
            )
        if prev_u is not None:
            diff = float(np.max(np.abs(u_end - prev_u)))
            if diff < tol:
                return PropagatorTrace(
                    times=sample_times,
                    unitaries=np.stack([samples[i] for i in idx], axis=0),
                    step_count=nsteps,
                    estimated_error=diff / 15.0,
                    horizon=float(horizon),
                )
        prev_u = u_end
        nsteps *= 2
        if nsteps > MAX_TOTAL_STEPS:
            raise ToleranceNotReached(
                f"step doubling exceeded {MAX_TOTAL_STEPS} steps without reaching {tol:.1e}"
            )


def midpoint_fixed(hfun: Callable, horizon: float, nsteps: int) -> np.ndarray:
    """Fixed-step midpoint-exponential run through the chunk loop of
    ``integrate_tdse``, as its independent reference; returns U(horizon)."""
    _, u = _propagate(_midpoint_chunk, hfun, horizon, nsteps, set())
    return u


def cf4_fixed(hfun: Callable, horizon: float, nsteps: int) -> np.ndarray:
    """Fixed-step run of the CF4 scheme that ``integrate_tdse`` doubles,
    through the same chunk loop; returns U(horizon)."""
    _check_hermitian_samples(hfun, horizon)
    _, u = _propagate(_cf4_chunk, hfun, horizon, nsteps, set())
    return u


def floquet_operator(trace: PropagatorTrace, period: float | None = None) -> np.ndarray:
    """The one-period evolution U(T) from a trace covering exactly [0, T]."""
    if period is not None and abs(trace.horizon - period) > 1e-12 * max(1.0, period):
        raise HorizonMismatch(
            f"trace covers {trace.horizon:.6g}, expected one period {period:.6g}"
        )
    return trace.unitaries[-1]


def extract_micromotion(trace: PropagatorTrace, h_eff: np.ndarray) -> np.ndarray:
    """Periodic part P(t) = U(t) exp(+i H_eff t) at every sampled time.

    No phase adjustment is applied here; the z-channel winding makes
    P(nT) = (-1)^(p n) I, and callers compare against the closed form that
    carries the same sign.
    """
    return trace.unitaries @ expm_herm(np.multiply.outer(-trace.times, h_eff))


@dataclass
class VerificationReport:
    """Aggregated outcome of a protocol verification sweep."""

    max_strobe_error: float
    max_micromotion_error: float
    strobe_phase_used: complex
    k_values: np.ndarray
    strobe_errors: np.ndarray
    periods: int = 1
    integrator_steps: int = 0
    estimated_error: float = 0.0
    failures: list = field(default_factory=list)

    def __post_init__(self):
        if self.max_strobe_error < 0 or self.max_micromotion_error < 0:
            raise ValueError("error fields must be non-negative")

    @property
    def worst_k(self) -> float:
        return float(np.asarray(self.k_values)[int(np.argmax(self.strobe_errors))])


def strobe_target(protocol: DrivingProtocol, k, periods: int = 1) -> np.ndarray:
    """Phase-adjusted target unitary (-1)^(p n) exp(-i n T H_eff) per
    momentum; the winding sign covers the whole 2x2 block."""
    sign = (-1.0) ** (protocol.gauge.p * periods)
    return sign * expm_herm(protocol.target_matrices(k), periods * protocol.period)


def verify_protocol(protocol: DrivingProtocol, k_grid, periods: int = 1,
                    tol: float = DEFAULT_TOL,
                    micromotion_samples: int = 64,
                    base_steps_per_period: int = DEFAULT_BASE_STEPS) -> VerificationReport:
    """Integrate the synthesized drive and compare against the target.

    For every momentum on the grid the time-ordered evolution runs over
    ``periods`` full periods; the strobe error is the Frobenius distance
    between U(nT) and the phase-adjusted target exponential.  The periodic
    part is also extracted on a uniform grid over the first period and
    compared with the closed form.  A momentum fails when its strobe error
    exceeds ``tol``.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    T = protocol.period
    horizon = periods * T
    sample_times = np.linspace(0.0, T, micromotion_samples, endpoint=False)
    strobe_times = [n * T for n in range(1, periods + 1)]
    trace = integrate_tdse(
        protocol.hamiltonian_fn(k_grid), horizon, tol=tol,
        base_steps=base_steps_per_period * periods,
        sample_times=list(sample_times) + strobe_times,
    )

    target = strobe_target(protocol, k_grid, periods)
    u_end = trace.unitaries[-1]  # the horizon is the last sampled time
    strobe_errors = np.atleast_1d(np.linalg.norm(u_end - target, axis=(-2, -1)))

    p_num = extract_micromotion(trace, protocol.target_matrices(k_grid))
    micro_err = 0.0
    for j, t in enumerate(trace.times):
        p_ref = micromotion_at(protocol.gauge, k_grid, float(t),
                               dimension=protocol.target.dimension)
        micro_err = max(micro_err, float(np.max(np.abs(p_num[j] - p_ref))))

    max_strobe = float(np.max(strobe_errors))
    k_labels = np.atleast_1d(k_grid).reshape(strobe_errors.shape[0], -1)[:, 0]
    failures = [
        (float(kv), float(err))
        for kv, err in zip(k_labels, strobe_errors)
        if err > tol
    ]
    return VerificationReport(
        max_strobe_error=max_strobe,
        max_micromotion_error=micro_err,
        strobe_phase_used=complex((-1.0) ** (protocol.gauge.p * periods)),
        k_values=k_grid,
        strobe_errors=strobe_errors,
        periods=periods,
        integrator_steps=trace.step_count,
        estimated_error=trace.estimated_error,
        failures=failures,
    )
