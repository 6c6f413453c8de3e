"""Time-ordered integration of the Schrodinger equation for 2x2
Hamiltonians, micro-motion extraction, and protocol verification.

A Hamiltonian stays a real coefficient stack (h0, hx, hy, hz), Hermitian by
construction, down to the exponential: scheme stages are weighted sums of
coefficients, and only the exponential forms 2x2 unitaries.

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

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonHermitianInput, ToleranceNotReached
from .gauge import micromotion_at
from .synth import DrivingProtocol

MAX_TOTAL_STEPS = 2**24
DEFAULT_BASE_STEPS = 256
DEFAULT_TOL = 1e-9
_CHUNK_EVALS = 4096  # Hamiltonian evaluations (nodes x steps x momenta) held at once

# A scheme: (node offsets in units of dt, stage weights over nodes), stages in order
_R = np.sqrt(3.0) / 6.0  # Gauss nodes of CF4 sit at -+_R dt from the midpoint
_MIDPOINT = ((0.0,), ((1.0,),))
_CF4 = ((-_R, _R), ((0.25 + _R, 0.25 - _R), (0.25 - _R, 0.25 + _R)))


def expm_herm(c: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """exp(-1j * scale * H) for every coefficient row (h0, hx, hy, hz) of a
    real (..., 4) stack ``c``, as a (..., 2, 2) stack in the closed Pauli form
    (exactly unitary); any other trailing shape raises ValueError."""
    h0, hx, hy, hz = np.moveaxis(c, -1, 0)
    r = np.sqrt(hx * hx + hy * hy + hz * hz)
    phi = (scale / 2) * r
    sinc = np.divide(np.sin(phi), r, out=np.full_like(r, scale / 2), where=r > 0)
    cosphi = np.cos(phi)
    isinc = -1j * sinc
    out = np.empty(h0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cosphi + isinc * hz
    out[..., 1, 1] = cosphi - isinc * hz
    out[..., 0, 1] = isinc * (hx - 1j * hy)
    out[..., 1, 0] = isinc * (hx + 1j * hy)
    out *= np.exp(-1j * scale * h0)[..., None, None]
    return out


@dataclass
class PropagatorTrace:
    """Sampled unitaries U(t) along one integration run."""

    times: np.ndarray
    unitaries: np.ndarray  # (n_samples, ..., 2, 2)
    step_count: int
    estimated_error: float

    def __post_init__(self):
        dev = np.max(np.abs(self.unitaries[0] - np.eye(2)))
        if dev > 1e-12:
            raise ValueError(f"trace must start at the identity, got deviation {dev:.1e}")


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # elementwise 2x2 products beat generic batched matmul at this size
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """Product e[-1] @ ... @ e[0] of a (n, ..., 2, 2) stack, reduced pairwise
    so the work stays in large batched products."""
    while e.shape[0] > 1:
        even = e.shape[0] - (e.shape[0] % 2)
        pairs = _matmul(e[1:even:2], e[0:even:2])
        e = pairs if even == e.shape[0] else np.concatenate([pairs, e[-1:]], axis=0)
    return e[0]


def _eval_h(hfun, ts: np.ndarray, base_shape: tuple | None = None) -> np.ndarray:
    """H on a 1D batch of times as a real (n_t, ..., 4) coefficient stack,
    whose trailing shape must equal ``base_shape`` when given.  Complex
    coefficients raise NonHermitianInput; any other shape raises ValueError."""
    c = np.asarray(hfun(ts))
    if (c.ndim < 2 or c.shape[0] != len(ts) or c.shape[-1] != 4
            or base_shape not in (None, c.shape[1:])):
        expected = (f"({len(ts)}, ..., 4)" if base_shape is None
                    else str((len(ts),) + base_shape))
        raise ValueError(f"hfun must map {len(ts)} times to shape {expected}, "
                         f"got {c.shape}")
    if np.iscomplexobj(c):
        raise NonHermitianInput("hfun returned complex coefficients; "
                                "a Hermitian H has real (h0, hx, hy, hz)")
    return c


def _propagate(nodes, weights, hfun, horizon, nsteps, sample_indices):
    """``nsteps`` equal steps of the scheme (``nodes``, ``weights``) from the
    identity, stacked as U after each step count in ``sample_indices``.

    A chunk of steps holds at most ``_CHUNK_EVALS`` evaluations of H.  Blocks
    of the largest power of two dividing gcd(nsteps, *sample_indices) steps
    are each one pairwise tree, merged across chunks if need be, so neither
    the chunking nor the number of momenta changes any rounding.
    """
    dt = horizon / nsteps
    base_shape = _eval_h(hfun, np.array([0.5 * dt])).shape[1:]
    u_shape = base_shape[:-1] + (2, 2)
    block = math.gcd(nsteps, *sample_indices)
    block &= -block  # the largest power of two that divides every segment
    fit = max(1, _CHUNK_EVALS // (len(nodes) * math.prod(base_shape[:-1])))
    part = min(block, 1 << (fit.bit_length() - 1))  # steps per tree in a chunk
    width = fit - fit % part
    u = np.broadcast_to(np.eye(2, dtype=complex), u_shape).copy()
    snaps = [u] if 0 in sample_indices else []
    done, pending = 0, []  # steps folded into U; (steps, tree) of the open block
    for j in range(0, nsteps, width):
        tmid = (np.arange(j, min(j + width, nsteps)) + 0.5) * dt
        h = _eval_h(hfun, (tmid[:, None] + np.asarray(nodes) * dt).ravel(), base_shape)
        # every stage of every step in one exponential batch, steps leading
        e = expm_herm(np.stack([sum(w * h[n::len(nodes)] for n, w in enumerate(ws))
                                for ws in weights], axis=1), dt)
        e = e.reshape((-1, part * len(weights)) + u_shape).swapaxes(0, 1)
        for p in _ordered_product(e):
            n = part
            while pending and pending[-1][0] == n:
                p, n = _matmul(p, pending.pop()[1]), 2 * n
            if n < block:
                pending.append((n, p))
                continue
            u, done = _matmul(p, u), done + n
            if done in sample_indices:
                snaps.append(u)
        del h, e  # free this chunk before the next one is evaluated
    return np.stack(snaps)


def integrate_tdse(hfun: Callable, horizon: float, tol: float = DEFAULT_TOL,
                   base_steps: int = DEFAULT_BASE_STEPS,
                   sample_times: Sequence[float] = ()) -> PropagatorTrace:
    """Propagate dU/dt = -i H(t) U from the identity over [0, horizon].

    ``hfun`` maps a 1D array of n_t times to a real (n_t, ..., 4) stack of
    coefficients (h0, hx, hy, hz); complex coefficients raise
    NonHermitianInput and any other shape raises ValueError.  Batching
    propagates every index between the time axis and the coefficient axis
    independently.  The
    fourth-order commutator-free scheme doubles its step count from a coarse
    ``base_steps`` until two successive horizon unitaries differ by less than
    ``tol`` in max-entry norm; the Richardson error estimate of the accepted
    run is ``diff/15``.  A round whose horizon unitary is not finite raises
    at once; overflow inside a round is left to that check instead of warning.

    ``sample_times`` must lie on the base step grid so that snapshots remain
    exact as the step count doubles.
    """
    if not (1e-12 <= tol <= 1e-4):
        raise ValueError(f"tol must lie in [1e-12, 1e-4], got {tol}")

    sample_times = np.asarray(sorted(set(float(s) for s in sample_times) | {0.0, float(horizon)}))
    base_idx = sample_times / horizon * base_steps
    if np.max(np.abs(base_idx - np.round(base_idx))) > 1e-9:
        raise ValueError("sample_times must fall on the base step grid")
    base_idx = np.round(base_idx).astype(int).tolist()

    nsteps, prev_u = base_steps, None
    while True:
        idx = {i * (nsteps // base_steps) for i in base_idx}
        with np.errstate(over="ignore", invalid="ignore"):
            u = _propagate(*_CF4, hfun, horizon, nsteps, idx)
        if not np.all(np.isfinite(u[-1])):
            raise ToleranceNotReached(
                f"horizon unitary is not finite after the {nsteps}-step round"
            )
        if prev_u is not None:
            diff = float(np.max(np.abs(u[-1] - prev_u)))
            if diff < tol:
                return PropagatorTrace(
                    times=sample_times,
                    unitaries=u,
                    step_count=nsteps,
                    estimated_error=diff / 15.0,
                )
        prev_u = u[-1].copy()  # not a view that would keep every snapshot alive
        nsteps *= 2
        if nsteps > MAX_TOTAL_STEPS:
            raise ToleranceNotReached(
                f"step doubling exceeded {MAX_TOTAL_STEPS} steps without reaching {tol:.1e}"
            )


def midpoint_fixed(hfun: Callable, horizon: float, nsteps: int) -> np.ndarray:
    """Fixed-step midpoint-exponential run through the chunk loop of
    ``integrate_tdse``, as its independent reference; returns U(horizon)."""
    return _propagate(*_MIDPOINT, hfun, horizon, nsteps, {nsteps})[-1]


def cf4_fixed(hfun: Callable, horizon: float, nsteps: int) -> np.ndarray:
    """Fixed-step run of the CF4 scheme that ``integrate_tdse`` doubles,
    through the same chunk loop; returns U(horizon)."""
    return _propagate(*_CF4, hfun, horizon, nsteps, {nsteps})[-1]


def extract_micromotion(trace: PropagatorTrace, c_eff: np.ndarray) -> np.ndarray:
    """Periodic part P(t) = U(t) exp(+i H_eff t) at every sampled time, with
    H_eff given as its real (..., 4) coefficient stack ``c_eff``.

    No phase adjustment is applied here; the z-channel winding makes
    P(nT) = (-1)^(p n) I, and callers compare against the closed form that
    carries the same sign.
    """
    return trace.unitaries @ expm_herm(np.multiply.outer(-trace.times, c_eff))


@dataclass
class VerificationReport:
    """Aggregated outcome of a protocol verification sweep."""

    max_strobe_error: float
    max_micromotion_error: float
    strobe_phase_used: complex
    k_values: np.ndarray
    k_labels: np.ndarray  # one per momentum: k, or kx on a 2D grid
    strobe_errors: np.ndarray
    periods: int = 1
    integrator_steps: int = 0
    estimated_error: float = 0.0

    def __post_init__(self):
        if self.max_strobe_error < 0 or self.max_micromotion_error < 0:
            raise ValueError("error fields must be non-negative")

    @property
    def worst_k(self) -> float:
        return float(self.k_labels[int(np.argmax(self.strobe_errors))])


def verify_protocol(protocol: DrivingProtocol, k_grid, periods: int = 1,
                    tol: float = DEFAULT_TOL,
                    micromotion_samples: int = 64) -> VerificationReport:
    """Integrate the synthesized drive and compare against the target.

    For every momentum on the grid the time-ordered evolution runs over
    ``periods`` full periods, doubling from ``DEFAULT_BASE_STEPS`` steps per
    period; the strobe error is the Frobenius distance between U(nT) and the
    phase-adjusted target exponential.  The periodic part is also extracted
    on a uniform grid of ``micromotion_samples``, which must divide the base,
    over the first period and compared with the closed form.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    T = protocol.period
    sample_times = np.linspace(0.0, T, micromotion_samples, endpoint=False)
    strobe_times = [n * T for n in range(1, periods + 1)]
    trace = integrate_tdse(
        protocol.hamiltonian_fn(k_grid), periods * T, tol=tol,
        base_steps=DEFAULT_BASE_STEPS * periods,
        sample_times=list(sample_times) + strobe_times,
    )

    # the target's winding sign (-1)^(p n) covers the whole 2x2 block
    sign = (-1.0) ** (protocol.gauge.p * periods)
    c_target = np.stack(protocol.target.coeffs(k_grid), axis=-1)
    target = sign * expm_herm(c_target, periods * T)
    u_end = trace.unitaries[-1]  # the horizon is the last sampled time
    strobe_errors = np.atleast_1d(np.linalg.norm(u_end - target, axis=(-2, -1)))

    p_num = extract_micromotion(trace, c_target)
    micro_err = 0.0
    for j, t in enumerate(trace.times):
        p_ref = micromotion_at(protocol.gauge, k_grid, float(t),
                               dimension=protocol.target.dimension)
        micro_err = max(micro_err, float(np.max(np.abs(p_num[j] - p_ref))))

    return VerificationReport(
        max_strobe_error=float(np.max(strobe_errors)),
        max_micromotion_error=micro_err,
        strobe_phase_used=complex(sign),
        k_values=k_grid,
        k_labels=np.atleast_1d(k_grid).reshape(len(strobe_errors), -1)[:, 0],
        strobe_errors=strobe_errors,
        periods=periods,
        integrator_steps=trace.step_count,
        estimated_error=trace.estimated_error,
    )
