"""Time-ordered integration of the Schrodinger equation for 2x2
Hamiltonians, and protocol verification.

A Hamiltonian stays a real coefficient stack (h0, hx, hy, hz), Hermitian by
construction, down to the exponential, the only place 2x2 unitaries are
formed.  Public functions take (..., 4) and return (..., 2, 2) stacks; the
integrator holds coefficients component first, (4, ...), and unitaries matrix
index first, (2, 2, ...), so every kernel reads contiguous rows and a 2x2
product is three broadcast ufunc calls.  Three-band drives are propagated as
their coupled 2x2 block: the third level carries no drive and no target
energy, so its evolution is exactly 1 and adds nothing to any comparison.

The chunk loop takes its scheme as an argument.  The workhorse is the
three-node sixth-order Magnus integrator: su(2) plus the identity is closed,
so a step's Magnus exponent is four real coefficients, with A = -i a.S a
commutator [A, B] is the cross product a x b, and each step takes one exactly
unitary exponential; the step count doubles until the error estimate of
the latest horizon unitary meets the tolerance.
Verification always compares unitaries, never extracted Hamiltonians, so
quasienergy folding can never introduce a logarithm branch choice.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import HermiticityError, ToleranceNotReached
from .gauge import micromotion_at
from .synth import DrivingProtocol

MAX_TOTAL_STEPS = 2**24
DEFAULT_BASE_STEPS = 64
DEFAULT_TOL = 1e-9
TOL_MIN, TOL_MAX = 1e-12, 1e-4  # the tol range integrate_tdse and the CLI accept
# Hamiltonian evaluations (nodes x steps x momenta) a chunk aims to hold; a
# chunk is at least one step over all momenta, so the bound kept is
# max(_CHUNK_EVALS, nodes x momenta)
_CHUNK_EVALS = 4096


def expm_herm(c: np.ndarray) -> np.ndarray:
    """exp(-1j * H) for every row (h0, hx, hy, hz) of a real (..., 4) stack ``c``
    as a (..., 2, 2) stack in the closed Pauli form (exactly unitary) that views
    a (2, 2, ...) array; any other trailing shape raises ValueError."""
    h0, hx, hy, hz = np.moveaxis(c, -1, 0)
    r = np.sqrt(hx * hx + hy * hy + hz * hz)
    phi = 0.5 * r
    sinc = np.divide(np.sin(phi), r, out=np.full_like(r, 0.5), where=r > 0)
    cosphi, isinc, iy = np.cos(phi), -1j * sinc, 1j * hy
    izh = isinc * hz
    out = np.empty((2, 2) + h0.shape, dtype=complex)
    np.add(cosphi, izh, out=out[0, 0, ...])
    np.subtract(cosphi, izh, out=out[1, 1, ...])
    np.multiply(isinc, np.subtract(hx, iy, out=out[0, 1, ...]), out=out[0, 1, ...])
    np.multiply(isinc, np.add(hx, iy, out=out[1, 0, ...]), out=out[1, 0, ...])
    if h0.any():  # a zero identity channel, as in every three-band drive, has no phase
        out *= np.exp(-1j * h0)
    return _roll_axes(out, -2)


def _roll_axes(a: np.ndarray, k: int) -> np.ndarray:
    """View of ``a`` with its last k axes first: k = 2 and -2 map (..., 2, 2) <-> (2, 2, ...)."""
    return a.transpose([*range(a.ndim)][-k:] + [*range(a.ndim)][:-k])


@dataclass
class PropagatorTrace:
    """Sampled unitaries U(t) along one integration run."""

    times: np.ndarray
    unitaries: np.ndarray  # (n_samples, ..., 2, 2)
    step_count: int
    estimated_error: float


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (2, 2, ...) stacks: entry (i, j) is a_i0 b_0j + a_i1 b_1j."""
    out = a[:, :1] * b[None, 0]
    return np.add(out, a[:, 1:] * b[None, 1], out=out)


def _bracket(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[-i a.S, -i b.S] = -i (a x b).S for (4, ...) stacks, by component."""
    out = np.zeros(np.broadcast(a, b).shape)
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        np.subtract(np.multiply(a[j], b[k], out=out[i]), a[k] * b[j], out=out[i])
    return out


def _magnus6(h: np.ndarray, dt: float) -> np.ndarray:
    """Sixth-order Magnus exponent of each step, U = exp(-i result), as a
    (4, steps, ...) stack from H at its three Gauss nodes, h (4, 3, steps,
    ...) (Blanes, Casas, Oteo & Ros, Phys. Rep. 470, 151 (2009), sections 4-5);
    the identity channel is the Gauss rule dt (5 h0_1 + 8 h0_2 + 5 h0_3)/18."""
    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    a1, a2 = dt * h2, (math.sqrt(15.0) * dt / 3) * (h3 - h1)
    a3 = (10 * dt / 3) * (h3 - 2 * h2 + h1)
    c1 = _bracket(a1, a2)
    c2 = _bracket(a1, 2 * a3 + c1) / -60
    return a1 + a3 / 12 + _bracket(-20 * a1 - a3 + c1, a2 + c2) / 240


_MAGNUS6 = ((-math.sqrt(0.15), 0.0, math.sqrt(0.15)), _magnus6)  # a scheme: Gauss nodes in dt


def _ordered_product(e: np.ndarray) -> np.ndarray:
    """e[:, :, -1] @ ... @ e[:, :, 0] of a (2, 2, n, ...) stack, reduced pairwise in batches."""
    while e.shape[2] > 1:
        pairs = _matmul(e[:, :, 1::2], e[:, :, 0:e.shape[2] - 1:2])
        e = pairs if e.shape[2] % 2 == 0 else np.concatenate([pairs, e[:, :, -1:]], axis=2)
    return e[:, :, 0]


def _eval_h(hfun, ts: np.ndarray, base_shape: tuple | None = None) -> np.ndarray:
    """H on a 1D batch of times as a real (n_t, ..., 4) coefficient stack,
    whose trailing shape must equal ``base_shape`` when given.  Complex
    coefficients raise HermiticityError; any other shape raises ValueError."""
    c = np.asarray(hfun(ts))
    if (c.ndim < 2 or c.shape[0] != len(ts) or c.shape[-1] != 4
            or base_shape not in (None, c.shape[1:])):
        expected = f"({len(ts)}, ..., 4)" if base_shape is None else str((len(ts),) + base_shape)
        raise ValueError(f"hfun must map {len(ts)} times to shape {expected}, got {c.shape}")
    if np.iscomplexobj(c):
        raise HermiticityError("hfun returned complex coefficients; "
                               "a Hermitian H has real (h0, hx, hy, hz)")
    return c


def _propagate(nodes, exponent, hfun, horizon, nsteps, sample_indices, base_shape=None,
               observe=None):
    """``nsteps`` equal steps of the scheme (``nodes``, ``exponent``), as the
    (2, 2, segments, ...) stack of the products of the segments of steps that
    end at nonzero counts in ``sample_indices``; ``exponent(h, dt)`` maps H at
    the nodes, (4, nodes, steps, ...), to each step's x of U = exp(-i x.(1, S)),
    (4, steps, ...).  hfun's trailing ``base_shape`` is probed when None, and
    ``observe``, when given, sees each chunk's checked (n_t, ..., 4) stack.

    A chunk of steps holds at most max(``_CHUNK_EVALS``, nodes x momenta)
    evaluations of H: one step over every momentum is never split.  Blocks
    of the largest power of two dividing gcd(nsteps, *sample_indices) steps
    are each one pairwise tree, merged across chunks if need be and folded
    serially into their segment, so neither the chunking nor the number of
    momenta changes any rounding.
    """
    dt = horizon / nsteps
    base_shape = base_shape or _eval_h(hfun, np.array([0.5 * dt])).shape[1:]
    if not (n_k := math.prod(base_shape[:-1])):
        raise ValueError(f"hfun returned an empty batch of shape {base_shape[:-1]}")
    block = math.gcd(nsteps, *sample_indices)
    block &= -block  # the largest power of two that divides every segment
    fit = max(1, _CHUNK_EVALS // (len(nodes) * n_k))
    part = min(block, 1 << (fit.bit_length() - 1))  # steps per tree in a chunk
    width = fit - fit % part
    segments, seg, done, pending = [], None, 0, []  # (steps, tree) of the open block
    for j in range(0, nsteps, width):
        tmid = (np.arange(j, min(j + width, nsteps)) + 0.5) * dt
        h = _eval_h(hfun, (tmid[:, None] + np.asarray(nodes) * dt).ravel(), base_shape)
        if observe is not None:
            observe(h)
        h = np.ascontiguousarray(_roll_axes(  # (4, nodes, steps, ...)
            h.reshape((len(tmid), len(nodes)) + base_shape), 1).swapaxes(1, 2))
        # all the chunk's steps in one expm_herm call (perfbench traces it), as (2, 2, steps, ...)
        e = _roll_axes(expm_herm(_roll_axes(exponent(h, dt), -1)), 2)
        e = _ordered_product(e.reshape((2, 2, -1, part) + base_shape[:-1]).swapaxes(2, 3))
        for i in range(e.shape[2]):
            p, n = e[:, :, i], part
            while pending and pending[-1][0] == n:
                p, n = _matmul(p, pending.pop()[1]), 2 * n
            if n < block:
                pending.append((n, p))
                continue
            seg, done = p if seg is None else _matmul(p, seg), done + n
            if done in sample_indices:
                segments.append(seg)
                seg = None
        del h, e  # free this chunk before the next one is evaluated
    return np.stack(segments, axis=2)


def _snapshots(segments: np.ndarray) -> np.ndarray:
    """U_0 = 1 and the chain U_i = segments[:, :, i - 1] @ U_(i-1) as (2, 2, n + 1, ...)."""
    u = np.concatenate([np.zeros_like(segments[:, :, :1]), segments], axis=2)
    u[0, 0, 0] = u[1, 1, 0] = 1.0
    for i in range(1, u.shape[2]):
        u[:, :, i] = _matmul(u[:, :, i], u[:, :, i - 1])
    return u


def integrate_tdse(hfun: Callable, horizon: float, tol: float = DEFAULT_TOL,
                   base_steps: int = DEFAULT_BASE_STEPS,
                   sample_steps: Iterable[int] = ()) -> PropagatorTrace:
    """Propagate dU/dt = -i H(t) U from the identity over [0, horizon].

    ``hfun`` maps a 1D array of n_t times to a real (n_t, ..., 4) stack of
    coefficients (h0, hx, hy, hz); complex coefficients raise
    HermiticityError, and any other shape or an empty batch ValueError.  Batching
    propagates every index between the time axis and the coefficient axis
    independently.  The sixth-order Magnus scheme doubles its step count
    from a coarse ``base_steps``; a round's horizon is the pairwise product
    of its segments between sampled steps, and diff, its max-entry distance
    from the previous round's, measures that round's error.  The returned
    round's error is estimated as ``diff/63``: within 2% while diff shrinks
    64x, but 1.4-94x low, so no bound, near the rounding floor (about 1e-13),
    where rounds cut 0.3-2.4x.  So ``tol`` bounds the estimate with a margin
    of 8 in a round that cut diff 32x, and diff itself in any other; only the
    accepted round forms the snapshots, serially from the identity, and
    hfun's shape is probed once per run.  Once a round has cut diff 32x, a
    later cut under 2x raises with the round differences.  A round that
    is not finite raises at once (overflow inside a round is left to that
    check instead of warning), as does a round difference above ``tol`` when
    even ``MAX_TOTAL_STEPS`` steps leave a phase per step, max|h| horizon /
    (2 MAX_TOTAL_STEPS) over the first round's samples, above pi; either
    error then names that phase.

    ``sample_steps`` are integer counts of base steps in [0, ``base_steps``]
    (a float raises TypeError); 0 and ``base_steps`` are always sampled, and
    the trace's times are the distinct sorted steps times ``horizon /
    base_steps``.  A non-positive or non-finite horizon, or ``base_steps``
    below 1, raises ValueError, and ``base_steps`` above ``MAX_TOTAL_STEPS /
    2`` ToleranceNotReached (convergence takes two rounds), before any round.
    """
    if not (TOL_MIN <= tol <= TOL_MAX):
        raise ValueError(f"tol must lie in [{TOL_MIN}, {TOL_MAX}], got {tol}")
    if not (horizon > 0 and math.isfinite(horizon)):
        raise ValueError(f"horizon must be positive and finite, got {horizon}")
    if base_steps < 1:
        raise ValueError(f"base_steps must be at least 1, got {base_steps}")
    if 2 * base_steps > MAX_TOTAL_STEPS:
        raise ToleranceNotReached(f"{base_steps} base steps leave no second round "
                                  f"within the cap of {MAX_TOTAL_STEPS} steps")
    steps = sorted({operator.index(s) for s in sample_steps} | {0, base_steps})
    if steps[0] < 0 or steps[-1] > base_steps:
        raise ValueError(f"sample_steps span {steps[0]} to {steps[-1]}, outside [0, {base_steps}]")

    h_max = 0.0  # the largest |(hx, hy, hz)| among the first round's samples

    def track_h_max(c):
        nonlocal h_max
        # by hypot: the squares of the components overflow above |h| ~ 1.3e154
        h_max = max(h_max, float(np.max(np.hypot(np.hypot(c[..., 1], c[..., 2]), c[..., 3]))))

    nsteps, prev_u, diffs, converging, base_shape = base_steps, None, [], False, None
    while True:
        idx = {i * (nsteps // base_steps) for i in steps}
        with np.errstate(over="ignore", invalid="ignore"):
            segments = _propagate(*_MAGNUS6, hfun, horizon, nsteps, idx, base_shape,
                                  track_h_max if prev_u is None else None)
            u = _ordered_product(segments)
        phase = h_max * horizon / (2 * MAX_TOTAL_STEPS)
        unresolvable = (f", and even {MAX_TOTAL_STEPS} steps leave a phase of "
                        f"{phase:.1e} > pi per step" if phase > math.pi else "")
        if not np.all(np.isfinite(u)):
            raise ToleranceNotReached(
                f"horizon unitary is not finite after the {nsteps}-step round{unresolvable}")
        if prev_u is not None:
            diff = float(np.max(np.abs(u - prev_u)))
            # 8: where this round cut diff 32x, the Frobenius strobe error
            # measured 1.42-1.49 x diff/63 on the recipes, a margin over 5x
            cut = bool(diffs) and diffs[-1] >= 32 * diff
            if diff < tol or (cut and 8 * diff / 63 < tol):
                return PropagatorTrace(np.array(steps) * (horizon / base_steps),
                                       _roll_axes(_snapshots(segments), -2), nsteps, diff / 63.0)
            if unresolvable:
                raise ToleranceNotReached(
                    f"round difference {diff:.1e} above tol {tol:.1e}{unresolvable}")
            if cut:
                converging = True
            elif converging and diffs[-1] < 2 * diff:
                raise ToleranceNotReached(
                    f"round differences {', '.join(f'{d:.1e}' for d in diffs + [diff])} "
                    f"stopped shrinking at {nsteps} steps above tol {tol:.1e}")
            diffs.append(diff)
        # u is a view of one matrix stack only, so it keeps no segment alive
        prev_u, base_shape = u, segments.shape[3:] + (4,)
        nsteps *= 2
        if nsteps > MAX_TOTAL_STEPS:
            raise ToleranceNotReached(
                f"step doubling exceeded {MAX_TOTAL_STEPS} steps without reaching {tol:.1e}")


@dataclass
class VerificationReport:
    """Aggregated outcome of a protocol verification sweep."""

    max_strobe_error: float
    max_micromotion_error: float
    strobe_phase_used: complex
    k_labels: np.ndarray  # one per momentum: k, or kx on a 2D grid
    strobe_errors: np.ndarray
    integrator_steps: int
    estimated_error: float

    @property
    def worst_k(self) -> float:
        return float(self.k_labels.flat[int(np.argmax(self.strobe_errors))])


def verify_protocol(protocol: DrivingProtocol, k_grid, periods: int = 1,
                    tol: float = DEFAULT_TOL) -> VerificationReport:
    """Integrate the synthesized drive and compare against the target.

    For every momentum on the grid the time-ordered evolution runs over
    ``periods`` >= 1 full periods, doubling from ``DEFAULT_BASE_STEPS`` steps
    per period, sampled at every base step of the first period and at each
    period end.  Both errors are read off one array, the periodic part
    P(t) = U(t) exp(+i H_eff t) at those samples: the micro-motion error is
    its largest entry distance from the closed form, and the strobe error is
    the Frobenius distance of P(nT) from the winding sign (-1)^(p n) times
    the identity.  That equals the distance of U(nT) from the phase-adjusted
    target exponential, because exp(-i H_eff nT) is unitary, and it does not
    depend on the closed form.
    """
    if periods < 1:
        raise ValueError(f"periods must be at least 1, got {periods}")
    k_grid = protocol.target._momenta(k_grid)
    if k_grid.size == 0:
        raise ValueError(f"momentum grid of shape {k_grid.shape} is empty")
    T, n = protocol.period, DEFAULT_BASE_STEPS
    trace = integrate_tdse(protocol.hamiltonian_fn(k_grid), periods * T, tol=tol,
                           base_steps=n * periods,
                           sample_steps=itertools.chain(range(n), range(n, n * periods + 1, n)))

    # the target's winding sign (-1)^(p n) covers the whole 2x2 block
    sign = (-1.0) ** (protocol.gauge.p * periods)
    times, steps, estimate = trace.times, trace.step_count, trace.estimated_error
    c_target = np.stack(protocol.target.coeffs(k_grid), axis=-1)
    # P(t), the horizon last, C-ordered as (n_t, ..., 2, 2) to fix the norm's sum
    # order; the trace's snapshots go before micromotion_at, where verify peaks
    p_num = np.ascontiguousarray(_roll_axes(_matmul(
        _roll_axes(trace.unitaries, 2),
        _roll_axes(expm_herm(np.multiply.outer(-times, c_target)), 2)), -2))
    del trace
    strobe_errors = np.atleast_1d(np.linalg.norm(p_num[-1] - sign * np.eye(2), axis=(-2, -1)))
    t = times.reshape((-1,) + (1,) * (p_num.ndim - 3))
    p_ref = micromotion_at(protocol.gauge, protocol.target.ladder_angle(k_grid), t)

    return VerificationReport(
        max_strobe_error=float(np.max(strobe_errors)),
        max_micromotion_error=float(np.max(np.abs(p_num - p_ref))),
        strobe_phase_used=complex(sign),
        k_labels=np.atleast_1d(protocol.target.k_labels(k_grid)),
        strobe_errors=strobe_errors,
        integrator_steps=steps,
        estimated_error=estimate,
    )
