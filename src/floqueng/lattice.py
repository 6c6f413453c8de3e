"""Real-space form of the flat-band drive: finite-range time-dependent
hoppings on a two-sub-lattice periodic chain.

The terms are the rows of the closed-form drive's hopping-harmonic table,
:func:`floqueng.synth.crossstitch_rows`: once the shared envelope f_e(t) is
factored out, every momentum-space drive component is a degree-3
trigonometric polynomial in k, so the drive needs hopping ranges 0..3 only.
Both checks hold the table against the other derivation, the general M1/M2
path, so that path has no weight beyond range 3 either.  Channel labels
follow the operator the harmonic multiplies: 'x' couples the sub-lattices
symmetrically, 'y' antisymmetrically, 'z' acts as an on-sub-lattice imbalance.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .algebra import SX, SY, SZ, assemble_batch
from .errors import HermiticityError, RangeOverflow
from .gauge import GaugeParams
from .synth import (MAX_RANGE, TIME_LABELS, DrivingProtocol, crossstitch_rows,
                    general_protocol, harmonic_time_factors)

RANGE_TOL = 1e-12
_SPIN = {"x": SX, "y": SY, "z": SZ}


class LatticeTerm(NamedTuple):
    """One elementary hopping family, a row of the hopping-harmonic table:
    coefficient * f_e(t) T(t) * [k-harmonic] * S_channel, with T(t) the
    time factor named by ``time_label``."""

    channel: str          # 'x' | 'y' | 'z'
    m: int                # hopping range in sites, 0..3
    k_harmonic: str       # 'cos' | 'sin'
    time_label: str       # one of TIME_LABELS
    coefficient: float


def expand_to_lattice(proto: DrivingProtocol) -> list[LatticeTerm]:
    """The hopping terms of range <= 3 of the closed-form cross-stitch drive
    ``proto``, one per row of its hopping-harmonic table, rejected if at any
    of 7 times the table misses the general path on 64 momenta by more than
    RANGE_TOL of the drive (or of 1), which then has at most that much weight
    beyond range 3, where the table has none.  The times skip t = 0: there the
    z rows p w (1 - a_plus^2/2) and p w a_plus^2/2 cos 2wt cancel, and at large
    a_plus^2 their rounding exceeds RANGE_TOL of the drive.  t = 0 is checked by
    :func:`lattice_vs_momentum_check`, to 1e-10 of the largest drive entry."""
    if proto.closed_form is None:
        raise ValueError("only the closed-form crossstitch drive has a harmonic table")
    g = proto.gauge
    alpha, delta = proto.closed_form
    # drop coefficients at float-noise level (e.g. the constant z term when
    # a_plus^2 lands on 2 only up to rounding)
    scale = max(1.0, abs(g.p * g.omega), 4 * abs(alpha), 4 * abs(delta),
                abs(g.a_plus * g.omega))
    terms = [LatticeTerm(channel, m, kfn, label, float(coef))
             for channel, m, kfn, label, coef in crossstitch_rows(alpha, delta, g)
             if abs(coef) > 1e-12 * scale]
    k, t = 2 * np.pi * np.arange(64) / 64, g.period * (np.arange(7) + 0.31) / 7
    table = proto.drive_table(k, t)[1:]  # (3, 64, 7)
    general = general_protocol(proto.static, proto.target, g).drive_table(k, t)[1:]
    dev = np.max(np.abs(table - general), axis=(0, 1))  # per time
    if np.any(dev > RANGE_TOL * np.maximum(1.0, np.max(np.abs(general), axis=(0, 1)))):
        raise RangeOverflow(f"harmonic table misses the general path by {np.max(dev):.2e}")
    return terms


def _hop_base(channel: str, m: int, k_harmonic: str, L: int) -> np.ndarray:
    """2L x 2L matrix of the m-site hopping family at unit amplitude: the
    Kronecker product of the channel's spin matrix, on the leading
    sub-lattice index (all A sites then all B sites), with the cos or sin
    hop of range m on the periodic dimer index."""
    if channel not in _SPIN:
        raise ValueError(f"unknown channel {channel!r}")
    hop = np.eye(L, k=m) + np.eye(L, k=m - L)  # hop[a, (a + m) % L] = 1
    hop = (hop + hop.T) * 0.5 if k_harmonic == "cos" else (hop - hop.T) * 0.5j
    base = _SPIN[channel][:, None, :, None] * hop[None, :, None, :]
    return base.reshape(2 * L, 2 * L) + 0.0  # + 0.0 turns each -0.0 into 0.0


def assemble_lattice_hamiltonian(terms, gauge: GaugeParams, L: int, t) -> np.ndarray:
    """Single-particle drive matrix on L dimers with periodic boundary at
    each time of ``t``, as a (*t.shape, 2L, 2L) stack: the hopping operator
    of every time factor is summed once and weighted by
    ``harmonic_time_factors(gauge, t)``.  L >= 8 keeps the longest hop free
    of self-wrap ambiguity."""
    if L < 2 * MAX_RANGE + 2:
        raise ValueError(f"need at least {2 * MAX_RANGE + 2} dimers, got {L}")
    ops = np.zeros((len(TIME_LABELS), 2 * L, 2 * L), dtype=complex)
    for term in terms:
        ops[TIME_LABELS.index(term.time_label)] += term.coefficient * _hop_base(
            term.channel, term.m, term.k_harmonic, L)
    out = np.tensordot(harmonic_time_factors(gauge, t), ops, axes=(0, 0))
    dev = np.max(np.abs(out - np.conj(np.swapaxes(out, -1, -2))), axis=(-2, -1))
    if np.any(dev > 1e-13 * np.maximum(1.0, np.max(np.abs(out), axis=(-2, -1)))):
        raise HermiticityError(f"assembled drive deviates from Hermitian by {np.max(dev):.2e}")
    return out


def momentum_block(v_lattice: np.ndarray, k) -> np.ndarray:
    """Project the lattice matrix on L dimers, (..., 2L, 2L), onto allowed
    momenta 2pi*n/L: a 2x2 block per entry of ``k``, as a (..., 2, 2) stack
    over its shape.

    Uses the plane-wave spinor with annihilation convention
    c_k = L^{-1/2} sum_n c_n e^{+ikn}, so rows carry e^{+ikn}.
    """
    L = v_lattice.shape[-1] // 2
    wave = np.exp(1j * np.multiply.outer(k, np.arange(L))) / np.sqrt(L)
    u = np.zeros(np.shape(k) + (2, 2 * L), dtype=complex)
    u[..., 0, :L] = wave
    u[..., 1, L:] = wave
    return u @ v_lattice @ np.conj(np.swapaxes(u, -1, -2))


def lattice_vs_momentum_check(proto: DrivingProtocol, terms) -> float:
    """Max entry deviation between the Fourier-projected lattice drive of
    ``terms``, the expansion of ``proto``, on the 8 dimers that assembly needs
    at least, and the general-path drive at every allowed momentum, at 16
    times over one period from t = 0; a deviation above 1e-10 times the
    largest drive entry (or 1 if that is smaller) raises RangeOverflow."""
    L, t = 2 * MAX_RANGE + 2, proto.period * np.arange(16) / 16
    k = 2 * np.pi * np.arange(L) / L
    general = general_protocol(proto.static, proto.target, proto.gauge)
    ref = assemble_batch(*general.drive_table(k, t))  # (L, n_t, 2, 2)
    v_lattice = assemble_lattice_hamiltonian(terms, proto.gauge, L, t)
    blocks = momentum_block(v_lattice[:, None], k)  # (n_t, L, 2, 2)
    worst = float(np.max(np.abs(blocks - ref.swapaxes(0, 1))))
    if worst > 1e-10 * max(1.0, float(np.max(np.abs(ref)))):
        raise RangeOverflow(f"lattice round trip misses the general path by {worst:.2e}")
    return worst
