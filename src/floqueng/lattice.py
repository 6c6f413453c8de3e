"""Real-space form of the flat-band drive: finite-range time-dependent
hoppings on a two-sub-lattice periodic chain.

Every momentum-space drive component is a degree-3 trigonometric polynomial
in k once the shared envelope f_e(t) is factored out, so the drive needs
hopping ranges 0..3 only.  Channel labels follow the operator the harmonic
multiplies: 'x' couples the sub-lattices symmetrically, 'y'
antisymmetrically, 'z' acts as an on-sub-lattice imbalance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .algebra import SX, SY, SZ, assemble_batch
from .errors import HermiticityError, RangeOverflow
from .spectra import envelope_values
from .synth import crossstitch_drive_components

MAX_RANGE = 3
RANGE_TOL = 1e-12
_SPIN = {"x": SX, "y": SY, "z": SZ}


@dataclass(frozen=True)
class LatticeTerm:
    """One elementary hopping family: amplitude(t) * [k-harmonic] * S_channel.

    ``amplitude(t)`` already contains the envelope f_e(t).  ``coefficient``
    is the constant prefactor of the time factor, kept separate so term
    tables can be exported as scalars.
    """

    channel: str          # 'x' | 'y' | 'z'
    m: int                # hopping range in sites, 0..3
    k_harmonic: str       # 'cos' | 'sin'
    time_label: str
    coefficient: float
    amplitude: Callable

    def describe(self) -> str:
        return f"{self.k_harmonic}({self.m}k)*{self.time_label}"


def _time_factors(omega: float, p: int) -> dict:
    w = omega
    return {
        "1": lambda t: np.ones_like(np.asarray(t, dtype=float)),
        "cos(wt)": lambda t: np.cos(w * t),
        "sin(wt)": lambda t: np.sin(w * t),
        "cos(2wt)": lambda t: np.cos(2 * w * t),
        "cos(pwt)": lambda t: np.cos(p * w * t),
        "sin(pwt)": lambda t: np.sin(p * w * t),
        "sin(wt)cos(pwt)": lambda t: np.sin(w * t) * np.cos(p * w * t),
        "sin(wt)sin(pwt)": lambda t: np.sin(w * t) * np.sin(p * w * t),
        "sin2(wt)cos(pwt)": lambda t: np.sin(w * t) ** 2 * np.cos(p * w * t),
        "sin2(wt)sin(pwt)": lambda t: np.sin(w * t) ** 2 * np.sin(p * w * t),
    }


def expand_to_lattice(alpha: float, delta: float, omega: float,
                      a_plus: float, p: int) -> list[LatticeTerm]:
    """Decompose the closed-form drive into hopping terms of range <= 3.

    The k-harmonic content is extracted analytically (product-to-sum on the
    drive numerators); a numerical Fourier cross-check over k rejects the
    expansion if any range beyond 3 carries weight above 1e-12.
    """
    ap, w = a_plus, omega
    factors = _time_factors(omega, p)

    # (channel, m, k_harmonic, time_label, coefficient)
    rows = [
        ("x", 1, "cos", "cos(wt)", 2 * ap * w),
        ("x", 1, "sin", "sin(wt)", -2 * ap * p * w),
        ("x", 1, "cos", "cos(pwt)", -4 * alpha),
        ("x", 0, "cos", "cos(pwt)", -2 * delta),
        ("x", 3, "cos", "sin2(wt)cos(pwt)", -2 * ap**2 * alpha),
        ("x", 3, "sin", "sin2(wt)sin(pwt)", 2 * ap**2 * alpha),
        ("x", 1, "cos", "sin2(wt)cos(pwt)", -2 * ap**2 * alpha),
        ("x", 1, "sin", "sin2(wt)sin(pwt)", 2 * ap**2 * alpha),
        ("x", 2, "cos", "sin2(wt)cos(pwt)", -2 * ap**2 * delta),
        ("x", 2, "sin", "sin2(wt)sin(pwt)", 2 * ap**2 * delta),
        ("y", 1, "sin", "cos(wt)", -2 * ap * w),
        ("y", 1, "cos", "sin(wt)", -2 * ap * p * w),
        ("y", 1, "cos", "sin(pwt)", -4 * alpha),
        ("y", 0, "cos", "sin(pwt)", -2 * delta),
        ("y", 3, "sin", "sin2(wt)cos(pwt)", 2 * ap**2 * alpha),
        ("y", 3, "cos", "sin2(wt)sin(pwt)", 2 * ap**2 * alpha),
        ("y", 1, "sin", "sin2(wt)cos(pwt)", 2 * ap**2 * alpha),
        ("y", 1, "cos", "sin2(wt)sin(pwt)", 2 * ap**2 * alpha),
        ("y", 2, "sin", "sin2(wt)cos(pwt)", 2 * ap**2 * delta),
        ("y", 2, "cos", "sin2(wt)sin(pwt)", 2 * ap**2 * delta),
        ("z", 0, "cos", "1", p * w * (1 - ap**2 / 2)),
        ("z", 0, "cos", "cos(2wt)", p * w * ap**2 / 2),
        ("z", 0, "cos", "sin(wt)sin(pwt)", -4 * alpha * ap),
        ("z", 2, "sin", "sin(wt)cos(pwt)", -4 * alpha * ap),
        ("z", 2, "cos", "sin(wt)sin(pwt)", -4 * alpha * ap),
        ("z", 1, "sin", "sin(wt)cos(pwt)", -4 * delta * ap),
        ("z", 1, "cos", "sin(wt)sin(pwt)", -4 * delta * ap),
    ]

    # drop coefficients at float-noise level (e.g. the constant z term when
    # a_plus^2 lands on 2 only up to rounding)
    scale = max(1.0, abs(p * w), 4 * abs(alpha), 4 * abs(delta), abs(ap * w))
    terms = []
    for channel, m, kfn, label, coef in rows:
        if abs(coef) <= 1e-12 * scale:
            continue
        base = factors[label]

        def amp(t, _c=coef, _b=base):
            return _c * _b(t) * envelope_values(ap**2, w * np.asarray(t, dtype=float))

        terms.append(LatticeTerm(channel, m, kfn, label, float(coef), amp))

    _check_range_bound(terms, alpha, delta, omega, ap, p)
    return terms


def _check_range_bound(terms, alpha, delta, omega, a_plus, p,
                       n_k: int = 64, n_t: int = 7) -> None:
    """Fourier-analyze the drive numerator over k and reject weight at
    ranges beyond MAX_RANGE, and also reject expansion/drive mismatch."""
    k = 2 * np.pi * np.arange(n_k) / n_k
    t_grid = (2 * np.pi / omega) * (np.arange(n_t) + 0.31) / n_t
    for t in t_grid:
        _, fx, fy, fz = crossstitch_drive_components(
            alpha, delta, omega, a_plus, p, k, t)
        fe = envelope_values(a_plus**2, omega * t)
        scale = max(1.0, float(np.max(np.abs([fx, fy, fz]))))
        for comp in (fx, fy, fz):
            spectrum = np.fft.rfft(comp / fe) / n_k
            high = np.max(np.abs(spectrum[MAX_RANGE + 1:]))
            if high > RANGE_TOL * scale:
                raise RangeOverflow(
                    f"harmonic beyond range {MAX_RANGE} carries weight {high:.2e}"
                )
        recon = reconstruct_momentum_drive(terms, k, t)
        dev = max(np.max(np.abs(recon[c] - f))
                  for c, f in zip("xyz", (fx, fy, fz)))
        if dev > 1e-10 * scale:
            raise RangeOverflow(f"harmonic table misses the drive by {dev:.2e}")


def reconstruct_momentum_drive(terms, k, t) -> dict:
    """Sum the harmonic table back into momentum space, per channel."""
    k = np.asarray(k, dtype=float)
    out = {c: np.zeros_like(k) for c in "xyz"}
    for term in terms:
        kpart = np.cos(term.m * k) if term.k_harmonic == "cos" else np.sin(term.m * k)
        out[term.channel] = out[term.channel] + term.amplitude(t) * kpart
    return out


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


def assemble_lattice_hamiltonian(terms, L: int, t: float) -> np.ndarray:
    """Single-particle drive matrix at time t on L dimers with periodic
    boundary; L >= 8 keeps the longest hop free of self-wrap ambiguity."""
    if L < 2 * MAX_RANGE + 2:
        raise ValueError(f"need at least {2 * MAX_RANGE + 2} dimers, got {L}")
    out = np.zeros((2 * L, 2 * L), dtype=complex)
    for term in terms:
        out += complex(term.amplitude(t)) * _hop_base(
            term.channel, term.m, term.k_harmonic, L)
    dev = np.max(np.abs(out - out.conj().T))
    if dev > 1e-13 * max(1.0, float(np.max(np.abs(out)))):
        raise HermiticityError(f"assembled drive deviates from Hermitian by {dev:.2e}")
    return out


def momentum_block(v_lattice: np.ndarray, L: int, k: float) -> np.ndarray:
    """Project the lattice matrix onto one allowed momentum 2pi*n/L.

    Uses the plane-wave spinor with annihilation convention
    c_k = L^{-1/2} sum_n c_n e^{+ikn}, so rows carry e^{+ikn}.
    """
    n = np.arange(L)
    wave = np.exp(1j * k * n) / np.sqrt(L)
    u = np.zeros((2, 2 * L), dtype=complex)
    u[0, :L] = wave
    u[1, L:] = wave
    return u @ v_lattice @ u.conj().T


def lattice_vs_momentum_check(alpha, delta, omega, a_plus, p, L: int,
                              t_grid) -> float:
    """Max entry deviation between the Fourier-projected lattice drive and
    the momentum-space closed form at every allowed momentum."""
    terms = expand_to_lattice(alpha, delta, omega, a_plus, p)
    k_allowed = 2 * np.pi * np.arange(L) / L
    worst = 0.0
    for t in np.asarray(t_grid, dtype=float):
        v_lat = assemble_lattice_hamiltonian(terms, L, float(t))
        ref = assemble_batch(*crossstitch_drive_components(
            alpha, delta, omega, a_plus, p, k_allowed, float(t)))
        for i, k in enumerate(k_allowed):
            block = momentum_block(v_lat, L, float(k))
            worst = max(worst, float(np.max(np.abs(block - ref[i]))))
    return worst
