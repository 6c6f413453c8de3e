"""Micro-motion gauge: separable drive-shape functions and the closed-form
periodic part of the evolution operator.

The periodic part is factorized as
P(t) = exp(-i m0) exp(-i m_plus S+) exp(-i m_minus S-) exp(-i m_z Sz)
with unitarity tying m_minus and Im(m_z) to m_plus.  The gauge family used
throughout is mu0 = a0 sin(wt), mu_plus = a_plus e^{i theta} sin(wt),
mu_z_real = p*w*t with integer winding p, and momentum profiles
phi0(k) (identity channel), e^{ik} (ladder channel), 1 (z channel).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NonPeriodicGauge

BOUNDARY_TOL = 1e-12


def _zero_phi(k):
    # scalar zero broadcasts against any momentum-grid shape
    return 0.0


@dataclass(frozen=True)
class GaugeParams:
    """Amplitudes and shapes fixing the micro-motion gauge.

    ``p`` must be an integer: the z-channel winding p*w*t only returns to a
    multiple of 2*pi at t = nT for integer p, and a non-integer value breaks
    periodicity of the micro-motion up to phase.
    """

    a0: float = 0.0
    a_plus: float = 0.0
    theta: float = 0.0
    p: int = 0
    omega: float = 1.0
    phi0: Callable = field(default=_zero_phi)

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not np.isfinite(self.a_plus):
            raise ValueError(f"a_plus must be finite, got {self.a_plus}")
        if float(self.p) != int(np.round(float(self.p))):
            raise NonPeriodicGauge(
                f"winding p must be an integer, got {self.p}"
            )
        object.__setattr__(self, "p", int(np.round(float(self.p))))

    @property
    def period(self) -> float:
        return 2 * np.pi / self.omega


def mu_functions(g: GaugeParams, t):
    """Evaluate the three gauge shape functions and their time derivatives.

    Returns ``(mu0, mu_plus, mu_zr, dmu0, dmu_plus, dmu_zr)`` broadcast over
    ``t``.  mu_plus carries the constant phase factor e^{i theta}.
    """
    t = np.asarray(t, dtype=float)
    wt = g.omega * t
    s, c = np.sin(wt), np.cos(wt)
    phase = np.exp(1j * g.theta)
    mu0 = g.a0 * s
    mu_plus = g.a_plus * phase * s
    mu_zr = g.p * g.omega * t
    dmu0 = g.a0 * g.omega * c
    dmu_plus = g.a_plus * phase * g.omega * c
    dmu_zr = g.p * g.omega * np.ones_like(t)
    return mu0, mu_plus, mu_zr, dmu0, dmu_plus, dmu_zr


def complete_wei_norman(m_plus):
    """Dependent factorization functions fixed by unitarity of the product:
    m_minus = conj(m_plus)/(1+|m_plus|^2) and Im(m_z) = ln(1+|m_plus|^2).

    The logarithm argument is >= 1, so the principal branch is the only one.
    """
    m_plus = np.asarray(m_plus, dtype=complex)
    denom = 1.0 + np.abs(m_plus) ** 2
    m_minus = np.conj(m_plus) / denom
    mz_imag = np.log(denom)
    return m_minus, mz_imag


def micromotion_matrix(m0, m_plus, mz_real) -> np.ndarray:
    """Closed-form 2x2 periodic part for independent variables
    (m0, m_plus, mz_real); unitary for any finite arguments.

    Broadcasts: array arguments of a common shape give (..., 2, 2).
    """
    m0 = np.asarray(m0, dtype=float)
    m_plus = np.asarray(m_plus, dtype=complex)
    mz_real = np.asarray(mz_real, dtype=float)
    m0, m_plus, mz_real = np.broadcast_arrays(m0, m_plus, mz_real)
    pref = np.exp(-1j * m0) / np.sqrt(1.0 + np.abs(m_plus) ** 2)
    half = np.exp(0.5j * mz_real)
    out = np.empty(m0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.conj(half)
    out[..., 0, 1] = -1j * m_plus * half
    out[..., 1, 0] = -1j * np.conj(m_plus) * np.conj(half)
    out[..., 1, 1] = half
    return pref[..., None, None] * out


def ladder_phase_angle(k, dimension: int = 1):
    """Total phase angle of the ladder-channel momentum profile: k in 1D,
    kx + ky in 2D (component sum along the trailing axis)."""
    k = np.asarray(k, dtype=float)
    if dimension == 1:
        return k
    return k.sum(axis=-1)


def micromotion_at(g: GaugeParams, k, t, dimension: int = 1) -> np.ndarray:
    """Micro-motion matrix of the gauge family at momentum k and time t."""
    k = np.asarray(k, dtype=float)
    mu0, mu_plus, mu_zr, *_ = mu_functions(g, t)
    kphase = np.exp(1j * ladder_phase_angle(k, dimension))
    return micromotion_matrix(g.phi0(k) * mu0, mu_plus * kphase, mu_zr)


@dataclass(frozen=True)
class BoundaryReport:
    strobe_phase: complex
    max_mu_residual: float


def boundary_report(g: GaugeParams, n: int = 1,
                    tol: float = BOUNDARY_TOL) -> BoundaryReport:
    """Check the gauge boundary conditions at t = nT.

    With the separable family all mu's vanish at nT except the z winding,
    which contributes a period-global sign: P(nT) = (-1)^(p*n) * I.  Raises
    :class:`NonPeriodicGauge` when the ladder shape fails to vanish or the
    identity shape fails to land on a multiple of 2*pi.
    """
    t_n = n * g.period
    mu0, mu_plus, mu_zr, *_ = mu_functions(g, t_n)
    mu0_residual = float(np.abs(mu0 - 2 * np.pi * np.round(mu0 / (2 * np.pi))))
    plus_residual = float(np.abs(mu_plus))
    if plus_residual > tol:
        raise NonPeriodicGauge(
            f"|mu_plus({n}T)| = {plus_residual:.3e} exceeds {tol:.1e}"
        )
    if mu0_residual > tol:
        raise NonPeriodicGauge(
            f"mu0({n}T) is {mu0_residual:.3e} away from 2*pi*Z"
        )
    half_turns = mu_zr / (2 * np.pi)  # = p*n for the linear winding
    phase = complex((-1.0) ** (g.p * n))
    return BoundaryReport(
        strobe_phase=phase,
        max_mu_residual=max(mu0_residual, plus_residual,
                            float(np.abs(half_turns - g.p * n)) * 2 * np.pi),
    )
