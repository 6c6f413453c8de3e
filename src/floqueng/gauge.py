"""Micro-motion gauge: separable drive-shape functions and the closed-form
periodic part of the evolution operator.

The periodic part is factorized as
P(t) = exp(-i m_plus S+) exp(-i m_minus S-) exp(-i m_z Sz)
with unitarity tying m_minus and Im(m_z) to m_plus.  The gauge family used
throughout is mu_plus = a_plus sin(wt) and mu_z_real = p*w*t with integer
winding p, with momentum profiles e^{ik} (ladder channel) and 1 (z channel).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NonPeriodicGauge


@dataclass(frozen=True)
class GaugeParams:
    """Amplitude, winding and frequency fixing the micro-motion gauge.

    ``p`` must be an integer: the z-channel winding p*w*t only returns to a
    multiple of 2*pi at t = nT for integer p, and a non-integer value breaks
    periodicity of the micro-motion up to phase.
    """

    a_plus: float = 0.0
    p: int = 0
    omega: float = 1.0

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not np.isfinite(self.a_plus):
            raise ValueError(f"a_plus must be finite, got {self.a_plus}")
        if float(self.p) % 1 != 0:  # true for NaN and +-inf too
            raise NonPeriodicGauge(
                f"winding p must be an integer, got {self.p}"
            )
        object.__setattr__(self, "p", int(np.round(float(self.p))))

    @property
    def period(self) -> float:
        return 2 * np.pi / self.omega


def mu_functions(g: GaugeParams, t):
    """Evaluate the two gauge shape functions and their time derivatives.

    Returns the real arrays ``(mu_plus, mu_zr, dmu_plus, dmu_zr)`` broadcast
    over ``t``.
    """
    t = np.asarray(t, dtype=float)
    wt = g.omega * t
    mu_plus = g.a_plus * np.sin(wt)
    mu_zr = g.p * g.omega * t
    dmu_plus = g.a_plus * g.omega * np.cos(wt)
    dmu_zr = g.p * g.omega * np.ones_like(t)
    return mu_plus, mu_zr, dmu_plus, dmu_zr


def micromotion_matrix(m_plus, mz_real) -> np.ndarray:
    """Closed-form 2x2 periodic part for independent variables
    (m_plus, mz_real); unitary for any finite arguments.

    Broadcasts: array arguments of a common shape give (..., 2, 2).
    """
    m_plus = np.asarray(m_plus, dtype=complex)
    mz_real = np.asarray(mz_real, dtype=float)
    m_plus, mz_real = np.broadcast_arrays(m_plus, mz_real)
    pref = 1.0 / np.sqrt(1.0 + np.abs(m_plus) ** 2)
    half = np.exp(0.5j * mz_real)
    out = np.empty(m_plus.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = np.conj(half)
    out[..., 0, 1] = -1j * m_plus * half
    out[..., 1, 0] = -1j * np.conj(m_plus) * np.conj(half)
    out[..., 1, 1] = half
    return pref[..., None, None] * out


def micromotion_at(g: GaugeParams, angle, t) -> np.ndarray:
    """Micro-motion matrix of the gauge family at time t and ladder phase
    angle ``angle`` (k in 1D, see ``HamiltonianSpec.ladder_angle``)."""
    mu_plus, mu_zr, *_ = mu_functions(g, t)
    kphase = np.exp(1j * np.asarray(angle, dtype=float))
    return micromotion_matrix(mu_plus * kphase, mu_zr)
