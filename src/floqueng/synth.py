"""Drive synthesis: given a bare identity-channel Hamiltonian and a target
band Hamiltonian, construct the time-periodic drive whose stroboscopic
evolution reproduces the target exactly at any driving frequency.

Coefficient vectors follow the ladder ordering (S+, S-, Sz): the first slot
multiplies S+, the second S-, the third Sz.  The drive solves

    f(t) = M1(m_plus) . dm + M2(m_plus, mz_real) . h_target

with m_plus = mu_plus(t) e^{ik}, mz_real = p*w*t, and dm the derivative
triple (dm_plus, conj(dm_plus), dmz_real).  Both transformation matrices are
the identity at t = nT, which is what makes the protocol exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import algebra
from .algebra import HamiltonianSpec
from .errors import HermiticityError
from .gauge import GaugeParams, ladder_phase_angle, mu_functions

IMAG_LEAK_TOL = 1e-10

#: Samples per period for the static-harmonic quadrature; the integrand is a
#: low-order trigonometric polynomial, so this is far beyond spectral accuracy.
RESIDUAL_SAMPLES = 2048


def transform_m1(m_plus) -> np.ndarray:
    """Derivative-to-coefficient matrix; identity at m_plus = 0.

    Broadcasts over array-valued ``m_plus`` to shape (..., 3, 3).
    """
    m = np.asarray(m_plus, dtype=complex)
    denom = 1.0 + np.abs(m) ** 2
    out = np.zeros(m.shape + (3, 3), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 0, 2] = 1j * m
    out[..., 1, 1] = 1.0
    out[..., 1, 2] = -1j * np.conj(m)
    out[..., 2, 0] = 1j * np.conj(m)
    out[..., 2, 1] = -1j * m
    out[..., 2, 2] = 1.0 - np.abs(m) ** 2
    return out / denom[..., None, None]


def transform_m2(m_plus, mz_real) -> np.ndarray:
    """Target-conjugation matrix; columns expand P S_a P^dagger in the
    ladder basis.  Identity at m_plus = 0, mz_real in 2*pi*Z."""
    m = np.asarray(m_plus, dtype=complex)
    zr = np.asarray(mz_real, dtype=float)
    m, zr = np.broadcast_arrays(m, zr)
    denom = 1.0 + np.abs(m) ** 2
    q = 1j * m * np.exp(1j * zr)
    out = np.zeros(m.shape + (3, 3), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * zr)
    out[..., 0, 1] = -1j * q * m
    out[..., 0, 2] = 1j * m
    out[..., 1, 0] = 1j * np.conj(q) * np.conj(m)
    out[..., 1, 1] = np.exp(1j * zr)
    out[..., 1, 2] = -1j * np.conj(m)
    out[..., 2, 0] = -2 * np.conj(q)
    out[..., 2, 1] = -2 * q
    out[..., 2, 2] = 1.0 - np.abs(m) ** 2
    return out / denom[..., None, None]


def _drive_general(target: HamiltonianSpec, static: HamiltonianSpec,
                   g: GaugeParams, k, t):
    """Ladder-basis synthesis via the M1/M2 matrices, returned as the real
    Cartesian arrays (f0, fx, fy, fz).

    Momentum and time follow plain numpy broadcasting; to mesh a k-grid
    against a t-grid pass k with a trailing singleton axis.
    """
    k = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)
    kang = ladder_phase_angle(k, target.dimension)
    kphase = np.exp(1j * kang)

    h0t, hxt, hyt, hzt = target.coeffs(k)
    if target.band_count == 3 and np.any(h0t != 0):
        raise ValueError("three-band synthesis requires a zero identity channel, "
                         f"got max |h0| = {np.max(np.abs(h0t)):.3e}")
    h0s, hxs, hys, hzs = static.coeffs(k)
    if np.max(np.abs([hxs, hys, hzs])) > 0:
        raise ValueError("static Hamiltonian must be identity-channel only")

    mu_plus, mu_zr, dmu_plus, dmu_zr = mu_functions(g, t)
    m_plus = kphase * mu_plus
    shape = np.broadcast_shapes(m_plus.shape, np.shape(hxt),
                                np.shape(mu_zr), np.shape(hzt))

    def bc(a):
        return np.broadcast_to(np.asarray(a, dtype=complex), shape)

    dm = np.stack([
        bc(kphase * dmu_plus),
        bc(np.conj(kphase) * dmu_plus),
        bc(dmu_zr),
    ], axis=-1)
    h_pm = np.stack([
        bc((hxt - 1j * hyt) / 2),
        bc((hxt + 1j * hyt) / 2),
        bc(hzt),
    ], axis=-1)

    m1 = transform_m1(np.broadcast_to(m_plus, shape))
    m2 = transform_m2(np.broadcast_to(m_plus, shape),
                      np.broadcast_to(mu_zr, shape))
    f_pm = np.einsum("...ij,...j->...i", m1, dm) + \
        np.einsum("...ij,...j->...i", m2, h_pm)

    conj_gap = np.max(np.abs(f_pm[..., 1] - np.conj(f_pm[..., 0])))
    imag_leak = np.max(np.abs(np.imag(f_pm[..., 2])))
    scale = max(1.0, float(np.max(np.abs(f_pm))))
    if max(conj_gap, imag_leak) > IMAG_LEAK_TOL * scale:
        raise HermiticityError(
            f"ladder components lost conjugate pairing by {max(conj_gap, imag_leak):.3e}"
        )

    fx = 2 * np.real(f_pm[..., 0])
    fy = -2 * np.imag(f_pm[..., 0])
    fz = np.real(f_pm[..., 2])
    f0 = np.broadcast_to(h0t - h0s + np.zeros(shape), shape)
    return f0, fx, fy, fz


def crossstitch_drive_components(alpha, delta, omega, a_plus, p, k, t):
    """Closed-form drive for the flat-band chain target, as arrays.

    The three components share the envelope f_e = 1/(1 + a_plus^2 sin^2 wt).
    x and y are twice the real and negated imaginary parts of the ladder
    coefficient; z is the Sz coefficient directly.
    """
    k = np.asarray(k, dtype=float)
    t = np.asarray(t, dtype=float)
    h = -(2 * alpha * np.cos(k) + delta)
    wt = omega * t
    s, c = np.sin(wt), np.cos(wt)
    fe = 1.0 / (1.0 + a_plus**2 * s**2)
    fx = 2 * fe * (
        a_plus * omega * c * np.cos(k)
        - a_plus * p * omega * s * np.sin(k)
        + h * np.cos(p * wt)
        + a_plus**2 * h * s**2 * np.cos(2 * k + p * wt)
    )
    fy = -2 * fe * (
        a_plus * omega * c * np.sin(k)
        + a_plus * p * omega * s * np.cos(k)
        - h * np.sin(p * wt)
        + a_plus**2 * h * s**2 * np.sin(2 * k + p * wt)
    )
    fz = fe * (
        p * omega * (1 - a_plus**2 / 2)
        + 0.5 * p * omega * a_plus**2 * np.cos(2 * wt)
        + 4 * a_plus * h * s * np.sin(k + p * wt)
    )
    f0 = np.zeros(np.broadcast_shapes(k.shape, t.shape))
    return f0, fx, fy, fz


@dataclass(frozen=True)
class DrivingProtocol:
    """An evaluable drive f(k, t) plus everything needed to verify it.

    ``closed_form`` holds the (alpha, delta) of the flat-band chain target
    when the drive is evaluated in closed form; ``None`` selects the general
    M1/M2 synthesis path.  ``fz_scale`` deliberately detunes the z component
    and exists only so sensitivity tests can confirm that verification
    catches a broken drive.
    """

    target: HamiltonianSpec
    static: HamiltonianSpec
    gauge: GaugeParams
    closed_form: tuple[float, float] | None = None
    fz_scale: float = 1.0

    @property
    def period(self) -> float:
        return self.gauge.period

    def drive_components(self, k, t):
        """Arrays (f0, fx, fy, fz) broadcast over momentum and time; a drive
        that overflows raises ValueError."""
        g = self.gauge
        with np.errstate(over="ignore", invalid="ignore"):
            if self.closed_form is not None:
                f0, fx, fy, fz = crossstitch_drive_components(
                    *self.closed_form, g.omega, g.a_plus, g.p, k, t)
            else:
                f0, fx, fy, fz = _drive_general(self.target, self.static, g, k, t)
            if self.fz_scale != 1.0:
                fz = self.fz_scale * fz
        if not all(np.isfinite(f).all() for f in (f0, fx, fy, fz)):
            raise ValueError("drive is not finite at this gauge amplitude and frequency")
        return f0, fx, fy, fz

    def drive_table(self, k_grid, t_grid):
        """Mesh a momentum grid against a time grid: (n_k, n_t) arrays."""
        return self.drive_components(np.asarray(k_grid, dtype=float)[:, None],
                                     np.asarray(t_grid, dtype=float)[None, :])

    def hamiltonian_fn(self, k) -> Callable:
        """Full driven Hamiltonian H0 + V(t) as a time-only closure over a
        fixed momentum grid, for propagation: a 1D time array gives the real
        (n_t, n_k, 4) stack of coefficients (h0, hx, hy, hz), those of the
        coupled block for three-band targets too."""
        km = np.asarray(k, dtype=float)[:, None]
        h0s = self.static.coeffs(km)[0]

        def fn(t):
            f0, fx, fy, fz = self.drive_components(km, np.asarray(t, dtype=float)[None, :])
            c = np.stack(np.broadcast_arrays(h0s + f0, fx, fy, fz), axis=-1)
            return c.swapaxes(0, 1)

        return fn


def crossstitch_protocol(alpha=1.0, delta=2.0, omega=8.0, a_plus=np.sqrt(2.0),
                         p=3) -> DrivingProtocol:
    """Standard flat-band engineering setup: bare uncoupled chains driven to
    the cross-linked flat-band spectrum, evaluated in closed form."""
    g = GaugeParams(a_plus=float(a_plus), p=p, omega=float(omega))
    return DrivingProtocol(
        target=algebra.cross_stitch(alpha, delta),
        static=algebra.uncoupled_chains(alpha),
        gauge=g,
        closed_form=(float(alpha), float(delta)),
    )


def general_protocol(static: HamiltonianSpec, target: HamiltonianSpec,
                     g: GaugeParams) -> DrivingProtocol:
    return DrivingProtocol(target=target, static=static, gauge=g)


def static_harmonic_residual(protocol: DrivingProtocol, k) -> np.ndarray:
    """Zero-frequency harmonic of the drive numerator g(t) = f(t)/f_e(t).

    The static-part criterion lives on the numerator polynomial: the envelope
    f_e reweights harmonics, so a plain time average of f itself would not
    isolate the constant monomial.  Returns the per-component averages
    (x, y, z) over one period by trapezoid quadrature.
    """
    T = protocol.period
    t = np.linspace(0.0, T, RESIDUAL_SAMPLES + 1)
    _, fx, fy, fz = protocol.drive_components(np.asarray(k, dtype=float), t)
    s = np.sin(protocol.gauge.omega * t)
    numerator = np.stack([fx, fy, fz], axis=0) * (1.0 + protocol.gauge.a_plus**2 * s**2)
    return np.trapezoid(numerator, t, axis=-1) / T
