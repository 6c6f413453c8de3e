"""Drive synthesis: given a bare identity-channel Hamiltonian and a target
band Hamiltonian, construct the time-periodic drive whose stroboscopic
evolution reproduces the target exactly at any driving frequency.

Coefficient vectors follow the ladder ordering (S+, S-, Sz): the first slot
multiplies S+, the second S-, the third Sz.  The drive solves

    f(t) = M1(m_plus) . dm + M2(m_plus, mz_real) . h_target

with m_plus = mu_plus(t) e^{ik}, mz_real = p*w*t, and dm the derivative
triple (dm_plus, conj(dm_plus), dmz_real).  Both transformation matrices are
the identity at t = nT, which is what makes the protocol exact.  The drive
is Hermitian, so its S- component is the conjugate of its S+ component, and
only the S+ and Sz rows of M1 and M2 are formed.  Momentum enters them only
as the phase of m_plus, a conjugation by Phi = diag(e^{ik}, e^{-ik}, 1), so
they are formed once per time and the phase is applied per momentum; a
protocol forms that phase and the target's coefficients once per grid, as
it forms the closed form's momentum harmonics.  The flat-band chain's drive
has a closed form, kept once as a hopping-harmonic table
(:func:`crossstitch_rows`) that lattice hoppings are built from and that
checks compare with this general path.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable

import numpy as np

from . import algebra
from .algebra import HamiltonianSpec
from .gauge import GaugeParams, mu_functions

#: Samples per period for the static-harmonic quadrature; the integrand is a
#: low-order trigonometric polynomial, so this is far beyond spectral accuracy.
RESIDUAL_SAMPLES = 2048


def transform_m1(m_plus) -> np.ndarray:
    """Derivative-to-coefficient matrix, its S+ and Sz rows; identity at
    m_plus = 0.  Broadcasts over array-valued ``m_plus`` to shape
    (..., 2, 3).  The S- row is never formed: the drive is Hermitian, so
    f_- = conj(f_+)."""
    m = np.asarray(m_plus, dtype=complex)
    denom = 1.0 + np.abs(m) ** 2
    out = np.zeros(m.shape + (2, 3), dtype=complex)
    out[..., 0, 0] = 1.0
    out[..., 0, 2] = 1j * m
    out[..., 1, 0] = 1j * np.conj(m)
    out[..., 1, 1] = -1j * m
    out[..., 1, 2] = 1.0 - np.abs(m) ** 2
    out /= denom[..., None, None]
    return out


def transform_m2(m_plus, mz_real) -> np.ndarray:
    """Target-conjugation matrix, its S+ and Sz rows: column a holds the S+
    and Sz coefficients of P S_a P^dagger in the ladder basis, shape
    (..., 2, 3).  Identity at m_plus = 0, mz_real in 2*pi*Z.  The S- row is
    never formed: the drive is Hermitian, so f_- = conj(f_+)."""
    m = np.asarray(m_plus, dtype=complex)
    zr = np.asarray(mz_real, dtype=float)
    m, zr = np.broadcast_arrays(m, zr)
    denom = 1.0 + np.abs(m) ** 2
    q = 1j * m * np.exp(1j * zr)
    out = np.zeros(m.shape + (2, 3), dtype=complex)
    out[..., 0, 0] = np.exp(-1j * zr)
    out[..., 0, 1] = -1j * q * m
    out[..., 0, 2] = 1j * m
    out[..., 1, 0] = -2 * np.conj(q)
    out[..., 1, 1] = -2 * q
    out[..., 1, 2] = 1.0 - np.abs(m) ** 2
    out /= denom[..., None, None]
    return out


def _momentum_factors(target: HamiltonianSpec, static: HamiltonianSpec, k):
    """The momentum-only half of the general drive: the phase e^{ik}, the
    target's ladder coefficients rotated by Phi^dagger and f0 = h0t - h0s,
    after the three-band and identity-only static checks."""
    kphase = np.exp(1j * target.ladder_angle(k))
    h0t, hxt, hyt, hzt = target.coeffs(k)
    if target.band_count == 3 and np.any(h0t != 0):
        raise ValueError("three-band synthesis requires a zero identity channel, "
                         f"got max |h0| = {np.max(np.abs(h0t)):.3e}")
    h0s, hxs, hys, hzs = static.coeffs(k)
    if np.max(np.abs([hxs, hys, hzs])) > 0:
        raise ValueError("static Hamiltonian must be identity-channel only")
    h_rot = (np.conj(kphase) * (hxt - 1j * hyt) / 2, kphase * (hxt + 1j * hyt) / 2, hzt)
    return kphase, h_rot, h0t - h0s


def _drive_general(factors: tuple, g: GaugeParams, t):
    """Ladder-basis synthesis via the M1/M2 matrices from the
    :func:`_momentum_factors` of a momentum batch, returned as the real
    Cartesian (..., 4) stack of (f0, fx, fy, fz), as :func:`_table_drive`
    returns its own.

    M(e^{ik} mu_plus) = Phi M(mu_plus) Phi^dagger, so both matrices are
    formed on the time samples alone:
    f = Phi [M1(mu_plus) dmu + M2(mu_plus, mz_real) Phi^dagger h].
    Momentum and time follow plain numpy broadcasting; to mesh a k-grid
    against a t-grid pass k with a trailing singleton axis.  M1 and M2 hold
    only their S+ and Sz rows: the drive is Hermitian, so its S- component
    is f_- = conj(f_+) and never formed.  The Sz row has conjugate ladder
    entries and a real Sz entry, so a real f_z holds exactly in floating
    point.  Both rows are contracted as explicit sums, with one matrix held
    at a time.
    """
    kphase, h_rot, f0 = factors

    def rows(m, v):  # the S+ and Sz rows of m . v; m is freed on return
        return [m[..., i, 0] * v[0] + m[..., i, 1] * v[1] + m[..., i, 2] * v[2] for i in (0, 1)]
    mu_plus, mu_zr, dmu_plus, dmu_zr = mu_functions(g, t)
    d_plus, d_z = rows(transform_m1(mu_plus), (dmu_plus, dmu_plus, dmu_zr))
    h_plus, h_z = rows(transform_m2(mu_plus, mu_zr), h_rot)
    f_plus, fz = kphase * (d_plus + h_plus), np.real(d_z + h_z)
    return np.stack([f0 + np.zeros(fz.shape), 2 * np.real(f_plus), -2 * np.imag(f_plus), fz],
                    axis=-1)


#: Longest hop of the cross-stitch drive, in dimers (its degree in k)
MAX_RANGE = 3
#: The time factors T_f(t) of the hopping-harmonic table, in stacking order
TIME_LABELS = ("1", "cos(wt)", "sin(wt)", "cos(2wt)", "cos(pwt)", "sin(pwt)",
               "sin(wt)cos(pwt)", "sin(wt)sin(pwt)", "sin2(wt)cos(pwt)",
               "sin2(wt)sin(pwt)")


def crossstitch_rows(alpha: float, delta: float, g: GaugeParams) -> list[tuple]:
    """Rows (channel, m, k_harmonic, time_label, coefficient), product-to-sum
    on the drive numerators: f_c(k, t) = f_e(t) sum over the rows of channel
    c of coefficient T(t) k_harmonic(m k), f_e = 1/(1 + a_plus^2 sin^2 wt)."""
    ap, w, p = g.a_plus, g.omega, g.p
    return [
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


def harmonic_time_factors(g: GaugeParams, t) -> np.ndarray:
    """f_e(t) T_f(t) for every label of ``TIME_LABELS``, stacked on a
    leading axis over the shape of ``t``."""
    wt = g.omega * np.asarray(t, dtype=float)
    out = np.empty((len(TIME_LABELS),) + wt.shape)
    s = np.sin(wt, out=out[2, ...])
    out[0] = 1.0 / (1.0 + g.a_plus**2 * (s * s))  # f_e
    out[1], out[3], out[4], out[5] = np.cos(wt), np.cos(2 * wt), np.cos(g.p * wt), np.sin(g.p * wt)
    np.multiply(s, out[4:6], out=out[6:8])
    np.multiply(s * s, out[4:6], out=out[8:10])
    out[1:] *= out[0]
    return out


def _momentum_harmonics(k) -> np.ndarray:
    """H_b(k) = 1, cos k, sin k, ..., cos 3k, sin 3k of the table, stacked on
    a leading axis over the float array ``k``."""
    mk = np.multiply.outer(np.arange(1, MAX_RANGE + 1), k)
    return np.concatenate([np.ones((1,) + k.shape), np.stack(
        [np.cos(mk), np.sin(mk)], axis=1).reshape((2 * MAX_RANGE,) + k.shape)])


def _table_drive(c: np.ndarray, g: GaugeParams, harmonics: np.ndarray, t) -> np.ndarray:
    """f_c(k, t) = sum over f, b of f_e(t) T_f(t) C[f, c, b] H_b(k), with the
    (7, ...) momentum ``harmonics`` H_b broadcast against ``t``, channels
    last: (n_t, 1) times against (7, 1, n_k) harmonics give the time-major
    (n_t, n_k, channels) stack whose time axis propagation splits as a view."""
    per_harmonic = np.einsum("fcb,f...->...cb", c, harmonic_time_factors(g, t))
    # einsum lays out the stack itself: an out= operand makes it 10x slower, order="C" 4x
    return np.einsum("...cb,b...->...c", per_harmonic, harmonics)


def _times_first(target: HamiltonianSpec, k) -> tuple:
    """Shape that puts 1D times on a leading axis against the momentum batch ``k``."""
    return (-1,) + (1,) * np.ndim(target.k_labels(k))


@dataclass(frozen=True)
class DrivingProtocol:
    """An evaluable drive f(k, t) plus everything needed to verify it.

    ``closed_form`` holds the (alpha, delta) of the flat-band chain target
    when the drive is evaluated in closed form, from the hopping-harmonic
    table of :func:`crossstitch_rows`; ``None`` selects the general M1/M2
    synthesis path.  Either family's momentum factors are formed once per
    grid, and :meth:`hamiltonian_fn` evaluates the drive through
    :meth:`drive_components`, as every other caller does.  ``fz_scale``
    deliberately detunes the z component and exists only so sensitivity
    tests can confirm that verification catches a broken drive.
    """

    target: HamiltonianSpec
    static: HamiltonianSpec
    gauge: GaugeParams
    closed_form: tuple[float, float] | None = None
    fz_scale: float = 1.0

    @property
    def period(self) -> float:
        return self.gauge.period

    @cached_property
    def _harmonic_tensor(self) -> np.ndarray:
        """C[f, c, b]: the table's coefficient of time factor f in channel c
        (h0, x, y, z) at momentum harmonic b (1, cos k, sin k, ..., sin 3k);
        the h0 channel is zero, so the contraction gives f0 = 0 itself."""
        c = np.zeros((len(TIME_LABELS), 4, 2 * MAX_RANGE + 1))
        for channel, m, kfn, label, coef in crossstitch_rows(*self.closed_form, self.gauge):
            b = 2 * m - (kfn == "cos") if m else 0
            c[TIME_LABELS.index(label), 1 + "xyz".index(channel), b] += coef
        return c

    @cached_property
    def _grid_factors(self) -> Callable:
        """One-slot memo of a grid's momentum factors, keyed by its shape and
        bytes and shared by the chunks over one grid: the 7 harmonics of the
        closed form's table, or the general family's
        :func:`_momentum_factors`; a grid that fails a check stores nothing.
        It holds the specs: ``self`` would be a cycle."""
        target, static, closed = self.target, self.static, self.closed_form is not None

        @lru_cache(maxsize=1)
        def factors(shape, data):
            k = np.frombuffer(data).reshape(shape)
            return _momentum_harmonics(k) if closed else _momentum_factors(target, static, k)
        return factors

    def drive_components(self, k, t) -> np.ndarray:
        """The drive as one (4, ...) array of rows (f0, fx, fy, fz) broadcast
        over momentum and time, a view of its kernel's channels-last stack; a
        drive that overflows raises ValueError."""
        g, k = self.gauge, self.target._momenta(k)
        with np.errstate(over="ignore", invalid="ignore"):
            factors = self._grid_factors(k.shape, k.tobytes())
            if self.closed_form is not None:
                out = _table_drive(self._harmonic_tensor, g, factors, t)
            else:
                out = _drive_general(factors, g, t)
            if self.fz_scale != 1.0:
                out[..., 3] *= self.fz_scale
        if not np.isfinite(out).all():
            raise ValueError("drive is not finite at this gauge amplitude and frequency")
        return out.transpose((-1,) + tuple(range(out.ndim - 1)))

    def drive_table(self, k_grid, t_grid) -> np.ndarray:
        """Mesh a momentum grid against a time grid: a (4, n_k, n_t) array."""
        return self.drive_components(self.target._momenta(k_grid)[:, None],
                                     np.asarray(t_grid, dtype=float)[None, :])

    def hamiltonian_fn(self, k) -> Callable:
        """Full driven Hamiltonian H0 + V(t) as a time-only closure over a
        fixed momentum batch of any shape, for propagation: a 1D time array
        gives the real (n_t, *batch, 4) stack of coefficients (h0, hx, hy,
        hz), those of the coupled block for three-band targets too, from one
        :meth:`drive_components` call per chunk of times."""
        km = self.target._momenta(k)[None]  # time-leading: the stack needs no copy
        h0s, t_shape = self.static.coeffs(km)[0], _times_first(self.target, k)

        def fn(t):
            drive = self.drive_components(km, np.reshape(t, t_shape))
            out = drive.transpose(tuple(range(1, drive.ndim)) + (0,))
            # f0 does not depend on time in either family (exactly 0 in the
            # closed form, h0t - h0s in the general one), so its first time
            # row serves all; assigned: += would take a 64 KiB ufunc buffer
            out[..., 0] = h0s + out[:1, ..., 0]
            return out

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
    (x, y, z) over one period by trapezoid quadrature, (3, *batch) for a
    momentum batch ``k``.
    """
    T = protocol.period
    t = np.linspace(0.0, T, RESIDUAL_SAMPLES + 1).reshape(_times_first(protocol.target, k))
    numerator = protocol.drive_components(k, t)[1:] / harmonic_time_factors(protocol.gauge, t)[0]
    return np.trapezoid(numerator, t.ravel(), axis=1) / T
