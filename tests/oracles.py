"""Oracles shared by the test modules: the ladder operators S+ and S-,
quasienergy folding of a one-period unitary, the drive envelope and its
cosine series by quadrature, the einsum M1/M2 contraction of
the general drive, the channel-last 2x2 kernel the propagator must match bit
for bit, the fixed-step midpoint scheme, and the fixed-step integrator
references that several tests compare against, each computed once per
session."""

import math
from functools import cache

import numpy as np

import floqueng.propagate as prop
from floqueng.algebra import SX, SY
from floqueng.gauge import mu_functions
from floqueng.synth import crossstitch_protocol, transform_m1, transform_m2

#: The spin-1/2 ladder operators S_pm = S_x +- i S_y.
S_PLUS = SX + 1j * SY
S_MINUS = SX - 1j * SY
#: The four momenta on which the two integrators are compared.
K4 = np.linspace(-np.pi, np.pi, 4, endpoint=False)
#: Midpoint step counts whose errors give the scheme's convergence order.
MIDPOINT_STEPS = (256, 512, 1024, 2048)


def quasienergies(u_t: np.ndarray, omega: float,
                  strobe_phase: complex = 1.0 + 0j) -> np.ndarray:
    """Quasienergies of a one-period evolution, folded into (-w/2, w/2].

    Eigenphases theta of U(T)/strobe_phase map to energies -theta/T modulo
    the driving frequency; folding works entirely mod 2*pi so band energies
    larger than w/2 never require unwrapping.
    """
    period = 2 * np.pi / omega
    lam = np.linalg.eigvals(np.asarray(u_t, dtype=complex) / strobe_phase)
    eps = -np.angle(lam) / period
    folded = eps - omega * np.round(eps / omega)
    # zone is half-open: the lower edge belongs to +w/2, with a float-width
    # snap so exactly-edge eigenphases cannot straddle both sides
    edge = -omega / 2 + 16 * np.finfo(float).eps * omega
    folded = np.where(folded <= edge, folded + omega, folded)
    return np.sort(folded)


def envelope_values(a_plus_squared: float, theta) -> np.ndarray:
    """The drive envelope 1/(1 + a_plus^2 sin^2 wt) as a function of the
    dimensionless phase wt."""
    theta = np.asarray(theta, dtype=float)
    return 1.0 / (1.0 + a_plus_squared * np.sin(theta) ** 2)


def envelope_fourier_quad(a_plus_squared: float, n_max: int, n: int) -> np.ndarray:
    """Cosine coefficients c_0 .. c_{n_max} of the envelope by trapezoid
    quadrature on ``n`` points of one period, the independent reference for
    the closed-form series.  The quadrature converges spectrally for this
    smooth periodic integrand once the points resolve its spike, of width
    about 1/sqrt(1 + a_plus^2).  On the uniform grid it is the DFT X of the
    samples, c_m = (2/n) Re X_m with c_0 halved; there c_m equals c_{n - m},
    so ``n_max`` stays below n/2."""
    assert 0 <= n_max < n // 2, "orders from n/2 on alias on n points"
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    coeff = 2 / n * np.fft.rfft(envelope_values(a_plus_squared, theta))[:n_max + 1].real
    coeff[0] /= 2.0
    return coeff


def einsum_drive(target, static, g, k, t):
    """The general drive (f0, fx, fy, fz) with the S+ and Sz rows of M1 dmu
    and M2 Phi^dagger h contracted by einsum over the (2, 3) matrices,
    formed on the time samples and phased per momentum."""
    k = np.asarray(k, dtype=float)
    kphase = np.exp(1j * target.ladder_angle(k))
    h0t, hxt, hyt, hzt = target.coeffs(k)
    h0s = static.coeffs(k)[0]
    mu_plus, mu_zr, dmu_plus, dmu_zr = mu_functions(g, t)
    h_rot = np.stack(np.broadcast_arrays(np.conj(kphase) * (hxt - 1j * hyt) / 2,
                                         kphase * (hxt + 1j * hyt) / 2, hzt + 0j), axis=-1)
    f_rot = np.einsum("...ij,...j->...i", transform_m1(mu_plus),
                      np.stack([dmu_plus, dmu_plus, dmu_zr], axis=-1)) + \
        np.einsum("...ij,...j->...i", transform_m2(mu_plus, mu_zr), h_rot)
    f_plus = kphase * f_rot[..., 0]
    fz = np.real(f_rot[..., 1])
    return h0t - h0s + np.zeros(fz.shape), 2 * np.real(f_plus), -2 * np.imag(f_plus), fz


# The channel-last kernel: unitaries as (..., 2, 2) stacks and coefficients
# or Magnus exponents as (..., 4) stacks, formed entry by entry.  The
# propagator stores the same numbers matrix-index first, (2, 2, ...) and
# (4, ...), and must reproduce every bit of these.

def matmul_cl(a, b):
    """a @ b for (..., 2, 2) stacks, one entry at a time (12 ufunc calls)."""
    out = np.empty(np.broadcast_shapes(a.shape, b.shape), dtype=complex)
    out[..., 0, 0] = a[..., 0, 0] * b[..., 0, 0] + a[..., 0, 1] * b[..., 1, 0]
    out[..., 0, 1] = a[..., 0, 0] * b[..., 0, 1] + a[..., 0, 1] * b[..., 1, 1]
    out[..., 1, 0] = a[..., 1, 0] * b[..., 0, 0] + a[..., 1, 1] * b[..., 1, 0]
    out[..., 1, 1] = a[..., 1, 0] * b[..., 0, 1] + a[..., 1, 1] * b[..., 1, 1]
    return out


def expm_cl(c):
    """exp(-1j * H) of every row (h0, hx, hy, hz) of a real (..., 4) stack, in
    the closed Pauli form, as a (..., 2, 2) stack."""
    h0, hx, hy, hz = np.moveaxis(c, -1, 0)
    r = np.sqrt(hx * hx + hy * hy + hz * hz)
    phi = 0.5 * r
    sinc = np.divide(np.sin(phi), r, out=np.full_like(r, 0.5), where=r > 0)
    cosphi = np.cos(phi)
    isinc = -1j * sinc
    out = np.empty(h0.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = cosphi + isinc * hz
    out[..., 1, 1] = cosphi - isinc * hz
    out[..., 0, 1] = isinc * (hx - 1j * hy)
    out[..., 1, 0] = isinc * (hx + 1j * hy)
    out *= np.exp(-1j * h0)[..., None, None]
    return out


def bracket_cl(a, b):
    """[-i a.S, -i b.S] = -i (a x b).S for (..., 4) stacks, by component."""
    out = np.zeros(np.broadcast_shapes(a.shape, b.shape))
    for i, j, k in ((1, 2, 3), (2, 3, 1), (3, 1, 2)):
        out[..., i] = a[..., j] * b[..., k] - a[..., k] * b[..., j]
    return out


def magnus6_cl(h, dt):
    """Sixth-order Magnus exponent of each step as a (steps, ..., 4) stack,
    from H at its three Gauss nodes, h (steps, 3, ..., 4)."""
    h1, h2, h3 = h[:, 0], h[:, 1], h[:, 2]
    a1, a2 = dt * h2, (math.sqrt(15.0) * dt / 3) * (h3 - h1)
    a3 = (10 * dt / 3) * (h3 - 2 * h2 + h1)
    c1 = bracket_cl(a1, a2)
    c2 = bracket_cl(a1, 2 * a3 + c1) / -60
    return a1 + a3 / 12 + bracket_cl(-20 * a1 - a3 + c1, a2 + c2) / 240


def ordered_product_cl(e):
    """e[-1] @ ... @ e[0] of a (n, ..., 2, 2) stack, reduced pairwise."""
    while e.shape[0] > 1:
        even = e.shape[0] - (e.shape[0] % 2)
        pairs = matmul_cl(e[1:even:2], e[0:even:2])
        e = pairs if even == e.shape[0] else np.concatenate([pairs, e[-1:]], axis=0)
    return e[0]


def snapshots_cl(segments):
    """U_0 = 1 and U_i = segments[i - 1] @ U_(i-1), stacked as (n + 1, ..., 2, 2)."""
    u = np.empty((len(segments) + 1,) + segments.shape[1:], dtype=complex)
    u[0] = np.eye(2)
    for i, s in enumerate(segments):
        u[i + 1] = matmul_cl(s, u[i])
    return u


#: The second-order midpoint scheme, exp(-i dt H(t + dt/2)) per step, in
#: the chunk loop's (node offsets, step exponent) form: H at the nodes comes
#: as a (4, nodes, steps, ...) stack.
MIDPOINT = ((0.0,), lambda h, dt: dt * h[:, 0])


def midpoint_fixed(hfun, horizon, nsteps):
    """Fixed-step midpoint-exponential run through the chunk loop of
    integrate_tdse, as its independent reference; returns U(horizon) as a
    (..., 2, 2) stack."""
    return prop._roll_axes(
        prop._propagate(*MIDPOINT, hfun, horizon, nsteps, {nsteps})[:, :, -1], -2)


def magnus6_fixed(hfun, horizon, nsteps):
    """Fixed-step run of the Magnus-6 scheme that integrate_tdse doubles,
    through the same chunk loop; returns U(horizon) as a (..., 2, 2) stack."""
    return prop._roll_axes(
        prop._propagate(*prop._MAGNUS6, hfun, horizon, nsteps, {nsteps})[:, :, -1], -2)


def _frozen(a):
    a.setflags(write=False)
    return a


@cache
def midpoint_reference(omega: float) -> np.ndarray:
    """U(T) of the cross-stitch drive at ``omega`` on K4 by the midpoint
    scheme at 2^12 and 2^13 steps, Richardson-extrapolated: the scheme is
    symmetric, so its error expands in even powers of the step and
    (4 U(2n) - U(n)) / 3 cancels the leading one."""
    proto = crossstitch_protocol(omega=omega)
    hfun = proto.hamiltonian_fn(K4)
    coarse, fine = (midpoint_fixed(hfun, proto.period, n) for n in (2**12, 2**13))
    return _frozen((4 * fine - coarse) / 3)


def convergence_drive():
    """The default cross-stitch drive at k = 0.9, and its period."""
    proto = crossstitch_protocol()
    return proto.hamiltonian_fn(np.array([0.9])), proto.period


@cache
def magnus6_reference() -> np.ndarray:
    """U(T) of the convergence drive by 4096 Magnus-6 steps."""
    hfun, period = convergence_drive()
    return _frozen(magnus6_fixed(hfun, period, 4096))


@cache
def midpoint_errors() -> np.ndarray:
    """Largest entry error of the midpoint scheme at each of MIDPOINT_STEPS on
    the convergence drive, against the Magnus-6 reference."""
    hfun, period = convergence_drive()
    return _frozen(np.array([
        float(np.max(np.abs(midpoint_fixed(hfun, period, n) - magnus6_reference())))
        for n in MIDPOINT_STEPS
    ]))
