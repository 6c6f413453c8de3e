"""Oracles shared by the test modules: quasienergy folding of a one-period
unitary, the einsum M1/M2 contraction of the general drive, the fixed-step
midpoint scheme, and the fixed-step integrator references that several tests
compare against, each computed once per session."""

from functools import cache

import numpy as np

import floqueng.propagate as prop
from floqueng.gauge import mu_functions
from floqueng.synth import crossstitch_protocol, transform_m1, transform_m2

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


#: The second-order midpoint scheme, exp(-i dt H(t + dt/2)) per step, in
#: the chunk loop's (node offsets, step exponent) form.
MIDPOINT = ((0.0,), lambda h, dt: dt * h[:, 0])


def midpoint_fixed(hfun, horizon, nsteps):
    """Fixed-step midpoint-exponential run through the chunk loop of
    integrate_tdse, as its independent reference; returns U(horizon)."""
    return prop._propagate(*MIDPOINT, hfun, horizon, nsteps, {nsteps})[-1]


def magnus6_fixed(hfun, horizon, nsteps):
    """Fixed-step run of the Magnus-6 scheme that integrate_tdse doubles,
    through the same chunk loop; returns U(horizon)."""
    return prop._propagate(*prop._MAGNUS6, hfun, horizon, nsteps, {nsteps})[-1]


def _frozen(a):
    a.setflags(write=False)
    return a


@cache
def midpoint_reference(omega: float) -> np.ndarray:
    """U(T) of the cross-stitch drive at ``omega`` on K4, by 2^19 midpoint
    steps."""
    proto = crossstitch_protocol(omega=omega)
    return _frozen(midpoint_fixed(proto.hamiltonian_fn(K4), proto.period, 2**19))


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
