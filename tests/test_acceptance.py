"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured figure of merit at the stated tolerance."""

import time

import numpy as np

from floqueng import algebra
from floqueng.gauge import GaugeParams, micromotion_at
from floqueng.lattice import expand_to_lattice, lattice_vs_momentum_check
from floqueng.propagate import integrate_tdse, verify_protocol
from floqueng.spectra import band_structure, envelope_fourier
from floqueng.synth import (
    crossstitch_protocol,
    general_protocol,
    static_harmonic_residual,
)

from oracles import K4, MIDPOINT_STEPS, midpoint_errors, midpoint_reference

SQRT2 = np.sqrt(2.0)
K64 = np.linspace(-np.pi, np.pi, 64, endpoint=False)
K8 = np.linspace(-np.pi, np.pi, 8, endpoint=False)


def report(criterion, ok, detail):
    print(f"criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_01_stroboscopic_exactness_fast_drive():
    start = time.perf_counter()
    rep = verify_protocol(crossstitch_protocol(omega=8.0), K64, tol=1e-8)
    elapsed = time.perf_counter() - start
    ok = rep.max_strobe_error <= 1e-8 and elapsed <= 30.0
    report(1, ok,
           f"max strobe error {rep.max_strobe_error:.3e} <= 1e-8 over 64 "
           f"momenta at omega=8, {elapsed:.1f}s <= 30s")


def test_criterion_02_stroboscopic_exactness_slow_drive():
    rep = verify_protocol(crossstitch_protocol(omega=4.0), K64, tol=1e-8)
    report(2, rep.max_strobe_error <= 1e-8,
           f"max strobe error {rep.max_strobe_error:.3e} <= 1e-8 at omega=4")


def test_criterion_03_multi_period_composition():
    rep = verify_protocol(crossstitch_protocol(), K8, periods=3, tol=1e-8)
    report(3, rep.max_strobe_error <= 3e-8,
           f"three-period strobe error {rep.max_strobe_error:.3e} <= 3e-8 "
           f"at 8 momenta")


def test_criterion_04_micromotion_consistency():
    proto = crossstitch_protocol()
    T = proto.period
    # 64 samples over the first period and the five period ends, in steps
    steps = [*range(0, 4096, 64), *range(4096, 5 * 4096 + 1, 4096)]
    trace = integrate_tdse(proto.hamiltonian_fn(K8), 5 * T, tol=1e-8,
                           base_steps=5 * 4096, sample_steps=steps)
    heff = np.stack(proto.target.coeffs(K8), axis=-1)
    closed_err = 0.0
    strobe_err = 0.0
    from floqueng.propagate import expm_herm

    for j, (step, t) in enumerate(zip(steps, trace.times)):
        p_num = trace.unitaries[j] @ expm_herm(-float(t) * heff)
        p_ref = micromotion_at(proto.gauge, K8, float(t))
        closed_err = max(closed_err, float(np.max(np.abs(p_num - p_ref))))
        n, within = divmod(step, 4096)
        if n and not within:  # t = nT
            target = (-1.0) ** (3 * n) * np.eye(2)
            strobe_err = max(strobe_err, float(np.max(np.abs(p_num - target))))
    ok = closed_err <= 1e-7 and strobe_err <= 1e-7
    report(4, ok,
           f"micro-motion vs closed form {closed_err:.3e} <= 1e-7 at 64 "
           f"samples; strobe identity {strobe_err:.3e} <= 1e-7 for n=1..5")


def test_criterion_05_band_reproduction():
    energies = band_structure(algebra.cross_stitch(1.0, 2.0), K64)
    flat = np.max(energies, axis=1)
    disp = np.min(energies, axis=1)
    flat_dev = float(np.max(np.abs(flat - 2.0)))
    disp_dev = float(np.max(np.abs(disp - np.minimum(-4 * np.cos(K64) - 2.0, 2.0))))
    ok = np.std(flat) <= 1e-12 and flat_dev <= 1e-12 and disp_dev <= 1e-12
    report(5, ok,
           f"flat band std {np.std(flat):.2e} <= 1e-12, dispersive pointwise "
           f"deviation {disp_dev:.2e}")


def test_criterion_06_envelope_fourier():
    c = envelope_fourier(2.0, 40)
    odd_max = float(np.max(np.abs(c[1::2])))
    ratios = np.array([c[2 * n + 2] / c[2 * n] for n in range(1, 11)])
    ratio_dev = float(np.max(np.abs(ratios - (2 - np.sqrt(3.0)))))
    c0_dev = abs(c[0] - 1 / np.sqrt(3.0))
    ok = odd_max <= 1e-12 and ratio_dev <= 1e-6 and c0_dev <= 1e-10
    report(6, ok,
           f"odd coefficients {odd_max:.2e} <= 1e-12, even ratio deviation "
           f"{ratio_dev:.2e} <= 1e-6, mean deviation {c0_dev:.2e} <= 1e-10")


def test_criterion_07_static_term_criterion():
    worst = 0.0
    proto = crossstitch_protocol()
    for k in K64:
        worst = max(worst, float(np.max(np.abs(static_harmonic_residual(proto, k)))))
    k_probe = np.pi / 3
    res_p1 = static_harmonic_residual(crossstitch_protocol(p=1), k_probe)
    res_p2 = static_harmonic_residual(crossstitch_protocol(p=2), k_probe)
    floor = 1e-3 * 8.0
    ok = worst <= 1e-10 and abs(res_p1[2]) > floor and abs(res_p2[0]) > floor
    report(7, ok,
           f"numerator DC residual {worst:.2e} <= 1e-10 at (a+^2=2, p=3); "
           f"counterexamples |z(p=1)|={abs(res_p1[2]):.2f}, "
           f"|x(p=2)|={abs(res_p2[0]):.2f} > {floor:g}")


def test_criterion_08_closed_form_vs_general():
    closed = crossstitch_protocol()
    general = general_protocol(closed.static, closed.target, closed.gauge)
    k = np.linspace(-np.pi, np.pi, 32, endpoint=False)
    t = np.linspace(0, closed.period, 32, endpoint=False)
    dev = max(float(np.max(np.abs(a - b)))
              for a, b in zip(closed.drive_table(k, t), general.drive_table(k, t)))
    report(8, dev <= 1e-12,
           f"closed form vs transformation-matrix path {dev:.2e} <= 1e-12 "
           f"on a 32x32 grid")


def test_criterion_09_real_space_locality_and_equivalence():
    proto = crossstitch_protocol(1.0, 2.0, 8.0, SQRT2, 3)
    terms = expand_to_lattice(proto)
    max_range = max(t.m for t in terms)
    k = 2 * np.pi * np.arange(64) / 64
    general = general_protocol(proto.static, proto.target, proto.gauge)

    leak = 0.0
    for t in (0.0, 0.13, 0.29, 0.55):
        _, fx, fy, fz = general.drive_components(k, t)
        fe = 1.0 / (1.0 + 2.0 * np.sin(8.0 * t) ** 2)
        for comp in (fx, fy, fz):
            spectrum = np.abs(np.fft.rfft(comp / fe)) / 64
            leak = max(leak, float(np.max(spectrum[4:])))
    t_grid = (2 * np.pi / 8.0) * np.arange(16) / 16
    dev = lattice_vs_momentum_check(proto, terms, L=8, t_grid=t_grid)
    ok = max_range <= 3 and leak <= 1e-12 and dev <= 1e-10
    report(9, ok,
           f"max hopping range {max_range} <= 3 with harmonic leakage "
           f"{leak:.2e} <= 1e-12; L=8 Fourier roundtrip {dev:.2e} <= 1e-10 "
           f"at 16 time samples")


def test_criterion_10_three_band_case():
    spec = algebra.su3_flat(delta=2.0)
    worst_strobe = 0.0
    worst_flat_phase = 0.0
    for omega in (8.0, 4.0):
        gauge = GaugeParams(a_plus=SQRT2, p=3, omega=omega)
        proto = general_protocol(algebra.ZERO, spec, gauge)
        rep = verify_protocol(proto, K64, tol=1e-8)
        worst_strobe = max(worst_strobe, rep.max_strobe_error)
        trace = integrate_tdse(proto.hamiltonian_fn(K64), proto.period, tol=1e-8)
        # the coupled block plus the decoupled third level, whose evolution is 1
        u_t = np.zeros((len(K64), 3, 3), dtype=complex)
        u_t[:, :2, :2] = trace.unitaries[-1]
        u_t[:, 2, 2] = 1.0
        phase = np.diag([-1.0, -1.0, 1.0])
        for i in range(len(K64)):
            lam = np.linalg.eigvals(phase @ u_t[i])
            worst_flat_phase = max(worst_flat_phase,
                                   float(np.min(np.abs(np.angle(lam)))))
    ok = worst_strobe <= 1e-8 and worst_flat_phase <= 1e-8
    report(10, ok,
           f"block-phase-adjusted strobe error {worst_strobe:.3e} <= 1e-8 at "
           f"omega in {{8,4}}; flat-band eigenphase {worst_flat_phase:.3e} "
           f"<= 1e-8 at every momentum")


def test_criterion_11_integrator_health():
    agree = 0.0
    for omega in (8.0, 4.0):
        proto = crossstitch_protocol(omega=omega)
        hfun = proto.hamiltonian_fn(K4)
        u_magnus = integrate_tdse(hfun, proto.period, tol=1e-9).unitaries[-1]
        agree = max(agree, float(np.max(np.abs(u_magnus - midpoint_reference(omega)))))

    slope = float(-np.polyfit(np.log(MIDPOINT_STEPS), np.log(midpoint_errors()), 1)[0])
    ok = agree <= 1e-9 and 1.8 <= slope <= 2.2
    report(11, ok,
           f"independent schemes agree to {agree:.3e} <= 1e-9; midpoint "
           f"convergence order {slope:.2f} in [1.8, 2.2]")
