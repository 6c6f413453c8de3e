import numpy as np
import pytest

from floqueng.errors import NonPeriodicGauge
from floqueng.gauge import (
    GaugeParams,
    micromotion_at,
    micromotion_matrix,
    mu_functions,
)

from oracles import S_MINUS, S_PLUS


def test_mu_functions_initial_slope():
    g = GaugeParams(a_plus=1.1, p=2, omega=5.0)
    mup, muz, dmup, dmuz = mu_functions(g, 0.0)
    assert mup == 0 and muz == 0
    assert dmup == pytest.approx(1.1 * 5.0)
    assert dmuz == pytest.approx(2 * 5.0)


def test_mu_functions_periodic_boundary():
    g = GaugeParams(a_plus=0.7, p=3, omega=8.0)
    mup, muz, *_ = mu_functions(g, g.period)
    assert abs(mup) < 1e-14
    assert muz == pytest.approx(2 * np.pi * 3)


def test_mu_functions_quarter_period():
    g = GaugeParams(a_plus=np.sqrt(2), p=3, omega=8.0)
    mup, muz, *_ = mu_functions(g, g.period / 4)
    assert mup == pytest.approx(np.sqrt(2))
    assert muz == pytest.approx(3 * np.pi / 2)


def test_micromotion_identity():
    assert np.allclose(micromotion_matrix(0.0, 0.0), np.eye(2))


def test_micromotion_unit_ladder():
    p = micromotion_matrix(1.0, 0.0)
    assert np.allclose(p, np.array([[1, -1j], [-1j, 1]]) / np.sqrt(2))


def test_micromotion_full_winding_is_global_sign():
    assert np.allclose(micromotion_matrix(0.0, 2 * np.pi), -np.eye(2))


def test_micromotion_unitary_property():
    rng = np.random.default_rng(17)
    mags = 10.0 ** rng.uniform(-3, 6, size=300)
    phases = rng.uniform(0, 2 * np.pi, size=300)
    m_plus = mags * np.exp(1j * phases)
    mzr = rng.uniform(-30, 30, size=300)
    p = micromotion_matrix(m_plus, mzr)
    gram = p @ np.conj(np.swapaxes(p, -1, -2))
    assert np.max(np.abs(gram - np.eye(2))) <= 1e-13
    det = np.linalg.det(p)
    assert np.max(np.abs(np.abs(det) - 1.0)) <= 1e-12


def test_four_exponential_closure():
    # multiplying out the factorization with the entries that unitarity fixes,
    # m_minus = conj(m_plus)/(1+|m_plus|^2) and Im(m_z) = ln(1+|m_plus|^2),
    # must land exactly on the closed-form matrix
    rng = np.random.default_rng(23)
    worst = 0.0
    for _ in range(100):
        mp = rng.normal() + 1j * rng.normal()
        mzr = 6 * rng.normal()
        denom = 1.0 + abs(mp) ** 2
        mm = np.conj(mp) / denom
        mz = mzr + 1j * np.log(denom)
        prod = (
            (np.eye(2) - 1j * mp * S_PLUS)
            @ (np.eye(2) - 1j * mm * S_MINUS)
            @ np.diag([np.exp(-0.5j * mz), np.exp(0.5j * mz)])
        )
        worst = max(worst, np.max(np.abs(prod - micromotion_matrix(mp, mzr))))
    assert worst <= 1e-12


def test_micromotion_at_periodicity_up_to_sign():
    g = GaugeParams(a_plus=np.sqrt(2), p=3, omega=8.0)
    k = np.linspace(-np.pi, np.pi, 9)
    for n in range(1, 6):
        p = micromotion_at(g, k, n * g.period)
        expected = (-1.0) ** (3 * n) * np.eye(2)
        assert np.max(np.abs(p - expected)) <= 1e-12


def test_non_integer_winding_rejected_at_construction():
    # NaN and +-inf are no integers either, and fail as NonPeriodicGauge too
    for p in (1.5, np.nan, np.inf, -np.inf):
        with pytest.raises(NonPeriodicGauge, match="winding p must be an integer"):
            GaugeParams(p=p, omega=8.0)


def test_omega_must_be_positive():
    for bad in ({"omega": -1.0}, {"omega": np.nan}, {"omega": np.inf},
                {"a_plus": np.nan}, {"a_plus": np.inf}):
        with pytest.raises(ValueError):
            GaugeParams(**bad)
