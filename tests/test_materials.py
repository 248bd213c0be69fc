"""Material response models and Planck statistics."""

import math

import mpmath as mp
import numpy as np
import pytest

from gaprad import (CONSTANTS, Black, Constant, Drude, LorentzSum, Tabulated,
                    eval_response, planck_energy, planck_energy_dT)
from gaprad.materials import is_black
from conftest import random_material

HBAR = CONSTANTS.hbar
KB = CONSTANTS.k_b


def test_sigma_sb_consistent_with_base_constants():
    derived = CONSTANTS.sigma_sb_derived()
    assert abs(derived - CONSTANTS.sigma_sb) <= 1e-12 * CONSTANTS.sigma_sb


def test_constant_vacuum():
    for omega in (1e12, 1e14, 3e15):
        assert eval_response(Constant(1 + 0j, 1 + 0j), omega) == (1 + 0j, 1 + 0j)


def test_drude_matches_direct_formula():
    omega, wp, g = 1e15, 1e16, 1e14
    eps, mu = eval_response(Drude(eps_inf=1.0, omega_p=wp, gamma=g), omega)
    ref = 1.0 - wp**2 / (omega**2 + 1j * g * omega)
    assert abs(eps - ref) <= 1e-15 * abs(ref)
    assert mu == 1 + 0j
    assert eps.imag > 0


def test_lorentz_at_resonance_matches_oscillator_sum():
    s, w0, g = 2.5, 1.5e14, 9e11
    mat = LorentzSum(eps_inf=4.0, eps_terms=((s, w0, g),))
    eps, mu = eval_response(mat, w0)
    ref = 4.0 + s * w0**2 / (w0**2 - w0**2 - 1j * g * w0)
    assert abs(eps - ref) <= 1e-15 * abs(ref)
    # on resonance the oscillator is purely absorptive
    assert abs(eps.imag - s * w0 / g) <= 1e-12 * (s * w0 / g)
    assert mu == 1 + 0j


def test_lorentz_mu_terms():
    mat = LorentzSum(eps_inf=1.0, mu_inf=2.0, mu_terms=((0.5, 1e14, 1e12),))
    _, mu = eval_response(mat, 5e13)
    ref = 2.0 + 0.5 * 1e28 / (1e28 - 25e26 - 1j * 1e12 * 5e13)
    assert abs(mu - ref) <= 1e-15 * abs(ref)


def test_tabulated_interpolation_and_range():
    w = np.array([1e13, 2e13, 4e13])
    eps = np.array([2 + 0.1j, 3 + 0.2j, 5 + 0.4j])
    mu = np.ones(3) * (1 + 0j)
    mat = Tabulated(w, eps, mu)
    e_mid, _ = eval_response(mat, 1.5e13)
    assert abs(e_mid - (2.5 + 0.15j)) < 1e-12
    e_node, _ = eval_response(mat, 2e13)
    assert abs(e_node - (3 + 0.2j)) < 1e-12
    with pytest.raises(ValueError, match="outside table range"):
        eval_response(mat, 5e13)
    with pytest.raises(ValueError, match="outside table range"):
        eval_response(mat, 9e12)


def test_tabulated_rejects_bad_tables():
    w = np.array([2e13, 1e13, 4e13])
    ok = np.ones(3) * (2 + 0.1j)
    with pytest.raises(ValueError, match="non-monotonic"):
        Tabulated(w, ok, np.ones(3) + 0j)
    with pytest.raises(ValueError, match="passivity"):
        Tabulated(np.sort(w), np.array([2 - 0.1j, 2 + 0j, 2 + 0j]), np.ones(3) + 0j)


def test_non_finite_parameters_rejected():
    with pytest.raises(ValueError):
        Constant(complex(math.nan, 0))
    with pytest.raises(ValueError):
        Drude(1.0, math.inf, 1e13)
    with pytest.raises(ValueError):
        LorentzSum(1.0, ((-1.0, 1e14, 1e12),))
    with pytest.raises(ValueError):
        Constant(1 - 0.1j)   # active medium


def test_black_is_marked_and_vacuum_like():
    assert eval_response(Black(), 1e14) == (1 + 0j, 1 + 0j)
    assert is_black(Black())
    assert not is_black(Constant())


def test_passivity_randomized_sweep(rng):
    for _ in range(10_000):
        eps, mu = eval_response(random_material(rng), 10**rng.uniform(12, 16))
        assert eps.imag >= 0.0
        assert mu.imag >= 0.0


def test_planck_zero_temperature():
    for omega in (1e12, 1e14, 1e16):
        assert planck_energy(omega, 0.0, "thermal") == 0.0
        assert planck_energy(omega, 0.0, "total") == 0.5 * HBAR * omega


def test_planck_classical_limit():
    T = 300.0
    omega = 1e-6 * KB * T / HBAR
    total = planck_energy(omega, T, "total")
    assert abs(total - KB * T) <= 1e-9 * KB * T


def test_planck_against_arbitrary_precision():
    omega, T = 1e14, 300.0
    mp.mp.dps = 40
    x = mp.mpf(HBAR) * omega / (mp.mpf(KB) * T)
    ref = float(mp.mpf(HBAR) * omega / mp.expm1(x))
    assert abs(planck_energy(omega, T) - ref) <= 1e-13 * ref


def test_planck_total_is_thermal_plus_half_quantum(rng):
    for _ in range(300):
        omega = 10**rng.uniform(11, 16.5)
        T = 10**rng.uniform(0, 3)
        total = planck_energy(omega, T, "total")
        thermal = planck_energy(omega, T, "thermal")
        assert total == thermal + 0.5 * HBAR * omega


def test_planck_monotone_in_temperature(rng):
    for _ in range(200):
        omega = 10**rng.uniform(12, 15.5)
        t1 = rng.uniform(1, 2000)
        t2 = t1 * rng.uniform(1.01, 3)
        assert planck_energy(omega, t2) > planck_energy(omega, t1)


def test_planck_extreme_suppression_underflows_cleanly():
    T = 300.0
    omega = 800.0 * KB * T / HBAR
    assert planck_energy(omega, T) == 0.0
    assert planck_energy_dT(omega, T) == 0.0


def test_planck_dT_classical_limit():
    T = 300.0
    omega = 1e-6 * KB * T / HBAR
    assert abs(planck_energy_dT(omega, T) - KB) <= 1e-9 * KB


def test_planck_dT_matches_finite_difference_at_reference_point():
    omega, T, step = 1e14, 300.0, 1e-3
    fd = (planck_energy(omega, T + step) - planck_energy(omega, T - step)) / (2 * step)
    assert abs(planck_energy_dT(omega, T) - fd) <= 1e-6 * fd


def test_planck_dT_finite_difference_log_grid():
    # derivative check across hbar*w/kT in [1e-4, 40]
    T, step = 300.0, 1e-3
    for x in np.geomspace(1e-4, 40.0, 25):
        omega = x * KB * T / HBAR
        fd = (planck_energy(omega, T + step) - planck_energy(omega, T - step)) / (2 * step)
        assert abs(planck_energy_dT(omega, T) - fd) <= 1e-6 * abs(fd)


def test_planck_dT_deep_wien_tail_value():
    # x = 50: oracle x^2 e^x / (e^x - 1)^2 in units of k_b; exponentially
    # small and positive (about 4.82e-19 k_b)
    T = 300.0
    omega = 50.0 * KB * T / HBAR
    x = HBAR * omega / (KB * T)
    oracle = KB * x**2 * math.exp(x) / (math.exp(x) - 1.0) ** 2
    val = planck_energy_dT(omega, T)
    assert 0.0 < val < 1e-18 * KB
    assert abs(val - oracle) <= 1e-12 * oracle


def test_planck_dT_rejects_zero_temperature():
    with pytest.raises(ValueError):
        planck_energy_dT(1e14, 0.0)


def test_planck_dT_positive_randomized(rng):
    for _ in range(300):
        omega = 10**rng.uniform(11, 16)
        T = 10**rng.uniform(0, 3.3)
        assert planck_energy_dT(omega, T) >= 0.0


def test_planck_vectorized_matches_scalar():
    omegas = np.geomspace(1e12, 1e15, 7)
    T = 250.0
    vec = planck_energy(omegas, T)
    assert vec.shape == omegas.shape
    for w, v in zip(omegas, vec):
        assert v == planck_energy(float(w), T)
    vec_dt = planck_energy_dT(omegas, T)
    for w, v in zip(omegas, vec_dt):
        assert v == planck_energy_dT(float(w), T)


def test_out_of_table_message_formats_numbers():
    mat = Tabulated(np.array([1e13, 4e13]), np.array([2 + 0.1j, 5 + 0.4j]), np.ones(2, complex))
    with pytest.raises(ValueError) as info:
        eval_response(mat, np.float64(5e13))
    assert str(info.value).startswith(
        "omega 5.000000e+13 outside table range [1.000000e+13, 4.000000e+13]")
