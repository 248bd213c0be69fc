"""Frequency-integrated observables against their blackbody closures."""

import numpy as np
import pytest

from gaprad import (CONSTANTS, Black, Constant, Drude, GapSystem,
                    IntegrationSpec, LayerStack, auto_window, conductance,
                    heat_flux, neq_pressure, spectrum)
from gaprad import Tabulated
from gaprad.spectral import ZERO_POINT_NOTE, TableRangeError
from conftest import SIC

C = CONSTANTS.c
SIGMA = CONSTANTS.sigma_sb
BB = LayerStack(Black())
SYS_BB = GapSystem(BB, BB, 1e-6, 400.0, 300.0)


def test_blackbody_heat_flux_closure():
    res = heat_flux(SYS_BB)
    ref = SIGMA * (400.0**4 - 300.0**4)
    assert abs(res.value - ref) <= 1e-6 * ref
    assert res.converged
    assert res.error < 1e-6 * ref


def test_heat_flux_equal_temperatures_is_exactly_zero():
    res = heat_flux(GapSystem(BB, BB, 1e-6, 350.0, 350.0))
    assert res.value == 0.0


def test_heat_flux_antisymmetric_in_temperature_swap():
    fwd = heat_flux(SYS_BB)
    bwd = heat_flux(GapSystem(BB, BB, 1e-6, 300.0, 400.0))
    assert bwd.value == -fwd.value


def test_heat_flux_antisymmetric_under_full_body_swap():
    # swapping bodies and temperatures together flips the sign (reciprocity
    # of the transmissivity plus antisymmetry of the Planck difference)
    spec = IntegrationSpec(rtol=1e-6)
    sys = GapSystem(LayerStack(Constant(4 + 0.3j)), LayerStack(Constant(2 + 0.8j)),
                    1e-7, 400.0, 300.0)
    fwd = heat_flux(sys, spec)
    bwd = heat_flux(sys.swapped(), spec)
    assert abs(bwd.value + fwd.value) <= 1e-12 * abs(fwd.value)


def test_heat_flux_rejects_two_zero_temperatures():
    with pytest.raises(ValueError):
        heat_flux(GapSystem(BB, BB, 1e-6, 0.0, 0.0))


def test_blackbody_conductance_closure():
    res = conductance(SYS_BB, 300.0)
    ref = 4.0 * SIGMA * 300.0**3
    assert abs(res.value - ref) <= 1e-6 * ref


def test_conductance_matches_finite_difference_blackbody():
    delta = 0.05
    g = conductance(SYS_BB, 300.0).value
    q = heat_flux(GapSystem(BB, BB, 1e-6, 300.0 + delta, 300.0 - delta)).value
    assert abs(g - q / (2 * delta)) <= 1e-4 * g


def test_conductance_matches_finite_difference_dielectric():
    spec = IntegrationSpec(rtol=1e-6)
    st = LayerStack(Constant(3.0 + 0.3j))
    delta, T = 0.05, 300.0
    g = conductance(GapSystem(st, st, 1e-6, T, T), T, spec).value
    q = heat_flux(GapSystem(st, st, 1e-6, T + delta, T - delta), spec).value
    assert abs(g - q / (2 * delta)) <= 1e-4 * g


def test_perfect_mirror_conductance_is_negligible():
    mirror = LayerStack(Drude(eps_inf=1.0, omega_p=1e17, gamma=0.0))
    res = conductance(GapSystem(mirror, mirror, 1e-7, 300.0, 300.0), 300.0)
    assert abs(res.value) <= 1e-12 * 4.0 * SIGMA * 300.0**3


def test_blackbody_pressure_closure_and_sign():
    res = neq_pressure(SYS_BB, 1, 300.0)
    ref = (2.0 / 3.0) * SIGMA * 300.0**4 / C
    assert abs(abs(res.value) - ref) <= 1e-6 * ref
    assert res.value < 0.0
    assert res.note == ZERO_POINT_NOTE


def test_pressure_source_selection():
    asym = GapSystem(LayerStack(Constant(4 + 0.2j)), BB, 1e-6, 400.0, 300.0)
    p1 = neq_pressure(asym, 1, 300.0)
    p2 = neq_pressure(asym, 2, 300.0)
    p2_manual = neq_pressure(asym.swapped(), 1, 300.0)
    assert p2.value == p2_manual.value
    assert p1.value != p2.value
    with pytest.raises(ValueError):
        neq_pressure(asym, 3, 300.0)
    with pytest.raises(ValueError):
        neq_pressure(asym, 1, 0.0)


def test_window_sufficiency():
    base = heat_flux(SYS_BB).value
    lo, hi = auto_window(400.0)
    wide_hi = heat_flux(SYS_BB, IntegrationSpec(window=(lo, 2 * hi))).value
    wide_lo = heat_flux(SYS_BB, IntegrationSpec(window=(lo / 2, hi))).value
    assert abs(wide_hi - base) <= 1e-7 * abs(base)
    assert abs(wide_lo - base) <= 1e-7 * abs(base)


def test_auto_window_scaling():
    lo, hi = auto_window(300.0)
    scale = CONSTANTS.k_b * 300.0 / CONSTANTS.hbar
    assert abs(lo - 1e-4 * scale) <= 1e-12 * scale
    assert abs(hi - 60.0 * scale) <= 1e-9 * scale
    with pytest.raises(ValueError):
        auto_window(0.0)


def test_near_field_flux_scaling_sic():
    # evanescent p-channel dominance gives ~1/l^2: flux ratio near 4
    spec = IntegrationSpec(rtol=1e-5)
    st = LayerStack(SIC)
    q10 = heat_flux(GapSystem(st, st, 10e-9, 400.0, 300.0), spec).value
    q20 = heat_flux(GapSystem(st, st, 20e-9, 400.0, 300.0), spec).value
    assert abs(q10 / q20 - 4.0) <= 0.2


def test_spectrum_grid_and_threads():
    omegas = np.geomspace(5e13, 5e14, 5)
    spec = IntegrationSpec(rtol=1e-6)
    st = LayerStack(Constant(3 + 0.4j))
    sys = GapSystem(st, st, 1e-7, 400.0, 300.0)
    serial = spectrum(sys, omegas, spec)
    threaded = spectrum(sys, omegas, spec, threads=3)
    assert [r.omega for r in serial] == list(omegas)
    for a, b in zip(serial, threaded):
        assert a.energy.total == b.energy.total
        assert a.momentum.total == b.momentum.total
    assert all(r.energy.total >= 0.0 for r in serial)


def _table_1e13_1e15():
    w = np.array([1e13, 1e14, 1e15])
    return Tabulated(w, np.array([4 + 0.5j, 3 + 0.3j, 2 + 0.1j]), np.ones(3, complex))


def test_window_outside_table_rejected_before_integration(monkeypatch):
    import gaprad.spectral as sp

    def no_call(*args, **kwargs):
        raise AssertionError("integrand evaluated before the window check")

    for attr in ("energy_transmissivity_pp", "momentum_transmissivity_pp"):
        monkeypatch.setattr(sp, attr, no_call)
    table = LayerStack(_table_1e13_1e15())
    sys = GapSystem(table, BB, 1e-6, 400.0, 300.0)
    calls = [lambda: heat_flux(sys), lambda: conductance(sys, 300.0),
             lambda: neq_pressure(sys, 1, 400.0), lambda: spectrum(sys, [1e12, 1e14])]
    for call in calls:
        with pytest.raises(TableRangeError) as info:
            call()
        assert "body1" in str(info.value)
        assert "[1.000000e+13, 1.000000e+15]" in str(info.value)
    # the bodies are named as given, also when body 2 is the pressure source
    with pytest.raises(TableRangeError, match="^body2"):
        neq_pressure(GapSystem(BB, table, 1e-6, 300.0, 400.0), 2, 400.0)
    with pytest.raises(TableRangeError, match="^body2"):
        heat_flux(GapSystem(BB, LayerStack(BB.terminal, ((_table_1e13_1e15(), 1e-7),)),
                            1e-6, 400.0, 300.0))


def test_window_inside_table_integrates():
    sys = GapSystem(LayerStack(_table_1e13_1e15()), BB, 1e-6, 400.0, 300.0)
    res = heat_flux(sys, IntegrationSpec(rtol=1e-4, window=(1e13, 1e15)))
    assert res.converged and res.value > 0.0
