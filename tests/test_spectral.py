"""Frequency-integrated observables against their blackbody closures."""

import math
import re

import numpy as np
import pytest

from gaprad import (CONSTANTS, Black, Constant, Drude, GapSystem,
                    IntegrationSpec, LayerStack, auto_window, bb_heat_rate, conductance,
                    energy_transmissivity_pp, heat_flux, momentum_transmissivity_pp,
                    neq_pressure, planck_energy, spectrum)
from gaprad import Tabulated
from gaprad.spectral import ZERO_POINT_NOTE, TableRangeError, _outer_edges
from conftest import SIC, facing_square_pair

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
    # infinite and overflowing temperatures once gave the window (inf, inf)
    for T in (float("inf"), 1e300):
        with pytest.raises(ValueError, match=re.escape(f"window is finite, got T_max={T!r}")):
            auto_window(T)
    assert math.isfinite(auto_window(1e295)[1])


def test_an_rtol_above_one_passes_on_the_seed_panels():
    # rtol * |total| once overflowed with a RuntimeWarning; an infinite
    # tolerance passes every integral on its seed panels
    spec = IntegrationSpec(rtol=1e300)
    bd = energy_transmissivity_pp(SYS_BB, 1e14, spec)
    assert bd.converged and bd.neval == 15 * (1 + 12) and math.isfinite(bd.total)
    res = heat_flux(SYS_BB, spec)
    assert res.converged and res.omega_nodes == 15 * 12 and math.isfinite(res.value)
    heat = bb_heat_rate(*facing_square_pair(1.0, n=2), 400.0, 300.0, spec=spec)
    assert math.isfinite(heat.spectral)


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


def test_spectrum_rows_are_the_kernel_calls():
    # any seed pass shared between the two kernels must keep each kernel's
    # breakdowns (values, errors, counts) those of its own call; 70
    # frequencies span two groups of the batched kernels
    film = LayerStack(Drude(1.0, 1.37e16, 4.05e13), ((SIC, 100e-9),))
    system = GapSystem(film, LayerStack(SIC), 50e-9, 400.0, 300.0)
    omegas = np.geomspace(1e13, 1e15, 70)
    spec = IntegrationSpec(rtol=1e-8)
    rows = spectrum(system, omegas, spec)
    assert [r.energy for r in rows] == energy_transmissivity_pp(system, omegas, spec)
    assert [r.momentum for r in rows] == momentum_transmissivity_pp(system, omegas, spec)


@pytest.mark.parametrize("shape", [(2, 3), (1, 4), (2, 0)])
def test_spectrum_refuses_a_grid_that_is_not_1d(shape):
    # a 2-D grid used to pair its rows with the breakdowns of its first
    # frequencies; it is refused by shape, before the table-range check
    table = LayerStack(Tabulated([1e13, 2e13], [4 + 1j, 4 + 1j], [1 + 0j, 1 + 0j]))
    for system in (GapSystem(BB, BB, 1e-7), GapSystem(table, BB, 1e-7)):
        with pytest.raises(ValueError, match=re.escape(f"must be 1-D, got shape {shape}")):
            spectrum(system, np.full(shape, 1e14))


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


def test_window_a_few_ulps_wide_integrates():
    # the log-spaced seed edges of a window a few ulps wide repeat, and were
    # once refused as "initial_edges must increase strictly from a to b"
    lo, hi = 1e14, 1e14 * (1 + 1e-15)
    spec = IntegrationSpec(rtol=1e-6, window=(lo, hi))
    d_theta = planck_energy(lo, 400.0) - planck_energy(lo, 300.0)
    # black bodies: the spectral flux is d_theta (w/c)^2 / (2 pi)^2
    res = heat_flux(SYS_BB, spec)
    assert res.converged and res.omega_nodes == 15
    assert res.value == pytest.approx((hi - lo) * d_theta * (lo / C) ** 2 / (4 * np.pi**2),
                                      rel=1e-6)
    m1, m2 = facing_square_pair(1.0, n=2)    # unit squares: A1 F12 = F12
    heat = bb_heat_rate(m1, m2, 400.0, 300.0, spec=spec)
    assert heat.spectral == pytest.approx(heat.viewfactor * res.value, rel=1e-6)
    # in windows 1-30 ulps wide np.geomspace also steps back or leaves the
    # window (48 of these 120)
    for lo in (1e13, 1e14, 3.7e14, 1e15):
        hi = lo
        for _ in range(30):
            hi = np.nextafter(hi, np.inf)
            edges = _outer_edges(lo, hi)
            assert edges[0] == lo and edges[-1] == hi and (np.diff(edges) > 0.0).all()


def test_scalar_result_counts_its_nodes_and_points():
    res = heat_flux(SYS_BB, IntegrationSpec(rtol=1e-6))
    # the outer seed panels take 15 nodes each, bisections 30
    assert res.omega_nodes >= 15 * 12 and res.omega_nodes % 15 == 0
    # black bodies: every inner integral converges on its 13 seed panels
    assert res.neval == 15 * (1 + 12) * res.omega_nodes
    sic = GapSystem(LayerStack(SIC), LayerStack(SIC), 1e-7, 400.0, 300.0)
    res = neq_pressure(sic, 1, 400.0, IntegrationSpec(rtol=1e-4))
    assert res.neval > 15 * (1 + 12) * res.omega_nodes > 0


def test_non_finite_temperatures_rejected():
    with pytest.raises(ValueError, match="T1 and T2 must be finite and >= 0, got nan, 300.0"):
        GapSystem(BB, BB, 1e-6, float("nan"), 300.0)
    with pytest.raises(ValueError, match="T1 and T2 must be finite and >= 0, got 400.0, inf"):
        GapSystem(BB, BB, 1e-6, 400.0, float("inf"))
    for T in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="finite"):
            conductance(SYS_BB, T)
        with pytest.raises(ValueError, match="finite"):
            neq_pressure(SYS_BB, 1, T)


def test_temperatures_whose_fourth_power_overflows_are_refused_by_name():
    # 1e78**4 once raised OverflowError from the flux scale T1^4 - T2^4
    message = re.escape(" = 1e+78 K is too large: T^4 overflows")
    with pytest.raises(ValueError, match="^T1" + message):
        GapSystem(BB, BB, 1e-6, 1e78, 300.0)
    with pytest.raises(ValueError, match="^T2" + message):
        GapSystem(BB, BB, 1e-6, 400.0, 1e78)
    with pytest.raises(ValueError, match="^T" + message):
        conductance(SYS_BB, 1e78)
    with pytest.raises(ValueError, match="^T_source" + message):
        neq_pressure(SYS_BB, 1, 1e78)
    assert GapSystem(BB, BB, 1e-6, 1e77, 300.0).T1 == 1e77    # 1e308 is a float


# SiC/SiC at 50 nm, 400 K against 300 K, rtol 1e-8: independent references
# (a fixed-rule transfer-matrix quadrature, value and |Q_2N - Q_N|)
SIC_50NM = GapSystem(LayerStack(SIC), LayerStack(SIC), 50e-9, 400.0, 300.0)


def test_sic_heat_flux_inner_cost():
    # the inner cost as a count host noise cannot move: 1.49 M points on 16
    # propagating and 64 evanescent blind seed panels, about 0.79 M on 8 and
    # 24 with each frequency's light lines, about 0.61 M on 12 outer seeds,
    # about 0.42 M on 2 and 12 inner seeds, 361 710 on 1 and 12 in v = kz / k0
    res = heat_flux(SIC_50NM, IntegrationSpec(rtol=1e-8))
    assert res.converged and res.omega_nodes == 870
    assert res.neval <= 430_000
    assert abs(res.value - 60039.91436821651) <= 1e-8 * 60039.91436821651 + 2.3e-9


def test_gold_heat_flux_outer_cost():
    # far field: Fabry-Perot fringes drive the frequency integral, which took
    # 960 nodes on 32 blind outer seed panels; the inner cost as a count host
    # noise cannot move: 872 790 points before each fringe was seeded as a
    # graded pole, 666 300 with the propagating branch in krho / k0 and
    # 631 950 in kz / k0
    ref = 3.6892532046548543
    gold = LayerStack(Drude(eps_inf=1.0, omega_p=1.37e16, gamma=4.05e13))
    res = heat_flux(GapSystem(gold, gold, 3e-6, 400.0, 300.0), IntegrationSpec(rtol=1e-6))
    assert res.converged and res.omega_nodes == 660
    assert res.neval <= 640_000
    assert abs(res.value - ref) <= 1e-6 * ref


def test_sic_pressure_meets_its_tolerance():
    # the evanescent momentum channel once stopped at a noise floor growing
    # as 1/omega and missed the reference by 3.6 times rtol
    ref = 0.017171572223924736
    res = neq_pressure(SIC_50NM, 1, 400.0, IntegrationSpec(rtol=1e-8))
    assert res.converged
    assert abs(res.value - ref) <= 1e-8 * ref + 1.5e-15
