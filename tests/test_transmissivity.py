"""Gap transmissivities: integrand algebra, channel integrals, symmetries."""

import math
import re
import tracemalloc

import mpmath
import numpy as np
import pytest

import gaprad.planar
import gaprad.transmissivity
from gaprad import (CONSTANTS, Black, Constant, Drude, GapSystem,
                    IntegrationSpec, LayerStack, Polarization, Tabulated,
                    conductance, energy_integrand, energy_transmissivity_pp,
                    momentum_integrand, momentum_transmissivity_pp,
                    eval_response, neq_pressure, stack_reflection)
from conftest import SIC, random_stack

C = CONSTANTS.c
S, P = Polarization.S, Polarization.P
BB = LayerStack(Black())


def evan_krho(omega, gap, tunneling):
    """krho whose vacuum decay satisfies e^{-2|kz|gap} = tunneling."""
    q = -math.log(tunneling) / (2 * gap)
    return math.hypot(omega / C, q), q


def test_energy_integrand_transparent_bodies():
    w, gap = 1e14, 1e-6
    assert energy_integrand(0j, 0j, 0.3 * w / C, w, gap) == 1.0


def test_energy_integrand_perfect_mirror_is_zero():
    w, gap = 1e14, 1e-6
    assert energy_integrand(-1 + 0j, 0.3 + 0.2j, 0.5 * w / C, w, gap) == 0.0
    krho, _ = evan_krho(w, gap, 0.5)
    assert energy_integrand(-1 + 0j, 0.3 + 0.2j, krho, w, gap) == 0.0


def test_energy_integrand_evanescent_hand_value():
    w, gap = 1e14, 1e-7
    krho, _ = evan_krho(w, gap, 0.5)
    got = energy_integrand(0.5j, 0.5j, krho, w, gap)
    # 4 (0.5)(0.5)(0.5) / |1 - (0.5i)(0.5i)(0.5)|^2 = 0.5 / 1.125^2
    assert abs(got - 0.5 / 1.125**2) <= 1e-12


def test_momentum_integrand_transparent_bodies():
    w, gap = 1e14, 1e-6
    krho = 0.6 * w / C
    khz = math.sqrt((w / C) ** 2 - krho**2)
    got = momentum_integrand(0j, 0j, krho, w, gap)
    assert abs(got - (-khz / w)) <= 1e-15 * khz / w


def test_momentum_integrand_zero_reflection_evanescent():
    w, gap = 1e14, 1e-6
    krho, _ = evan_krho(w, gap, 0.5)
    assert momentum_integrand(0.4j, 0j, krho, w, gap) == 0.0


def test_momentum_integrand_evanescent_hand_value():
    w, gap = 1e14, 1e-7
    krho, q = evan_krho(w, gap, 0.5)
    got = momentum_integrand(0.5j, 0.3 + 0j, krho, w, gap)
    ref = (q / w) * 4 * 0.5 * 0.3 * 0.5 / abs(1 - (0.5j) * 0.3 * 0.5) ** 2
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_landauer_bound_randomized(rng):
    violations = 0
    for _ in range(10_000):
        omega = 10**rng.uniform(13, 15.3)
        gap = 10**rng.uniform(-8, -5.5)
        pol = S if rng.random() < 0.5 else P
        k0 = omega / C
        if rng.random() < 0.5:
            krho = rng.uniform(0.0, 0.999999) * k0
        else:
            krho = math.hypot(k0, rng.uniform(1e-4, 20.0) / gap)
        r1 = stack_reflection(random_stack(rng), pol, omega, krho)
        r2 = stack_reflection(random_stack(rng), pol, omega, krho)
        v = energy_integrand(r1, r2, krho, omega, gap, pol)
        if not 0.0 <= v <= 1.0:
            violations += 1
    assert violations == 0


def test_black_energy_transmissivity_analytic():
    sys = GapSystem(BB, BB, 1e-6, 400, 300)
    for omega in (1e13, 1e14, 1e15):
        bd = energy_transmissivity_pp(sys, omega)
        ref = (omega / C) ** 2 / (2 * math.pi)
        assert abs(bd.total - ref) <= 1e-12 * ref
        assert bd.evan_s == 0.0 and bd.evan_p == 0.0
        assert abs(bd.prop_s - bd.prop_p) <= 1e-15 * bd.prop_s
        assert bd.converged


def test_black_momentum_transmissivity_analytic():
    sys = GapSystem(BB, BB, 1e-6, 400, 300)
    for omega in (1e13, 5e14):
        bd = momentum_transmissivity_pp(sys, omega)
        ref = -omega**2 / (3 * math.pi * C**3)
        assert abs(bd.total - ref) <= 1e-7 * abs(ref)
        assert bd.evan_s == 0.0 and bd.evan_p == 0.0


def test_perfect_mirror_channels_vanish():
    # lossless Drude far below its plasma frequency reflects everything
    mirror = LayerStack(Drude(eps_inf=1.0, omega_p=1e17, gamma=0.0))
    sys = GapSystem(mirror, mirror, 1e-7, 300, 300)
    bd = energy_transmissivity_pp(sys, 1e14)
    assert abs(bd.total) <= 1e-20 * (1e14 / C) ** 2
    bd_m = momentum_transmissivity_pp(sys, 1e14)
    assert bd_m.evan_s == 0.0 and bd_m.evan_p == 0.0


def test_total_is_sum_of_channels():
    sys = GapSystem(LayerStack(SIC), LayerStack(Constant(3 + 0.4j)), 5e-8, 300, 300)
    bd = energy_transmissivity_pp(sys, 1.7e14, IntegrationSpec(rtol=1e-6))
    s = bd.prop_s + bd.prop_p + bd.evan_s + bd.evan_p
    assert bd.total == s
    assert bd.propagating == bd.prop_s + bd.prop_p
    assert bd.evanescent == bd.evan_s + bd.evan_p
    assert min(bd.prop_s, bd.prop_p, bd.evan_s, bd.evan_p) >= 0.0


def test_reciprocity_under_body_swap(rng):
    spec = IntegrationSpec(rtol=1e-5, max_subdivisions=600)
    for _ in range(10):
        sys = GapSystem(random_stack(rng), random_stack(rng),
                        10**rng.uniform(-8, -6), 300, 300)
        swapped = sys.swapped()
        for omega in 10**rng.uniform(13.3, 15.0, 3):
            a = energy_transmissivity_pp(sys, omega, spec)
            assert _bits(a) == _bits(energy_transmissivity_pp(swapped, omega, spec))


def test_momentum_transmissivity_is_not_reciprocal():
    sys = GapSystem(LayerStack(Constant(4 + 0j)), LayerStack(Constant(9 + 0j)),
                    1e-6, 300, 300)
    omega = 1e14
    a = momentum_transmissivity_pp(sys, omega).total
    b = momentum_transmissivity_pp(sys.swapped(), omega).total
    assert abs(a - b) > 1e-3 * abs(a)


def test_duality_swaps_energy_channels():
    def dual_stack(stack):
        films = tuple((Constant(m.mu, m.eps), d) for m, d in stack.films)
        return LayerStack(Constant(stack.terminal.mu, stack.terminal.eps), films)

    body1 = LayerStack(Constant(4 + 0.5j, 1.5 + 0.1j),
                       ((Constant(2 + 0.2j, 1 + 0j), 5e-8),))
    body2 = LayerStack(Constant(7 + 1j, 1 + 0j))
    sys = GapSystem(body1, body2, 8e-8, 300, 300)
    dual = GapSystem(dual_stack(body1), dual_stack(body2), 8e-8, 300, 300)
    omega = 2e14
    a = energy_transmissivity_pp(sys, omega)
    b = energy_transmissivity_pp(dual, omega)
    assert b.prop_s == a.prop_p and b.prop_p == a.prop_s
    assert b.evan_s == a.evan_p and b.evan_p == a.evan_s


def test_evanescent_channel_monotone_in_gap():
    stack = LayerStack(SIC)
    omega = 1.75e14    # near the surface phonon polariton
    spec = IntegrationSpec(rtol=1e-7)
    gaps = (1e-8, 3e-8, 1e-7, 3e-7, 1e-6)
    vals = [energy_transmissivity_pp(GapSystem(stack, stack, g, 300, 300),
                                     omega, spec).evanescent for g in gaps]
    for a, b in zip(vals, vals[1:]):
        assert b <= a * (1 + 1e-9)


def test_evanescent_channel_dies_at_large_gap():
    # lossy dielectric half spaces; the claimed < 1e-6 suppression needs a
    # gap near 100 c/w (at 10 c/w the computed ratio is only ~3e-3)
    stack = LayerStack(Constant(3 + 0.5j))
    omega = 1e14
    ratios = []
    for mult in (10.0, 30.0, 100.0):
        sys = GapSystem(stack, stack, mult * C / omega, 300, 300)
        bd = energy_transmissivity_pp(sys, omega)
        ratios.append(bd.evanescent / bd.propagating)
    assert ratios[0] < 5e-3
    assert ratios[2] < 1e-6
    assert ratios[0] > ratios[1] > ratios[2]


def test_quadrature_convergence_near_resonance():
    sys = GapSystem(LayerStack(SIC), LayerStack(SIC), 1e-8, 300, 300)
    omega = 1.786e14
    coarse = energy_transmissivity_pp(sys, omega, IntegrationSpec(rtol=1e-6))
    fine = energy_transmissivity_pp(sys, omega, IntegrationSpec(rtol=5e-7))
    assert abs(fine.total - coarse.total) <= coarse.error
    assert coarse.converged and fine.converged


def test_nonconvergence_is_flagged_not_raised():
    # nearly lossless eps ~ -1 puts an extremely sharp surface-mode spike in
    # the evanescent branch; two subdivisions cannot resolve it
    st = LayerStack(Constant(-1.0001 + 1e-6j))
    sys = GapSystem(st, st, 1e-8, 300, 300)
    bd = energy_transmissivity_pp(sys, 1.786e14,
                                  IntegrationSpec(rtol=1e-12, max_subdivisions=2))
    assert not bd.converged
    assert bd.warnings
    assert "worst subinterval" in bd.warnings[0]
    # with a real budget the same system converges
    ok = energy_transmissivity_pp(sys, 1.786e14, IntegrationSpec(rtol=1e-8))
    assert ok.converged


def test_gap_system_validation():
    with pytest.raises(ValueError):
        GapSystem(BB, BB, 0.0, 300, 300)
    with pytest.raises(ValueError):
        GapSystem(BB, BB, 1e-6, -1.0, 300)
    sys = GapSystem(LayerStack(Constant(2 + 0j)), BB, 1e-6, 400, 300)
    sw = sys.swapped()
    assert sw.T1 == 300 and sw.T2 == 400
    assert sw.body1 is sys.body2


def test_omega_validation():
    sys = GapSystem(BB, BB, 1e-6, 300, 300)
    with pytest.raises(ValueError):
        energy_transmissivity_pp(sys, 0.0)
    with pytest.raises(ValueError):
        momentum_transmissivity_pp(sys, -1e14)


def _bits(bd):
    """Every field of a breakdown, floats by their bits."""
    return tuple(v.hex() if isinstance(v, float) else v
                 for v in (bd.prop_s, bd.prop_p, bd.evan_s, bd.evan_p, bd.error,
                           bd.converged, bd.warnings, bd.neval))


GOLD = Drude(1.0, 1.37e16, 4.05e13)
FILM = LayerStack(GOLD, ((SIC, 100e-9),))


@pytest.mark.parametrize("body1, kernel", [(LayerStack(SIC), energy_transmissivity_pp),
                                           (FILM, momentum_transmissivity_pp)],
                         ids=["sic-energy", "film-momentum"])
def test_frequency_batch_rows_are_bitwise_single_calls(body1, kernel):
    # 400 frequencies run in groups of 64, each group in panel chunks of
    # 96: every group and chunk boundary falls between checked rows
    system = GapSystem(body1, LayerStack(SIC), 50e-9)
    spec = IntegrationSpec(rtol=1e-8)
    omegas = np.geomspace(1e13, 1e15, 400)
    batch = kernel(system, omegas, spec)
    assert isinstance(batch, list) and len(batch) == 400
    for w, bd in zip(omegas, batch):
        assert _bits(bd) == _bits(kernel(system, float(w), spec))


def test_frequency_batch_is_reciprocal_under_body_swap():
    system = GapSystem(FILM, LayerStack(SIC), 50e-9)
    spec = IntegrationSpec(rtol=1e-8)
    omegas = np.geomspace(1e13, 1e15, 64)
    for a, b in zip(energy_transmissivity_pp(system, omegas, spec),
                    energy_transmissivity_pp(system.swapped(), omegas, spec)):
        assert _bits(a) == _bits(b)


def test_propagating_warning_names_its_worst_subinterval_in_krho():
    # a far-field gold gap with no refinement budget: the propagating branch
    # stops at its one seed panel, v = kz / k0 in (0, 1), which spans krho in
    # (0, k0) (gold's Re eps < 0 adds no light line, and a budget of 0 no
    # fringe)
    st = LayerStack(GOLD)
    sys = GapSystem(st, st, 3e-6)
    w = 2e14
    k0 = w / C
    bd = energy_transmissivity_pp(sys, w, IntegrationSpec(rtol=1e-12, max_subdivisions=0))
    prop = [m for m in bd.warnings if m.startswith("propagating")]
    assert prop and "worst subinterval" in prop[0]
    lo, hi = map(float, re.search(r"worst subinterval \((.*), (.*)\)", prop[0]).groups())
    assert lo == 0.0
    assert hi == pytest.approx(k0, rel=1e-12)


def test_breakdown_counts_its_integrand_points():
    # black bodies converge on the seed panels, and black media add no light
    # line: 1 propagating and 12 evanescent panels of 15 points each
    sys = GapSystem(BB, BB, 1e-6)
    assert energy_transmissivity_pp(sys, 1e14).neval == 15 * (1 + 12)
    bds = energy_transmissivity_pp(sys, [1e13, 1e14])
    assert [bd.neval for bd in bds] == [15 * (1 + 12)] * 2


def _seed_panels(body1, body2, omega=1e14, gap=1e-6, rtol=1e-8):
    """Seed panels of both branches: with no bisection budget every panel
    of an integral is a seed panel, 15 points each."""
    bd = energy_transmissivity_pp(GapSystem(body1, body2, gap), omega,
                                  IntegrationSpec(rtol=rtol, max_subdivisions=0))
    assert bd.neval % 15 == 0
    return bd.neval // 15


def test_light_lines_seed_both_branches():
    # Re eps = 2.25 puts a light line at t = gap k0 sqrt(1.25) ~ 0.37 on the
    # evanescent branch, Re eps = 0.36 one at v = sqrt(0.64) ~ 0.80 on the
    # propagating one.  Their branch points lie 0.015 and 0.062 off the real
    # axis, which rtol 1e-8 sees: each line gives c, c +- delta and
    # c +- 4 delta, 5 edges within c/2 of the branch point, of which
    # v = c + 4 delta lies beyond the branch's end at v = 1
    glass, thin = LayerStack(Constant(2.25 + 0.1j)), LayerStack(Constant(0.36 + 0.1j))
    assert _seed_panels(BB, BB) == 1 + 12
    assert _seed_panels(glass, BB) == 1 + 17
    assert _seed_panels(thin, BB) == 5 + 12
    # both bodies' lines form one set, the same under a body swap
    assert _seed_panels(glass, thin) == _seed_panels(thin, glass) == 5 + 17
    # a film counts, a medium behind a black film does not
    assert _seed_panels(LayerStack(Black(), ((Constant(2.25 + 0.1j), 1e-7),)), BB) == 1 + 17
    assert _seed_panels(LayerStack(Constant(2.25 + 0.1j), ((Black(), 1e-7),)), BB) == 1 + 12
    # one line for a medium on both sides, none below v = 1e-6 (here
    # v = 3.2e-7, and 3.2e-6 is kept) or beyond the cutoff (t ~ 37); for
    # Re eps <= 0 the branch point lies beyond v = 1, and only its graded
    # edges inside the branch count: c - 4 delta = 0.97 for eps = -0.3 + 0.1i
    # (c = 1.14, delta = 0.044), none for -3 + 0.1i (c = 2)
    assert _seed_panels(glass, glass) == 1 + 17
    assert _seed_panels(LayerStack(Constant(1.0 - 1e-13)), BB) == 1 + 12
    assert _seed_panels(LayerStack(Constant(1.0 - 1e-11)), BB) == 2 + 12
    assert _seed_panels(glass, BB, gap=1e-4) == 1 + 12
    assert _seed_panels(LayerStack(Constant(-0.3 + 0.1j)), BB) == 2 + 12
    assert _seed_panels(LayerStack(Constant(-0.3 + 0.1j)), BB, rtol=1e-2) == 1 + 12
    assert _seed_panels(LayerStack(Constant(-3.0 + 0.1j)), BB) == 1 + 12
    # a single edge where rtol cannot see the offset, (delta/c)^(3/2) < rtol
    assert _seed_panels(LayerStack(Constant(0.25 + 1e-12j)), BB) == 2 + 12
    assert _seed_panels(LayerStack(Constant(2.25 + 1e-12j)), BB) == 1 + 13
    assert _seed_panels(glass, BB, rtol=1e-2) == 1 + 13
    assert _seed_panels(thin, BB, rtol=0.1) == 2 + 12


@pytest.mark.parametrize("kernel", [energy_transmissivity_pp, momentum_transmissivity_pp])
def test_a_light_line_at_grazing_incidence_converges(kernel):
    # Re eps = 1 - 1e-15 put this lossy medium's light line at
    # krho / k0 = 0.9999999999999994, where 4 nodes of the last panel rounded
    # to krho = w/c, kz = 0 and the black body's vacuum Fresnel coefficient
    # was 0/0 (DegenerateInterfaceError); in kz / k0 the line lies at 2.2e-5
    def value(eps):
        system = GapSystem(LayerStack(Constant(eps)), BB, 1e-6)
        bd = kernel(system, 2e14, IntegrationSpec(rtol=1e-8))
        assert bd.converged and math.isfinite(bd.total)
        return bd.total

    near = value(1 - 1e-13 + 1e-9j)
    assert abs(value(0.999999999999999 + 1e-9j) - near) <= 1e-8 * abs(near)


@pytest.mark.parametrize("eps, gap, omega", [(1 + 1e-12 + 0.1j, 1e-150, 1e-145),
                                             (2.25 + 0.1j, 1e300, 1e15)])
def test_light_lines_at_the_edges_of_the_float_range(eps, gap, omega):
    # gap k0 = 3e-301 puts the line of Re eps = 1 + 1e-12 at t ~ 3e-307,
    # where the Kronrod nodes of [0, t] round to its ends; at a 1e300 m gap
    # gap * omega overflows, though gap k0 (3e306) and the line do not
    st = LayerStack(Constant(eps))
    bd = energy_transmissivity_pp(GapSystem(st, st, gap), omega,
                                  IntegrationSpec(max_subdivisions=5))
    assert math.isfinite(bd.total) and bd.neval >= 15 * (2 + 12)


# Integrand points summed over 5 log frequencies in 5e13-2e14 rad/s, equal
# Constant(re + i x) bodies across 1 um, when every light line was one seed
# edge: (energy at rtol 1e-3, at 1e-8, momentum at 1e-3, at 1e-8)
_ONE_EDGE_NEVAL = {
    (2.25, 1e-1): (1_425, 2_205, 1_485, 2_325),
    (2.25, 1e-2): (1_695, 2_865, 2_265, 3_135),
    (2.25, 1e-3): (1_275, 3_525, 2_925, 3_705),
    (2.25, 3e-4): (1_365, 3_885, 3_285, 4_155),
    (2.25, 1e-4): (1_365, 4_155, 3_135, 4_455),
    (2.25, 3e-5): (1_365, 4_395, 3_195, 4_845),
    (2.25, 1e-5): (1_365, 3_015, 3_225, 5_145),
    (2.25, 1e-6): (1_365, 1_635, 2_265, 5_655),
    (2.25, 1e-9): (1_365, 1_635, 2_265, 4_275),
    (2.25, 0.0): (1_365, 1_635, 2_265, 3_495),
    (12.0, 1e-1): (1_335, 2_745, 2_055, 3_165),
    (12.0, 1e-2): (1_155, 3_345, 2_595, 3_855),
    (12.0, 1e-3): (1_155, 3_885, 2_745, 4_575),
    (12.0, 3e-4): (1_155, 2_985, 2_625, 4_905),
    (12.0, 1e-4): (1_155, 1_365, 2_565, 5_235),
    (12.0, 3e-5): (1_155, 1_305, 2_235, 5_565),
    (12.0, 1e-5): (1_155, 1_275, 2_055, 5_775),
    (12.0, 1e-6): (1_155, 1_275, 2_055, 5_955),
    (12.0, 1e-9): (1_155, 1_275, 2_055, 3_705),
    (12.0, 0.0): (1_155, 1_275, 2_055, 3_705),
}


@pytest.mark.parametrize("re_eps", [2.25, 12.0])
def test_graded_light_lines_never_cost_points(re_eps):
    # graded seeds where rtol cannot see the branch point's offset once took
    # eps = 2.25 + 1e-12i at 1e14 rad/s and rtol 1e-8 from 315 to 855 points
    omegas = np.geomspace(5e13, 2e14, 5)
    for (re_, x), before in _ONE_EDGE_NEVAL.items():
        if re_ != re_eps:
            continue
        body = LayerStack(Constant(complex(re_eps, x)))
        system = GapSystem(body, body, 1e-6)
        now = tuple(sum(bd.neval for bd in kernel(system, omegas, IntegrationSpec(rtol=rtol)))
                    for kernel in (energy_transmissivity_pp, momentum_transmissivity_pp)
                    for rtol in (1e-3, 1e-8))
        assert all(n <= b for n, b in zip(now, before)), (x, now, before)


def test_sic_transmissivity_traced_peak_holds():
    # the traced peak, which host noise cannot move, was 820_754 bytes when
    # the rule was formed over a whole sweep's panels with one-edge light lines
    system = GapSystem(LayerStack(SIC), LayerStack(SIC), 50e-9)
    omegas, spec = np.geomspace(1e13, 1e15, 64), IntegrationSpec(rtol=1e-8)
    energy_transmissivity_pp(system, omegas[:2], spec)   # first-call state
    tracemalloc.start()
    try:
        energy_transmissivity_pp(system, omegas, spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 820_754


# SiC/SiC 50 nm at rtol 1e-8 on the 400-point log grid 1e13-1e15 rad/s:
# rows where the evanescent branch once missed its tolerance by up to 2454
# times, against an independent fixed-rule transfer-matrix quadrature
# (value, |Q_2N - Q_N|)
_SIC_ROWS = [
    (397, energy_transmissivity_pp, "evan_s", 4148660341111.842, 4.9e-4),
    (114, momentum_transmissivity_pp, "evan_s", 36.59909296646656, 5.7e-14),
    (378, energy_transmissivity_pp, "evan_s", 2763012889344.3535, 4.9e-4),
    (388, energy_transmissivity_pp, "evan_s", 3429347639189.7324, 4.9e-4),
]


@pytest.mark.parametrize("row, kernel, channel, ref, ref_err", _SIC_ROWS,
                         ids=[f"row{r[0]}" for r in _SIC_ROWS])
def test_evanescent_rows_meet_the_reference(row, kernel, channel, ref, ref_err):
    # tolerance: rtol, the reference's error and the documented noise floor,
    # NOISE_FRACTION of the branch ceiling (times 2 t_max/(w gap) for momentum)
    gap, t_max = 50e-9, gaprad.transmissivity.EVANESCENT_CUTOFF
    omega = float(np.geomspace(1e13, 1e15, 400)[row])
    sic = LayerStack(SIC)
    bd = kernel(GapSystem(sic, sic, gap), omega, IntegrationSpec(rtol=1e-8))
    ceiling = t_max ** 2 / (4 * math.pi * gap ** 2)
    if kernel is momentum_transmissivity_pp:
        ceiling *= 2 * t_max / (omega * gap)
    assert bd.converged
    assert abs(getattr(bd, channel) - ref) <= 1e-8 * abs(ref) + ref_err + 1e-13 * ceiling


# the inner integrals away from the benchmark's tolerances: six body pairs
# (a magnetic medium and a 5 nm film among them) at five gaps, on 41
# frequencies, at three tolerances, for both kernels; gold/gold at 10 nm and
# rtol 1e-3 once missed evan_p at 2.27e14 rad/s by 3.8 times its tolerance
_GRID_PAIRS = {
    "sic-sic": (LayerStack(SIC), LayerStack(SIC)),
    "film-sic": (FILM, LayerStack(SIC)),
    "gold-gold": (LayerStack(GOLD), LayerStack(GOLD)),
    "sic-gold": (LayerStack(SIC), LayerStack(GOLD)),
    "magnetic-sic": (LayerStack(Constant(2 + 0.05j, 1.5 + 0.02j)), LayerStack(SIC)),
    "thin-thin": (LayerStack(GOLD, ((SIC, 5e-9),)), LayerStack(GOLD, ((SIC, 5e-9),))),
}


def _assert_within_tolerance(kernel, system, omegas, got, refs, rtol):
    """Every converged channel lies within rtol of the same call at rtol
    1e-12, plus the noise floor: 1e-13 of its branch's Landauer ceiling."""
    k0, gap, t_max = omegas / C, system.gap, gaprad.transmissivity.EVANESCENT_CUTOFF
    ceil_prop = k0 * k0 / (4 * math.pi)
    ceil_evan = np.full_like(omegas, t_max ** 2 / (4 * math.pi * gap ** 2))
    if kernel is momentum_transmissivity_pp:
        ceil_prop = ceil_prop * 2 * k0 / omegas
        ceil_evan = ceil_evan * 4 * t_max / (3 * omegas * gap)
    for i, (bd, ref) in enumerate(zip(got, refs)):
        if not bd.converged:
            continue
        for channel in ("prop_s", "prop_p", "evan_s", "evan_p"):
            ceiling = (ceil_prop if channel.startswith("prop") else ceil_evan)[i]
            want = getattr(ref, channel)
            assert abs(getattr(bd, channel) - want) <= rtol * abs(want) + 1e-13 * ceiling, (
                gap, kernel.__name__, rtol, omegas[i], channel)


@pytest.mark.parametrize("pair", _GRID_PAIRS)
def test_inner_integrals_meet_their_tolerance_on_a_grid(pair):
    omegas = np.geomspace(3e13, 6e14, 41)
    for gap in (10e-9, 50e-9, 200e-9, 1e-6, 3e-6):
        system = GapSystem(*_GRID_PAIRS[pair], gap)
        for kernel in (energy_transmissivity_pp, momentum_transmissivity_pp):
            refs = kernel(system, omegas, IntegrationSpec(rtol=1e-12))
            for rtol in (1e-3, 1e-6, 1e-9):
                got = kernel(system, omegas, IntegrationSpec(rtol=rtol))
                _assert_within_tolerance(kernel, system, omegas, got, refs, rtol)


def _no_fringes(*args):
    return np.empty(0, dtype=int), np.empty(0)


# far-field gaps: Fabry-Perot fringes of a good reflector (gold), a polar
# dielectric (SiC), a film on gold and a mixed pair
_FRINGE_PAIRS = {
    "gold-gold": (LayerStack(GOLD), LayerStack(GOLD)),
    "sic-sic": (LayerStack(SIC), LayerStack(SIC)),
    "film-sic": (FILM, LayerStack(SIC)),
    "gold-sic": (LayerStack(GOLD), LayerStack(SIC)),
}


@pytest.mark.parametrize("pair", _FRINGE_PAIRS)
def test_fringe_seeds_never_cost_points(monkeypatch, pair):
    # the same calls without fringe seeds are the baseline; gating fringes
    # at a quarter of their spacing instead of an eighth raised four of
    # these sums, film/SiC and gold/SiC at 1 um and rtol 1e-4, by 1.4-3.5 %
    omegas = np.geomspace(5e13, 3e15, 24)
    for gap in (1e-6, 3e-6, 10e-6):
        system = GapSystem(*_FRINGE_PAIRS[pair], gap)
        for kernel in (energy_transmissivity_pp, momentum_transmissivity_pp):
            refs = kernel(system, omegas, IntegrationSpec(rtol=1e-12))
            for rtol in (1e-4, 1e-7):
                spec = IntegrationSpec(rtol=rtol)
                got = kernel(system, omegas, spec)
                with monkeypatch.context() as m:
                    m.setattr(gaprad.transmissivity, "_fringe_edges", _no_fringes)
                    before = kernel(system, omegas, spec)
                assert all(bd.converged for bd in got)
                assert sum(bd.neval for bd in got) <= sum(bd.neval for bd in before), (
                    gap, kernel.__name__, rtol)
                _assert_within_tolerance(kernel, system, omegas, got, refs, rtol)


def test_fringe_seeds_keep_batch_rows_bitwise_and_swaps_reciprocal():
    # 65 frequencies make two groups; fringes depend on their row's omega only
    gold = LayerStack(GOLD)
    omegas, spec = np.geomspace(5e13, 3e15, 65), IntegrationSpec(rtol=1e-6)
    assert len(gaprad.transmissivity._fringe_edges((gold,), omegas, 10e-6, 4000)[1])
    system = GapSystem(gold, gold, 10e-6)
    batch = energy_transmissivity_pp(system, omegas, spec)
    for w, bd in zip(omegas, batch):
        assert _bits(bd) == _bits(energy_transmissivity_pp(system, float(w), spec))
    # R1 R2 is formed as (R1 R2 + R2 R1) / 2: a body swap keeps the panels
    # and every value
    system = GapSystem(FILM, LayerStack(SIC), 10e-6)
    for a, b in zip(energy_transmissivity_pp(system, omegas, spec),
                    energy_transmissivity_pp(system.swapped(), omegas, spec)):
        assert _bits(a) == _bits(b)


def test_fringe_seeds_keep_away_from_grazing_incidence():
    # with poles kept down to v = kz / k0 = 1e-300, thousands of this grid's
    # edges sat at grazing incidence, where gold's kernel is 0/0 ("non-finite
    # integrand value"): every pole and edge lies above v = 1e-6
    gold = LayerStack(GOLD)
    _, v = gaprad.transmissivity._fringe_edges((gold,), np.geomspace(5e13, 3.2e15, 400),
                                               30e-6, 4000)
    assert len(v) and np.all(v > 1e-6)
    for kernel in (energy_transmissivity_pp, momentum_transmissivity_pp):
        bd = kernel(GapSystem(gold, gold, 30e-6), 3.1e15, IntegrationSpec(rtol=1e-8))
        assert bd.converged and math.isfinite(bd.total)


def test_rows_beyond_the_subdivision_budget_take_no_fringe(monkeypatch):
    # k0 gap / pi = 3183 at a 1 mm gap and 3e15 rad/s: above a budget of
    # 3000 subdivisions the row gets the seeds it had without fringes, and
    # the finder takes no reflection
    tm = gaprad.transmissivity
    gold, omegas = (LayerStack(GOLD),), np.array([3e15])
    spec = IntegrationSpec(max_subdivisions=3000)
    assert len(tm._fringe_edges(gold, omegas, 1e-3, 4000)[1]) > 1000
    with monkeypatch.context() as m:
        m.setattr(tm, "_fringe_edges", _no_fringes)
        before = tm._seed_edges(gold, omegas, 1e-3, spec)
    monkeypatch.setattr(tm, "stack_reflection", _no_integral)
    after = tm._seed_edges(gold, omegas, 1e-3, spec)
    assert all(np.array_equal(a, b) for a, b in zip(before[0] + before[1], after[0] + after[1]))


@pytest.mark.parametrize("fault", ["degenerate", "nan"])
def test_a_failing_finder_point_drops_only_its_rows_fringes(monkeypatch, fault):
    tm = gaprad.transmissivity
    gold, omegas = (LayerStack(GOLD),), np.geomspace(1e15, 3e15, 5)
    rows, edges = tm._fringe_edges(gold, omegas, 3e-6, 4000)
    assert set(rows.tolist()) == set(range(5))
    reflection = tm.stack_reflection

    def failing(body, pol, omega, krho, *args):
        # at one finder point of row 2, its first fringe's s column
        r = reflection(body, pol, omega, krho, *args)
        at = np.argmax(omega == omegas[2])
        if omega[at, 0] == omegas[2]:
            if fault == "degenerate":
                raise gaprad.planar.DegenerateInterfaceError("vanishing Fresnel denominator")
            r[:, at, 0] = np.nan
        return r

    monkeypatch.setattr(tm, "stack_reflection", failing)
    rows_after, edges_after = tm._fringe_edges(gold, omegas, 3e-6, 4000)
    assert np.array_equal(rows_after, rows[rows != 2])
    assert np.array_equal(edges_after, edges[rows != 2])


@pytest.mark.parametrize("omega", [1.75e14, 1.786e14, 1.80e14])
def test_evanescent_p_channel_meets_its_quasi_static_limit(omega):
    # where the reflections do not depend on krho (krho >> k0 |eps|^1/2, here
    # at a 1 nm gap inside SiC's Reststrahlen band), with r = (eps-1)/(eps+1),
    #   T_p = Im r1 Im r2 Im Li2(r1 r2) / Im(r1 r2) / (2 pi gap^2),
    # from the integral of ln(1/x) / |1 - r1 r2 x|^2 over [0, 1]; the model
    # error of the limit is of order (k0 gap)^2, and the tolerance is twice that
    gap = 1e-9
    eps, _ = eval_response(SIC, omega)
    r = (eps - 1) / (eps + 1)
    a = r * r
    li2 = complex(mpmath.polylog(2, mpmath.mpc(a.real, a.imag)))
    t_p = r.imag * r.imag * li2.imag / a.imag / (2 * math.pi * gap * gap)
    sic = LayerStack(SIC)
    bd = energy_transmissivity_pp(GapSystem(sic, sic, gap), omega, IntegrationSpec(rtol=1e-10))
    assert bd.converged
    assert abs(bd.evan_p / t_p - 1.0) <= 2.0 * (omega / C * gap) ** 2


def _count_calls(monkeypatch, *names):
    """Count calls of gaprad.transmissivity's module attributes, as the
    benchmark tracer sees them."""
    import gaprad.transmissivity as tm

    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(tm, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(tm, name, counted)
    return counts


@pytest.mark.parametrize("body1, per_call", [(LayerStack(SIC), 1), (FILM, 2)],
                         ids=["sic-sic", "film-sic"])
def test_equal_bodies_share_one_reflection_per_integrand_call(monkeypatch, body1, per_call):
    # body 2 is built apart from body 1: equal by value, not the same object
    counts = _count_calls(monkeypatch, "stack_reflection", "energy_integrand",
                          "momentum_integrand")
    system = GapSystem(body1, LayerStack(SIC), 50e-9)
    spec = IntegrationSpec(rtol=1e-6)
    energy_transmissivity_pp(system, [1e14, 1.7e14], spec)
    momentum_transmissivity_pp(system, 1.7e14, spec)
    calls = counts["energy_integrand"] + counts["momentum_integrand"]
    assert counts["momentum_integrand"] > 0 and counts["stack_reflection"] == per_call * calls


def test_shared_reflection_is_bitwise_the_two_reflection_path(monkeypatch):
    system = GapSystem(LayerStack(SIC), LayerStack(SIC), 50e-9)
    omegas = np.geomspace(1e13, 1e15, 400)
    spec = IntegrationSpec(rtol=1e-6)
    kernels = (energy_transmissivity_pp, momentum_transmissivity_pp)
    shared = [[_bits(bd) for bd in kernel(system, omegas, spec)] for kernel in kernels]
    # equality by identity: the two bodies now take a reflection each
    monkeypatch.setattr(LayerStack, "__eq__", lambda a, b: a is b)
    assert system.body1 != system.body2
    counts = _count_calls(monkeypatch, "stack_reflection", "energy_integrand")
    apart = [[_bits(bd) for bd in kernel(system, omegas, spec)] for kernel in kernels]
    assert counts["stack_reflection"] > 2 * counts["energy_integrand"] > 0
    assert apart == shared


@pytest.mark.parametrize("body", [LayerStack(SIC), FILM], ids=["bulk", "film"])
def test_media_are_evaluated_once_per_panel(monkeypatch, rng, body):
    # one frequency per panel of 15 abscissae, as the gap kernel passes them,
    # is bitwise one frequency per point
    omegas = np.geomspace(1e13, 1e15, 8)[:, None]
    krho = rng.uniform(0.0, 3.0, (8, 15)) * omegas / C
    per_point = np.broadcast_to(omegas, krho.shape)
    for host in (None, (omegas / C - krho) * (omegas / C + krho)):
        for pol in (None, S, P):
            panels = stack_reflection(body, pol, omegas, krho, host)
            assert panels.tobytes() == stack_reflection(body, pol, per_point, krho,
                                                        host).tobytes()
    # each integrand call holds at most 96 panels, so at most 96 frequencies
    sizes = []

    def counted(material, omega, _fn=gaprad.planar.eval_response):
        sizes.append(np.size(omega))
        return _fn(material, omega)

    monkeypatch.setattr(gaprad.planar, "eval_response", counted)
    energy_transmissivity_pp(GapSystem(body, LayerStack(SIC), 50e-9),
                             np.geomspace(1e13, 1e15, 100), IntegrationSpec(rtol=1e-6))
    assert sizes and max(sizes) <= 96


def test_tabulated_bodies_share_a_reflection_only_when_identical(monkeypatch):
    table = Tabulated(np.array([1e13, 1e14, 1e15]), np.array([4 + 0.5j, 3 + 0.3j, 2 + 0.1j]),
                      np.ones(3, complex))
    twin = Tabulated(table.omega, table.eps, table.mu)    # eq=False: a different body
    results = []
    for other, per_call in [(table, 1), (twin, 2)]:
        counts = _count_calls(monkeypatch, "stack_reflection", "energy_integrand")
        bd = energy_transmissivity_pp(GapSystem(LayerStack(table), LayerStack(other), 1e-7),
                                      1e14)
        assert bd.converged and bd.total > 0.0
        assert counts["stack_reflection"] == per_call * counts["energy_integrand"]
        results.append(_bits(bd))
    assert results[0] == results[1]


def test_integrands_on_one_branch_are_bitwise_their_points(rng):
    # krho straddles w/c: the mixed call keeps every point's own branch, and
    # a call wholly on one branch is bitwise that branch's slice of it
    w, gap = 1.7e14, 50e-9
    k0 = w / C
    krho = np.concatenate([rng.uniform(0.0, 1.0, 40) * k0,
                           np.hypot(k0, rng.uniform(1e-3, 20.0, 40) / gap)])
    rng.shuffle(krho)
    prop = krho < k0
    r1 = stack_reflection(FILM, None, w, krho)
    r2 = stack_reflection(LayerStack(SIC), None, w, krho)
    for integrand in (energy_integrand, momentum_integrand):
        mixed = integrand(r1, r2, krho, w, gap)
        points = [[integrand(complex(r1[p, i]), complex(r2[p, i]), float(k), w, gap)
                   for i, k in enumerate(krho)] for p in range(2)]
        assert mixed.tobytes() == np.array(points).tobytes()
        for branch in (prop, ~prop):
            one = integrand(r1[:, branch], r2[:, branch], krho[branch], w, gap)
            assert one.tobytes() == mixed[:, branch].tobytes()


def _no_integral(*args, **kwargs):
    raise AssertionError("wavevector integral run")


@pytest.mark.parametrize("omega, bad", [(1e-200, 1e-200), (1e-152, 1e-152),
                                        (np.array([1e14, 1e-150]), 1e-150)])
def test_underflowing_frequency_is_named_before_any_integral(monkeypatch, omega, bad):
    # below ~4.5e-146 rad/s (omega/c)^2 is subnormal or zero: 1e-150 gave a
    # 1e-5 relative error and 1e-152 a vanishing Fresnel denominator
    monkeypatch.setattr(gaprad.transmissivity, "adaptive_integrate", _no_integral)
    system = GapSystem(BB, BB, 1e-6, 300, 300)
    for kernel in (energy_transmissivity_pp, momentum_transmissivity_pp):
        with pytest.raises(ValueError, match=re.escape(f"(omega/c)^2 underflows at omega={bad!r}")):
            kernel(system, omega)


def test_conductance_at_an_underflowing_temperature_names_the_frequency():
    with pytest.raises(ValueError, match=re.escape("(omega/c)^2 underflows at omega=")):
        conductance(GapSystem(BB, BB, 1e-6, 300, 300), 1e-300)


def test_smallest_frequencies_with_a_normal_wavevector_still_work():
    system = GapSystem(BB, BB, 1e-6, 300, 300)
    spec = IntegrationSpec(rtol=1e-6)
    for omega in (1e-140, 1e-145):
        exact = (omega / C) ** 2 / (2 * math.pi)
        bd = energy_transmissivity_pp(system, omega, spec)
        assert bd.converged and abs(bd.total - exact) <= 1e-6 * exact


def test_gaps_at_the_edge_of_the_float_range(monkeypatch):
    # (EVANESCENT_CUTOFF/gap)^2 stays a float down to ~1.5e-153 m; below it the
    # evanescent measure overflowed (1e-153) or gap^2 vanished (1e-200)
    sic = LayerStack(SIC)
    bd = energy_transmissivity_pp(GapSystem(sic, sic, 1e-152, 400, 300), 1e14)
    assert bd.converged and 6e296 < bd.total < 7e296
    for gap in (1e-153, 1e-200):
        with pytest.raises(ValueError, match=re.escape(f"gap {gap!r} m is too small")):
            GapSystem(sic, sic, gap, 400, 300)
    res = neq_pressure(GapSystem(sic, sic, 1e-100, 400, 0), 1, 400, IntegrationSpec(rtol=1e-6))
    assert res.converged and 2e276 < res.value < 2.2e276
    # at 1e-110 m the momentum ceiling overflows at the window's low end
    monkeypatch.setattr(gaprad.transmissivity, "adaptive_integrate", _no_integral)
    with pytest.raises(ValueError, match=r"branch ceiling is not finite at gap=1e-110 m, "
                                         r"omega=5\d{9}\.\d+ rad/s"):
        neq_pressure(GapSystem(sic, sic, 1e-110, 400, 0), 1, 400)


def test_each_inner_integral_gets_one_floor_per_row_from_its_branch_ceiling(monkeypatch):
    # the floor is NOISE_FRACTION of the branch's Landauer ceiling, the
    # integral over the branch of the kernel's bound; 70 frequencies make
    # two groups, each with its own slice of the floors
    tm = gaprad.transmissivity
    calls = []

    def recorded(f, a, b, spec, edges, abs_floor, **kwargs):
        calls.append((b, abs_floor))
        return inner(f, a, b, spec, edges, abs_floor, **kwargs)

    inner = tm.adaptive_integrate
    monkeypatch.setattr(tm, "adaptive_integrate", recorded)
    gap, t = 50e-9, tm.EVANESCENT_CUTOFF
    system = GapSystem(FILM, LayerStack(SIC), gap)
    omegas = np.geomspace(1e13, 1e15, 70)
    k0 = omegas / C
    ceilings = {energy_transmissivity_pp: (k0**2 / (4 * math.pi),
                                           np.full(70, t**2 / (4 * math.pi * gap**2))),
                momentum_transmissivity_pp: (k0**3 / (2 * math.pi * omegas),
                                             t**3 / (3 * math.pi * gap**3 * omegas))}
    for kernel, (prop, evan) in ceilings.items():
        calls.clear()
        kernel(system, omegas, IntegrationSpec(max_subdivisions=0))
        assert [b for b, _ in calls] == [1.0, t, 1.0, t]
        for floor in (fl for _, fl in calls):
            assert isinstance(floor, np.ndarray) and floor.dtype == float
        for i, ceiling in ((0, prop), (1, evan)):
            floor = np.concatenate([calls[i][1], calls[i + 2][1]])
            np.testing.assert_allclose(floor, tm.NOISE_FRACTION * ceiling, rtol=1e-15)
