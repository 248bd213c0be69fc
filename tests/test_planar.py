"""Layered-media optics: branch choice, Fresnel coefficients, recursion."""

import cmath
import math
import re

import numpy as np
import pytest

from gaprad import (CONSTANTS, Black, Constant, DegenerateInterfaceError,
                    LayerStack, Polarization, interface_reflection, kz,
                    stack_reflection)
from conftest import SIC, random_stack

C = CONSTANTS.c
S, P = Polarization.S, Polarization.P


def test_kz_normal_incidence_vacuum():
    w = 1e15
    v = kz(1, 1, w, 0.0)
    assert v == w / C
    assert v.imag == 0.0


def test_kz_evanescent_vacuum_purely_imaginary():
    w = 1e15
    v = kz(1, 1, w, 2 * w / C)
    assert v.real == 0.0
    assert abs(v.imag - math.sqrt(3) * w / C) <= 1e-15 * w / C


def test_kz_lossy_matches_direct_complex_arithmetic():
    w = 1e15
    ref = cmath.sqrt((4 + 0.1j) * (w / C) ** 2 - (1.5 * w / C) ** 2)
    if ref.imag < 0:
        ref = -ref
    v = kz(4 + 0.1j, 1, w, 1.5 * w / C)
    assert abs(v - ref) <= 1e-14 * abs(ref)
    assert v.imag > 0


def test_kz_branch_invariants_randomized(rng):
    for _ in range(2000):
        eps = complex(rng.uniform(-10, 10), rng.uniform(0, 5))
        mu = complex(rng.uniform(-3, 5), rng.uniform(0, 2))
        w = 10**rng.uniform(12, 16)
        v = kz(eps, mu, w, rng.uniform(0, 3) * w / C)
        assert v.imag >= 0.0
        if v.imag == 0.0:
            assert v.real >= 0.0


def test_kz_array_matches_scalars():
    w = 2e14
    krho = np.linspace(0, 2.5, 11) * w / C
    arr = kz(3 + 0.4j, 1.2 + 0.1j, w, krho)
    for k, v in zip(krho, arr):
        assert v == kz(3 + 0.4j, 1.2 + 0.1j, w, float(k))


def test_interface_identical_media_is_zero():
    w = 1e14
    for pol in (S, P):
        assert interface_reflection(3 + 0.2j, 1.1 + 0j, 3 + 0.2j, 1.1 + 0j,
                                    pol, w, 0.4 * w / C) == 0.0


def test_interface_normal_incidence_dielectric():
    # vacuum -> eps = 4: |r| = 1/3 both polarizations, opposite signs
    w = 1e15
    rs = interface_reflection(1, 1, 4, 1, S, w, 0.0)
    rp = interface_reflection(1, 1, 4, 1, P, w, 0.0)
    assert abs(rs - (-1 / 3)) <= 1e-15
    assert abs(rp - (+1 / 3)) <= 1e-15


def test_interface_duality_swaps_polarizations_bitwise():
    w = 1e15
    # eps = 4 case against its mu = 4 dual
    for krho in (0.0, 0.5 * w / C, 1.7 * w / C):
        rs = interface_reflection(1, 1, 4, 1, S, w, krho)
        rp = interface_reflection(1, 1, 4, 1, P, w, krho)
        assert interface_reflection(1, 1, 1, 4, S, w, krho) == rp
        assert interface_reflection(1, 1, 1, 4, P, w, krho) == rs


def test_interface_degenerate_denominator_raises():
    # lossless eps = mu = -1 against vacuum at normal incidence
    with pytest.raises(DegenerateInterfaceError):
        interface_reflection(1, 1, -1, -1, S, 1e14, 0.0)


def test_stack_contrast_free_film_equals_bare_interface(rng):
    mat = Constant(3.5 + 0.3j, 1.2 + 0.05j)
    bare = LayerStack(mat)
    filmed = LayerStack(mat, ((mat, 2e-7),))
    for _ in range(50):
        w = 10**rng.uniform(13, 15.5)
        krho = rng.uniform(0, 2.5) * w / C
        for pol in (S, P):
            a = stack_reflection(bare, pol, w, krho)
            b = stack_reflection(filmed, pol, w, krho)
            assert abs(a - b) <= 1e-13 * max(abs(a), 1e-30)


def test_stack_opaque_film_hides_terminal():
    film = Constant(2 + 0.8j)
    w = 1e15
    # skin depth ~ c/(w Im n); 60 um is thousands of decay lengths
    deep = LayerStack(Constant(9 + 0j), ((film, 6e-5),))
    bare_film = LayerStack(film)
    for krho in (0.0, 0.6 * w / C, 1.4 * w / C):
        for pol in (S, P):
            a = stack_reflection(deep, pol, w, krho)
            b = stack_reflection(bare_film, pol, w, krho)
            assert abs(a - b) <= 1e-14


def test_stack_quarter_wave_film_matches_airy_sum():
    # lossless eps = 4 film, quarter-wave optical thickness, eps = 1 terminal
    w = 1e15
    lam = 2 * math.pi * C / w
    d = lam / 8          # n d = lambda / 4 with n = 2
    stack = LayerStack(Constant(1 + 0j), ((Constant(4 + 0j), d),))
    got = stack_reflection(stack, S, w, 0.0)

    # independent two-interface Airy sum
    k0 = w / C
    k1 = 2 * k0
    r01 = (k0 - k1) / (k0 + k1)
    r12 = (k1 - k0) / (k1 + k0)
    phase = cmath.exp(2j * k1 * d)
    ref = (r01 + r12 * phase) / (1 + r01 * r12 * phase)
    assert abs(got - ref) <= 1e-12
    assert abs(abs(got) - 0.6) <= 1e-12   # textbook |r| = |n0 n2 - n1^2| / (n0 n2 + n1^2)


def test_stack_zero_thickness_film_is_removable(rng):
    for _ in range(30):
        term = Constant(complex(rng.uniform(1, 8), rng.uniform(0, 2)))
        film = Constant(complex(rng.uniform(1, 8), rng.uniform(0, 2)))
        w = 10**rng.uniform(13, 15)
        krho = rng.uniform(0, 2) * w / C
        with_film = LayerStack(term, ((film, 1e-30),))
        without = LayerStack(term)
        for pol in (S, P):
            a = stack_reflection(with_film, pol, w, krho)
            b = stack_reflection(without, pol, w, krho)
            assert abs(a - b) <= 1e-14 * max(abs(b), 1e-15)


def test_stack_black_terminal_reflects_exactly_zero():
    st = LayerStack(Black())
    w = 1e14
    for krho in (0.0, 0.3 * w / C, 2.0 * w / C):
        for pol in (S, P):
            assert stack_reflection(st, pol, w, krho) == 0.0


def test_stack_black_truncates_deeper_layers():
    # a black film hides everything behind it: same reflection as a black
    # terminal under the same front film
    front = Constant(5 + 0.5j)
    a = LayerStack(Constant(2 + 9j), ((front, 3e-8), (Black(), 1e-9)))
    b = LayerStack(Black(), ((front, 3e-8),))
    w = 2e14
    for krho in (0.0, 1.5 * w / C):
        for pol in (S, P):
            assert stack_reflection(a, pol, w, krho) == stack_reflection(b, pol, w, krho)


def test_stack_passive_bound_randomized(rng):
    for _ in range(10_000):
        w = 10**rng.uniform(13, 15.3)
        krho = rng.uniform(0.0, 0.999999) * w / C
        pol = S if rng.random() < 0.5 else P
        r = stack_reflection(random_stack(rng), pol, w, krho)
        assert abs(r) <= 1.0 + 1e-12


def test_stack_duality_multilayer(rng):
    def dual(mat):
        return Constant(mat.mu, mat.eps)

    for _ in range(50):
        films = tuple((Constant(complex(rng.uniform(1, 6), rng.uniform(0, 2)),
                                complex(rng.uniform(0.5, 3), rng.uniform(0, 1))),
                       10**rng.uniform(-8, -6.5)) for _ in range(rng.integers(1, 4)))
        term = Constant(complex(rng.uniform(1, 6), rng.uniform(0, 2)),
                        complex(rng.uniform(0.5, 3), rng.uniform(0, 1)))
        stack = LayerStack(term, films)
        dual_stack = LayerStack(dual(term), tuple((dual(m), d) for m, d in films))
        w = 10**rng.uniform(13, 15)
        krho = rng.uniform(0, 2.2) * w / C
        rs = stack_reflection(stack, S, w, krho)
        rp = stack_reflection(stack, P, w, krho)
        rs_dual = stack_reflection(dual_stack, S, w, krho)
        rp_dual = stack_reflection(dual_stack, P, w, krho)
        assert abs(rs_dual - rp) <= 1e-14 * max(abs(rp), 1e-30)
        assert abs(rp_dual - rs) <= 1e-14 * max(abs(rs), 1e-30)


def test_duality_is_bitwise_for_array_krho(rng):
    # numpy's complex multiply may round eps mu and mu eps apart (FMA), so the
    # stack forms eps mu symmetrically; array krho swaps as scalars do
    def medium():
        return (complex(rng.uniform(-3, 8), rng.uniform(0, 3)),
                complex(rng.uniform(-1, 4), rng.uniform(0, 1.5)))

    for _ in range(200):
        w = 10**rng.uniform(13, 15)
        krho = rng.uniform(0, 2.2, size=8) * w / C
        term, films = medium(), [(medium(), 10**rng.uniform(-8, -6.5))
                                 for _ in range(rng.integers(0, 3))]
        stack, dual = (LayerStack(Constant(*term[::k]),
                                  tuple((Constant(*m[::k]), d) for m, d in films))
                       for k in (1, -1))
        assert np.array_equal(stack_reflection(dual, None, w, krho),
                              stack_reflection(stack, None, w, krho)[::-1])


def test_layer_stack_rejects_nonpositive_thickness():
    with pytest.raises(ValueError):
        LayerStack(Constant(), ((Constant(), 0.0),))
    with pytest.raises(ValueError):
        LayerStack(Constant(), ((Constant(), -1e-9),))


def test_both_polarizations_from_one_recursion_match_single_calls():
    w = 2e14
    k0 = w / C
    stacks = {
        "film stack": LayerStack(Constant(3 + 1j), ((Constant(2 + 0.2j), 5e-8),
                                                    (Constant(-4 + 0.3j), 2e-8))),
        "black-truncated": LayerStack(Constant(3 + 1j), ((Constant(2 + 0.2j), 5e-8),
                                                         (Black(), 1e-7))),
        "magnetic": LayerStack(Constant(4 + 0.5j, 1.5 + 0.1j),
                               ((Constant(2 + 0.2j, 0.7 + 0.05j), 3e-8),)),
    }
    krho = np.concatenate([np.linspace(0.01, 0.99, 40), np.linspace(1.01, 30.0, 41)]) * k0
    kzh2 = (k0 - krho) * (k0 + krho)
    for name, st in stacks.items():
        for host in (None, kzh2):
            both = stack_reflection(st, None, w, krho, host)
            assert both.shape == (2, len(krho)), name
            assert np.array_equal(both[0], stack_reflection(st, S, w, krho, host)), name
            assert np.array_equal(both[1], stack_reflection(st, P, w, krho, host)), name
    assert stack_reflection(stacks["magnetic"], None, w, 0.5 * k0).shape == (2,)


def test_per_point_omega_matches_scalar_omega_rows_bitwise(rng):
    for _ in range(6):
        st = random_stack(rng)
        w = 10 ** rng.uniform(13, 15)
        k0 = w / C
        krho = np.concatenate([rng.uniform(0, 0.99, 5) * k0, k0 + 10 ** rng.uniform(4, 8, 5)])
        for pol in (None, S, P):
            alone = stack_reflection(st, pol, w, krho)
            per_point = stack_reflection(st, pol, np.full(krho.shape, w), krho)
            assert per_point.tobytes() == alone.tobytes()
    # points of a mixed-frequency batch are their own scalar-omega values
    st = random_stack(rng)
    omegas = np.geomspace(1e13, 1e15, 8)
    krho = 0.5 * omegas / C
    batch = stack_reflection(st, None, omegas, krho)
    assert batch.shape == (2, 8)
    for i, w in enumerate(omegas):
        alone = stack_reflection(st, None, w, krho[i:i + 1])[:, 0]
        assert batch[:, i].tobytes() == alone.tobytes()


def test_single_polarization_is_bitwise_a_row_of_the_shared_recursion(rng):
    stacks = {
        "film stack": LayerStack(Constant(3 + 1j), ((Constant(2 + 0.2j), 5e-8),
                                                    (Constant(-4 + 0.3j), 2e-8))),
        "black-truncated": LayerStack(Constant(3 + 1j), ((Constant(2 + 0.2j), 5e-8),
                                                         (Black(), 1e-7))),
        "magnetic": LayerStack(Constant(4 + 0.5j, 1.5 + 0.1j),
                               ((Constant(2 + 0.2j, 0.7 + 0.05j), 3e-8),)),
        "bare SiC": LayerStack(SIC),
    }
    for name, st in stacks.items():
        for _ in range(3):
            w = 10 ** rng.uniform(13, 15)
            krho = np.concatenate([rng.uniform(0, 0.99, 5), rng.uniform(1.01, 30, 5)]) * w / C
            # scalar and array krho, each with a scalar and a per-point omega
            for k in (*krho, krho):
                for omega in (w, np.full(np.shape(k), w)):
                    both = stack_reflection(st, None, omega, k)
                    s, p = (stack_reflection(st, pol, omega, k) for pol in (S, P))
                    assert type(s) is (complex if np.ndim(k) == 0 else np.ndarray), name
                    assert np.asarray(s).tobytes() == both[0].tobytes(), name
                    assert np.asarray(p).tobytes() == both[1].tobytes(), name


@pytest.mark.parametrize("stack", [LayerStack(Black()), LayerStack(SIC, ((Black(), 1e-8),))],
                         ids=["black", "black-film"])
@pytest.mark.parametrize("pol", [None, S])
@pytest.mark.parametrize("omega, bad", [(math.nan, math.nan), (-1e14, -1e14), (math.inf, math.inf),
                                        (np.array([1e14, 0.0]), 0.0)],
                         ids=["nan", "negative", "inf", "zero-in-array"])
def test_black_first_stack_checks_omega(stack, pol, omega, bad):
    # no response is evaluated in front of the black medium
    with pytest.raises(ValueError, match=re.escape(f"omega must be positive and finite, got {bad!r}")):
        stack_reflection(stack, pol, omega, 0.0)
