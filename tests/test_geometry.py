"""Triangulated blackbody geometry: meshes, view factors, dyadic route."""

import math
import re
import tracemalloc

import numpy as np
import pytest

from gaprad import geometry
from gaprad import (CONSTANTS, MeshError, TriMesh, bb_heat_rate,
                    bb_transmissivity, bb_transmissivity_direct, load_mesh,
                    rectangle_mesh, save_obj, view_factor)
from gaprad.geometry import TRIANGLE_RULES
from conftest import (facing_square_pair, icosphere_obj,
                      parallel_rectangle_viewfactor)

C = CONSTANTS.c
SIGMA = CONSTANTS.sigma_sb


def test_triangle_rules_integrate_monomials_exactly():
    # reference triangle (0,0) (1,0) (0,1): int x^i y^j = i! j! / (i+j+2)!
    ref = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0]], dtype=float)
    for degree, (bary, w) in TRIANGLE_RULES.items():
        pts = bary @ ref
        for i in range(degree + 1):
            for j in range(degree + 1 - i):
                exact = (math.factorial(i) * math.factorial(j)
                         / math.factorial(i + j + 2))
                approx = 0.5 * np.sum(w * pts[:, 0] ** i * pts[:, 1] ** j)
                assert abs(approx - exact) <= 1e-13 * exact


def test_unit_square_mesh_basics(tmp_path):
    mesh = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 1, 1)
    assert len(mesh.triangles) == 2
    assert abs(mesh.area - 1.0) <= 1e-15
    assert np.allclose(mesh.normals, [0, 0, 1])
    path = tmp_path / "square.obj"
    save_obj(mesh, path)
    loaded = load_mesh(path)
    assert abs(loaded.area - 1.0) <= 1e-12
    assert np.max(np.abs(np.linalg.norm(loaded.normals, axis=1) - 1.0)) <= 1e-12


def test_reversed_winding_flips_normals():
    fwd = TriMesh(np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 1, 2]]))
    rev = TriMesh(np.array([[0., 0, 0], [1, 0, 0], [0, 1, 0]]), np.array([[0, 2, 1]]))
    assert np.allclose(fwd.normals[0], -rev.normals[0])


def test_icosphere_area_close_to_sphere(tmp_path):
    path = tmp_path / "icosphere.obj"
    path.write_text(icosphere_obj(radius=0.5, subdivisions=2), encoding="utf-8")
    mesh = load_mesh(path)
    assert len(mesh.triangles) == 320
    exact = 4 * math.pi * 0.25
    assert abs(mesh.area - exact) <= 0.02 * exact
    assert mesh.ignored_lines == 1          # the comment line
    # winding gives outward normals
    assert np.all(np.einsum("ij,ij->i", mesh.centroids(), mesh.normals) > 0)


def test_load_mesh_errors(tmp_path):
    bad_vertex = tmp_path / "a.obj"
    bad_vertex.write_text("v 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 3\n")
    with pytest.raises(MeshError, match="a.obj:1"):
        load_mesh(bad_vertex)

    bad_index = tmp_path / "b.obj"
    bad_index.write_text("v 0 0 0\nv 1 0 0\nv 0 1 0\nf 1 2 4\n")
    with pytest.raises(MeshError, match="out of range"):
        load_mesh(bad_index)

    degenerate = tmp_path / "c.obj"
    degenerate.write_text("v 0 0 0\nv 1 0 0\nv 2 0 0\nf 1 2 3\n")
    with pytest.raises(MeshError, match="degenerate"):
        load_mesh(degenerate)

    quad_face = tmp_path / "d.obj"
    quad_face.write_text("v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nf 1 2 3 4\n")
    with pytest.raises(MeshError, match="exactly 3"):
        load_mesh(quad_face)

    empty = tmp_path / "e.obj"
    empty.write_text("# nothing here\n")
    with pytest.raises(MeshError, match="no faces"):
        load_mesh(empty)


def test_view_factor_parallel_squares_catalog_value():
    oracle = parallel_rectangle_viewfactor(1.0, 1.0, 1.0)
    m1, m2 = facing_square_pair(1.0, 4)
    assert abs(view_factor(m1, m2) - oracle) <= 1e-3


def test_view_factor_closure_limit():
    m1, m2 = facing_square_pair(1e-3, 4)
    F = view_factor(m1, m2)
    assert abs(F - 1.0) <= 0.02
    assert abs(F - parallel_rectangle_viewfactor(1, 1, 1e-3)) <= 0.02


def test_view_factor_reciprocity_unequal_patches():
    mA = rectangle_mesh([0, 0, 0], [2, 0, 0], [0, 1, 0], 4, 2)
    mB = rectangle_mesh([0.3, 0.2, 0.7], [0, 1, 0], [1, 0, 0], 3, 3)
    a1f12 = mA.area * view_factor(mA, mB)
    a2f21 = mB.area * view_factor(mB, mA)
    assert abs(a1f12 - a2f21) <= 1e-10 * a1f12


def test_view_factor_bounds_for_facing_convex_pairs():
    base = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    for dx in (0.0, 0.5, 1.5, 4.0):
        other = rectangle_mesh([dx, 0, 1.0], [0, 1, 0], [1, 0, 0], 2, 2)
        F = view_factor(base, other)
        assert 0.0 <= F <= 1.0


def test_view_factor_coplanar_patches_is_zero():
    mA = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    mB = rectangle_mesh([3, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    assert view_factor(mA, mB) == 0.0


def test_view_factor_rejects_touching_meshes():
    m = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    with pytest.raises(ValueError, match="touch or overlap"):
        view_factor(m, m)


def test_view_factor_order_convergence():
    m1, m2 = facing_square_pair(1.0, 4)
    f4 = view_factor(m1, m2, 4)
    f7 = view_factor(m1, m2, 7)
    assert abs(f4 - f7) <= 1e-4 * abs(f7)
    with pytest.raises(ValueError, match="quad_order"):
        view_factor(m1, m2, 3)


def test_view_factor_mesh_refinement_within_order_estimate():
    # refining a flat mesh only reduces quadrature error, so the change is
    # on the scale of the order-4 vs order-7 difference (factor-2 band)
    c1, c2 = facing_square_pair(1.0, 4)
    f1, f2 = facing_square_pair(1.0, 8)
    coarse = view_factor(c1, c2, 4)
    estimate = abs(view_factor(c1, c2, 7) - coarse)
    change = abs(view_factor(f1, f2, 4) - coarse)
    assert change <= 2.0 * estimate + 1e-12


def test_bb_transmissivity_frequency_scaling():
    m1, m2 = facing_square_pair(1.0, 2)
    omega = 1e14
    t1 = bb_transmissivity(m1, m2, omega)
    t2 = bb_transmissivity(m1, m2, 2 * omega)
    assert t2 == 4.0 * t1
    ref = omega**2 / (2 * math.pi * C**2) * m1.area * view_factor(m1, m2)
    assert t1 == ref


def test_bb_transmissivity_far_separated_coplanar_is_zero():
    mA = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    mB = rectangle_mesh([40, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    assert bb_transmissivity(mA, mB, 1e14) == 0.0


def test_direct_dyadic_route_matches_viewfactor_route():
    m1, m2 = facing_square_pair(1.0, 8)
    omega = 100.0 * C          # omega * gap / c = 100
    via_f = bb_transmissivity(m1, m2, omega, quad_order=4)
    direct = bb_transmissivity_direct(m1, m2, omega, quad_order=7)
    assert direct.far_field_ok
    assert abs(direct.value - via_f) <= 1e-3 * via_f


def test_direct_route_positive_for_facing_patches():
    m1, m2 = facing_square_pair(1.0, 2)
    assert bb_transmissivity_direct(m1, m2, 50.0 * C).value > 0.0


def test_direct_route_order_convergence():
    m1, m2 = facing_square_pair(1.0, 4)
    omega = 100.0 * C
    v4 = bb_transmissivity_direct(m1, m2, omega, quad_order=4).value
    v7 = bb_transmissivity_direct(m1, m2, omega, quad_order=7).value
    assert abs(v4 - v7) <= 1e-4 * abs(v7)


def test_direct_route_far_field_guard():
    m1, m2 = facing_square_pair(1.0, 2)
    assert not bb_transmissivity_direct(m1, m2, 5.0 * C).far_field_ok
    assert bb_transmissivity_direct(m1, m2, 50.0 * C).far_field_ok


def test_bb_heat_rate_product_of_oracles():
    m1, m2 = facing_square_pair(1.0, 8)
    res = bb_heat_rate(m1, m2, 400.0, 300.0)
    oracle = (parallel_rectangle_viewfactor(1, 1, 1)
              * SIGMA * (400.0**4 - 300.0**4))
    assert abs(res.value - oracle) <= 1e-3 * oracle   # view-factor tolerance
    assert abs(res.spectral - res.value) <= 1e-6 * res.value


def test_bb_heat_rate_equal_temperatures():
    m1, m2 = facing_square_pair(1.0, 2)
    res = bb_heat_rate(m1, m2, 330.0, 330.0)
    assert res.value == 0.0 and res.spectral == 0.0


def test_bb_heat_rate_similarity_scaling():
    m1, m2 = facing_square_pair(1.0, 4)
    small = bb_heat_rate(m1, m2, 400.0, 300.0)
    big1 = rectangle_mesh([0, 0, 0], [2, 0, 0], [0, 2, 0], 4, 4)
    big2 = rectangle_mesh([0, 0, 2], [0, 2, 0], [2, 0, 0], 4, 4)
    big = bb_heat_rate(big1, big2, 400.0, 300.0)
    assert abs(big.viewfactor - small.viewfactor) <= 1e-12
    assert abs(big.value - 4.0 * small.value) <= 1e-12 * big.value


def _traced_peak_mb(fn) -> float:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def test_direct_route_peak_memory_is_bounded_by_the_block():
    m1, m2 = facing_square_pair(0.5, 8)
    assert _traced_peak_mb(lambda: bb_transmissivity_direct(m1, m2, 1e15)) <= 32.0


def test_view_factor_peak_memory_is_bounded_by_the_block():
    m1, m2 = facing_square_pair(0.5, 16)
    assert _traced_peak_mb(lambda: view_factor(m1, m2)) <= 32.0


def test_small_blocks_give_the_same_values(monkeypatch):
    # near (contour) and far (Gauss) pairs both occur on this pair
    m1, m2 = facing_square_pair(0.5, 4)
    near = geometry._near_mask(m1, m2)
    assert near.any() and not near.all()
    before = (view_factor(m1, m2), bb_transmissivity_direct(m1, m2, 1e15))
    monkeypatch.setattr(geometry, "_BLOCK", 101)   # every loop straddles many blocks
    assert np.array_equal(geometry._near_mask(m1, m2), near)
    after = (view_factor(m1, m2), bb_transmissivity_direct(m1, m2, 1e15))
    assert abs(after[0] - before[0]) <= 1e-13 * abs(before[0])
    assert abs(after[1].value - before[1].value) <= 1e-13 * abs(before[1].value)
    assert after[1].r_min == before[1].r_min


def test_small_blocks_still_reject_touching_meshes(monkeypatch):
    monkeypatch.setattr(geometry, "_BLOCK", 101)
    m = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 4, 4)
    last = TriMesh(m.vertices, m.triangles[-1:])    # overlaps only in the last block
    for a, b in [(m, m), (m, last), (last, m)]:
        with pytest.raises(ValueError, match="touch or overlap"):
            view_factor(a, b)


@pytest.mark.parametrize("T1, T2", [(math.nan, 300.0), (400.0, math.inf),
                                    (-1.0, 300.0), (400.0, -math.inf)])
def test_bb_heat_rate_rejects_bad_temperatures_up_front(monkeypatch, T1, T2):
    def no_view_factor(*args):
        raise AssertionError("view factor computed before the temperature check")

    monkeypatch.setattr(geometry, "view_factor", no_view_factor)
    m1, m2 = facing_square_pair(1.0, 2)
    with pytest.raises(ValueError, match=re.escape(
            f"T1 and T2 must be finite and >= 0, got {T1!r}, {T2!r}")):
        bb_heat_rate(m1, m2, T1, T2)
