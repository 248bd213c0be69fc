"""Triangulated blackbody geometry: meshes, view factors, dyadic route."""

import dataclasses
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest

from gaprad import geometry, quadrature
from gaprad import (CONSTANTS, IntegrationSpec, MeshError, TriMesh, bb_heat_rate,
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
    # near (degree 7) and far pairs of the dyadic route both occur on this pair
    m1, m2 = facing_square_pair(0.5, 4)
    all_pairs = _all_pairs_near(m1, m2)
    assert 0 < all_pairs[0].size < 32 * 32
    before = (view_factor(m1, m2), bb_transmissivity_direct(m1, m2, 1e15))
    monkeypatch.setattr(geometry, "_BLOCK", 101)   # every loop straddles many blocks
    near = geometry._near_pairs(m1, m2, 4)
    assert all(np.array_equal(a, b) for a, b in zip(near, all_pairs, strict=True))
    after = (view_factor(m1, m2), bb_transmissivity_direct(m1, m2, 1e15))
    assert abs(after[0] - before[0]) <= 1e-13 * abs(before[0])
    assert abs(after[1].value - before[1].value) <= 1e-13 * abs(before[1].value)
    assert after[1].r_min == before[1].r_min


def test_pair_index_arrays_are_blocked_too(monkeypatch):
    # 512 x 512 triangle pairs: one all-pairs (i, j) index array is 4.2 MB
    m1, m2 = facing_square_pair(0.5, 16)
    all_pairs_mb = 2 * 512**2 * 8 / 1e6
    default = view_factor(m1, m2)
    monkeypatch.setattr(geometry, "_BLOCK", 4096)
    assert _traced_peak_mb(lambda: geometry._near_pairs(m1, m2, 4)) < all_pairs_mb
    blocked = []
    assert _traced_peak_mb(lambda: blocked.append(view_factor(m1, m2))) < all_pairs_mb
    assert abs(blocked[0] - default) <= 1e-13 * default


@pytest.mark.parametrize("m2", [
    rectangle_mesh([0, 0, 0.5], [0, 1, 0], [1, 0, 0], 32, 32),    # coaxial
    rectangle_mesh([0, 0, 0], [0, 1, 0], [0, 0, 1], 32, 32),      # perpendicular
], ids=["coaxial", "perpendicular"])
def test_view_factor_builds_no_all_pairs_array(m2):
    # 2048 x 2048 triangle pairs: an all-pairs boolean mask alone is 4.2 MB
    m1 = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 32, 32)
    assert _traced_peak_mb(lambda: view_factor(m1, m2, quad_order=1)) < 6.0


def _fan_disc(z: float, n: int, flip: bool = False) -> TriMesh:
    """Unit disc in the plane z as n triangles about its centre."""
    a = 2.0 * math.pi * np.arange(n) / n
    verts = np.vstack([[0.0, 0.0, z], np.stack([np.cos(a), np.sin(a), np.full(n, z)], 1)])
    i = np.arange(n)
    tris = np.stack([np.zeros(n, dtype=int), 1 + i, 1 + (i + 1) % n], 1)
    return TriMesh(verts, tris[:, ::-1] if flip else tris)


def test_view_factor_scans_only_at_the_touch_distance():
    # every pair of these fan triangles (diameter 1) is near: a scan at the
    # near reach gathered all 512^2 of them, a traced peak of 9.6 MB; the
    # boundary sum's run coupling, formed as two 512 x 512 float arrays,
    # peaked at 4.3 MB, and is now formed per block of runs
    n = 512
    m1, m2 = _fan_disc(0.0, n), _fan_disc(1.0, n, flip=True)
    assert geometry._near_pairs(m1, m2, 4)[0].size == n * n
    assert geometry._near_pairs(m1, m2, None)[0].size == 0
    assert _traced_peak_mb(lambda: view_factor(m1, m2)) <= n * n * 8 / 1e6


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


@pytest.mark.parametrize("omega", [math.nan, -1e15, 0.0, math.inf])
def test_blackbody_transmissivities_reject_bad_omega(omega):
    m1, m2 = facing_square_pair(1.0, 2)
    for route in (bb_transmissivity, bb_transmissivity_direct):
        with pytest.raises(ValueError, match="omega must be positive and finite, got"):
            route(m1, m2, omega)


@pytest.mark.parametrize("T1, T2, name", [(1e78, 300.0, "T1"), (400.0, 2e77, "T2")])
def test_bb_heat_rate_refuses_an_overflowing_fourth_power_up_front(monkeypatch, T1, T2, name):
    def no_view_factor(*args):
        raise AssertionError("view factor computed before the temperature check")

    m1, m2 = facing_square_pair(1.0, 2)
    assert math.isfinite(bb_heat_rate(m1, m2, 1e77, 300.0).value)
    monkeypatch.setattr(geometry, "view_factor", no_view_factor)
    with pytest.raises(ValueError, match=re.escape(
            f"{name} = {max(T1, T2)!r} K is too large: T^4 overflows")):
        bb_heat_rate(m1, m2, T1, T2)


def test_blackbody_routes_agree_where_omega_squared_overflows():
    # omega^2 overflows above about 1.3e154; (omega/c)^2 only above 4e162
    m1, m2 = facing_square_pair(1.0, 4)
    via_f = bb_transmissivity(m1, m2, 1e155, quad_order=7)
    direct = bb_transmissivity_direct(m1, m2, 1e155, quad_order=7)
    assert abs(via_f - 1e280 * bb_transmissivity(m1, m2, 1e15)) <= 1e-14 * via_f
    assert abs(direct.value - via_f) <= 1e-6 * via_f


@pytest.mark.parametrize("omega", [5e162, 1e300])
def test_blackbody_transmissivities_refuse_an_overflowing_wavenumber(omega):
    m1, m2 = facing_square_pair(1.0, 2)
    for route in (bb_transmissivity, bb_transmissivity_direct):
        with pytest.raises(ValueError, match=re.escape(
                f"(omega/c)^2 overflows at omega={omega!r} rad/s")):
            route(m1, m2, omega)


@pytest.mark.parametrize("nu, nv", [(0, 1), (1, 0), (-2, 3)])
def test_rectangle_mesh_needs_one_cell_each_way(nu, nv):
    with pytest.raises(ValueError, match=f"nu={nu}, nv={nv}"):
        rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], nu, nv)


def test_unsupported_order_is_rejected_before_the_separation_scan(monkeypatch):
    def scan(*args):
        raise AssertionError("separation scanned before the order check")
    # the near scan starts from the centroids and diameters of both meshes
    monkeypatch.setattr(TriMesh, "centroids", scan)
    monkeypatch.setattr(TriMesh, "diameters", scan)
    m1, m2 = facing_square_pair(1.0, 2)
    for route in (lambda: view_factor(m1, m2, quad_order=3),
                  lambda: bb_transmissivity_direct(m1, m2, 1e15, quad_order=3)):
        with pytest.raises(ValueError, match="unsupported quad_order"):
            route()


def _crossing_triangles():
    """An equilateral triangle and a copy turned 60 degrees in its plane and
    tilted 40 degrees about x: the two cross through their shared centroid."""
    def turn(axis, degrees):
        c, s = math.cos(math.radians(degrees)), math.sin(math.radians(degrees))
        i, j = [k for k in range(3) if k != axis]
        out = np.eye(3)
        out[i, i], out[i, j], out[j, i], out[j, j] = c, -s, s, c
        return out

    tri = np.array([[math.cos(a), math.sin(a), 0.0] for a in np.radians([90, 210, 330])])
    crossing = tri @ turn(2, 60).T @ turn(0, 40).T
    return TriMesh(tri, np.array([[0, 1, 2]])), TriMesh(crossing, np.array([[0, 1, 2]]))


def test_triangles_crossing_at_their_centroids_are_refused():
    # a degree-2 sample of near pairs let these through: a view factor of
    # -0.447 and a dyadic value of -7.7e40 at r_min 2.7e-16
    m1, m2 = _crossing_triangles()
    for a, b in [(m1, m2), (m2, m1)]:
        for route in (lambda: view_factor(a, b),
                      lambda: bb_transmissivity_direct(a, b, 1e15)):
            with pytest.raises(ValueError, match="touch or overlap"):
                route()


TILTED = (rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 4, 4),
          rectangle_mesh([0.2, -0.1, 0.6], [0, 1, 0.2], [0.9, 0, 0.4], 4, 4))


# values of the complex-dyad evaluation, before the phase that cancels in
# every trace was dropped: near and far pairs, every order, a tilted normal
@pytest.mark.parametrize("meshes, order, value, r_min", [
    (facing_square_pair(0.5, 8), 4, 735346071690.9404, 0.5),
    (TILTED, 1, 366653349716.6286, 0.6190096308173106),
    (TILTED, 2, 366917428794.452, 0.6190096308173106),
    (TILTED, 4, 366915460761.398, 0.6190096308173106),
    (TILTED, 7, 366915463388.6306, 0.6190096308173106),
])
def test_direct_route_keeps_its_values(meshes, order, value, r_min):
    res = bb_transmissivity_direct(*meshes, 1e15, quad_order=order)
    assert abs(res.value - value) <= 1e-14 * value
    assert res.r_min == r_min


def test_separation_is_sampled_on_near_pairs_only(monkeypatch):
    # 16 x 16 coaxial squares 0.5 m apart: every pair is far
    near_calls, far_blocks, quad_points = [], [], []
    near_pairs, pair_sum = geometry._near_pairs, geometry._pair_sum
    tri_quad_points = TriMesh.quad_points

    def counted_near(m1, m2, quad_order):
        near_calls.append(None)
        return near_pairs(m1, m2, quad_order)

    def counted_sum(m1, m2, near, order, kernel):
        def counted_kernel(rvec, r2, n1, n2):
            far_blocks.append((r2.shape, int(np.isfinite(r2).sum())))
            return kernel(rvec, r2, n1, n2)
        return pair_sum(m1, m2, near, order, counted_kernel)

    def counted_points(mesh, degree):
        quad_points.append(degree)
        return tri_quad_points(mesh, degree)

    monkeypatch.setattr(geometry, "_near_pairs", counted_near)
    monkeypatch.setattr(geometry, "_pair_sum", counted_sum)
    monkeypatch.setattr(TriMesh, "quad_points", counted_points)
    m1, m2 = facing_square_pair(0.5, 16)
    assert near_pairs(m1, m2, 4)[0].size == 0
    # one scan a call; the view factor evaluates no quadrature point
    view_factor(m1, m2)
    assert len(near_calls) == 1 and quad_points == [] and far_blocks == []
    near_calls.clear()
    bb_transmissivity_direct(m1, m2, 1e15, quad_order=1)
    assert len(near_calls) == 1
    # the dyadic route's far blocks at one point a triangle: 512 rows in
    # all, each block against all 512 columns, and no entry dropped as near;
    # with no near pair, every kernel call is a far block
    shapes, finite = zip(*far_blocks)
    assert all(len(shape) == 2 and shape[1] == 512 for shape in shapes)
    assert sum(shape[0] for shape in shapes) == 512
    assert sum(finite) == 512 * 512


def test_non_finite_vertices_are_refused_by_name(tmp_path):
    # a NaN vertex once built a mesh of area nan, which view_factor then
    # blamed on touching meshes
    tri = np.array([[0, 1, 2]])
    with pytest.raises(MeshError, match=r"non-finite vertex 2: \[0\.0, nan, 0\.0\]"):
        TriMesh(np.array([[0, 0, 0], [1, 0, 0], [0, np.nan, 0]]), tri)
    path = tmp_path / "inf.obj"
    path.write_text("v 0 0 0\nv inf 1 0\nv 1 0 0\nf 1 2 3\n")
    with pytest.raises(MeshError, match=re.escape("inf.obj:2: non-finite vertex 'v inf 1 0'")):
        load_mesh(path)


@pytest.mark.parametrize("span", [1e308, 1e153])
def test_overflowing_triangles_are_refused_by_name(span):
    # finite vertices whose edge vectors (1e308) or area (1e153) overflow
    # once built a mesh of area nan or inf after RuntimeWarnings, and
    # view_factor then blamed touching meshes
    vertices = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                         [-span, 0.0, 0.0], [span, 0.0, 0.0], [0.0, span, 0.0]])
    with pytest.raises(MeshError, match="triangle 1 has a non-finite area and normal: its "
                                        r"vertices \[\[-1e\+"):
        TriMesh(vertices, np.array([[0, 1, 2], [3, 4, 5]]))


def _perpendicular_viewfactor(h: float, w: float, edge: float) -> float:
    """Catalog formula from a w x edge rectangle to an h x edge rectangle at
    right angles to it along their common edge."""
    H, W = h / edge, w / edge
    a = (1 + W * W) * (1 + H * H) / (1 + W * W + H * H)
    b = W * W * (1 + W * W + H * H) / ((1 + W * W) * (W * W + H * H))
    c = H * H * (1 + H * H + W * W) / ((1 + H * H) * (H * H + W * W))
    r = math.sqrt(H * H + W * W)
    return (W * math.atan(1 / W) + H * math.atan(1 / H) - r * math.atan(1 / r)
            + 0.25 * (math.log(a) + W * W * math.log(b) + H * H * math.log(c))) / (math.pi * W)


def _perpendicular_pair(n: int, offset=(0.0, 0.0, 0.0)):
    """Unit squares in z = 0 (normal +z) and x = 0 (normal +x) sharing an edge."""
    o = np.asarray(offset, dtype=float)
    return (rectangle_mesh(o, [1, 0, 0], [0, 1, 0], n, n),
            rectangle_mesh(o, [0, 1, 0], [0, 0, 1], n, n))


def _view_factor_and_error(m1: TriMesh, m2: TriMesh):
    """view_factor(m1, m2) and the summed error estimate of the one boundary
    integral it takes."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(quadrature.adaptive_integrate(*args, **kwargs))
        return calls[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "adaptive_integrate", spy)
        value = view_factor(m1, m2)
    (res,) = calls
    return value, float(np.sum(res.error))


_GAPS = {"10mm": 1e-2, "1mm": 1e-3, "10um": 1e-5}


@pytest.mark.parametrize("meshes, oracle", [
    (facing_square_pair(0.5, 16), parallel_rectangle_viewfactor(1.0, 1.0, 0.5)),
    (_perpendicular_pair(16), _perpendicular_viewfactor(1.0, 1.0, 1.0)),
    *((facing_square_pair(gap, n), parallel_rectangle_viewfactor(1.0, 1.0, gap))
      for gap in _GAPS.values() for n in (4, 64)),
    *((_perpendicular_pair(n), _perpendicular_viewfactor(1.0, 1.0, 1.0)) for n in (4, 64)),
], ids=["coaxial", "perpendicular", *(f"coaxial-{g}-{n}" for g in _GAPS for n in (4, 64)),
        "perpendicular-4", "perpendicular-64"])
def test_view_factor_matches_the_catalog_in_both_orderings(meshes, oracle):
    # the boundary integral's own error estimate bounds each miss too
    m1, m2 = meshes
    (f12, err12), (f21, err21) = _view_factor_and_error(m1, m2), _view_factor_and_error(m2, m1)
    assert abs(f12 - oracle) <= min(1e-13 * oracle, err12)
    assert abs(f21 - oracle) <= min(1e-13 * oracle, err21)
    assert abs(m1.area * f12 - m2.area * f21) <= 1e-14 * m1.area * f12


def _renumbered(mesh: TriMesh, rng) -> TriMesh:
    """The same mesh with its vertices numbered in a random order."""
    perm = rng.permutation(len(mesh.vertices))
    return TriMesh(mesh.vertices[perm], np.argsort(perm)[mesh.triangles])


def test_boundary_runs_do_not_depend_on_the_vertex_numbering(rng):
    # renumbering flips the stored order of some boundary edges along a side
    square = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 3, 3)
    other = rectangle_mesh([0.2, 0.1, 0.7], [0, 1, 0], [1, 0, 0], 2, 2)
    runs = geometry._boundary_edges(square)
    assert len(runs[0]) == 4
    for _ in range(5):
        renumbered = _renumbered(square, rng)
        assert all(np.array_equal(a, b) for a, b in
                   zip(geometry._boundary_edges(renumbered), runs, strict=True))
        assert view_factor(renumbered, other) == view_factor(square, other)
        assert view_factor(other, renumbered) == view_factor(other, square)


def test_a_bowtie_exchanges_what_its_halves_do():
    # two squares welded at one corner vertex, which has two boundary edges
    # in and two out and must end the runs through it
    a = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    b = rectangle_mesh([1, 1, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    assert np.array_equal(a.vertices[8], b.vertices[0])
    b_to_bowtie = np.concatenate([[8], len(a.vertices) + np.arange(len(b.vertices) - 1)])
    bowtie = TriMesh(np.vstack([a.vertices, b.vertices[1:]]),
                     np.vstack([a.triangles, b_to_bowtie[b.triangles]]))
    assert len(geometry._boundary_edges(bowtie)[0]) == 8
    other = rectangle_mesh([0, 0, 0.8], [0, 2, 0], [2, 0, 0], 3, 3)
    whole = bowtie.area * view_factor(bowtie, other)
    halves = a.area * view_factor(a, other) + b.area * view_factor(b, other)
    assert abs(whole - halves) <= 1e-14 * halves


def test_an_unconverged_boundary_integral_is_refused(monkeypatch):
    monkeypatch.setattr(geometry, "_BOUNDARY_SPEC",
                        dataclasses.replace(geometry._BOUNDARY_SPEC, max_subdivisions=0))
    with pytest.raises(ValueError, match="boundary integral did not converge"):
        view_factor(*facing_square_pair(1e-5, 4))


def test_view_factor_ignores_the_order_it_validates():
    m1, m2 = facing_square_pair(1.0, 2)
    assert len({view_factor(m1, m2, order) for order in TRIANGLE_RULES}) == 1


def test_view_factor_is_translation_invariant():
    # the near-pair split once let rounding decide exact ties here (2.3e-9)
    here = view_factor(*_perpendicular_pair(8))
    there = view_factor(*_perpendicular_pair(8, (100.0, -100.0, 100.0)))
    assert abs(there - here) <= 1e-13 * here


def test_view_factor_of_a_closed_mesh_is_zero(tmp_path):
    path = tmp_path / "sphere.obj"
    path.write_text(icosphere_obj(radius=0.5, subdivisions=1), encoding="utf-8")
    sphere = load_mesh(path)
    other = TriMesh(sphere.vertices + [3.0, 0.5, -1.0], sphere.triangles)
    square = rectangle_mesh([2, 0, 0], [0, 1, 0], [0, 0, 1], 2, 2)
    assert view_factor(sphere, other) == 0.0
    assert view_factor(sphere, square) == 0.0
    assert view_factor(square, sphere) == 0.0


def test_view_factor_keeps_the_signed_sum_under_mixed_winding():
    # the order-7 triangle-pair sum, before view factors became contour sums
    m1, m2 = facing_square_pair(1.0, 4)
    flipped = m1.triangles.copy()
    flipped[5] = flipped[5, ::-1]
    mixed = TriMesh(m1.vertices, flipped)
    value = 0.1868312344980898
    assert abs(view_factor(mixed, m2) - value) <= 1e-8 * value
    assert abs(mixed.area * view_factor(mixed, m2) - m2.area * view_factor(m2, mixed)) <= 1e-14


def test_near_split_settles_ties_wherever_the_meshes_sit():
    here, there = _perpendicular_pair(8), _perpendicular_pair(8, (100.0, -100.0, 100.0))
    near_here, near_there = geometry._near_pairs(*here, 4), geometry._near_pairs(*there, 4)
    assert near_here[0].size == 2074
    assert all(np.array_equal(a, b) for a, b in zip(near_here, near_there, strict=True))
    d_here = bb_transmissivity_direct(*here, 1e15).value
    d_there = bb_transmissivity_direct(*there, 1e15).value
    assert abs(d_there - d_here) <= 1e-12 * d_here


def _cross_matrix(n: np.ndarray) -> np.ndarray:
    """[n]_x so that cross_matrix(n) @ G applies n x to the first dyad index."""
    out = np.zeros(n.shape[:-1] + (3, 3))
    x, y, z = n[..., 0], n[..., 1], n[..., 2]
    out[..., 0, 1] = -z
    out[..., 0, 2] = y
    out[..., 1, 0] = z
    out[..., 1, 2] = -x
    out[..., 2, 0] = -y
    out[..., 2, 1] = x
    return out


def test_dyad_traces_are_the_closed_forms_the_direct_route_takes(rng):
    # the route takes Tr[X1 P X2 P] and Tr[X1 C X2 C] from n1.cof(M) n2
    n1, n2, rhat = (v / np.linalg.norm(v, axis=1, keepdims=True)
                    for v in rng.normal(size=(3, 1000, 3)))
    x1, x2 = _cross_matrix(n1), _cross_matrix(n2)
    assert np.max(np.abs((x1 @ rhat[..., None])[..., 0] - np.cross(n1, rhat))) <= 1e-15
    projector = np.eye(3) - rhat[:, :, None] * rhat[:, None, :]
    cos = np.einsum("px,px->p", n1, rhat) * np.einsum("px,px->p", n2, rhat)

    def pair_trace(g):
        return np.einsum("pij,pji->p", x1 @ g, x2 @ g)

    assert np.max(np.abs(pair_trace(projector) + 2 * cos)) <= 1e-14
    assert np.max(np.abs(pair_trace(_cross_matrix(rhat)) - 2 * cos)) <= 1e-14


@pytest.mark.parametrize("gap", [3.0, 30.0])
def test_direct_route_takes_no_overflowing_factor_below_the_wavenumber_limit(gap):
    # (omega/c)^2 is finite at 4e162; k^2 times the trace once overflowed
    # at 3 m, and k^2 (n1.R)(n2.R) would at 30 m
    m1, m2 = facing_square_pair(gap, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        via_f = bb_transmissivity(m1, m2, 4e162)
        direct = bb_transmissivity_direct(m1, m2, 4e162)
    assert abs(direct.value - via_f) <= 1e-6 * via_f


def _all_pairs_near(m1, m2):
    """The near lists by comparing every centroid pair, sorted by (i, j)."""
    cdist = np.linalg.norm(m1.centroids()[:, None] - m2.centroids()[None], axis=2)
    return np.nonzero(cdist < geometry._NEAR_FACTOR
                      * np.maximum(m1.diameters()[:, None], m2.diameters()[None]))


def _one_big_triangle():
    """A 16 x 16 unit square and, below it, one triangle 50 diameters wide."""
    grid = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 16, 16)
    big = np.array([[0, 0, -0.3], [50 / 16, 0, -0.3], [0, 50 / 16, -0.3]])
    tris = np.vstack([grid.triangles, np.arange(3) + len(grid.vertices)])
    return (TriMesh(np.vstack([grid.vertices, big]), tris),
            rectangle_mesh([0, 0, 0.6], [0, 1, 0], [1, 0, 0], 12, 12))


def _sphere(radius: float) -> TriMesh:
    """The 320-triangle icosphere of conftest, read from its OBJ text."""
    rows = [line.split() for line in icosphere_obj(radius, 2).splitlines()]
    return TriMesh(np.array([row[1:] for row in rows if row[0] == "v"], dtype=float),
                   np.array([row[1:] for row in rows if row[0] == "f"], dtype=int) - 1)


NEAR_CASES = {
    "coaxial8": facing_square_pair(0.5, 8),
    "coaxial16": facing_square_pair(0.2, 16),
    "perpendicular8": _perpendicular_pair(8),
    "perpendicular16": _perpendicular_pair(16),
    "tilted": TILTED,
    "t_junction": (rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 16, 16),
                   rectangle_mesh([0.5, 0, 0], [0, 1, 0], [0, 0, 1], 8, 8)),
    "one_big_triangle": _one_big_triangle(),
    # near pairs cross cell faces every way in both orders
    "nested_spheres": (_sphere(0.5), _sphere(0.6)),
}


@pytest.mark.parametrize("block", [geometry._BLOCK, 101], ids=["default_block", "small_block"])
@pytest.mark.parametrize("name", NEAR_CASES)
def test_grid_scan_finds_the_all_pairs_near_lists(monkeypatch, name, block):
    m1, m2 = NEAR_CASES[name]
    monkeypatch.setattr(geometry, "_BLOCK", block)
    for a, b in [(m1, m2), (m2, m1)]:
        near, reference = geometry._near_pairs(a, b, 4), _all_pairs_near(a, b)
        assert reference[0].size > 0
        assert all(np.array_equal(x, y) for x, y in zip(near, reference, strict=True))


def test_direct_route_is_the_dyad_closed_form_on_far_single_triangles(rng):
    # one point a triangle: the value is the kernel at the centroids,
    # k^2 (Tr[X1 P X2 P] - Tr[X1 C X2 C]) / (8 pi^2 R^2) with the trace
    # difference -4 (n1.Rhat)(n2.Rhat)
    omega = 1e15
    k = omega / C
    worst = 0.0
    for _ in range(200):
        c2 = rng.normal(size=3)
        c2 *= rng.uniform(8.0, 20.0) / np.linalg.norm(c2)
        m1 = TriMesh(rng.uniform(-0.5, 0.5, (3, 3)), np.array([[0, 1, 2]]))
        m2 = TriMesh(c2 + rng.uniform(-0.5, 0.5, (3, 3)), np.array([[0, 1, 2]]))
        rvec = m1.centroids()[0] - m2.centroids()[0]
        r2 = rvec @ rvec
        rhat = rvec / math.sqrt(r2)
        scale = m1.area * m2.area * k * k / (2 * math.pi**2 * r2)
        expected = -scale * (m1.normals[0] @ rhat) * (m2.normals[0] @ rhat)
        value = bb_transmissivity_direct(m1, m2, omega, quad_order=1).value
        worst = max(worst, abs(value - expected) / scale)
    assert worst <= 1e-14


_TRIANGLE = "v 0 0 0\nv 1 0 0\nv 0 1 0\n"


def _obj(tmp_path, text):
    path = tmp_path / "m.obj"
    path.write_text(text, encoding="utf-8")
    return load_mesh(path)


@pytest.mark.parametrize("make, message", [
    (lambda tmp: TriMesh(np.zeros((3, 3)), np.zeros((0, 3), int)), "mesh has no triangles"),
    (lambda tmp: TriMesh(np.eye(3), np.array([[0, 1, 3]])), "triangle index out of range"),
    (lambda tmp: TriMesh(np.eye(3), np.array([[0, -1, 2]])), "triangle index out of range"),
    (lambda tmp: _obj(tmp, "v 0 0 x\nv 1 0 0\nv 0 1 0\nf 1 2 3\n"),
     "{path}:1: malformed vertex line: could not convert string to float: 'x'"),
    (lambda tmp: _obj(tmp, _TRIANGLE + "f 1 2 c\n"),
     "{path}:4: malformed face line: invalid literal for int() with base 10: 'c'"),
    (lambda tmp: _obj(tmp, _TRIANGLE + "f 1 2 3.0\n"),
     "{path}:4: malformed face line: invalid literal for int() with base 10: '3.0'"),
    (lambda tmp: _obj(tmp, _TRIANGLE + "f 0 1 2\n"), "{path}:4: face index out of range"),
], ids=["no-triangles", "index-high", "index-negative", "vertex-number", "face-number",
        "face-float", "face-index-zero"])
def test_mesh_refusals_name_their_cause(tmp_path, make, message):
    with pytest.raises(MeshError, match=f"^{re.escape(message.format(path=tmp_path / 'm.obj'))}$"):
        make(tmp_path)


@pytest.mark.parametrize("spec", [IntegrationSpec(rtol=1e-15, max_subdivisions=0),
                                  IntegrationSpec(rtol=1e-12, max_subdivisions=2)],
                         ids=["no-budget", "two-bisections"])
def test_bb_heat_rate_refuses_an_unconverged_frequency_integral(spec):
    # its closed form is exact, but the spectral route did not meet rtol:
    # it once came back as if it had
    with pytest.raises(ValueError, match=r"^the blackbody heat rate's frequency integral "
                                         r"did not converge \(error \d\.\d{3}e-0\d on 198\.28"):
        bb_heat_rate(*facing_square_pair(1.0, n=2), 400.0, 300.0, spec=spec)
