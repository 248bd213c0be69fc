"""Far-field blackbody exchange on triangulated surfaces.

The blackbody limit of the gap formalism reduces to classical radiative
geometry: a view factor between two meshes, the transmissivity
(w^2 / 2 pi c^2) A1 F12 built from it, and the Stefan-Boltzmann heat rate
A1 F12 sigma (T1^4 - T2^4).  An independent route assembles the same
transmissivity from the far-field free-space dyads (projector and curl
forms) patch pair by patch pair, which exercises the dyadic algebra the
closed form short-circuits.

Supported geometries are mutually fully visible convex pairs; occlusion is
not modeled, matching the free-space limit itself.  Triangle-pair
quadrature uses symmetric rules of configurable degree (default 4, six
points per triangle); pairs closer than three triangle diameters sharpen
the 1/R^2 kernel, so view factors switch them to an exact contour integral
over the inner triangle (the dyadic route escalates to the degree-7 rule,
staying within its far-field regime).

Memory stays bounded on any mesh: every pairwise loop (near-pair mask,
Gauss pair sums, contour pair sums, separation check) runs in blocks of
about _BLOCK point pairs, sized in one helper, _blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .materials import CONSTANTS, planck_energy
from .quadrature import IntegrationSpec, adaptive_integrate
from .spectral import _outer_edges, auto_window

__all__ = [
    "TriMesh",
    "MeshError",
    "load_mesh",
    "save_obj",
    "rectangle_mesh",
    "view_factor",
    "bb_transmissivity",
    "bb_transmissivity_direct",
    "DirectResult",
    "bb_heat_rate",
    "HeatRateResult",
    "TRIANGLE_RULES",
]

_C = CONSTANTS.c
_SIGMA = CONSTANTS.sigma_sb

_MIN_AREA = 1e-18          # m^2, degenerate-triangle threshold
_FAR_FIELD_MIN = 10.0      # warn when R_min * omega / c drops below this
_NEAR_FACTOR = 3.0         # centroid distance vs triangle diameter escalation
_BLOCK = 2**15             # point pairs per block of every pairwise loop: one
                           # complex (..., 3, 3) dyad of the direct route < 5 MB

# symmetric triangle rules: degree -> (barycentric points (n,3), weights (n,))
# weights sum to 1; integral ~= area * sum(w f(p))
def _sym3(a: float) -> list[list[float]]:
    b = 1.0 - 2.0 * a
    return [[b, a, a], [a, b, a], [a, a, b]]


def _sym6(a: float, b: float) -> list[list[float]]:
    c = 1.0 - a - b
    return [[a, b, c], [a, c, b], [b, a, c], [b, c, a], [c, a, b], [c, b, a]]


TRIANGLE_RULES: dict[int, tuple[np.ndarray, np.ndarray]] = {
    1: (np.array([[1 / 3, 1 / 3, 1 / 3]]), np.array([1.0])),
    2: (np.array(_sym3(1 / 6)), np.full(3, 1 / 3)),
    4: (
        np.array(_sym3(0.445948490915965) + _sym3(0.091576213509771)),
        np.concatenate([np.full(3, 0.223381589678011), np.full(3, 0.109951743655322)]),
    ),
    7: (
        np.array([[1 / 3, 1 / 3, 1 / 3]]
                 + _sym3(0.260345966079038)
                 + _sym3(0.065130102902216)
                 + _sym6(0.312865496004875, 0.048690315425316)),
        np.concatenate([
            [-0.149570044467670],
            np.full(3, 0.175615257433204),
            np.full(3, 0.053347235608839),
            np.full(6, 0.077113760890257),
        ]),
    ),
}


class MeshError(ValueError):
    """Malformed mesh file or degenerate mesh data."""


@dataclass(frozen=True, eq=False)
class TriMesh:
    """Oriented triangle mesh with per-face outward normals and areas.

    Normals follow the right-hand rule from the vertex winding.
    ignored_lines counts file lines skipped by the loader.
    """

    vertices: np.ndarray    # (nv, 3) m
    triangles: np.ndarray   # (nt, 3) int indices
    ignored_lines: int = 0
    normals: np.ndarray = field(init=False)   # (nt, 3), unit, from winding
    areas: np.ndarray = field(init=False)     # (nt,) m^2

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float).reshape(-1, 3)
        t = np.asarray(self.triangles, dtype=int).reshape(-1, 3)
        if t.size == 0:
            raise MeshError("mesh has no triangles")
        if np.any(t < 0) or np.any(t >= len(v)):
            raise MeshError("triangle index out of range")
        cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
        areas = 0.5 * np.linalg.norm(cross, axis=1)
        if np.any(areas <= _MIN_AREA):
            bad = int(np.argmin(areas))
            raise MeshError(f"degenerate triangle {bad} (area {areas[bad]:.3e} m^2)")
        normals = cross / (2.0 * areas[:, None])
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "triangles", t)
        object.__setattr__(self, "normals", normals)
        object.__setattr__(self, "areas", areas)

    @property
    def area(self) -> float:
        return float(np.sum(self.areas))

    def centroids(self) -> np.ndarray:
        v, t = self.vertices, self.triangles
        return (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3.0

    def diameters(self) -> np.ndarray:
        """Longest edge of each triangle."""
        v, t = self.vertices, self.triangles
        e0 = np.linalg.norm(v[t[:, 1]] - v[t[:, 0]], axis=1)
        e1 = np.linalg.norm(v[t[:, 2]] - v[t[:, 1]], axis=1)
        e2 = np.linalg.norm(v[t[:, 0]] - v[t[:, 2]], axis=1)
        return np.max(np.stack([e0, e1, e2]), axis=0)

    def quad_points(self, degree: int):
        """(points (nt, np, 3), weights (nt, np)) with areas absorbed."""
        bary, w = TRIANGLE_RULES[degree]
        v, t = self.vertices, self.triangles
        corners = v[t]                          # (nt, 3, 3)
        pts = np.einsum("pk,tkx->tpx", bary, corners)
        wts = self.areas[:, None] * w[None, :]
        return pts, wts


def load_mesh(path) -> TriMesh:
    """Read an ASCII OBJ subset: 'v x y z' (meters) and 'f i j k' (1-based).

    All other line types are ignored and counted on the returned mesh.
    Malformed v/f lines, out-of-range indices, and degenerate triangles
    raise MeshError with the offending line number.
    """
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    ignored = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split()
            if not parts:
                ignored += 1
                continue
            tag = parts[0]
            if tag == "v":
                if len(parts) != 4:
                    raise MeshError(f"{path}:{lineno}: malformed vertex line {raw.rstrip()!r}")
                try:
                    vertices.append([float(p) for p in parts[1:]])
                except ValueError as exc:
                    raise MeshError(f"{path}:{lineno}: malformed vertex line: {exc}") from None
            elif tag == "f":
                if len(parts) != 4:
                    raise MeshError(f"{path}:{lineno}: face must have exactly 3 indices")
                try:
                    idx = [int(p) for p in parts[1:]]
                except ValueError as exc:
                    raise MeshError(f"{path}:{lineno}: malformed face line: {exc}") from None
                if any(i < 1 or i > len(vertices) for i in idx):
                    raise MeshError(f"{path}:{lineno}: face index out of range")
                faces.append([i - 1 for i in idx])
            else:
                ignored += 1
    if not faces:
        raise MeshError(f"{path}: no faces found")
    try:
        return TriMesh(np.array(vertices), np.array(faces), ignored_lines=ignored)
    except MeshError as exc:
        raise MeshError(f"{path}: {exc}") from None


def save_obj(mesh: TriMesh, path) -> None:
    """Write a mesh in the OBJ subset that load_mesh reads back."""
    lines = []
    for v in mesh.vertices:
        lines.append(f"v {v[0]:.17g} {v[1]:.17g} {v[2]:.17g}")
    for t in mesh.triangles:
        lines.append(f"f {t[0] + 1} {t[1] + 1} {t[2] + 1}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def rectangle_mesh(origin, edge_u, edge_v, nu: int = 1, nv: int = 1) -> TriMesh:
    """Triangulated parallelogram patch; normal along edge_u x edge_v."""
    origin = np.asarray(origin, dtype=float)
    eu = np.asarray(edge_u, dtype=float)
    ev = np.asarray(edge_v, dtype=float)
    verts = []
    for j in range(nv + 1):
        for i in range(nu + 1):
            verts.append(origin + eu * (i / nu) + ev * (j / nv))
    tris = []
    for j in range(nv):
        for i in range(nu):
            a = j * (nu + 1) + i
            b = a + 1
            c = a + nu + 1
            d = c + 1
            tris.append([a, b, d])
            tris.append([a, d, c])
    return TriMesh(np.array(verts), np.array(tris))


def _blocks(n: int, per_item: int):
    """Slices of range(n), each about _BLOCK entries at per_item entries an item."""
    step = max(1, _BLOCK // per_item)
    return (slice(start, start + step) for start in range(0, n, step))


def _near_mask(m1: TriMesh, m2: TriMesh) -> np.ndarray:
    c1, c2 = m1.centroids(), m2.centroids()
    d1, d2 = m1.diameters(), m2.diameters()
    near = np.empty((len(c1), len(c2)), dtype=bool)
    for s in _blocks(len(c1), len(c2)):
        cdist = np.linalg.norm(c1[s, None, :] - c2[None, :, :], axis=2)
        near[s] = cdist < _NEAR_FACTOR * np.maximum(d1[s, None], d2[None, :])
    return near


def _gauss_pair_sum(m1: TriMesh, m2: TriMesh, pairs, order: int, kernel):
    """Gauss x Gauss double-surface quadrature of kernel over triangle pairs.

    kernel(rvec, r2, n1, n2) maps the (npair, np1, np2, ...) separation data
    to pointwise values.  Returns (total, r_min) over the evaluated points.
    """
    ii, jj = pairs
    total = 0.0
    r_min = math.inf
    p1, w1 = m1.quad_points(order)
    p2, w2 = m2.quad_points(order)
    for s in _blocks(ii.size, p1.shape[1] * p2.shape[1]):
        bi, bj = ii[s], jj[s]
        rvec = p1[bi][:, :, None, :] - p2[bj][:, None, :, :]
        r2 = np.einsum("abcx,abcx->abc", rvec, rvec)
        r_min = min(r_min, float(np.sqrt(r2.min())))
        ww = w1[bi][:, :, None] * w2[bj][:, None, :]
        vals = kernel(rvec, r2, m1.normals[bi], m2.normals[bj])
        total += float(np.sum(ww * vals))
    return total, r_min


def _contour_point_to_triangle(points: np.ndarray, verts: np.ndarray,
                               n1: np.ndarray) -> tuple[np.ndarray, float]:
    """Exact kernel integral from differential elements to triangles.

    Evaluates int over the triangle of (-n1.Rhat)(n2.Rhat)/(pi R^2) dA by the
    boundary-contour form (Stokes): the result is signed by the triangle
    winding exactly like the area kernel, and stays accurate when the
    separation is small against the triangle size, where fixed-order Gauss
    quadrature breaks down.

    points (M, 3), verts (M, 3, 3), n1 (M, 3) -> (values (M,), r_min).
    """
    d = verts - points[:, None, :]                        # (M, 3verts, 3)
    norms = np.linalg.norm(d, axis=2)
    r_min = float(norms.min())
    if r_min <= 0.0:
        return np.zeros(len(points)), 0.0
    u = d / norms[:, :, None]
    total = np.zeros(len(points))
    for k in range(3):
        ua = u[:, k, :]
        ub = u[:, (k + 1) % 3, :]
        cross = np.cross(ua, ub)
        s = np.linalg.norm(cross, axis=1)
        gamma = np.arctan2(s, np.einsum("mx,mx->m", ua, ub))
        safe = np.where(s > 0.0, s, 1.0)
        total += gamma * np.einsum("mx,mx->m", cross / safe[:, None], n1) * (s > 0.0)
    # winding of the contour sum is opposite to the area-kernel sign convention
    return -total / (2.0 * math.pi), r_min


def _contour_pair_sum(m_outer: TriMesh, m_inner: TriMesh, pairs,
                      order: int) -> tuple[float, float]:
    """Outer Gauss points on m_outer, exact contour integral over m_inner."""
    io, ij = pairs
    total = 0.0
    r_min = math.inf
    p_out, w_out = m_outer.quad_points(order)
    npo = p_out.shape[1]
    tri_verts = m_inner.vertices[m_inner.triangles]       # (nt2, 3, 3)
    for s in _blocks(io.size, npo):
        bi, bj = io[s], ij[s]
        pts = p_out[bi].reshape(-1, 3)
        verts = np.repeat(tri_verts[bj], npo, axis=0)
        n1 = np.repeat(m_outer.normals[bi], npo, axis=0)
        vals, rm = _contour_point_to_triangle(pts, verts, n1)
        r_min = min(r_min, rm)
        total += float(np.sum(w_out[bi].ravel() * vals))
    return total, r_min


def _kernel_double_integral(m1: TriMesh, m2: TriMesh, quad_order: int, kernel,
                            contour_near: bool) -> tuple[float, float]:
    """Double-surface integral of kernel over all triangle pairs.

    Far pairs use the symmetric Gauss x Gauss rule of the requested order.
    Near pairs (centroid distance under three triangle diameters) escalate
    to the degree-7 rule; when contour_near is set they instead use the
    exact contour integral on the inner triangle, symmetrized over the two
    orderings so reciprocity survives, which stays accurate down to
    separations far below the triangle size.
    """
    if quad_order not in TRIANGLE_RULES:
        raise ValueError(f"unsupported quad_order {quad_order}; have {sorted(TRIANGLE_RULES)}")
    near = _near_mask(m1, m2)
    high_order = max(quad_order, 7)

    total, r_min = _gauss_pair_sum(m1, m2, np.nonzero(~near), quad_order, kernel)
    near_pairs = np.nonzero(near)
    if contour_near:
        fwd, rm1 = _contour_pair_sum(m1, m2, near_pairs, high_order)
        bwd, rm2 = _contour_pair_sum(m2, m1, (near_pairs[1], near_pairs[0]), high_order)
        total += 0.5 * (fwd + bwd)
        r_min = min(r_min, rm1, rm2)
    else:
        t2, rm = _gauss_pair_sum(m1, m2, near_pairs, high_order, kernel)
        total += t2
        r_min = min(r_min, rm)
    return total, r_min


def _check_separation(m1: TriMesh, m2: TriMesh) -> None:
    """Reject touching or overlapping meshes by sampled pair distance."""
    every_pair = np.indices((len(m1.areas), len(m2.areas))).reshape(2, -1)
    _, d_min = _gauss_pair_sum(m1, m2, every_pair, 2, lambda *_: 0.0)
    scale = math.sqrt((m1.area + m2.area) / 2.0)
    if not (d_min > 1e-12 * scale):
        raise ValueError("meshes touch or overlap (vanishing pair distance)")


def view_factor(m1: TriMesh, m2: TriMesh, quad_order: int = 4) -> float:
    """View factor F12 between two disjoint meshes.

    Fixed-order Gauss quadrature of (-n1.Rhat)(n2.Rhat) / (pi R^2) over every
    triangle pair, with Rhat from the point on mesh 2 toward the point on
    mesh 1.  Reciprocity A1 F12 = A2 F21 holds by symmetry of the kernel.
    """

    def kernel(rvec, r2, n1, n2):
        c1 = np.einsum("abcx,ax->abc", rvec, n1)
        c2 = np.einsum("abcx,ax->abc", rvec, n2)
        return -c1 * c2 / (math.pi * r2 * r2)

    _check_separation(m1, m2)
    total, _ = _kernel_double_integral(m1, m2, quad_order, kernel,
                                       contour_near=True)
    return total / m1.area


def bb_transmissivity(m1: TriMesh, m2: TriMesh, omega: float,
                      quad_order: int = 4) -> float:
    """Blackbody transmissivity (omega^2 / 2 pi c^2) A1 F12, dimensionless."""
    return omega**2 / (2.0 * math.pi * _C**2) * m1.area * view_factor(m1, m2, quad_order)


@dataclass(frozen=True)
class DirectResult:
    value: float
    r_min: float
    far_field_ok: bool        # False flags R_min * omega / c below the guard


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


def bb_transmissivity_direct(m1: TriMesh, m2: TriMesh, omega: float,
                             quad_order: int = 4) -> DirectResult:
    """Blackbody transmissivity assembled from the far-field free-space dyads.

    For each pair of quadrature points the projector dyad
    e^{ikR}/(4 pi R) (I - Rhat Rhat) and its curl form
    ik e^{ikR}/(4 pi R) (Rhat x I) are built explicitly and combined as
    2 Re Tr[(omega/c)^2 (n1 x Ge)(n2 x Gm)* + (n1 x GM)(n2 x GM)*], which
    must reproduce bb_transmissivity.  Valid only at separations large
    against the wavelength; the result flags violations of the guard
    R_min * omega / c >= 10.
    """
    k = omega / _C

    def kernel(rvec, r2, n1, n2):
        r = np.sqrt(r2)
        rhat = rvec / r[..., None]
        phase = np.exp(1j * k * r) / (4.0 * math.pi * r)
        x1 = _cross_matrix(n1)[:, None, None, :, :]
        x2 = _cross_matrix(n2)[:, None, None, :, :]

        def pair_trace(g):
            # Tr[(n1 x G)(n2 x G)*] per point pair; each dyad lives only here
            return np.einsum("abcij,abcjk,abckl,abcli->abc", x1, g, x2, g.conj())

        # backward dyads: Gm(r2,r1) = Ge(r1,r2), the projector being even in
        # Rhat, and GM(r2,r1) = -GM(r1,r2) exactly, the curl being odd
        t1 = pair_trace(phase[..., None, None]
                        * (np.eye(3) - rhat[..., :, None] * rhat[..., None, :]))
        t2 = -pair_trace(1j * k * phase[..., None, None] * _cross_matrix(rhat))
        return 2.0 * (k * k * t1 + t2).real

    _check_separation(m1, m2)
    total, r_min = _kernel_double_integral(m1, m2, quad_order, kernel,
                                           contour_near=False)
    return DirectResult(value=total, r_min=r_min,
                        far_field_ok=bool(r_min * omega / _C >= _FAR_FIELD_MIN))


@dataclass(frozen=True)
class HeatRateResult:
    """Blackbody heat rate by the closed form and by spectral integration."""

    value: float            # closed form, W
    spectral: float         # omega-integrated route, W
    viewfactor: float
    window: tuple[float, float] | None = None


def bb_heat_rate(m1: TriMesh, m2: TriMesh, T1: float, T2: float,
                 quad_order: int = 4,
                 spec: IntegrationSpec = IntegrationSpec()) -> HeatRateResult:
    """Net blackbody exchange A1 F12 sigma (T1^4 - T2^4), W.

    Also integrates the blackbody transmissivity against the thermal Planck
    difference over frequency; the two routes must agree to the quadrature
    tolerance (1e-6 relative at defaults).
    """
    if not all(T >= 0.0 and math.isfinite(T) for T in (T1, T2)):
        raise ValueError(f"T1 and T2 must be finite and >= 0, got {T1!r}, {T2!r}")
    F = view_factor(m1, m2, quad_order)
    a1f = m1.area * F
    closed = a1f * _SIGMA * (T1**4 - T2**4)
    if T1 == T2:
        return HeatRateResult(value=closed, spectral=0.0, viewfactor=F)

    window = spec.window or auto_window(max(T1, T2))
    coeff = a1f / (2.0 * math.pi * _C**2)

    def f(omegas: np.ndarray) -> np.ndarray:
        d_theta = planck_energy(omegas, T1) - planck_energy(omegas, T2)
        return d_theta * coeff * omegas**2 / (2.0 * math.pi)

    res = adaptive_integrate(f, window[0], window[1], spec,
                             initial_edges=_outer_edges(*window))
    return HeatRateResult(value=closed, spectral=res.value, viewfactor=F,
                          window=window)
