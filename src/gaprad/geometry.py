"""Far-field blackbody exchange on triangulated surfaces.

The blackbody limit of the gap formalism reduces to classical radiative
geometry: a view factor between two meshes, the transmissivity
(w^2 / 2 pi c^2) A1 F12 built from it, and the Stefan-Boltzmann heat rate
A1 F12 sigma (T1^4 - T2^4).  An independent route assembles the same
transmissivity patch pair by patch pair from real far-field dyads (the
projector and curl forms, whose phase e^{ikR} cancels in every trace, each
trace +-2 (n1.Rhat)(n2.Rhat) in closed form), a check on the view factor.

Supported geometries are mutually fully visible pairs; occlusion is not
modeled, matching the free-space limit itself.  Both routes first scan the
triangle centroids on a cell grid: two centroids within 1e-12 sqrt(mean
mesh area) refuse the meshes as touching (a sampled proxy for a shared
point), and for the dyadic route pairs closer than three triangle
diameters are near; the view factor, which needs no near pair, scans
cells only as wide as the touching distance.  By
Stokes' theorem on both surfaces, a view factor is then a double contour
integral of ln r over the mesh boundaries' runs of collinear edges.

The dyadic route uses symmetric triangle rules of configurable degree
(default 4, six points per triangle) and the degree-7 rule on near pairs,
staying within its far-field regime.  One pair sum takes the far pairs as
dense point blocks (a block of mesh-1 triangles' points against every
mesh-2 point, near entries dropped), then the gathered near pairs; no
array over all triangle pairs is built, and every pairwise loop runs in
blocks of about _BLOCK entries, sized in one helper, _blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .materials import CONSTANTS, _check_temperatures, _positive_omega, planck_energy
from .quadrature import _NODES, IntegrationSpec, adaptive_integrate
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
_NEAR_FACTOR = 3.0 * (1 + 1e-9)   # centroid distance vs triangle diameter
                                  # escalation; the margin settles exact ties
                                  # of regular meshes wherever they sit
_BLOCK = 2**15             # point pairs per block of every pairwise loop

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
        if not np.isfinite(v).all():
            bad = int(np.argmin(np.isfinite(v).all(axis=1)))
            raise MeshError(f"non-finite vertex {bad}: {v[bad].tolist()}")
        # finite vertices far apart can still overflow the edge vectors or
        # the area; a finite area above _MIN_AREA makes the normal finite
        with np.errstate(over="ignore", invalid="ignore"):
            cross = np.cross(v[t[:, 1]] - v[t[:, 0]], v[t[:, 2]] - v[t[:, 0]])
            areas = 0.5 * np.linalg.norm(cross, axis=1)
        if not np.isfinite(areas).all():
            bad = int(np.argmin(np.isfinite(areas)))
            raise MeshError(f"triangle {bad} has a non-finite area and normal: its "
                            f"vertices {v[t[bad]].tolist()} overflow them")
        if np.any(areas <= _MIN_AREA):
            bad = int(np.argmin(areas))
            raise MeshError(f"degenerate triangle {bad} (area {areas[bad]:.3e} m^2)")
        for name, value in zip(("vertices", "triangles", "normals", "areas"),
                               (v, t, cross / (2.0 * areas[:, None]), areas)):
            object.__setattr__(self, name, value)

    @property
    def area(self) -> float:
        return float(np.sum(self.areas))

    def centroids(self) -> np.ndarray:
        v, t = self.vertices, self.triangles
        return (v[t[:, 0]] + v[t[:, 1]] + v[t[:, 2]]) / 3.0

    def diameters(self) -> np.ndarray:
        """Longest edge of each triangle."""
        v, t = self.vertices, self.triangles
        return np.linalg.norm(v[np.roll(t, -1, axis=1)] - v[t], axis=2).max(axis=1)

    def quad_points(self, degree: int):
        """(points (nt, np, 3), weights (nt, np)) with areas absorbed."""
        bary, w = TRIANGLE_RULES[degree]
        corners = self.vertices[self.triangles]     # (nt, 3, 3)
        return np.einsum("pk,tkx->tpx", bary, corners), self.areas[:, None] * w[None, :]


def load_mesh(path) -> TriMesh:
    """Read an ASCII OBJ subset: 'v x y z' (meters) and 'f i j k' (1-based).

    All other line types are ignored and counted on the returned mesh.
    Malformed v/f lines, non-finite vertices, out-of-range indices, and
    degenerate triangles raise MeshError with the offending line number.
    """
    vertices: list[list[float]] = []
    faces: list[list[int]] = []
    ignored = 0
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.split() or [""]   # blank lines are ignored with the rest
            if parts[0] == "v":
                if len(parts) != 4:
                    raise MeshError(f"{path}:{lineno}: malformed vertex line {raw.rstrip()!r}")
                try:
                    vertices.append([float(p) for p in parts[1:]])
                except ValueError as exc:
                    raise MeshError(f"{path}:{lineno}: malformed vertex line: {exc}") from None
                if not all(map(math.isfinite, vertices[-1])):
                    raise MeshError(f"{path}:{lineno}: non-finite vertex {raw.rstrip()!r}")
            elif parts[0] == "f":
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
    lines = [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices]
    lines += [f"f {a + 1} {b + 1} {c + 1}" for a, b, c in mesh.triangles]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def rectangle_mesh(origin, edge_u, edge_v, nu: int = 1, nv: int = 1) -> TriMesh:
    """Triangulated parallelogram patch; normal along edge_u x edge_v."""
    if nu < 1 or nv < 1:
        raise ValueError(f"rectangle_mesh needs nu >= 1 and nv >= 1, got nu={nu!r}, nv={nv!r}")
    origin = np.asarray(origin, dtype=float)
    eu = np.asarray(edge_u, dtype=float)
    ev = np.asarray(edge_v, dtype=float)
    # vertex (i, j) at origin + eu i/nu + ev j/nv, numbered row by row in j
    u, w = np.meshgrid(np.arange(nu + 1) / nu, np.arange(nv + 1) / nv)
    verts = origin + eu * u.reshape(-1, 1) + ev * w.reshape(-1, 1)
    # cell corners a (i, j), b (i+1, j), c (i, j+1), d (i+1, j+1) give the
    # triangles abd and adc
    a = (np.arange(nv)[:, None] * (nu + 1) + np.arange(nu)).ravel()
    tris = np.stack([a, a + 1, a + nu + 2, a, a + nu + 2, a + nu + 1], axis=1)
    return TriMesh(verts, tris.reshape(-1, 3))


def _blocks(n: int, per_item: int):
    """Slices of range(n), each about _BLOCK entries at per_item entries an item."""
    step = max(1, _BLOCK // per_item)
    return (slice(start, start + step) for start in range(0, n, step))


def _check_order(quad_order: int) -> None:
    if quad_order not in TRIANGLE_RULES:
        raise ValueError(f"unsupported quad_order {quad_order}; have {sorted(TRIANGLE_RULES)}")


def _near_pairs(m1: TriMesh, m2: TriMesh, quad_order: int | None) -> tuple[np.ndarray, np.ndarray]:
    """(i, j) index arrays, sorted by (i, j), of the triangle pairs whose
    centroid distance is under _NEAR_FACTOR larger diameters.  Checks
    quad_order first; refuses the meshes as touching (a proxy for a shared
    point) when two centroids lie within 1e-12 sqrt(mean mesh area).  Both
    tests see only m2 centroids in the 27 grid cells around an m1 centroid.
    quad_order=None, for a caller with no triangle rule, scans at the touch
    distance alone and finds no near pair."""
    if quad_order is not None:
        _check_order(quad_order)
    near_factor = 0.0 if quad_order is None else _NEAR_FACTOR
    c1, c2 = m1.centroids(), m2.centroids()
    d1, d2 = m1.diameters(), m2.diameters()
    touch = 1e-12 * math.sqrt((m1.area + m2.area) / 2.0)
    q = np.concatenate([c1, c2])
    q -= q.min(axis=0)
    # cells a hair wider than either reach and at most 2^20 a side, so that
    # rounding never puts a pair within reach two cells apart and a key packs
    # three 21-bit cell indices; overflowing coordinates put every centroid
    # in one cell, an all-pairs scan
    q /= (1 + 1e-9) * np.max([near_factor * max(d1.max(), d2.max()), touch, q.max() / 2**20])
    q = q if np.isfinite(q).all() else np.zeros_like(q)
    weights = np.array([2**42, 2**21, 1])
    key1, key2 = np.split((np.floor(q).astype(np.int64) + 1) @ weights, [len(c1)])
    order = np.argsort(key2)
    cells = key1[:, None] + (np.indices((3, 3, 3)).reshape(3, -1).T - 1) @ weights
    start = np.searchsorted(key2[order], cells)
    count = np.searchsorted(key2[order], cells, "right") - start
    found = []
    for s in _blocks(len(c1), max(1, int(count.sum(axis=1).max()))):
        n = count[s].ravel()
        i = np.repeat(np.arange(len(c1))[s], count[s].sum(axis=1))
        j = order[np.repeat(start[s].ravel() + n - np.cumsum(n), n) + np.arange(n.sum())]
        cdist = np.linalg.norm(c1[i] - c2[j], axis=1)
        if not np.all(cdist > touch):
            raise ValueError("meshes touch or overlap (vanishing pair distance)")
        near = cdist < near_factor * np.maximum(d1[i], d2[j])
        found.append(i[near] * len(c2) + j[near])
    return np.divmod(np.sort(np.concatenate(found)), len(c2))


def _pair_sum(m1: TriMesh, m2: TriMesh, near, order: int, kernel):
    """(total, r_min) of the Gauss x Gauss quadrature of kernel(rvec, r2, n1,
    n2), pointwise values from rvec = p1 - p2, r2 and normals broadcast to
    them, over every triangle pair.  Far pairs take the order rule in dense
    point blocks, a block of m1 triangles' points against every m2 point,
    whose near entries get r2 = inf (dropped from sum and r_min); the near
    pairs (ii, jj) are gathered at degree 7."""
    ii, jj = near
    p1, w1 = m1.quad_points(order)
    p2, w2 = m2.quad_points(order)
    k1, k2 = p1.shape[1], p2.shape[1]
    x1, n1 = p1.reshape(-1, 3), np.repeat(m1.normals, k1, axis=0)
    x2, n2 = p2.reshape(-1, 3), np.repeat(m2.normals, k2, axis=0)
    far, close, r2_min = 0.0, 0.0, math.inf
    for s in _blocks(len(p1), k1 * len(x2)):
        rows = slice(s.start * k1, s.stop * k1)
        rvec = x1[rows, None, :] - x2[None, :, :]
        r2 = rvec[..., 0] * rvec[..., 0]
        r2 += rvec[..., 1] * rvec[..., 1]
        r2 += rvec[..., 2] * rvec[..., 2]
        lo, hi = np.searchsorted(ii, (s.start, s.stop))
        r2.reshape(-1, k1, len(m2.areas), k2)[ii[lo:hi] - s.start, :, jj[lo:hi]] = np.inf
        r2_min = min(r2_min, float(r2.min()))
        vals = kernel(rvec, r2, n1[rows, None], n2[None])
        far += float(w1[s].ravel() @ vals @ w2.ravel())
    p1, w1 = m1.quad_points(7)
    p2, w2 = m2.quad_points(7)
    for s in _blocks(ii.size, p1.shape[1] * p2.shape[1]):
        bi, bj = ii[s], jj[s]
        rvec = p1[bi][:, :, None, :] - p2[bj][:, None, :, :]
        r2 = np.einsum("abcx,abcx->abc", rvec, rvec)
        r2_min = min(r2_min, float(r2.min()))
        ww = w1[bi][:, :, None] * w2[bj][:, None, :]
        vals = kernel(rvec, r2, m1.normals[bi][:, None, None], m2.normals[bj][:, None, None])
        close += float(np.sum(ww * vals))
    return far + close, math.sqrt(r2_min)


def _boundary_edges(mesh: TriMesh):
    """(starts, vectors, multiplicities) of the boundary runs, sorted so that
    vertex numbering does not change them.  A directed edge that more faces
    run along than against is on the boundary, the excess its multiplicity
    (an interior edge cancels; mixed winding keeps the signed count), and a
    run chains parallel ones through vertices with one boundary edge in and
    one out."""
    t, v = mesh.triangles, mesh.vertices
    a, b = t.ravel(), np.roll(t, -1, axis=1).ravel()
    # net count of each directed edge: a face counts +1 along, -1 against
    keys, inv = np.unique(np.concatenate([a * len(v) + b, b * len(v) + a]), return_inverse=True)
    net = np.bincount(inv.ravel(), np.repeat([1.0, -1.0], len(a)), len(keys))
    src, dst = np.divmod(keys[net > 0], len(v))
    unit = (v[dst] - v[src]) / np.linalg.norm(v[dst] - v[src], axis=1)[:, None]
    # boundary edges form cycles, so an end on two of them has one edge in
    # and one out, of equal multiplicity; nxt[e] is an edge out of e's end
    nxt = np.argsort(src)[np.searchsorted(np.sort(src), dst)]
    joins = ((np.bincount(np.concatenate([src, dst]), minlength=len(v))[dst] == 2)
             & (np.linalg.norm(unit[nxt] - unit, axis=1) <= 1e-12))
    last = heads = np.flatnonzero(np.bincount(nxt[joins], minlength=len(src)) == 0)
    while joins[last].any():
        last = np.where(joins[last], nxt[last], last)
    starts, vectors = v[src[heads]], v[dst[last]] - v[src[heads]]
    order = np.lexsort(np.hstack([starts, vectors]).T[::-1])
    return starts[order], vectors[order], net[net > 0][heads][order]


# the run integrals of the boundary sum cancel to F12, so each takes as its
# absolute floor its share of 1e-15: A1 F12 to about 1e-15 A1
_BOUNDARY_SPEC = IntegrationSpec(rtol=1e-13)


def view_factor(m1: TriMesh, m2: TriMesh, quad_order: int = 4) -> float:
    """View factor F12 between two disjoint meshes.

    The signed kernel (-n1.Rhat)(n2.Rhat) / (pi R^2), with Rhat from the
    point on mesh 2 toward the point on mesh 1, is integrated by Stokes'
    theorem on both surfaces: A1 F12 = (1/2 pi) oint oint ln r dr1.dr2 over
    the mesh boundaries, where interior edges cancel (Sparrow, J. Heat
    Transfer 85, 81, 1963); collinear boundary edges merge into runs.  The
    inner run integral is in closed form, the outer one the package's
    adaptive integral, one per run of mesh 1, to 1e-13 relative or 1e-15
    absolute; reciprocity A1 F12 = A2 F21 holds to that tolerance, and an
    unconverged integral raises ValueError.  quad_order is validated but
    does not change the value (it sets the dyadic route's rule).  Both
    meshes in one plane give exactly 0, and so does a closed mesh.
    """
    _check_order(quad_order)
    _near_pairs(m1, m2, None)   # only the touch test
    rel = np.concatenate([m.vertices[m.triangles].reshape(-1, 3) for m in (m1, m2)])
    rel -= rel[0]
    # squared extent of both meshes, the unit of ln r: any unit cancels over
    # closed boundaries, and this one keeps far pairs' logarithms near 0
    ell2 = np.max(np.einsum("px,px->p", rel, rel))
    a, da, ma = _boundary_edges(m1)
    b, db, mb = _boundary_edges(m2)
    if np.all(np.abs(rel @ m1.normals[0]) <= 1e-12 * math.sqrt(ell2)) or not (len(a) and len(b)):
        return 0.0
    lb = np.linalg.norm(db, axis=1)
    eb = db / lb[:, None]

    def g(u, h):   # antiderivative of ln(sqrt(u^2 + h^2) / ell) in u
        r2 = np.maximum(u * u + h * h, np.finfo(float).tiny)
        return 0.5 * u * np.log(r2 / ell2) - u + h * np.arctan2(u, h)

    def f(tau, row):
        # s = 3 tau^2 - 2 tau^3 grades the nodes toward the run's ends, where
        # a shared edge or corner puts the log singularity
        s = (3.0 - 2.0 * tau) * tau * tau
        out = np.zeros(len(tau))
        # f gets whole panels, one run of mesh 1 each
        panel = row[::_NODES]
        m_row, d_row = ma[panel, None], da[panel]
        for j in _blocks(len(b), 3 * len(tau)):
            # outer point minus inner run start, (node, run 2, xyz): about
            # _BLOCK entries, which bounds every temporary of the block
            d = (a[row, None] - b[None, j]) + s[:, None, None] * da[row, None]
            s0 = np.einsum("qjx,jx->qj", d, eb[j])                  # along run 2
            h = np.linalg.norm(d - s0[..., None] * eb[j], axis=2)   # off its line
            # m1 m2 L1 e1.e2 per panel and run 2, formed per block: a runs1 x
            # runs2 array of them would outgrow the block
            coupling = (m_row * mb[j]) * (d_row @ eb[j].T) / (2.0 * math.pi * m1.area)
            out += np.einsum("pnj,pj->pn", (g(lb[j] - s0, h) - g(-s0, h))
                             .reshape(len(panel), _NODES, -1), coupling).ravel()
        return out * 6.0 * tau * (1.0 - tau)

    res = adaptive_integrate(f, 0.0, 1.0, _BOUNDARY_SPEC, abs_floor=1e-15 / len(a),
                             batch=len(a))
    if not res.converged:
        raise ValueError(f"the view factor's boundary integral did not converge "
                         f"(error {np.sum(res.error):.3e} on {np.sum(res.value):.17g})")
    return float(np.sum(res.value))


def _k2(omega: float) -> float:
    """(omega/c)^2, or ValueError naming an omega where it overflows."""
    w = float(_positive_omega(omega))
    k2 = (w / _C) * (w / _C)
    if not math.isfinite(k2):
        raise ValueError(f"(omega/c)^2 overflows at omega={w!r} rad/s")
    return k2


def bb_transmissivity(m1: TriMesh, m2: TriMesh, omega: float,
                      quad_order: int = 4) -> float:
    """Blackbody transmissivity (omega^2 / 2 pi c^2) A1 F12, dimensionless."""
    return _k2(omega) / (2.0 * math.pi) * m1.area * view_factor(m1, m2, quad_order)


@dataclass(frozen=True)
class DirectResult:
    value: float
    r_min: float
    far_field_ok: bool        # False flags R_min * omega / c below the guard


def bb_transmissivity_direct(m1: TriMesh, m2: TriMesh, omega: float,
                             quad_order: int = 4) -> DirectResult:
    """Blackbody transmissivity assembled from the far-field free-space dyads.

    For each pair of quadrature points the projector dyad
    e^{ikR}/(4 pi R) (I - Rhat Rhat) and its curl form
    ik e^{ikR}/(4 pi R) (Rhat x I) enter
    2 Re Tr[(omega/c)^2 (n1 x Ge)(n2 x Gm)* + (n1 x GM)(n2 x GM)*], which
    must reproduce bb_transmissivity.  The phase cancels against its own
    conjugate, so with the real P = I - Rhat Rhat, C = [Rhat]x and X = [n]x
    the kernel is k^2 (Tr[X1 P X2 P] - Tr[X1 C X2 C]) / (8 pi^2 R^2).  For
    symmetric M, Tr[X1 M X2 M] = -2 n1.cof(M) n2, and the sign flips for
    antisymmetric M; cof(P) = cof(C) = Rhat Rhat, so the kernel is
    -k^2 (n1.R)(n2.R) / (2 pi^2 R^4), taken as ((n1.R)/R^2)((n2.R)/R^2)
    times -k^2/(2 pi^2), an order in which no factor overflows first.
    Valid at separations large against the wavelength only; the result
    flags violations of R_min * omega / c >= 10.
    """
    scale = -_k2(omega) / (2.0 * math.pi**2)

    def kernel(rvec, r2, n1, n2):
        a1, a2 = (np.einsum("...x,...x->...", rvec, n) / r2 for n in (n1, n2))
        return a1 * a2 * scale

    value, r_min = _pair_sum(m1, m2, _near_pairs(m1, m2, quad_order), quad_order, kernel)
    return DirectResult(value=value, r_min=r_min,
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
    _check_temperatures("T1 and T2 must be finite and >= 0", T1=T1, T2=T2)
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

    res = adaptive_integrate(f, *window, spec, initial_edges=_outer_edges(*window))
    if not res.converged:
        raise ValueError(f"the blackbody heat rate's frequency integral did not converge "
                         f"(error {res.error:.3e} on {res.value:.17g})")
    return HeatRateResult(value=closed, spectral=res.value, viewfactor=F,
                          window=window)
