"""Generalized transmissivities of a planar vacuum gap.

The energy transmissivity is the Landauer-like channel sum whose
Bose-weighted frequency integral gives the net radiative exchange between
the two half spaces; the momentum transmissivity plays the same role for
the thermal (non-equilibrium) photon pressure of one body's sources.  Both
are integrals over the in-plane wavevector, split into propagating
(krho < w/c) and evanescent (krho > w/c) branches and into s/p channels.
Equal bodies share one stack reflection per point (R1 = R2), and each
integrand call evaluates only the factors of the branch its points lie on.

Both branches are integrated in the gap's |kz| (krho dkrho = -kz dkz), and
each point passes the exact vacuum kz^2 to the reflections: the
propagating one in v = kz / k0 on one seed panel [0, 1], where the kernel
is analytic at both ends, the evanescent one in t = |kz| gap, which pins
the tunneling exponential to unit scale at every gap width, cut off at
t = 20 (2t = 40, tail below 5e-18) and seeded with 12 panels, [0, 2e-3]
and 11 logarithmically spaced ones.  Each integral's noise floor is 1e-13 of
its branch's Landauer ceiling, and each integral must bring the sum of its
panel errors within its tolerance (see quadrature).  The integrable kink at
krho = w/c is handled by ending/starting the branches exactly there; panel
nodes are interior so the point itself is never evaluated.

Each frequency adds seed edges at the light line of every non-black medium
of both bodies, the branch point b of its kz = sqrt(eps mu k0^2 - krho^2):
b = gap k0 sqrt(eps mu - 1) in t (Re eps mu > 1) or b = sqrt(1 - eps mu)
in v (Re eps mu < 1).  A lossy medium's b lies delta = |Im b| off the real
axis.  Where rtol can see that offset, (delta / c)^(3/2) >= rtol with
c = Re b (the relative size of the integral of |sqrt(x + i delta) - sqrt(x)|
over the line's scale), the edges are graded toward it: c and c +- delta 4^k
within c/2 and inside the branch, a geometric mesh that resolves the point
in one pass (Schwab, p- and hp-Finite Element Methods, 1998).  Elsewhere
the line is one edge at c, where the reflections have a kink.  The two
bodies' edges form one set, so a body swap keeps the panels.

Where k0 gap >= 1, the propagating branch also gets graded seeds at its
Fabry-Perot poles.  The kernels share the denominator
|1 - a e^{2i k0 gap v}|^2, a = R1 R2 (Polder and Van Hove, PRB 4, 3303,
1971), which for |a| < 1 has a pole per fringe n at
v = (2 pi n - arg a) / (2 k0 gap), delta = ln(1/|a|) / (2 k0 gap) off the
real axis; fringes lie pi / (k0 gap) apart, and a good reflector's are
narrow.  Each frequency finds the poles n = 0 .. floor(k0 gap / pi) + 1 of
both polarizations by 3 fixed-point steps of that formula, one reflection
each over the group, and grades each pole that has settled (the next
estimate within delta/2), lies above v = 1e-6 and is narrower than 1/8 of
the spacing: v and v +- delta 3^k within half a spacing.  A frequency's
poles depend on its own reflections only, so batch rows keep their seeds;
a frequency whose finder meets a degenerate or non-finite reflection takes
none, as do rows above k0 gap = pi max_subdivisions, which bounds the
finder's arrays.

Each grading constant names the measurement it rests on; the measurements
are in README, Numerical notes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import CONSTANTS, _check_temperatures, _positive_omega
from .planar import (DegenerateInterfaceError, LayerStack, Polarization, _media_chain,
                     _product, stack_reflection)
from .quadrature import _NODES, IntegrationSpec, adaptive_integrate

__all__ = [
    "GapSystem",
    "ChannelBreakdown",
    "energy_integrand",
    "momentum_integrand",
    "energy_transmissivity_pp",
    "momentum_transmissivity_pp",
    "EVANESCENT_CUTOFF",
]

_C = CONSTANTS.c

# t = |kz| * gap beyond which the tunneling factor e^{-2t} < 5e-18
EVANESCENT_CUTOFF = 20.0

_DEFAULT_SPEC = IntegrationSpec()


@dataclass(frozen=True)
class GapSystem:
    """Two layer stacks facing a vacuum gap, with body temperatures."""

    body1: LayerStack
    body2: LayerStack
    gap: float     # m
    T1: float = 0.0
    T2: float = 0.0

    def __post_init__(self) -> None:
        if not (self.gap > 0.0 and math.isfinite(self.gap)):
            raise ValueError(f"gap must be positive, got {self.gap!r}")
        if not math.isfinite(EVANESCENT_CUTOFF / self.gap * EVANESCENT_CUTOFF / self.gap):
            raise ValueError(f"gap {self.gap!r} m is too small: "
                             "(EVANESCENT_CUTOFF/gap)^2 overflows")
        _check_temperatures("T1 and T2 must be finite and >= 0", T1=self.T1, T2=self.T2)

    def swapped(self) -> "GapSystem":
        """The same gap seen from the other side (bodies and temperatures)."""
        return GapSystem(self.body2, self.body1, self.gap, self.T2, self.T1)


@dataclass(frozen=True)
class ChannelBreakdown:
    """Per-(polarization, branch) pieces of a transmissivity at one frequency."""

    prop_s: float
    prop_p: float
    evan_s: float
    evan_p: float
    error: float = 0.0
    converged: bool = True
    warnings: tuple[str, ...] = ()
    neval: int = 0      # integrand points of both branches

    @property
    def total(self) -> float:
        return self.prop_s + self.prop_p + self.evan_s + self.evan_p

    @property
    def propagating(self) -> float:
        return self.prop_s + self.prop_p

    @property
    def evanescent(self) -> float:
        return self.evan_s + self.evan_p


def _on_branch(prop, on_prop, on_evan):
    """on_prop() if every point propagates, on_evan() if none does, else the
    per-point choice; an array even for one point, so that it rounds as arrays do."""
    if prop.any() and not prop.all():
        return np.where(prop, on_prop(), on_evan())
    return np.asarray(on_prop() if prop.all() else on_evan())


def _branch_pieces(r1, r2, krho, omega, gap, khz=None):
    """(propagating?, kz or |kz|, tunneling/phase factor, |1 - R1 R2 x|^2).

    khz optionally overrides the vacuum z-wavevector magnitude (real on the
    propagating branch, decay constant on the evanescent one); the
    wavevector quadrature supplies it exactly, as v k0 or t / gap.
    """
    k0 = omega / _C
    krho = np.asarray(krho, dtype=float)
    prop = krho < k0
    if khz is None:
        khz = np.sqrt(np.abs((k0 - krho) * (k0 + krho)))
    else:
        khz = np.asarray(khz, dtype=float)
    x = _on_branch(prop, lambda: np.exp(2j * khz * gap), lambda: np.exp(-2.0 * khz * gap))
    den = np.abs(1.0 - _product(np.asarray(r1), np.asarray(r2)) * x) ** 2
    return prop, khz, x, den


def energy_integrand(r1, r2, krho, omega: float, gap: float,
                     pol: Polarization | None = None, khz=None):
    """Per-channel photon transmission probability at one (krho, omega).

    r1, r2 are the stack reflection coefficients of the two bodies for one
    polarization channel, or for both stacked on a leading axis as
    stack_reflection(pol=None) returns them (pol is carried for reporting
    only).  The propagating form is
        (1-|R1|^2)(1-|R2|^2) / |1 - R1 R2 e^{2i kz l}|^2
    and the evanescent form
        4 Im(R1) Im(R2) e^{-2|kz|l} / |1 - R1 R2 e^{-2|kz|l}|^2,
    each bounded by [0, 1] for passive media.  The branch follows from
    krho vs omega/c; krho = omega/c itself is not a valid input.
    """
    prop, _, x, den = _branch_pieces(r1, r2, krho, omega, gap, khz)
    r1, r2 = np.asarray(r1), np.asarray(r2)
    out = _on_branch(prop, lambda: (1.0 - np.abs(r1) ** 2) * (1.0 - np.abs(r2) ** 2),
                     lambda: 4.0 * (r1.imag * r2.imag) * x.real) / den
    return out if np.ndim(out) else float(out)


def momentum_integrand(r1, r2, krho, omega: float, gap: float,
                       pol: Polarization | None = None, khz=None):
    """Per-channel z-momentum flux kernel at one (krho, omega), s/m.

    Propagating: -(kz/w) (1-|R1|^2)(1+|R2|^2) / |1 - R1 R2 e^{2i kz l}|^2
    (negative for passive bodies: momentum flows toward body 2).
    Evanescent: +(|kz|/w) 4 Im(R1) Re(R2) e^{-2|kz|l} / |...|^2.
    """
    prop, khz, x, den = _branch_pieces(r1, r2, krho, omega, gap, khz)
    r1, r2 = np.asarray(r1), np.asarray(r2)
    num = _on_branch(prop, lambda: -(1.0 - np.abs(r1) ** 2) * (1.0 + np.abs(r2) ** 2),
                     lambda: 4.0 * r1.imag * r2.real * x.real)
    out = (khz / omega) * num / den
    return out if np.ndim(out) else float(out)


# fraction of the Landauer-ceiling channel value below which a channel is
# numerically indistinguishable from zero: the integrand numerators are
# built from cancellations like 1 - |R|^2 whose absolute rounding scale is
# ~1e-16, so integrals this small are pure noise and must not be refined
NOISE_FRACTION = 1e-13


# frequencies per batch of wavevector integrals, which bounds the panels in
# flight (64 log frequencies in 1e13-1e15 rad/s seed 1 611 for SiC at 50 nm,
# 11 840 for gold at 30 um); a test holds a 64-row SiC group's traced peak
_OMEGA_GROUP = 64

# blind seed panels of both branches (see the module docstring); every integral
# must still meet its tolerance, so the seeds only set where refinement starts
_PROP_SEEDS = [0.0, 1.0]
_EVAN_SEEDS = [0.0, *np.geomspace(1e-4 * EVANESCENT_CUTOFF, EVANESCENT_CUTOFF, 12).tolist()]
# graded edges c +- delta 4^k about c + i delta where delta / c >= rtol^(2/3)
_GRADE_RATIO = 4.0          # fewest points on the spectrum benchmark's grids
_GRADE_GATE = 2.0 / 3.0     # the same grids and the SiC pressure's miss
# smallest evanescent light line kept: the Kronrod nodes of [0, t] stay normal floats
_T_LINE_MIN = 1e3 * np.finfo(float).tiny
# Fabry-Perot poles: finder steps, grading ratio, widest pole graded (a fraction of
# the spacing), smallest v = kz / k0 of a pole or a propagating edge, off grazing
_FRINGE_STEPS = 3           # a ladder of 24 gold/gold frequencies at rtol 1e-7
_FRINGE_RATIO = 3.0         # gold/gold heat flux at 3 um and rtol 1e-6
_FRINGE_GATE = 1.0 / 8.0    # with the settle rule, a grid of four pairs at 1-10 um
_V_MIN = 1e-6               # a 30 um gold grid, whose grazing poles made the kernel 0/0


def _breakdown(system: GapSystem, omegas, spec: IntegrationSpec, momentum: bool = False):
    """One (s, p) wavevector integral per branch and frequency, batched over
    the frequencies: a list of breakdowns for an array, one for a scalar.
    The kernel, energy_integrand or momentum_integrand, is read at call time."""
    integrand = momentum_integrand if momentum else energy_integrand
    w = _positive_omega(omegas).reshape(-1)
    # a subnormal (omega/c)^2 has lost digits, and the kz^2 built from it can
    # vanish, which no wavevector integral resolves
    underflow = (w / _C) ** 2 < np.finfo(float).tiny
    if underflow.any():
        raise ValueError(f"(omega/c)^2 underflows at omega={float(w[underflow][0])!r} rad/s")
    # Landauer ceilings of the two branches: the integral over each of the
    # unit channel, times for the momentum kernel its bound 2|kz|/w, taken at
    # kz = k0 on the propagating branch and integrated on the evanescent one;
    # NOISE_FRACTION of a ceiling is its integral's noise floor
    k0, gap, t_max = w / _C, system.gap, EVANESCENT_CUTOFF
    with np.errstate(over="ignore"):
        ceil_prop = k0 * k0 / (4.0 * math.pi)
        ceil_evan = np.full_like(w, t_max * t_max / (4.0 * math.pi * gap * gap))
        if momentum:
            ceil_prop *= 2.0 * k0 / w
            ceil_evan *= 4.0 * t_max / (3.0 * w * gap)
    overflow = ~(np.isfinite(ceil_prop) & np.isfinite(ceil_evan))
    if overflow.any():
        raise ValueError(f"branch ceiling is not finite at gap={gap!r} m, "
                         f"omega={float(w[overflow][0])!r} rad/s")
    floor_prop, floor_evan = NOISE_FRACTION * ceil_prop, NOISE_FRACTION * ceil_evan
    out = [bd for i in range(0, len(w), _OMEGA_GROUP)
           for bd in _group(system, w[i:i + _OMEGA_GROUP], integrand, spec,
                            floor_prop[i:i + _OMEGA_GROUP], floor_evan[i:i + _OMEGA_GROUP])]
    return out if np.ndim(omegas) else out[0]


def _graded(c, d, half, ratio):
    """Seed edges graded toward the points c + i d (equal-length arrays), as
    (index into c, edge) arrays: each c, and c +- d ratio^k for as long as
    d ratio^k < half."""
    idx = np.arange(len(c))
    out_idx, out_edges = [idx], [c]
    while len(idx):
        more = d < half
        idx, c, d, half = idx[more], c[more], d[more], half[more]
        out_idx += [idx, idx]
        out_edges += [c - d, c + d]
        d = d * ratio
    return np.concatenate(out_idx), np.concatenate(out_edges)


def _line_edges(row, b, rtol):
    """(row, edge) seed edges toward complex points b: each at c = Re b, or,
    where rtol can see how far b lies off the real axis, graded toward b
    within c/2.  It serves both integrals: the light lines' branch points in
    v or t, and the media's complex resonances in omega (spectral)."""
    c, d = b.real, np.abs(b.imag)
    graded = (d > 0.0) & (d >= c * rtol ** _GRADE_GATE)
    i, edges = _graded(c[graded], d[graded], 0.5 * c[graded], _GRADE_RATIO)
    return np.concatenate([row[~graded], row[graded][i]]), np.concatenate([c[~graded], edges])


def _round_trip(bodies, omega, krho):
    """R1 R2 at each point, column 0 for s and 1 for p polarization; the
    points of a frequency whose reflection is degenerate get NaN."""
    def product(w, k):
        r = [stack_reflection(body, None, w, k) for body in bodies]
        a = _product(r[0], r[-1])
        return np.stack([a[0, :, 0], a[1, :, 1]], axis=1)
    try:
        return product(omega, krho)
    except DegenerateInterfaceError:
        a = np.full(krho.shape, np.nan, dtype=complex)
        for w in set(omega[:, 0].tolist()):
            at = omega[:, 0] == w
            try:
                a[at] = product(omega[at], krho[at])
            except DegenerateInterfaceError:
                pass
        return a


def _fringe_edges(bodies, omegas: np.ndarray, gap: float, max_subdivisions: int):
    """(row, v) seed edges graded toward the Fabry-Perot poles of each row's
    propagating branch, rows with 1 <= k0 gap <= pi max_subdivisions only:
    fringe n of either polarization sits at v = kz / k0 =
    (2 pi n - arg a) / (2 k0 gap), a = R1 R2, and |a| < 1 puts it
    ln(1/|a|) / (2 k0 gap) off the real axis (see the module docstring)."""
    with np.errstate(over="ignore"):
        kl = omegas / _C * gap
    rows = np.flatnonzero((kl >= 1.0) & (kl <= math.pi * max_subdivisions))
    if not len(rows):
        return np.empty(0, dtype=int), np.empty(0)
    # fringes n = 0 .. floor(k0 gap / pi) + 1 of each row, flat
    counts = (kl[rows] // math.pi).astype(int) + 2
    row = np.repeat(rows, counts)
    n = np.arange(len(row)) - np.repeat(np.cumsum(counts) - counts, counts)
    omega, two_kl = omegas[row, None], 2.0 * kl[row, None]
    phase = 2.0 * math.pi * n[:, None]
    v = np.broadcast_to(np.minimum((phase + math.pi) / two_kl, 1.0 - _V_MIN), (len(row), 2))
    finite = np.ones(len(omegas), dtype=bool)
    with np.errstate(all="ignore"):
        # the steps, then the reflection at the last estimate, which gives
        # the pole's width and the next estimate
        for _ in range(_FRINGE_STEPS + 1):
            v_n = np.clip(v, _V_MIN, 1.0 - _V_MIN)
            a = _round_trip(bodies, omega, np.sqrt((1.0 - v_n) * (1.0 + v_n)) * (omega / _C))
            finite[row[~np.isfinite(a).all(axis=1)]] = False
            v = (phase - np.angle(a)) / two_kl
        delta = -np.log(np.abs(a)) / two_kl
    spacing = np.broadcast_to(2.0 * math.pi / two_kl, v.shape)
    # settled poles narrower than the gate, each graded within half a spacing
    keep = ((v_n > _V_MIN) & (delta > 0.0) & (delta < _FRINGE_GATE * spacing)
            & (np.abs(v - v_n) <= 0.5 * delta) & finite[row, None])
    i, edges = _graded(v_n[keep], delta[keep], 0.5 * spacing[keep], _FRINGE_RATIO)
    return np.broadcast_to(row[:, None], v.shape)[keep][i], edges


def _merged(seeds, n_rows: int, parts, lo: float, hi: float) -> list[np.ndarray]:
    """Per row, the sorted set of the blind seeds and the edges of every
    (row, edge) part that lie strictly between lo and hi."""
    rows, edges = [np.repeat(np.arange(n_rows), len(seeds))], [np.tile(seeds, n_rows)]
    for row, edge in parts:
        inside = (lo < edge) & (edge < hi)
        rows.append(row[inside])
        edges.append(edge[inside])
    row, edge = np.concatenate(rows), np.concatenate(edges)
    order = np.lexsort((edge, row))
    row, edge = row[order], edge[order]
    new = np.ones(len(edge), dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (edge[1:] != edge[:-1])
    row, edge = row[new], edge[new]
    return np.split(edge, np.searchsorted(row, np.arange(1, n_rows)))


def _seed_edges(bodies, omegas: np.ndarray, gap: float, spec: IntegrationSpec):
    """Per frequency, the sorted seed edges of both branches: the blind seeds,
    every non-black medium's light line (_line_edges) and the Fabry-Perot
    poles (_fringe_edges), above v = _V_MIN and t = _T_LINE_MIN."""
    k0, rows = omegas / _C, np.arange(len(omegas))
    prop, evan = [_fringe_edges(bodies, omegas, gap, spec.max_subdivisions)], []
    for body in bodies:
        for eps, mu, _ in _media_chain(body, omegas)[1:]:
            z = np.broadcast_to(eps * mu, omegas.shape)
            on = z.real > 1.0
            # gap * k0 stays finite where gap * omega would overflow
            evan.append(_line_edges(rows[on], gap * k0[on] * np.sqrt(z[on] - 1.0), spec.rtol))
            on = z.real < 1.0
            prop.append(_line_edges(rows[on], np.sqrt(1.0 - z[on]), spec.rtol))
    return (_merged(_PROP_SEEDS, len(omegas), prop, _V_MIN, 1.0),
            _merged(_EVAN_SEEDS, len(omegas), evan, _T_LINE_MIN, EVANESCENT_CUTOFF))


def _group(system: GapSystem, omegas: np.ndarray, integrand, spec: IntegrationSpec,
           floor_prop: np.ndarray, floor_evan: np.ndarray) -> list[ChannelBreakdown]:
    k0 = omegas / _C
    gap = system.gap
    bodies = (system.body1,) if system.body1 == system.body2 else (system.body1, system.body2)

    def in_kz(scale, prop: bool):
        # |kz| = x scale in the gap, v = kz / k0 (scale k0) or t = |kz| gap
        # (scale 1/gap): krho dkrho = -kz dkz gives the measure x scale^2 / 2pi,
        # the exact kz^2 = +-(x scale)^2 and |kz| reach the reflections (s and
        # p of each distinct body at once) and kernel; krho only names the branch
        def f(x, row):
            x, row = x.reshape(-1, _NODES), row[::_NODES, None]   # whole panels, one omega each
            w, k0r, s = omegas[row], k0[row], scale[row]
            khz = x * s
            krho = (np.minimum(k0r * np.sqrt((1.0 - x) * (1.0 + x)), np.nextafter(k0r, 0.0))
                    if prop else np.hypot(k0r, khz))
            r = [stack_reflection(body, None, w, krho, khz * khz if prop else -khz * khz)
                 for body in bodies]
            return ((khz * s / (2.0 * math.pi))
                    * integrand(r[0], r[-1], krho, w, gap, khz=khz)).reshape(2, -1).T
        return f

    prop_edges, evan_edges = _seed_edges(bodies, omegas, gap, spec)
    res_prop = adaptive_integrate(in_kz(k0, True), 0.0, 1.0, spec, prop_edges, floor_prop,
                                  batch=len(omegas))
    res_evan = adaptive_integrate(in_kz(np.full_like(k0, 1.0 / gap), False), 0.0,
                                  EVANESCENT_CUTOFF, spec, evan_edges, floor_evan,
                                  batch=len(omegas))

    out = []
    for omega, k0_row, prop, evan in zip(omegas.tolist(), k0.tolist(),
                                         res_prop.rows, res_evan.rows):
        # the propagating branch reports its worst subinterval in krho
        worst_prop = prop.worst_interval and tuple(
            k0_row * math.sqrt((1.0 - v) * (1.0 + v)) for v in prop.worst_interval[::-1])
        warnings = tuple(
            f"{branch} quadrature not converged at omega={omega:.6e}; "
            f"worst subinterval {worst}"
            for branch, res, worst in (("propagating", prop, worst_prop),
                                       ("evanescent", evan, evan.worst_interval))
            if not res.converged)
        out.append(ChannelBreakdown(*prop.value.tolist(), *evan.value.tolist(),
                                    error=float(prop.error.sum() + evan.error.sum()),
                                    converged=not warnings, warnings=warnings,
                                    neval=prop.neval + evan.neval))
    return out


def energy_transmissivity_pp(system: GapSystem, omega,
                             spec: IntegrationSpec = _DEFAULT_SPEC):
    """Energy transmissivity of the gap at omega, split by channel (1/m^2).

    Both branches keep the krho dkrho / 2pi measure inside, so the
    Bose-weighted integral of .total over d(omega)/2pi is the heat flux in
    W/m^2.  Two black bodies give exactly (omega/c)^2 / 2pi.  For an array
    of frequencies the result is a list of breakdowns, each bitwise the
    one its frequency gives alone.
    """
    return _breakdown(system, omega, spec)


def momentum_transmissivity_pp(system: GapSystem, omega,
                               spec: IntegrationSpec = _DEFAULT_SPEC):
    """Momentum transmissivity for sources in body 1, split by channel (s/m^3).

    Unlike the energy transmissivity this is not symmetric under a body
    swap.  Two black bodies give -omega^2/(3 pi c^3).  An array of
    frequencies gives a list of breakdowns, as for the energy one.
    """
    return _breakdown(system, omega, spec, momentum=True)
