"""Independent reference values for the benchmark checks.

Nothing here imports gaprad.  The physics is evaluated with its own code:

- material responses from the parameters in cases.py;
- Fresnel coefficients in admittance form, r = (Y1 - Y2)/(Y1 + Y2) with
  Y = kz/mu (s) or kz/eps (p);
- the multilayer reflection as a product of 2x2 transfer matrices taken
  from the vacuum side inward (numpy on arrays, or mpmath at single
  points);
- fixed composite Gauss-Legendre rules: the propagating branch in
  u = kz/k0 (kz dkz = krho dkrho, no kink at the light line), the
  evanescent branch in t = q*gap with q the vacuum decay constant, cut at
  t = 25, and the frequency integral on geometric panels plus uniform
  panels across each Lorentz band [0.95 w_TO, 1.07 w_LO].  Panels are
  graded geometrically around every feature the code can place: medium
  light-line kinks, surface-mode poles, evanescent peaks found on a probe
  grid, Fabry-Perot resonances in u and Fabry-Perot cutoffs in omega.

Every quantity is computed at two resolutions, N panels and 2N panels
(every panel halved, in all integrals at once).  The value is the 2N
result and the stored error is |Q_2N - Q_N|, which bounds the coarse
error and so, for these exponentially convergent rules, overstates the
error of the value.

Usage:
    python3 bench/reference.py scalars            # rewrite bench/references.json
    python3 bench/reference.py scalars gold_heat_flux   # recompute one entry
    python3 bench/reference.py spectrum --seed 3  # seed-drawn spectrum rows
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
import cases  # noqa: E402

HBAR = 6.62607015e-34 / (2.0 * math.pi)
KB = 1.380649e-23
C = 299792458.0
SIGMA = math.pi ** 2 * KB ** 4 / (60.0 * HBAR ** 3 * C ** 2)

T_CUT = 25.0          # evanescent cutoff in t = q * gap; e^{-50} tail
GL_POINTS = 10
REFERENCES_FILE = Path(__file__).resolve().parent / "references.json"


# ---------------------------------------------------------------- materials

def permittivity(mat: dict, w):
    """Relative permittivity; plain arithmetic, so w may be an ndarray or an
    mpmath number.  Every benchmark material has mu = 1."""
    kind = mat["kind"]
    if kind == "lorentz":
        eps = mat["eps_inf"] + 0j
        for s, w0, g in mat["terms"]:
            eps = eps + s * w0 * w0 / (w0 * w0 - w * w - 1j * g * w)
        return eps
    if kind == "drude":
        return mat["eps_inf"] - mat["omega_p"] ** 2 / (w * (w + 1j * mat["gamma"]))
    raise ValueError(f"no permittivity for material kind {kind!r}")


def _np_branch_sqrt(z):
    s = np.sqrt(z)
    s = np.where(s.imag < 0.0, -s, s)
    return np.where((s.imag == 0.0) & (s.real < 0.0), -s, s)


def _mp_branch_sqrt(z):
    import mpmath as mp
    s = mp.sqrt(z)
    if s.imag < 0 or (s.imag == 0 and s.real < 0):
        s = -s
    return s


# ---------------------------------------------------------------- optics

def reflection(stack, pol: str, k0, kz0, sqrt=_np_branch_sqrt, w=None):
    """Stack reflection seen from vacuum by transfer-matrix product.

    kz0 is the vacuum z-wavevector (real on the propagating branch, i*q on
    the evanescent one); each medium has kz = sqrt(kz0^2 + (eps - 1) k0^2).
    The matrix of interface j is [[1, r_j], [r_j, 1]] followed by
    diag(1, exp(2i kz d)) for the film behind it; the overall scalar
    factors cancel in r = M10 / M00.
    """
    terminal, films = stack
    if terminal["kind"] == "black" and not films:
        return 0.0 * kz0
    if w is None:
        w = k0 * C
    media = [(permittivity(m, w), d) for m, d in films]
    media.append((permittivity(terminal, w), None))
    kz0_sq = kz0 * kz0
    y_prev = kz0                       # vacuum admittance (eps = mu = 1)
    m00, m01, m10, m11 = 1.0, 0.0, 0.0, 1.0
    for eps, d in media:
        kz = sqrt(kz0_sq + (eps - 1.0) * k0 * k0)
        y = kz if pol == "s" else kz / eps
        r = (y_prev - y) / (y_prev + y)
        # M <- M @ [[1, r], [r, 1]]
        m00, m01, m10, m11 = m00 + m01 * r, m00 * r + m01, m10 + m11 * r, m10 * r + m11
        if d is not None:
            phase = _exp(2j * kz * d)
            m01, m11 = m01 * phase, m11 * phase
        y_prev = y
    return m10 / m00


def _exp(z):
    if isinstance(z, np.ndarray):
        return np.exp(z)
    import mpmath as mp
    return mp.exp(z)


def reflection_mp(stack, pol: str, omega: float, krho: float, dps: int = 40) -> complex:
    """Stack reflection at one (omega, krho) in mpmath at dps digits."""
    import mpmath as mp
    with mp.workdps(dps):
        w = mp.mpf(omega)
        k0 = w / C
        kr = mp.mpf(krho)
        kz0 = _mp_branch_sqrt(mp.mpc(k0 * k0 - kr * kr))
        return complex(reflection(stack, pol, k0, kz0, sqrt=_mp_branch_sqrt, w=w))


# ---------------------------------------------------------------- quadrature

_GL_X, _GL_W = np.polynomial.legendre.leggauss(GL_POINTS)


def _rule(edges, level: int):
    """Composite Gauss-Legendre nodes and weights on each row of edges
    (shape (n, E), ascending per row), every panel split 2^level times.
    Repeated edges make zero-width panels, which contribute nothing."""
    edges = np.atleast_2d(np.asarray(edges, dtype=float))
    a, b = edges[:, :-1, None], edges[:, 1:, None]
    sub = np.linspace(0.0, 1.0, 2 ** level + 1)
    lo = (a + (b - a) * sub[:-1]).reshape(len(edges), -1)
    hi = (a + (b - a) * sub[1:]).reshape(len(edges), -1)
    half = 0.5 * (hi - lo)[:, :, None]
    mid = 0.5 * (hi + lo)[:, :, None]
    n = len(edges)
    return (mid + half * _GL_X).reshape(n, -1), (half * _GL_W).reshape(n, -1)


_KINK_STEPS = np.geomspace(1e-7, 0.3, 24)


def _refine(base, kinks, lo, hi):
    """Per-row edges: the base edges plus geometric refinement on both sides
    of each row's kinks.  Edges that are NaN (no kink in that row) or fall
    outside (lo, hi) become zero-width panels at hi, where every integrand
    is regular."""
    n = kinks.shape[0]
    extra = [np.broadcast_to(base, (n, len(base)))]
    for k in kinks.T:
        around = k[:, None] * np.concatenate([1.0 - _KINK_STEPS[::-1], [1.0], 1.0 + _KINK_STEPS])
        extra.append(np.where(np.isnan(around) | (around <= lo), hi, np.minimum(around, hi)))
    return np.sort(np.concatenate(extra, axis=1), axis=1)


def _kinks(stacks, w):
    """Per-frequency features of every medium: in the evanescent branch the
    light-line kink q = Re sqrt(eps - 1) k0 where Re eps > 1 and the
    single-interface surface-mode pole q = Re k0 / sqrt(-(eps + 1)) where
    Re eps < -1; in the propagating branch the kink u = Re sqrt(1 - eps)
    where 0 < Re eps < 1.  NaN where a row has none."""
    k0 = w / C
    evan, prop = [], []
    for terminal, films in stacks:
        for mat in [terminal] + [m for m, _ in films]:
            if mat["kind"] == "black":
                continue
            eps = permittivity(mat, w)
            evan.append(np.where(eps.real > 1.0, np.sqrt(eps - 1.0).real * k0, np.nan))
            evan.append(np.where(eps.real < -1.0, (k0 / np.sqrt(-(eps + 1.0))).real, np.nan))
            prop.append(np.where((eps.real > 0.0) & (eps.real < 1.0),
                                 np.sqrt(1.0 - eps).real, np.nan))
    return np.stack(evan, axis=1), np.stack(prop, axis=1)


def _resonances(body1, body2, gap: float, w, count: int):
    """Fabry-Perot resonances of the propagating branch, per frequency: the
    u = kz/k0 where 2 kz gap + arg(R1 R2) crosses a multiple of 2 pi, for
    either polarization, located on a probe grid of 64 points per fringe.
    Returns (n_omega, 2 * count), NaN-padded."""
    k0 = w[:, None] / C
    probe = np.linspace(0.0, 1.0, 64 * (count + 1) + 1)[None, :]
    out = np.full((len(w), 2 * count), np.nan)
    for j, pol in enumerate(("s", "p")):
        kz = probe * k0 + 0j
        rr = reflection(body1, pol, k0, kz) * reflection(body2, pol, k0, kz)
        phase = np.unwrap(2.0 * kz.real * gap + np.angle(rr), axis=1) / (2.0 * np.pi)
        cycle = np.floor(phase)
        for i in range(len(w)):
            hits = np.nonzero(np.diff(cycle[i]))[0][:count]
            frac = (np.maximum(cycle[i, hits], cycle[i, hits + 1]) - phase[i, hits]) / (
                phase[i, hits + 1] - phase[i, hits])
            out[i, j * count:j * count + len(hits)] = probe[0, hits] + frac * (
                probe[0, 1] - probe[0, 0])
    return out


_T_PROBE = np.geomspace(1e-6, T_CUT, 1501)


def _evanescent_peaks(body1, body2, gap: float, w, count: int = 3):
    """t of the `count` highest local maxima of each polarization's
    evanescent energy integrand (times t, the log measure) on a geometric
    probe grid: coupled surface modes that no single-medium formula
    places.  Returns (n_omega, 2 * count), NaN-padded."""
    k0 = w[:, None] / C
    q = _T_PROBE[None, :] / gap
    decay = np.exp(-2.0 * q * gap)
    out = np.full((len(w), 2 * count), np.nan)
    for j, pol in enumerate(("s", "p")):
        r1 = reflection(body1, pol, k0, 1j * q)
        r2 = r1 if body2 is body1 else reflection(body2, pol, k0, 1j * q)
        f = np.abs(_T_PROBE ** 2 * r1.imag * r2.imag * decay / np.abs(1.0 - r1 * r2 * decay) ** 2)
        peak = (f[:, 1:-1] > f[:, :-2]) & (f[:, 1:-1] >= f[:, 2:])
        score = np.where(peak, f[:, 1:-1], -1.0)
        top = np.argsort(score, axis=1)[:, ::-1][:, :count]
        found = np.take_along_axis(score, top, axis=1) > 0.0
        out[:, j * count:(j + 1) * count] = np.where(found, _T_PROBE[1:-1][top], np.nan)
    return out


def _u_edges(k0_max: float, gap: float):
    """Propagating-branch panels in u = kz/k0: graded toward grazing
    incidence (u -> 0, metallic p-polarization dip) and toward normal
    incidence (u -> 1, where a Fabry-Perot order just below its cutoff
    peaks at the end of the range), and at least four per fringe of the
    largest frequency."""
    n = max(16, int(math.ceil(4.0 * k0_max * gap / math.pi)))
    ends = np.geomspace(1e-7, 0.05, 24)
    return np.unique(np.concatenate([[0.0], ends, np.linspace(0.05, 0.95, n + 1),
                                     1.0 - ends, [1.0]]))


def _t_edges():
    return np.unique(np.concatenate([[0.0], np.geomspace(1e-8, 0.5, 40),
                                     np.linspace(0.5, T_CUT, 246)]))


def _omega_edges(lo: float, hi: float, body1, body2, gap: float):
    """Frequency panels: geometric over the window, uniform 1e11 rad/s
    panels across each Lorentz band [0.95 w_TO, 1.07 w_LO], and geometric
    refinement around each Fabry-Perot cutoff, where a new propagating
    order enters at normal incidence (2 k0 gap + arg R1 R2 = 2 pi m) and
    the transmissivity steps."""
    edges = [np.geomspace(lo, hi, 97)]
    for terminal, films in (body1, body2):
        for mat in [terminal] + [m for m, _ in films]:
            if mat["kind"] != "lorentz":
                continue
            for s, w0, _ in mat["terms"]:
                w_lo = w0 * math.sqrt((mat["eps_inf"] + s) / mat["eps_inf"])
                a, b = max(lo, 0.95 * w0), min(hi, 1.07 * w_lo)
                if a < b:
                    edges.append(np.linspace(a, b, int((b - a) / 1e11) + 2))
    probe = np.geomspace(lo, hi, 20001)
    k0 = probe / C
    rr = reflection(body1, "s", k0, k0 + 0j) * reflection(body2, "s", k0, k0 + 0j)
    phase = np.unwrap(2.0 * k0 * gap + np.angle(rr)) / (2.0 * np.pi)
    hits = np.nonzero(np.diff(np.floor(phase)))[0]
    cutoffs = probe[hits] + (np.ceil(phase[hits]) - phase[hits]) / (
        phase[hits + 1] - phase[hits]) * (probe[hits + 1] - probe[hits])
    if len(cutoffs):
        steps = np.concatenate([1.0 - _KINK_STEPS[::-1], [1.0], 1.0 + _KINK_STEPS])
        around = (cutoffs[:, None] * steps).ravel()
        edges.append(around[(around > lo) & (around < hi)])
    return np.unique(np.concatenate(edges))


CHANNELS = ("prop_s", "prop_p", "evan_s", "evan_p")


def channels(body1, body2, gap: float, omegas, level: int, k0_max=None):
    """Energy (1/m^2) and momentum (s/m^3) transmissivity channels, with
    body 1 as the momentum source.  Returns two dicts of (n_omega,) arrays."""
    omegas = np.asarray(omegas, dtype=float)
    k0_max = float(omegas.max()) / C if k0_max is None else k0_max
    u_base, t_base = _u_edges(k0_max, gap), _t_edges()
    fringes = int(math.ceil(k0_max * gap / math.pi)) + 1
    energy = {c: np.zeros(len(omegas)) for c in CHANNELS}
    momentum = {c: np.zeros(len(omegas)) for c in CHANNELS}
    edges = len(u_base) + len(t_base) + 49 * (6 * (1 + len(body1[1]) + len(body2[1]))
                                             + 2 * fringes + 6)
    chunk = max(1, 400_000 // (edges * GL_POINTS * 2 ** level))
    for start in range(0, len(omegas), chunk):
        sl = slice(start, start + chunk)
        w = omegas[sl, None]
        k0 = w / C
        q_kinks, u_kinks = _kinks((body1, body2), omegas[sl])
        u_kinks = np.concatenate(
            [u_kinks, _resonances(body1, body2, gap, omegas[sl], fringes)], axis=1)
        u, wu = _rule(_refine(u_base, u_kinks, 0.0, 1.0), level)
        t_kinks = np.concatenate(
            [q_kinks * gap, _evanescent_peaks(body1, body2, gap, omegas[sl])], axis=1)
        t, wt = _rule(_refine(t_base, t_kinks, 0.0, T_CUT), level)
        q = t / gap
        for pol in ("s", "p"):
            # propagating: kz = u k0, measure kz dkz / 2pi = k0^2 u du / 2pi
            kz = u * k0
            r1 = reflection(body1, pol, k0, kz + 0j)
            r2 = r1 if body2 is body1 else reflection(body2, pol, k0, kz + 0j)
            den = np.abs(1.0 - r1 * r2 * np.exp(2j * kz * gap)) ** 2
            a1, a2 = 1.0 - np.abs(r1) ** 2, np.abs(r2) ** 2
            meas = k0 * k0 * u * wu / (2.0 * math.pi)
            energy["prop_" + pol][sl] = np.sum(meas * a1 * (1.0 - a2) / den, axis=1)
            momentum["prop_" + pol][sl] = -np.sum(meas * (kz / w) * a1 * (1.0 + a2) / den,
                                                  axis=1)
            # evanescent: kz = i q, measure q dq / 2pi = t dt / (2pi gap^2)
            r1 = reflection(body1, pol, k0, 1j * q)
            r2 = r1 if body2 is body1 else reflection(body2, pol, k0, 1j * q)
            decay = np.exp(-2.0 * q * gap)
            den = np.abs(1.0 - r1 * r2 * decay) ** 2
            meas = t * wt / (2.0 * math.pi * gap * gap)
            core = 4.0 * r1.imag * decay / den
            energy["evan_" + pol][sl] = np.sum(meas * core * r2.imag, axis=1)
            momentum["evan_" + pol][sl] = np.sum(meas * (q / w) * core * r2.real, axis=1)
    return energy, momentum


# ---------------------------------------------------------------- observables

def planck(w, T):
    x = HBAR * w / (KB * T)
    with np.errstate(over="ignore"):
        return HBAR * w / np.expm1(x)


def planck_dT(w, T):
    x = HBAR * w / (KB * T)
    with np.errstate(over="ignore"):
        r = x / (2.0 * np.sinh(0.5 * x))
    return KB * r * r


def window(T: float) -> tuple[float, float]:
    """The frequency window [1e-4, 60] k_b T / hbar that gaprad documents as
    the integration range of its observables."""
    scale = KB * T / HBAR
    return 1e-4 * scale, 60.0 * scale


def scalar(name: str, level: int) -> float:
    observable, b1, b2, gap, T1, T2, _ = cases.SCALAR_OPS[name]
    if observable == "heat_flux":
        lo, hi = window(max(T1, T2))

        def weight(w):
            return planck(w, T1) - planck(w, T2)
    elif observable == "conductance":
        lo, hi = window(T1)

        def weight(w):
            return planck_dT(w, T1)
    else:
        lo, hi = window(T1)

        def weight(w):
            return planck(w, T1)
    w, ww = _rule(_omega_edges(lo, hi, b1, b2, gap), level)
    w, ww = w[0], ww[0]
    energy, momentum = channels(b1, b2, gap, w, level, k0_max=hi / C)
    parts = momentum if observable == "neq_pressure" else energy
    total = sum(parts[c] for c in CHANNELS)
    return float(np.sum(ww * weight(w) * total) / (2.0 * math.pi))


def scalar_with_error(name: str) -> dict:
    coarse = scalar(name, 0)
    fine = scalar(name, 1)
    return {"value": fine, "error": abs(fine - coarse), "coarse": coarse}


def black_heat_flux(T1: float, T2: float) -> float:
    """Closed form sigma (T1^4 - T2^4) of two black half spaces."""
    return SIGMA * (T1 ** 4 - T2 ** 4)


def spectrum_rows(pair: str, omegas) -> list[dict]:
    """Reference channels at the given frequencies with their errors."""
    b1, b2 = cases.SPECTRUM_PAIRS[pair]
    gap = cases.SPECTRUM_GAP
    coarse = channels(b1, b2, gap, omegas, 0)
    fine = channels(b1, b2, gap, omegas, 1)
    rows = []
    for i, w in enumerate(omegas):
        row = {"omega": float(w)}
        for kind, (fe, ce) in zip(("Te", "Tm"), zip(fine, coarse)):
            for c in CHANNELS:
                row[f"{kind}_{c}"] = (float(fe[c][i]), abs(float(fe[c][i] - ce[c][i])))
        rows.append(row)
    return rows


def spectrum_grid() -> np.ndarray:
    lo, hi, n = cases.SPECTRUM_GRID
    return np.geomspace(lo, hi, n)


def draw_rows(seed: int, count: int = 20) -> list[int]:
    """Seed-drawn grid indices of the spectrum rows that are checked."""
    rng = np.random.default_rng([seed, 1])
    return sorted(int(i) for i in rng.choice(cases.SPECTRUM_GRID[2], count, replace=False))


# ---------------------------------------------------------------- command

def _main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="what", required=True)
    sc = sub.add_parser("scalars", help="recompute bench/references.json")
    sc.add_argument("names", nargs="*", help="only these operations (default: all)")
    sp = sub.add_parser("spectrum", help="print reference rows drawn by --seed")
    sp.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)

    if args.what == "scalars":
        out = json.loads(REFERENCES_FILE.read_text(encoding="utf-8")) if args.names else {}
        for name, op in cases.SCALAR_OPS.items():
            if op[1][0]["kind"] == "black" or (args.names and name not in args.names):
                continue            # black bodies: closed form, see black_heat_flux
            start = time.perf_counter()
            out[name] = scalar_with_error(name)
            rel = out[name]["error"] / abs(out[name]["value"])
            print(f"{name}: {out[name]['value']!r} +- {out[name]['error']:.3e} "
                  f"(rel {rel:.1e}, {time.perf_counter() - start:.0f} s)", flush=True)
        REFERENCES_FILE.write_text(json.dumps(out, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {REFERENCES_FILE}")
        return 0

    grid = spectrum_grid()
    for pair in cases.SPECTRUM_PAIRS:
        idx = draw_rows(args.seed)
        for i, row in zip(idx, spectrum_rows(pair, grid[idx])):
            print(pair, i, json.dumps(row))
    return 0


if __name__ == "__main__":
    sys.exit(_main())
