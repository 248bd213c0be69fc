"""The four benchmark workloads: their inputs, operations and checks.

build(name, seed, workdir) makes a workload's inputs (gaprad objects,
config and mesh files under workdir) and returns a Workload whose ops
each return (value, failure): failure is None, or why the operation
failed (raised, reported non-convergence, exited non-zero).  The seed
draws only check points (and, on mesh, the frequency of the dyadic
route), so every seed does the same amount of work.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

import gaprad.cli
import gaprad.geometry
import gaprad.spectral
from gaprad import (Black, Drude, GapSystem, IntegrationSpec, LayerStack, LorentzSum,
                    Polarization, energy_transmissivity_pp, rectangle_mesh, save_obj,
                    stack_reflection)

import cases
import checks
from checks import Check

# reference.py is imported where a check needs it, so that set-up time
# (interpreter, gaprad, inputs) carries none of the benchmark's own checks
REFERENCES = Path(__file__).resolve().parent / "references.json"

Op = Callable[[], tuple]


@dataclass
class Workload:
    ops: list[tuple[str, Op]]
    # check_round(values) -> checks of one round's outputs
    check_round: Callable[[list], list[Check]]
    # checks that do not depend on a round (seed-drawn points), run once
    check_once: Callable[[], list[Check]] = lambda: []
    out_dirs: list[Path] = field(default_factory=list)


# ------------------------------------------------------------ inputs

def material(m: dict):
    if m["kind"] == "lorentz":
        return LorentzSum(eps_inf=m["eps_inf"], eps_terms=m["terms"])
    if m["kind"] == "drude":
        return Drude(m["eps_inf"], m["omega_p"], m["gamma"])
    return Black()


def stack(s) -> LayerStack:
    terminal, films = s
    return LayerStack(material(terminal), tuple((material(m), d) for m, d in films))


def _material_keys(m: dict) -> list[str]:
    if m["kind"] == "lorentz":
        lines = ["material = lorentz", f"eps_inf = {m['eps_inf']!r}"]
        for i, (s, w0, g) in enumerate(m["terms"], start=1):
            lines += [f"term.{i}.strength = {s!r}", f"term.{i}.omega0 = {w0!r}",
                      f"term.{i}.gamma = {g!r}"]
        return lines
    if m["kind"] == "drude":
        return ["material = drude", f"eps_inf = {m['eps_inf']!r}",
                f"omega_p = {m['omega_p']!r}", f"gamma = {m['gamma']!r}"]
    return ["material = black"]


def spectrum_config(pair: str) -> str:
    lines = ["[gap]", f"gap = {cases.SPECTRUM_GAP!r}",
             f"T1 = {cases.SPECTRUM_TEMPS[0]!r}", f"T2 = {cases.SPECTRUM_TEMPS[1]!r}"]
    for body, s in zip(("body1", "body2"), cases.SPECTRUM_PAIRS[pair]):
        terminal, films = s
        lines += ["", f"[{body}]"] + _material_keys(terminal)
        for i, (m, d) in enumerate(films, start=1):
            lines += ["", f"[{body}.film.{i}]"] + _material_keys(m) + [f"thickness = {d!r}"]
    lo, hi, n = cases.SPECTRUM_GRID
    lines += ["", "[integration]", f"rtol = {cases.SPECTRUM_RTOL!r}",
              f"threads = {cases.SPECTRUM_THREADS}",
              "", "[output]", "mode = spectrum", f"omega_min = {lo!r}",
              f"omega_max = {hi!r}", f"points = {n}", "scale = log"]
    return "\n".join(lines) + "\n"


def _cli_op(config: Path, out_root: Path, name: str, out_dirs: list[Path]) -> Op:
    """gaprad.cli.main on one config, writing into a fresh directory per call."""
    def op():
        out = out_root / f"{name}-{len(out_dirs)}"
        out_dirs.append(out)
        try:
            code = gaprad.cli.main(["--config", str(config), "--out", str(out)])
        except SystemExit as exc:           # argparse refusals
            code = exc.code
        return out, None if code == 0 else f"exit status {code}"
    return op


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


# ------------------------------------------------------------ shared checks

def _reflection_checks(seed: int, stacks: dict) -> list[Check]:
    """stack_reflection at seed-drawn (omega, krho) against the 40-digit
    transfer-matrix recursion: per stack (label -> (stack, gap)), two
    propagating and two evanescent points, both polarizations."""
    import reference
    rng = _rng(seed, 2)
    out = []
    for label, (s, gap) in stacks.items():
        built = stack(s)
        for i in range(4):
            omega = 10 ** rng.uniform(13.0, 15.3)
            k0 = omega / reference.C
            krho = (rng.uniform(0.0, 0.999) * k0 if i < 2
                    else math.hypot(k0, 10 ** rng.uniform(-3.0, math.log10(20.0)) / gap))
            for pol, P in (("s", Polarization.S), ("p", Polarization.P)):
                r = stack_reflection(built, P, omega, krho)
                r_ref = reference.reflection_mp(s, pol, omega, krho)
                out.append(checks.reflection(
                    f"reflection {label} {pol} w={omega:.4e} krho={krho:.4e}", r, r_ref))
    return out


# Known faults of gaprad (see the FOUND lines of CHANGES.md), on inputs that
# do not depend on the seed: operation -> (fault, cap).  A miss of at most
# cap * |reference| counts the operation as failed; a larger miss, or a miss
# of any other operation, makes the run's outputs incorrect.  The cap is
# about 13 times the 7.7e-8 relative miss seen.
KNOWN_FAULTS = {
    "sic_neq_pressure": ("known fault: the evanescent momentum channel stops at a noise "
                         "floor that grows as 1/omega", 1e-6),
}


def _scalar_check(name: str, result) -> Check:
    """The value against its reference; convergence was judged by the op."""
    import reference
    observable, b1, b2, gap, T1, T2, rtol = cases.SCALAR_OPS[name]
    if b1[0]["kind"] == "black":
        ref, err = reference.black_heat_flux(T1, T2), 0.0
    else:
        stored = json.loads(REFERENCES.read_text(encoding="utf-8"))[name]
        ref, err = stored["value"], stored["error"]
    fault, cap = KNOWN_FAULTS.get(name, ("", 0.0))
    check = checks.within(f"{name} vs reference", result.value, ref, rtol, err,
                          fault, cap * abs(ref))
    return replace(check, op=name)


# The same fault shows in the spectrum workload's evanescent channels: on
# its two grids 126 of 6400 channel values miss rtol + ref error + noise
# floor, by at most about a tenth of the cap 2.5e-4 |reference| + 1e-10 ceiling.
# A miss within the cap counts the operation as failed; a larger one makes
# the outputs incorrect.  Each pair's fault row, where the fault shows at
# every seed, is checked besides the seed-drawn rows, so every spectrum
# operation fails in every round and failed / attempted does not depend on
# the seed.
SPECTRUM_FAULT = ("known fault: an evanescent channel misses its tolerance", 2.5e-4, 1e-10)
SPECTRUM_FAULT_ROWS = {"sic": 397, "film": 327}     # Te_evan_s, Te_evan_p
SPECTRUM_HEADER = gaprad.cli.CSV_HEADER.split(",")


def spectrum_reference_checks(op_name: str, table, refs: dict) -> list[Check]:
    """Channels of a spectrum table (rows of SPECTRUM_HEADER) against the
    reference rows refs (grid index -> reference.spectrum_rows entry)."""
    fault, rel_cap, ceil_cap = SPECTRUM_FAULT
    gap = cases.SPECTRUM_GAP
    out = []
    for i, ref in refs.items():
        row = dict(zip(SPECTRUM_HEADER, map(float, table[i])))
        ceilings = {"Te": checks.energy_ceilings(row["omega_rad_s"], gap),
                    "Tm": checks.momentum_ceilings(row["omega_rad_s"], gap)}
        for col in SPECTRUM_HEADER:
            if col not in ref:              # the frequency and the totals
                continue
            value, err = ref[col]
            ceil = ceilings[col[:2]][col[3:]]
            c = checks.channel(f"{op_name} row {i} {col} vs reference", row[col], value,
                               err, cases.SPECTRUM_RTOL, ceil, fault,
                               rel_cap * abs(value) + ceil_cap * ceil)
            out.append(replace(c, op=op_name))
    return out


# ------------------------------------------------------------ workloads

def _library(name: str, seed: int, workdir: Path) -> Workload:
    ops = []
    for op_name in cases.WORKLOAD_SCALARS[name]:
        observable, b1, b2, gap, T1, T2, rtol = cases.SCALAR_OPS[op_name]
        system = GapSystem(stack(b1), stack(b2), gap, T1, T2)
        spec = IntegrationSpec(rtol=rtol)

        def op(observable=observable, system=system, spec=spec, T=T1):
            if observable == "heat_flux":
                res = gaprad.spectral.heat_flux(system, spec)
            elif observable == "conductance":
                res = gaprad.spectral.conductance(system, T, spec)
            else:
                res = gaprad.spectral.neq_pressure(system, 1, T, spec)
            return res, None if res.converged else "not converged"
        ops.append((op_name, op))

    def check_round(values):
        out = []
        for (op_name, _), value in zip(ops, values):
            if value is not None:
                out.append(_scalar_check(op_name, value))
        return out

    def check_once():
        used = {}
        for op_name in cases.WORKLOAD_SCALARS[name]:
            _, b1, b2, gap, *_ = cases.SCALAR_OPS[op_name]
            for s in (b1, b2):
                if s[0]["kind"] != "black":
                    used[f"{s[0]['kind']}+{len(s[1])}films"] = (s, gap)
        return _reflection_checks(seed, used)

    return Workload(ops, check_round, check_once)


def _spectrum(seed: int, workdir: Path) -> Workload:
    out_dirs: list[Path] = []
    configs, ops = {}, []
    for pair in cases.SPECTRUM_PAIRS:
        text = spectrum_config(pair)
        path = workdir / f"spectrum-{pair}.conf"
        path.write_text(text, encoding="utf-8")
        configs[pair] = text
        ops.append((f"spectrum_{pair}", _cli_op(path, workdir, f"spectrum-{pair}", out_dirs)))
    gap = cases.SPECTRUM_GAP
    lo, hi, n = cases.SPECTRUM_GRID
    grid = np.geomspace(lo, hi, n)
    cache: dict = {}

    def expected():
        """Rows checked against the reference (the pair's fault row and the
        seed-drawn ones), their reference channels, and the film stack's
        energy transmissivity under a body swap at the seed-drawn rows;
        computed once per run."""
        if not cache:
            import reference
            drawn = reference.draw_rows(seed)
            for pair, fault_row in SPECTRUM_FAULT_ROWS.items():
                rows = sorted({fault_row, *drawn})
                cache[pair] = dict(zip(rows, reference.spectrum_rows(pair, grid[rows])))
            b1, b2 = cases.SPECTRUM_PAIRS["film"]
            system = GapSystem(stack(b1), stack(b2), gap, *cases.SPECTRUM_TEMPS).swapped()
            spec = IntegrationSpec(rtol=cases.SPECTRUM_RTOL)
            cache["swapped"] = {i: energy_transmissivity_pp(system, grid[i], spec).total
                                for i in drawn}
        return cache

    def check_round(values):
        out = []
        for (op_name, _), out_dir in zip(ops, values):
            if out_dir is None:
                continue
            pair = op_name.split("_", 1)[1]
            text = (out_dir / "spectrum.csv").read_text(encoding="utf-8")
            out.append(checks.sha256_line(f"{op_name} sha256", text, configs[pair], "# "))
            lines = text.splitlines()
            meta = [ln for ln in lines if ln.startswith("#")]
            out.append(checks.flag(f"{op_name} converged",
                                   not any(ln.startswith("# warning") for ln in meta)))
            rows = list(csv.reader(ln for ln in lines if not ln.startswith("#")))
            out.append(checks.flag(f"{op_name} header", rows[0] == SPECTRUM_HEADER,
                                   str(rows[0])))
            table = np.array(rows[1:], dtype=float)
            out.append(checks.flag(f"{op_name} grid", table.shape == (n, len(SPECTRUM_HEADER))
                                   and np.array_equal(table[:, 0], grid)))
            if table.shape != (n, len(SPECTRUM_HEADER)):
                continue
            bad = []
            for row in table:
                ceil = checks.energy_ceilings(row[0], gap)
                for j, c in enumerate(("prop_s", "prop_p", "evan_s", "evan_p")):
                    if not checks.landauer("", row[2 + j], ceil[c]).ok:
                        bad.append(f"Te_{c} at w={row[0]:.4e}: {row[2 + j]!r}")
            out.append(checks.flag(f"{op_name} Landauer ceilings", not bad, "; ".join(bad[:3])))
            out += spectrum_reference_checks(op_name, table, expected()[pair])
            if pair == "film":
                for i, other in expected()["swapped"].items():
                    out.append(checks.reciprocal(f"{op_name} row {i} swapped",
                                                 table[i, 1], other))
        return out

    def check_once():
        return _reflection_checks(seed, {"sic": (cases.SIC_BULK, gap),
                                         "film": (cases.FILM_ON_GOLD, gap)})

    return Workload(ops, check_round, check_once, out_dirs)


def _mesh(seed: int, workdir: Path) -> Workload:
    out_dirs: list[Path] = []
    n, g = cases.MESH_CELLS, cases.COAXIAL_GAP
    meshes = {
        "coax1": rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], n, n),     # normal +z
        "coax2": rectangle_mesh([0, 0, g], [0, 1, 0], [1, 0, 0], n, n),     # normal -z
        "perp1": rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], n, n),     # z = 0, +z
        "perp2": rectangle_mesh([0, 0, 0], [0, 1, 0], [0, 0, 1], n, n),     # x = 0, +x
    }
    for key, mesh in meshes.items():
        save_obj(mesh, workdir / f"{key}.obj")
    t1, t2 = cases.BB_TEMPS
    configs = {
        "viewfactor": "[geometry]\nmesh1 = coax1.obj\nmesh2 = coax2.obj\n\n"
                      "[output]\nmode = viewfactor\n",
        "bb_heat": f"[geometry]\nmesh1 = perp1.obj\nmesh2 = perp2.obj\nT1 = {t1!r}\n"
                   f"T2 = {t2!r}\n\n[output]\nmode = bb-heat\n",
    }
    ops = []
    for name, text in configs.items():
        path = workdir / f"{name}.conf"
        path.write_text(text, encoding="utf-8")
        ops.append((name, _cli_op(path, workdir, name, out_dirs)))
    d = cases.DIRECT_CELLS
    d1 = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], d, d)
    d2 = rectangle_mesh([0, 0, g], [0, 1, 0], [1, 0, 0], d, d)
    omega = cases.DIRECT_OMEGA * _rng(seed, 3).uniform(0.9, 1.1)

    def direct():
        res = gaprad.geometry.bb_transmissivity_direct(d1, d2, omega)
        return res, None
    ops.append(("direct", direct))

    f_par = checks.parallel_squares_view_factor(1.0, g)
    f_perp = checks.perpendicular_view_factor(1.0, 1.0, 1.0)

    def summary(out_dir: Path, config: str, label: str):
        text = (out_dir / "summary.txt").read_text(encoding="utf-8")
        keys = dict(ln.split(" = ", 1) for ln in text.splitlines() if " = " in ln)
        return keys, checks.sha256_line(f"{label} sha256", text, config, "")

    def check_round(values):
        from reference import C, SIGMA
        out = []
        vf, bb, dr = values
        if vf is not None:
            keys, sha = summary(vf, configs["viewfactor"], "viewfactor")
            out += [sha, checks.within("viewfactor F12 vs catalog",
                                       float(keys["viewfactor_F12"]), f_par,
                                       checks.VIEW_FACTOR_RTOL)]
        if bb is not None:
            keys, sha = summary(bb, configs["bb_heat"], "bb_heat")
            closed = meshes["perp1"].area * f_perp * SIGMA * (t1 ** 4 - t2 ** 4)
            out += [sha,
                    checks.within("bb_heat F12 vs catalog", float(keys["viewfactor_F12"]),
                                  f_perp, checks.VIEW_FACTOR_RTOL),
                    checks.within("bb_heat rate vs A1 F sigma (T1^4 - T2^4)",
                                  float(keys["heat_rate_W"]), closed, checks.VIEW_FACTOR_RTOL),
                    checks.within("bb_heat spectral rate vs closed form",
                                  float(keys["heat_rate_spectral_W"]), closed,
                                  checks.VIEW_FACTOR_RTOL + 1e-8)]
        if dr is not None:
            ref = omega ** 2 / (2.0 * math.pi * C ** 2) * d1.area * f_par
            out += [checks.within("direct vs (w^2/2pi c^2) A1 F", dr.value, ref,
                                  checks.DIRECT_RTOL + checks.VIEW_FACTOR_RTOL),
                    checks.flag("direct far_field_ok", dr.far_field_ok)]
        return out

    return Workload(ops, check_round, out_dirs=out_dirs)


def build(name: str, seed: int, workdir: Path) -> Workload:
    workdir.mkdir(parents=True, exist_ok=True)
    if name in cases.WORKLOAD_SCALARS:
        return _library(name, seed, workdir)
    if name == "spectrum":
        return _spectrum(seed, workdir)
    if name == "mesh":
        return _mesh(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
