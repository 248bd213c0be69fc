"""Configuration-driven command line front end.

Reads an INI-like config ([section] headers, key = value lines, # comments)
describing a gap system or a mesh pair, runs one of six modes, and writes
machine-readable outputs: a CSV spectrum or a key-value summary.  Every
output embeds the sha256 of the config text and the tool version, so a
result file always identifies the run that produced it.

Sections: [gap], [body1], [body2], [body1.film.N], [body2.film.N],
[integration], [output], [geometry].  See the README for the key grammar.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import re
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import __version__
from .geometry import TRIANGLE_RULES, TriMesh, bb_heat_rate, load_mesh, view_factor
from .materials import Black, Constant, Drude, LorentzSum, Material, Tabulated
from .planar import LayerStack
from .quadrature import IntegrationSpec
from .spectral import (ZERO_POINT_NOTE, TableRangeError, conductance, heat_flux,
                       neq_pressure, spectrum)
from .transmissivity import GapSystem

__all__ = ["ConfigError", "RunConfig", "parse_config", "run", "main"]

MODES = ("spectrum", "heat-flux", "conductance", "pressure", "viewfactor", "bb-heat")

CSV_HEADER = ("omega_rad_s,Te_total,Te_prop_s,Te_prop_p,Te_evan_s,Te_evan_p,"
              "Tm_total,Tm_prop_s,Tm_prop_p,Tm_evan_s,Tm_evan_p")

_SECTION_RE = re.compile(r"^\[([A-Za-z0-9_.]+)\]$")
_FILM_RE = re.compile(r"^(body[12])\.film\.([0-9]+)$")


class ConfigError(ValueError):
    """Invalid configuration; .errors lists 'line N: message' strings."""

    def __init__(self, errors: list[str]):
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass
class RunConfig:
    mode: str
    system: GapSystem | None = None
    T: float | None = None              # conductance temperature
    source: int = 1                     # pressure source body
    meshes: tuple[TriMesh, TriMesh] | None = None
    geo_temps: tuple[float, float] | None = None
    quad_order: int = 4
    integration: IntegrationSpec = field(default_factory=IntegrationSpec)
    out_dir: Path = Path(".")
    grid: np.ndarray | None = None      # spectrum omega grid
    threads: int = 1
    config_sha256: str = ""


class _Raw:
    """Sections parsed to {section: {key: (value, lineno)}} plus line map."""

    def __init__(self) -> None:
        self.sections: dict[str, dict[str, tuple[str, int]]] = {}
        self.section_lines: dict[str, int] = {}

    def get(self, section: str, key: str, default=None):
        return self.sections.get(section, {}).get(key, (default, None))


def _parse_sections(text: str, errors: list[str]) -> _Raw:
    raw = _Raw()
    current: str | None = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _SECTION_RE.match(stripped)
        if m:
            current = m.group(1)
            raw.sections.setdefault(current, {})
            raw.section_lines.setdefault(current, lineno)
            continue
        if "=" not in stripped:
            errors.append(f"line {lineno}: expected 'key = value', got {stripped!r}")
            continue
        if current is None:
            errors.append(f"line {lineno}: key outside any [section]")
            continue
        key, value = (s.strip() for s in stripped.split("=", 1))
        if not key:
            errors.append(f"line {lineno}: empty key")
            continue
        if key in raw.sections[current]:
            errors.append(f"line {lineno}: duplicate key {key!r} in [{current}]")
            continue
        raw.sections[current][key] = (value, lineno)
    return raw


def _float_of(raw: _Raw, section: str, key: str, errors: list[str],
              default=None, required=False):
    value, lineno = raw.get(section, key)
    if value is None:
        if required:
            line = raw.section_lines.get(section)
            where = f"line {line}: " if line else ""
            errors.append(f"{where}missing key {key!r} in [{section}]")
        return default
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not math.isfinite(number):
        errors.append(f"line {lineno}: key {key!r}: not a finite number: {value!r}")
        return default
    return number


def _int_of(raw: _Raw, section: str, key: str, errors: list[str], default=None):
    value, lineno = raw.get(section, key)
    if value is None:
        return default
    try:
        return int(value)
    except ValueError:
        errors.append(f"line {lineno}: key {key!r}: not an integer: {value!r}")
        return default


_MATERIAL_KEYS = {
    "material", "thickness",
    "eps_re", "eps_im", "mu_re", "mu_im",
    "eps_inf", "omega_p", "gamma", "mu_inf",
    "table",
}
_TERM_RE = re.compile(r"^(mu_term|term)\.([0-9]+)\.(strength|omega0|gamma)$")


def _load_table(path: Path, lineno: int, errors: list[str]) -> Tabulated | None:
    if not path.exists():
        errors.append(f"line {lineno}: table file not found: {path}")
        return None
    rows = []
    for file_line, raw_line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        s = raw_line.split("#", 1)[0].strip()
        if not s:
            continue
        parts = s.replace(",", " ").split()
        if len(parts) != 5:
            errors.append(f"line {lineno}: {path}:{file_line}: need 5 columns "
                          "(omega eps_re eps_im mu_re mu_im)")
            return None
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            errors.append(f"line {lineno}: {path}:{file_line}: non-numeric entry")
            return None
    arr = np.array(rows)
    try:
        return Tabulated(arr[:, 0], arr[:, 1] + 1j * arr[:, 2], arr[:, 3] + 1j * arr[:, 4])
    except ValueError as exc:
        errors.append(f"line {lineno}: {path}: {exc}")
        return None


def _material_of(raw: _Raw, section: str, errors: list[str],
                 base_dir: Path) -> Material | None:
    if section not in raw.sections:
        errors.append(f"missing section [{section}]")
        return None
    keys = raw.sections[section]
    model, model_line = raw.get(section, "material")
    if model is None:
        line = raw.section_lines.get(section)
        errors.append(f"line {line}: missing key 'material' in [{section}]")
        return None

    # a value that fails to parse is kept as None, so it is not reported missing too
    terms: dict[str, dict[int, dict[str, float | None]]] = {"term": {}, "mu_term": {}}
    for key, (value, lineno) in keys.items():
        m = _TERM_RE.match(key)
        if m:
            group, idx, param = m.group(1), int(m.group(2)), m.group(3)
            terms[group].setdefault(idx, {})[param] = _float_of(raw, section, key, errors)
            continue
        if key not in _MATERIAL_KEYS:
            errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")

    def osc_terms(group: str):
        out = []
        for idx in sorted(terms[group]):
            t = terms[group][idx]
            missing = {"strength", "omega0", "gamma"} - set(t)
            if missing:
                errors.append(f"[{section}] {group}.{idx} missing {sorted(missing)}")
                return None
            if None in t.values():
                return None
            out.append((t["strength"], t["omega0"], t["gamma"]))
        return tuple(out)

    try:
        if model == "black":
            return Black()
        if model == "constant":
            return Constant(
                complex(_float_of(raw, section, "eps_re", errors, 1.0),
                        _float_of(raw, section, "eps_im", errors, 0.0)),
                complex(_float_of(raw, section, "mu_re", errors, 1.0),
                        _float_of(raw, section, "mu_im", errors, 0.0)))
        if model == "drude":
            return Drude(
                eps_inf=_float_of(raw, section, "eps_inf", errors, required=True),
                omega_p=_float_of(raw, section, "omega_p", errors, required=True),
                gamma=_float_of(raw, section, "gamma", errors, required=True),
                mu=complex(_float_of(raw, section, "mu_re", errors, 1.0),
                           _float_of(raw, section, "mu_im", errors, 0.0)))
        if model == "lorentz":
            eps_terms = osc_terms("term")
            mu_terms = osc_terms("mu_term")
            if eps_terms is None or mu_terms is None:
                return None
            return LorentzSum(
                eps_inf=_float_of(raw, section, "eps_inf", errors, 1.0),
                eps_terms=eps_terms,
                mu_inf=_float_of(raw, section, "mu_inf", errors, 1.0),
                mu_terms=mu_terms)
        if model == "tabulated":
            rel, lineno = raw.get(section, "table")
            if rel is None:
                errors.append(f"line {model_line}: tabulated material needs a 'table' key")
                return None
            return _load_table((base_dir / rel).resolve(), lineno, errors)
    except (ValueError, TypeError) as exc:
        errors.append(f"line {model_line}: [{section}]: {exc}")
        return None
    errors.append(f"line {model_line}: unknown material model {model!r}")
    return None


def _stack_of(raw: _Raw, body: str, errors: list[str], base_dir: Path) -> LayerStack | None:
    terminal = _material_of(raw, body, errors, base_dir)
    films = []
    film_sections = sorted(
        ((int(m.group(2)), name) for name in raw.sections
         if (m := _FILM_RE.match(name)) and m.group(1) == body))
    for expected, (idx, name) in enumerate(film_sections, start=1):
        if idx != expected:
            errors.append(f"[{name}]: film indices must be 1..N without gaps")
        material = _material_of(raw, name, errors, base_dir)
        thickness = _float_of(raw, name, "thickness", errors, required=True)
        if thickness is not None and thickness <= 0.0:
            _, lineno = raw.get(name, "thickness")
            errors.append(f"line {lineno}: key 'thickness': must be > 0, got {thickness}")
            thickness = None
        if material is not None and thickness is not None:
            films.append((material, thickness))
    if terminal is None:
        return None
    return LayerStack(terminal, tuple(films))


def parse_config(text: str, base_dir: Path | str = ".",
                 mode: str | None = None) -> RunConfig:
    """Parse and validate config text; raises ConfigError listing all
    problems with their line numbers.  mode, when given, replaces the
    [output] mode key (which may then be absent)."""
    base_dir = Path(base_dir)
    errors: list[str] = []
    raw = _parse_sections(text, errors)

    known = {"gap", "body1", "body2", "integration", "output", "geometry"}
    for name in raw.sections:
        if name not in known and not _FILM_RE.match(name):
            errors.append(f"line {raw.section_lines[name]}: unknown section [{name}]")

    section_keys = {
        "gap": {"gap", "T1", "T2", "T", "source"},
        "integration": {"rtol", "abs_floor", "max_subdivisions",
                        "omega_lo", "omega_hi", "threads"},
        "output": {"mode", "dir", "omega_min", "omega_max", "points", "scale"},
        "geometry": {"mesh1", "mesh2", "quad_order", "T1", "T2"},
    }
    for section, allowed in section_keys.items():
        for key, (_, lineno) in raw.sections.get(section, {}).items():
            if key not in allowed:
                errors.append(f"line {lineno}: unknown key {key!r} in [{section}]")

    where = ""
    if mode is None:
        mode, mode_line = raw.get("output", "mode")
        where = f"line {mode_line}: "
    if mode is None:
        errors.append("missing key 'mode' in [output]")
        raise ConfigError(errors)
    if mode not in MODES:
        errors.append(f"{where}unknown mode {mode!r}; choose from {MODES}")
        raise ConfigError(errors)

    cfg = RunConfig(mode=mode)
    out_dir, _ = raw.get("output", "dir")
    if out_dir is not None:
        cfg.out_dir = base_dir / out_dir
    cfg.threads = max(1, _int_of(raw, "integration", "threads", errors, 1))

    rtol = _float_of(raw, "integration", "rtol", errors, 1e-8)
    abs_floor = _float_of(raw, "integration", "abs_floor", errors, 1e-300)
    max_sub = _int_of(raw, "integration", "max_subdivisions", errors, 4000)
    w_lo = _float_of(raw, "integration", "omega_lo", errors)
    w_hi = _float_of(raw, "integration", "omega_hi", errors)
    window = None
    if (w_lo is None) != (w_hi is None):
        errors.append("[integration]: omega_lo and omega_hi must be given together")
    elif w_lo is not None:
        window = (w_lo, w_hi)
    try:
        cfg.integration = IntegrationSpec(rtol, abs_floor, max_sub, window)
    except ValueError as exc:
        errors.append(f"[integration]: {exc}")

    if mode in ("spectrum", "heat-flux", "conductance", "pressure"):
        gap = _float_of(raw, "gap", "gap", errors, required=True)
        if gap is not None and gap <= 0.0:
            _, lineno = raw.get("gap", "gap")
            errors.append(f"line {lineno}: key 'gap': must be > 0, got {gap}")
            gap = None
        T1 = _float_of(raw, "gap", "T1", errors, 0.0)
        T2 = _float_of(raw, "gap", "T2", errors, 0.0)
        for key, val in (("T1", T1), ("T2", T2)):
            if val is not None and val < 0.0:
                _, lineno = raw.get("gap", key)
                errors.append(f"line {lineno}: key {key!r}: must be >= 0, got {val}")
        body1 = _stack_of(raw, "body1", errors, base_dir)
        body2 = _stack_of(raw, "body2", errors, base_dir)
        if not errors and gap is not None and body1 and body2:
            cfg.system = GapSystem(body1, body2, gap, T1, T2)
        cfg.T = _float_of(raw, "gap", "T", errors, default=T1 if T1 else None)
        cfg.source = _int_of(raw, "gap", "source", errors, 1)
        if cfg.source not in (1, 2):
            errors.append("[gap]: source must be 1 or 2")
        if mode == "conductance" and (cfg.T is None or cfg.T <= 0.0):
            errors.append("[gap]: conductance mode needs T > 0 (key 'T' or 'T1')")
        if mode == "pressure":
            t_src = T1 if cfg.source == 1 else T2
            if not t_src or t_src <= 0.0:
                errors.append(f"[gap]: pressure mode needs T{cfg.source} > 0")

    if mode == "spectrum":
        w_min = _float_of(raw, "output", "omega_min", errors, required=True)
        w_max = _float_of(raw, "output", "omega_max", errors, required=True)
        points = _int_of(raw, "output", "points", errors, 50)
        scale, scale_line = raw.get("output", "scale", "log")
        if scale not in ("log", "linear"):
            errors.append(f"line {scale_line}: key 'scale': must be log or linear")
        elif w_min is not None and w_max is not None:
            if not (0.0 < w_min < w_max):
                errors.append("[output]: need 0 < omega_min < omega_max")
            elif points < 1:
                errors.append("[output]: points must be >= 1")
            else:
                cfg.grid = (np.geomspace(w_min, w_max, points) if scale == "log"
                            else np.linspace(w_min, w_max, points))

    if mode in ("viewfactor", "bb-heat"):
        meshes = []
        for key in ("mesh1", "mesh2"):
            rel, lineno = raw.get("geometry", key)
            if rel is None:
                errors.append(f"missing key {key!r} in [geometry]")
                continue
            path = (base_dir / rel).resolve()
            if not path.exists():
                errors.append(f"line {lineno}: mesh file not found: {path}")
                continue
            try:
                meshes.append(load_mesh(path))
            except ValueError as exc:
                errors.append(f"line {lineno}: {exc}")
        cfg.quad_order = _int_of(raw, "geometry", "quad_order", errors, 4)
        if cfg.quad_order not in TRIANGLE_RULES:
            errors.append(f"line {raw.get('geometry', 'quad_order')[1]}: key 'quad_order': "
                          f"must be one of {sorted(TRIANGLE_RULES)}, got {cfg.quad_order}")
        if len(meshes) == 2:
            cfg.meshes = (meshes[0], meshes[1])
        if mode == "bb-heat":
            t1 = _float_of(raw, "geometry", "T1", errors, required=True)
            t2 = _float_of(raw, "geometry", "T2", errors, required=True)
            if t1 is not None and t2 is not None:
                if t1 < 0.0 or t2 < 0.0:
                    errors.append("[geometry]: temperatures must be >= 0")
                else:
                    cfg.geo_temps = (t1, t2)

    if errors:
        raise ConfigError(errors)
    return cfg


def _fmt(x: float) -> str:
    return f"{x:.16e}"


def _metadata_lines(cfg: RunConfig, prefix: str = "") -> list[str]:
    """The keys that identify a run: '# '-prefixed in CSV, bare in summaries."""
    return [f"{prefix}{k} = {v}" for k, v in (
        ("config_sha256", cfg.config_sha256), ("version", __version__),
        ("mode", cfg.mode), ("threads", cfg.threads))]


def _write_summary(cfg: RunConfig, rows: list[tuple[str, str]]) -> Path:
    path = cfg.out_dir / "summary.txt"
    lines = _metadata_lines(cfg) + [f"{k} = {v}" for k, v in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit status."""
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    spec = cfg.integration

    if cfg.mode == "spectrum":
        results = spectrum(cfg.system, cfg.grid, spec, threads=cfg.threads)
        ok = all(r.energy.converged and r.momentum.converged for r in results)
        path = cfg.out_dir / "spectrum.csv"
        lines = _metadata_lines(cfg, "# ")
        if not ok:
            lines.append("# warning = quadrature did not converge on some rows (partial output)")
        lines.append(CSV_HEADER)
        for r in results:
            e, m = r.energy, r.momentum
            lines.append(",".join(_fmt(v) for v in (
                r.omega, e.total, e.prop_s, e.prop_p, e.evan_s, e.evan_p,
                m.total, m.prop_s, m.prop_p, m.evan_s, m.evan_p)))
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        if not ok:
            print("warning: quadrature did not converge on some spectrum rows",
                  file=sys.stderr)
        return 0 if ok else 1

    if cfg.mode in ("heat-flux", "conductance", "pressure"):
        if cfg.mode == "heat-flux":
            res = heat_flux(cfg.system, spec)
            rows = [("heat_flux_W_m2", _fmt(res.value))]
        elif cfg.mode == "conductance":
            res = conductance(cfg.system, cfg.T, spec)
            rows = [("conductance_W_m2K", _fmt(res.value)),
                    ("temperature_K", _fmt(cfg.T))]
        else:
            t_src = cfg.system.T1 if cfg.source == 1 else cfg.system.T2
            res = neq_pressure(cfg.system, cfg.source, t_src, spec)
            rows = [("pressure_Pa", _fmt(res.value)),
                    ("source_body", str(cfg.source)),
                    ("note", ZERO_POINT_NOTE)]
        rows += [("error_estimate", _fmt(res.error)),
                 ("window_lo_rad_s", _fmt(res.window[0])),
                 ("window_hi_rad_s", _fmt(res.window[1])),
                 ("converged", str(res.converged).lower())]
        path = _write_summary(cfg, rows)
        if not res.converged:
            print(f"warning: quadrature did not converge; partial result in {path}",
                  file=sys.stderr)
            return 1
        return 0

    if cfg.mode == "viewfactor":
        m1, m2 = cfg.meshes
        f12 = view_factor(m1, m2, cfg.quad_order)
        _write_summary(cfg, [
            ("viewfactor_F12", _fmt(f12)),
            ("area1_m2", _fmt(m1.area)),
            ("area2_m2", _fmt(m2.area)),
            ("quad_order", str(cfg.quad_order)),
        ])
        return 0

    if cfg.mode == "bb-heat":
        m1, m2 = cfg.meshes
        t1, t2 = cfg.geo_temps
        res = bb_heat_rate(m1, m2, t1, t2, cfg.quad_order, spec)
        _write_summary(cfg, [
            ("heat_rate_W", _fmt(res.value)),
            ("heat_rate_spectral_W", _fmt(res.spectral)),
            ("viewfactor_F12", _fmt(res.viewfactor)),
            ("T1_K", _fmt(t1)),
            ("T2_K", _fmt(t2)),
        ])
        return 0

    raise AssertionError(f"unhandled mode {cfg.mode}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gaprad",
        description="Radiative energy and momentum transfer across planar "
                    "vacuum gaps, plus blackbody view-factor geometry.")
    parser.add_argument("--config", required=True, help="path to config file")
    parser.add_argument("--mode", choices=MODES, help="override the config mode")
    parser.add_argument("--out", help="override the output directory")
    parser.add_argument("--threads", type=int,
                        help="accepted for compatibility; has no effect")
    parser.add_argument("--tolerance", type=float, help="override relative tolerance")
    args = parser.parse_args(argv)

    config_path = Path(args.config)
    if not config_path.exists():
        print(f"error: config file not found: {config_path}", file=sys.stderr)
        return 2
    text = config_path.read_text(encoding="utf-8")

    try:
        cfg = parse_config(text, base_dir=config_path.parent, mode=args.mode)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 2

    cfg.config_sha256 = hashlib.sha256(text.encode("utf-8")).hexdigest()
    if args.out is not None:
        cfg.out_dir = Path(args.out)
    if args.threads is not None:
        cfg.threads = max(1, args.threads)
    if args.tolerance is not None:
        try:
            cfg.integration = replace(cfg.integration, rtol=args.tolerance)
        except ValueError as exc:
            print(f"error: --tolerance: {exc}", file=sys.stderr)
            return 2

    try:
        return run(cfg)
    except TableRangeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
