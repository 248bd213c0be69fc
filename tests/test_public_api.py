"""The public API, as a literal table: every module's exports, the
signature of every public callable, the fields of every public dataclass
and the command-line flags.

A failure here means the public surface moved.  If that was meant, change
the table in the same commit and say so in its message.
"""

import dataclasses
import enum
import importlib
import inspect
import re

import pytest

from gaprad.cli import main

EXPORTS = {
    'gaprad': [
        'Black', 'CONSTANTS', 'ChannelBreakdown', 'Constant',
        'DegenerateInterfaceError', 'Drude', 'GapSystem', 'IntegralResult',
        'IntegrationSpec', 'LayerStack', 'LorentzSum', 'Material', 'MeshError',
        'PhysicalConstants', 'Polarization', 'ScalarResult', 'SpectralResult',
        'Tabulated', 'TriMesh', '__version__', 'adaptive_integrate', 'auto_window',
        'bb_heat_rate', 'bb_transmissivity', 'bb_transmissivity_direct', 'conductance',
        'energy_integrand', 'energy_transmissivity_pp', 'eval_response', 'heat_flux',
        'interface_reflection', 'kz', 'load_mesh', 'momentum_integrand',
        'momentum_transmissivity_pp', 'neq_pressure', 'planck_energy',
        'planck_energy_dT', 'rectangle_mesh', 'save_obj', 'spectrum',
        'stack_reflection', 'view_factor'
    ],
    'gaprad.materials': [
        'Black', 'CONSTANTS', 'Constant', 'Drude', 'LorentzSum', 'Material',
        'PhysicalConstants', 'Tabulated', 'eval_response', 'is_black', 'planck_energy',
        'planck_energy_dT'
    ],
    'gaprad.planar': [
        'DegenerateInterfaceError', 'LayerStack', 'Polarization',
        'interface_reflection', 'kz', 'stack_reflection'
    ],
    'gaprad.quadrature': [
        'IntegralResult', 'IntegrationSpec', 'adaptive_integrate'
    ],
    'gaprad.transmissivity': [
        'ChannelBreakdown', 'EVANESCENT_CUTOFF', 'GapSystem', 'energy_integrand',
        'energy_transmissivity_pp', 'momentum_integrand', 'momentum_transmissivity_pp'
    ],
    'gaprad.spectral': [
        'ScalarResult', 'SpectralResult', 'TableRangeError', 'ZERO_POINT_NOTE',
        'auto_window', 'conductance', 'heat_flux', 'neq_pressure', 'spectrum'
    ],
    'gaprad.geometry': [
        'DirectResult', 'HeatRateResult', 'MeshError', 'TRIANGLE_RULES', 'TriMesh',
        'bb_heat_rate', 'bb_transmissivity', 'bb_transmissivity_direct', 'load_mesh',
        'rectangle_mesh', 'save_obj', 'view_factor'
    ],
    'gaprad.cli': [
        'ConfigError', 'RunConfig', 'main', 'parse_config', 'run'
    ],
}

SPEC = ("spec: 'IntegrationSpec' = IntegrationSpec(rtol=1e-08, abs_floor=1e-300, "
        "max_subdivisions=4000, window=None)")

SIGNATURES = {
    'Black':
        '() -> None',
    'ChannelBreakdown':
        "(prop_s: 'float', prop_p: 'float', evan_s: 'float', evan_p: 'float', "
        "error: 'float' = 0.0, converged: 'bool' = True, "
        "warnings: 'tuple[str, ...]' = (), neval: 'int' = 0) -> None",
    'Constant':
        "(eps: 'complex' = (1+0j), mu: 'complex' = (1+0j)) -> None",
    'DirectResult':
        "(value: 'float', r_min: 'float', far_field_ok: 'bool') -> None",
    'Drude':
        "(eps_inf: 'float', omega_p: 'float', gamma: 'float', "
        "mu: 'complex' = (1+0j)) -> None",
    'GapSystem':
        "(body1: 'LayerStack', body2: 'LayerStack', gap: 'float', T1: 'float' = 0.0, "
        "T2: 'float' = 0.0) -> None",
    'HeatRateResult':
        "(value: 'float', spectral: 'float', viewfactor: 'float', "
        "window: 'tuple[float, float] | None' = None) -> None",
    'IntegralResult':
        "(value: 'float', error: 'float', converged: 'bool', "
        "worst_interval: 'tuple[float, float] | None' = None, neval: 'int' = 0, "
        'rows: "tuple[\'IntegralResult\', ...]" = ()) -> None',
    'IntegrationSpec':
        "(rtol: 'float' = 1e-08, abs_floor: 'float' = 1e-300, "
        "max_subdivisions: 'int' = 4000, "
        "window: 'tuple[float, float] | None' = None) -> None",
    'LayerStack':
        "(terminal: 'Material', "
        "films: 'tuple[tuple[Material, float], ...]' = ()) -> None",
    'LorentzSum':
        "(eps_inf: 'float', eps_terms: 'tuple[tuple[float, float, float], ...]' = (), "
        "mu_inf: 'float' = 1.0, "
        "mu_terms: 'tuple[tuple[float, float, float], ...]' = ()) -> None",
    'PhysicalConstants':
        "(hbar: 'float' = 1.0545718176461565e-34, k_b: 'float' = 1.380649e-23, "
        "c: 'float' = 299792458.0, sigma_sb: 'float' = 5.670374419184429e-08) -> None",
    'RunConfig':
        "(mode: 'str', system: 'GapSystem | None' = None, T: 'float | None' = None, "
        "source: 'int' = 1, meshes: 'tuple[TriMesh, TriMesh] | None' = None, "
        "geo_temps: 'tuple[float, float] | None' = None, quad_order: 'int' = 4, "
        "integration: 'IntegrationSpec' = <factory>, out_dir: 'Path' = PosixPath('.'), "
        "grid: 'np.ndarray | None' = None, threads: 'int' = 1, "
        "config_sha256: 'str' = '') -> None",
    'ScalarResult':
        "(value: 'float', error: 'float', window: 'tuple[float, float]', "
        "converged: 'bool' = True, note: 'str' = '', neval: 'int' = 0, "
        "omega_nodes: 'int' = 0) -> None",
    'SpectralResult':
        "(omega: 'float', energy: 'ChannelBreakdown', "
        "momentum: 'ChannelBreakdown') -> None",
    'Tabulated':
        "(omega: 'np.ndarray', eps: 'np.ndarray', mu: 'np.ndarray') -> None",
    'TriMesh':
        "(vertices: 'np.ndarray', triangles: 'np.ndarray', "
        "ignored_lines: 'int' = 0) -> None",
    'adaptive_integrate':
        "(f: 'Callable[..., np.ndarray]', a: 'float', b: 'float', " + SPEC + ', '
        "initial_edges: 'Sequence | None' = None, abs_floor=0.0, "
        "batch: 'int | None' = None, per_panel: 'bool' = False) -> 'IntegralResult'",
    'auto_window':
        "(T_max: 'float') -> 'tuple[float, float]'",
    'bb_heat_rate':
        "(m1: 'TriMesh', m2: 'TriMesh', T1: 'float', T2: 'float', "
        "quad_order: 'int' = 4, " + SPEC + ") -> 'HeatRateResult'",
    'bb_transmissivity':
        "(m1: 'TriMesh', m2: 'TriMesh', omega: 'float', "
        "quad_order: 'int' = 4) -> 'float'",
    'bb_transmissivity_direct':
        "(m1: 'TriMesh', m2: 'TriMesh', omega: 'float', "
        "quad_order: 'int' = 4) -> 'DirectResult'",
    'conductance':
        "(system: 'GapSystem', T: 'float', " + SPEC + ") -> 'ScalarResult'",
    'energy_integrand':
        "(r1, r2, krho, omega: 'float', gap: 'float', "
        "pol: 'Polarization | None' = None, khz=None)",
    'energy_transmissivity_pp':
        "(system: 'GapSystem', omega, " + SPEC + ')',
    'eval_response':
        "(material: 'Material', omega)",
    'heat_flux':
        "(system: 'GapSystem', " + SPEC + ") -> 'ScalarResult'",
    'interface_reflection':
        "(eps_from: 'complex', mu_from: 'complex', eps_to: 'complex', "
        "mu_to: 'complex', pol: 'Polarization', omega: 'float', krho) -> 'complex'",
    'is_black':
        "(material: 'Material') -> 'bool'",
    'kz':
        "(eps: 'complex', mu: 'complex', omega: 'float', krho) -> 'complex'",
    'load_mesh':
        "(path) -> 'TriMesh'",
    'main':
        "(argv: 'list[str] | None' = None) -> 'int'",
    'momentum_integrand':
        "(r1, r2, krho, omega: 'float', gap: 'float', "
        "pol: 'Polarization | None' = None, khz=None)",
    'momentum_transmissivity_pp':
        "(system: 'GapSystem', omega, " + SPEC + ')',
    'neq_pressure':
        "(system: 'GapSystem', source: 'int', T_source: 'float', "
        + SPEC + ") -> 'ScalarResult'",
    'parse_config':
        "(text: 'str', base_dir: 'Path | str' = '.', "
        "mode: 'str | None' = None) -> 'RunConfig'",
    'planck_energy':
        "(omega, T: 'float', variant: 'str' = 'thermal')",
    'planck_energy_dT':
        "(omega, T: 'float')",
    'rectangle_mesh':
        "(origin, edge_u, edge_v, nu: 'int' = 1, nv: 'int' = 1) -> 'TriMesh'",
    'run':
        "(cfg: 'RunConfig') -> 'int'",
    'save_obj':
        "(mesh: 'TriMesh', path) -> 'None'",
    'spectrum':
        "(system: 'GapSystem', omegas, " + SPEC + ', '
        "threads: 'int' = 1) -> 'list[SpectralResult]'",
    'stack_reflection':
        "(stack: 'LayerStack', pol: 'Polarization | None', omega, krho, "
        'kz_host_sq=None)',
    'view_factor':
        "(m1: 'TriMesh', m2: 'TriMesh', quad_order: 'int' = 4) -> 'float'",
}

FIELDS = {
    'Black': (),
    'ChannelBreakdown': (
        'prop_s', 'prop_p', 'evan_s', 'evan_p', 'error', 'converged',
        'warnings', 'neval'
    ),
    'Constant': ('eps', 'mu'),
    'DirectResult': ('value', 'r_min', 'far_field_ok'),
    'Drude': ('eps_inf', 'omega_p', 'gamma', 'mu'),
    'GapSystem': ('body1', 'body2', 'gap', 'T1', 'T2'),
    'HeatRateResult': ('value', 'spectral', 'viewfactor', 'window'),
    'IntegralResult': ('value', 'error', 'converged', 'worst_interval', 'neval', 'rows'),
    'IntegrationSpec': ('rtol', 'abs_floor', 'max_subdivisions', 'window'),
    'LayerStack': ('terminal', 'films'),
    'LorentzSum': ('eps_inf', 'eps_terms', 'mu_inf', 'mu_terms'),
    'PhysicalConstants': ('hbar', 'k_b', 'c', 'sigma_sb'),
    'RunConfig': (
        'mode', 'system', 'T', 'source', 'meshes', 'geo_temps', 'quad_order',
        'integration', 'out_dir', 'grid', 'threads', 'config_sha256'
    ),
    'ScalarResult': (
        'value', 'error', 'window', 'converged', 'note', 'neval', 'omega_nodes'
    ),
    'SpectralResult': ('omega', 'energy', 'momentum'),
    'Tabulated': ('omega', 'eps', 'mu'),
    'TriMesh': ('vertices', 'triangles', 'ignored_lines', 'normals', 'areas'),
}

OTHER_KINDS = {
    'ConfigError': 'exception(ValueError)',
    'DegenerateInterfaceError': 'exception(ValueError)',
    'MeshError': 'exception(ValueError)',
    'Polarization': "enum(S='s', P='p')",
    'TableRangeError': 'exception(ValueError)',
}

CLI_USAGE = {
    "-h": "",
    "--config": "CONFIG",
    "--mode": "{spectrum,heat-flux,conductance,pressure,viewfactor,bb-heat}",
    "--out": "OUT",
    "--threads": "THREADS",
    "--tolerance": "TOLERANCE",
}


def _public():
    """Every name a module exports, with the object it names."""
    out = {}
    for module in EXPORTS:
        mod = importlib.import_module(module)
        for name in mod.__all__:
            out.setdefault(name, getattr(mod, name))
    return out


def _kind(obj):
    if isinstance(obj, type) and issubclass(obj, BaseException):
        return f"exception({obj.__mro__[1].__name__})"
    if isinstance(obj, type) and issubclass(obj, enum.Enum):
        return "enum(" + ", ".join(f"{m.name}={m.value!r}" for m in obj) + ")"
    return None


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_module_exports(module):
    assert sorted(importlib.import_module(module).__all__) == EXPORTS[module]


def test_signatures_of_public_callables():
    found = {name: str(inspect.signature(obj)) for name, obj in _public().items()
             if (inspect.isfunction(obj) or inspect.isclass(obj)) and _kind(obj) is None}
    assert found == SIGNATURES


def test_fields_of_public_dataclasses():
    found = {name: tuple(f.name for f in dataclasses.fields(obj))
             for name, obj in _public().items()
             if inspect.isclass(obj) and dataclasses.is_dataclass(obj)}
    assert found == FIELDS


def test_public_exceptions_and_enums():
    found = {name: _kind(obj) for name, obj in _public().items() if _kind(obj)}
    assert found == OTHER_KINDS


def test_cli_flags(capsys):
    with pytest.raises(SystemExit) as stop:
        main(["--help"])
    assert stop.value.code == 0
    usage = capsys.readouterr().out.split("\n\n", 1)[0]
    found = dict(re.findall(r"\[?(--?[a-z][a-z-]*)(?: ([A-Z]+|\{[^}]*\}))?", usage))
    assert found == CLI_USAGE
