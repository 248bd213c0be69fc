"""Frequency integration: heat flux, conductance, photon pressure, spectra.

All three scalar observables are Bose-weighted frequency integrals of a
gap transmissivity, taken over an automatic window
[1e-4, 60] * k_b T / hbar (outside which the thermal weight is negligible)
unless the integration spec carries an explicit window, seeded with 12
log-spaced panels.  The inner wavevector quadrature runs 10x tighter than
the outer frequency tolerance so inner noise cannot defeat outer convergence.

The photon pressure integral deliberately uses the thermal part of the
Planck weight only: the zero-point half quantum belongs to the equilibrium
(Lifshitz/Casimir) stress, which needs different numerics and is out of
scope here.  Every pressure result carries that note in its metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import (CONSTANTS, Tabulated, _check_temperatures, planck_energy,
                        planck_energy_dT)
from .quadrature import IntegrationSpec, adaptive_integrate
from .transmissivity import (NOISE_FRACTION, ChannelBreakdown, GapSystem,
                             energy_transmissivity_pp,
                             momentum_transmissivity_pp)

__all__ = [
    "ScalarResult",
    "SpectralResult",
    "auto_window",
    "heat_flux",
    "conductance",
    "neq_pressure",
    "spectrum",
    "TableRangeError",
    "ZERO_POINT_NOTE",
]

_HBAR = CONSTANTS.hbar
_K_B = CONSTANTS.k_b
_TWO_PI = 2.0 * math.pi

ZERO_POINT_NOTE = ("thermal part only; zero-point (equilibrium Casimir) "
                   "contribution excluded")

_DEFAULT_SPEC = IntegrationSpec()
_INNER_FACTOR = 10.0
_OUTER_SEED_PANELS = 12


@dataclass(frozen=True)
class ScalarResult:
    """A frequency-integrated observable with its quadrature metadata.

    error is the sum of the outer panels' error estimates.  It may exceed
    rtol * |value| while converged is True: the outer test holds each panel,
    not their sum, to max(rtol * |value|, floor).
    """

    value: float
    error: float
    window: tuple[float, float]
    converged: bool = True
    note: str = ""
    neval: int = 0          # wavevector integrand points, every frequency node
    omega_nodes: int = 0    # frequency nodes of the outer integral


@dataclass(frozen=True)
class SpectralResult:
    """Energy and momentum channel breakdowns at one frequency."""

    omega: float
    energy: ChannelBreakdown
    momentum: ChannelBreakdown


def auto_window(T_max: float) -> tuple[float, float]:
    """Frequency window [1e-4, 60] k_b T / hbar covering the Bose weight."""
    scale = _K_B * T_max / _HBAR
    if not (T_max > 0.0 and math.isfinite(60.0 * scale)):
        raise ValueError("auto window needs a positive temperature whose window is finite, "
                         f"got T_max={T_max!r}")
    return 1e-4 * scale, 60.0 * scale


def _outer_edges(lo: float, hi: float) -> np.ndarray:
    """Log-spaced seed edges of every frequency integral, sorted, inside the window and
    without repeats, which np.geomspace does not ensure for a window a few ulps wide."""
    edges = np.sort(np.clip(np.geomspace(lo, hi, _OUTER_SEED_PANELS + 1), lo, hi))
    return edges[np.diff(edges, prepend=-np.inf) > 0.0]   # np.unique would import numpy.ma


class TableRangeError(ValueError):
    """A frequency window or grid leaves the range of a tabulated medium."""


def _check_tables(system: GapSystem, lo: float, hi: float) -> None:
    for name, stack in (("body1", system.body1), ("body2", system.body2)):
        for m in (stack.terminal, *(film for film, _ in stack.films)):
            if isinstance(m, Tabulated) and (lo < m.omega[0] or hi > m.omega[-1]):
                raise TableRangeError(
                    f"{name}: frequencies [{lo:.6e}, {hi:.6e}] rad/s leave the "
                    f"range [{m.omega[0]:.6e}, {m.omega[-1]:.6e}] rad/s of its "
                    "tabulated medium, which is not extrapolated")


def _window(system: GapSystem, spec: IntegrationSpec, T_max: float) -> tuple[float, float]:
    """The spec's window, else the automatic one; either must stay inside
    every tabulated medium, checked before the first integrand evaluation."""
    window = spec.window or auto_window(T_max)
    _check_tables(system, *window)
    return window


def _integrate_spectrum(weight, transmissivity, system: GapSystem,
                        spec: IntegrationSpec, window: tuple[float, float],
                        noise_scale: float, note: str = "") -> ScalarResult:
    inner_spec = spec.tighter(_INNER_FACTOR)
    inner_ok = True
    inner_neval = 0

    def f(omegas: np.ndarray) -> np.ndarray:
        # one batched transmissivity call per integrand call of the sweep
        nonlocal inner_ok, inner_neval
        bds = transmissivity(system, omegas, inner_spec)
        inner_ok = inner_ok and all(bd.converged for bd in bds)
        inner_neval += sum(bd.neval for bd in bds)
        return weight(omegas) * np.array([bd.total for bd in bds]) / _TWO_PI

    lo, hi = window
    res = adaptive_integrate(f, lo, hi, spec, initial_edges=_outer_edges(lo, hi),
                             abs_floor=NOISE_FRACTION * noise_scale, per_panel=True)
    return ScalarResult(res.value, res.error, window, res.converged and inner_ok, note,
                        neval=inner_neval, omega_nodes=res.neval)


def heat_flux(system: GapSystem, spec: IntegrationSpec = _DEFAULT_SPEC) -> ScalarResult:
    """Net radiative flux from body 1 to body 2, W/m^2.

    The integrand weighs the energy transmissivity by the difference of the
    thermal Planck energies at T1 and T2 (the zero-point halves cancel
    identically), so equal temperatures give exactly zero and swapping the
    temperatures flips the sign exactly.
    """
    if system.T1 == 0.0 and system.T2 == 0.0:
        raise ValueError("heat flux needs at least one positive temperature")
    T1, T2 = system.T1, system.T2
    window = _window(system, spec, max(T1, T2))

    def weight(w: np.ndarray) -> np.ndarray:
        return planck_energy(w, T1) - planck_energy(w, T2)

    scale = CONSTANTS.sigma_sb * abs(T1**4 - T2**4)
    return _integrate_spectrum(weight, energy_transmissivity_pp, system, spec, window, scale)


def conductance(system: GapSystem, T: float,
                spec: IntegrationSpec = _DEFAULT_SPEC) -> ScalarResult:
    """Linearized radiative conductance at temperature T, W/(m^2 K).

    Equals the T1, T2 -> T limit of heat_flux / (T1 - T2); for black bodies
    this is 4 sigma T^3.
    """
    _check_temperatures("conductance needs a finite T > 0", positive=True, T=T)
    window = _window(system, spec, T)

    def weight(w: np.ndarray) -> np.ndarray:
        return planck_energy_dT(w, T)

    scale = 4.0 * CONSTANTS.sigma_sb * T**3
    return _integrate_spectrum(weight, energy_transmissivity_pp, system, spec, window, scale)


def neq_pressure(system: GapSystem, source: int, T_source: float,
                 spec: IntegrationSpec = _DEFAULT_SPEC) -> ScalarResult:
    """Thermal photon pressure in the gap due to sources in one body, Pa.

    source selects the emitting body (1 or 2; the other body is treated as
    cold).  The sign convention follows the momentum transmissivity with the
    emitting body in the role of body 1: black bodies give
    -(2/3) sigma T^4 / c.  Only the thermal part of the Planck weight enters
    (see ZERO_POINT_NOTE).
    """
    if source not in (1, 2):
        raise ValueError(f"source must be 1 or 2, got {source!r}")
    _check_temperatures("neq_pressure needs a finite T_source > 0", positive=True,
                        T_source=T_source)
    window = _window(system, spec, T_source)

    def weight(w: np.ndarray) -> np.ndarray:
        return planck_energy(w, T_source)

    scale = (2.0 / 3.0) * CONSTANTS.sigma_sb * T_source**4 / CONSTANTS.c
    return _integrate_spectrum(weight, momentum_transmissivity_pp,
                               system if source == 1 else system.swapped(), spec, window,
                               scale, note=ZERO_POINT_NOTE)


def spectrum(system: GapSystem, omegas, spec: IntegrationSpec = _DEFAULT_SPEC,
             threads: int = 1) -> list[SpectralResult]:
    """Energy and momentum breakdowns on a frequency grid, in grid order.

    threads is accepted for compatibility and has no effect: the grid is
    evaluated in order on the calling thread.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    if omegas.ndim != 1:
        raise ValueError(f"the frequency grid must be 1-D, got shape {omegas.shape}")
    if len(omegas):
        _check_tables(system, omegas.min(), omegas.max())
    return [SpectralResult(omega=w, energy=e, momentum=m) for w, e, m in zip(
        omegas.tolist(), energy_transmissivity_pp(system, omegas, spec),
        momentum_transmissivity_pp(system, omegas, spec))]
