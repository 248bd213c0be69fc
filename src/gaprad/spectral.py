"""Frequency integration: heat flux, conductance, photon pressure, spectra.

All three scalar observables are Bose-weighted frequency integrals of a
gap transmissivity, taken over an automatic window
[1e-4, 60] * k_b T / hbar (outside which the thermal weight is negligible)
unless the integration spec carries an explicit window.  The inner
wavevector quadrature runs 10x tighter than the outer frequency tolerance
so inner noise cannot defeat outer convergence.

The photon pressure integral deliberately uses the thermal part of the
Planck weight only: the zero-point half quantum belongs to the equilibrium
(Lifshitz/Casimir) stress, which needs different numerics and is out of
scope here.  Every pressure result carries that note in its metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .materials import CONSTANTS, Tabulated, planck_energy, planck_energy_dT
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
_OUTER_SEED_PANELS = 32


@dataclass(frozen=True)
class ScalarResult:
    """A frequency-integrated observable with its quadrature metadata."""

    value: float
    error: float
    window: tuple[float, float]
    converged: bool = True
    note: str = ""


@dataclass(frozen=True)
class SpectralResult:
    """Energy and momentum channel breakdowns at one frequency."""

    omega: float
    energy: ChannelBreakdown
    momentum: ChannelBreakdown


def auto_window(T_max: float) -> tuple[float, float]:
    """Frequency window [1e-4, 60] k_b T / hbar covering the Bose weight."""
    if not (T_max > 0.0):
        raise ValueError("auto window needs a positive temperature")
    scale = _K_B * T_max / _HBAR
    return 1e-4 * scale, 60.0 * scale


def _outer_edges(lo: float, hi: float) -> np.ndarray:
    """Log-spaced seed panels of every Bose-weighted frequency integral."""
    return np.geomspace(lo, hi, _OUTER_SEED_PANELS + 1)


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
                        noise_scale: float) -> tuple[float, float, bool]:
    inner_spec = spec.tighter(_INNER_FACTOR)
    inner_ok = True

    def f(omegas: np.ndarray) -> np.ndarray:
        nonlocal inner_ok
        out = np.empty_like(omegas)
        for i, w in enumerate(omegas):
            bd = transmissivity(system, w, inner_spec)
            inner_ok = inner_ok and bd.converged
            out[i] = weight(w) * bd.total / _TWO_PI
        return out

    lo, hi = window
    res = adaptive_integrate(f, lo, hi, spec, initial_edges=_outer_edges(lo, hi),
                             abs_floor=NOISE_FRACTION * noise_scale)
    return res.value, res.error, res.converged and inner_ok


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

    def weight(w: float) -> float:
        return planck_energy(w, T1) - planck_energy(w, T2)

    scale = CONSTANTS.sigma_sb * abs(T1**4 - T2**4)
    value, error, ok = _integrate_spectrum(weight, energy_transmissivity_pp, system,
                                           spec, window, scale)
    return ScalarResult(value, error, window, ok)


def conductance(system: GapSystem, T: float,
                spec: IntegrationSpec = _DEFAULT_SPEC) -> ScalarResult:
    """Linearized radiative conductance at temperature T, W/(m^2 K).

    Equals the T1, T2 -> T limit of heat_flux / (T1 - T2); for black bodies
    this is 4 sigma T^3.
    """
    if not (T > 0.0):
        raise ValueError("conductance needs T > 0")
    window = _window(system, spec, T)

    def weight(w: float) -> float:
        return planck_energy_dT(w, T)

    scale = 4.0 * CONSTANTS.sigma_sb * T**3
    value, error, ok = _integrate_spectrum(weight, energy_transmissivity_pp, system,
                                           spec, window, scale)
    return ScalarResult(value, error, window, ok)


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
    if not (T_source > 0.0):
        raise ValueError("neq_pressure needs T_source > 0")
    window = _window(system, spec, T_source)

    def weight(w: float) -> float:
        return planck_energy(w, T_source)

    scale = (2.0 / 3.0) * CONSTANTS.sigma_sb * T_source**4 / CONSTANTS.c
    value, error, ok = _integrate_spectrum(
        weight, momentum_transmissivity_pp,
        system if source == 1 else system.swapped(), spec, window, scale)
    return ScalarResult(value, error, window, ok, note=ZERO_POINT_NOTE)


def spectrum(system: GapSystem, omegas, spec: IntegrationSpec = _DEFAULT_SPEC,
             threads: int = 1) -> list[SpectralResult]:
    """Energy and momentum breakdowns on a frequency grid, in grid order.

    threads is accepted for compatibility and has no effect: the grid is
    evaluated in order on the calling thread.
    """
    omegas = [float(w) for w in np.atleast_1d(omegas)]
    if omegas:
        _check_tables(system, min(omegas), max(omegas))
    return [SpectralResult(omega=w,
                           energy=energy_transmissivity_pp(system, w, spec),
                           momentum=momentum_transmissivity_pp(system, w, spec))
            for w in omegas]
