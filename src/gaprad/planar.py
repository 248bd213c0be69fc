"""Plane-wave optics of layered half spaces.

Provides the z-component of the wavevector on the decaying branch, the
single-interface Fresnel coefficients for media with both electric and
magnetic response, and the multilayer reflection coefficient of a half
space seen from the vacuum side, built by the standard downward recursion
(unconditionally stable for lossy films).

Conventions: a stack is a semi-infinite terminal medium behind an ordered
list of films, listed from the vacuum interface inward.  The host is always
vacuum (eps = mu = 1).  Reflection coefficients follow the mu-weighted form
for s polarization and the eps-weighted form for p polarization, so
exchanging eps and mu in every medium exchanges the two polarizations
exactly.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .materials import CONSTANTS, Material, _positive_omega, eval_response, is_black

__all__ = [
    "Polarization",
    "LayerStack",
    "DegenerateInterfaceError",
    "kz",
    "interface_reflection",
    "stack_reflection",
]

_C = CONSTANTS.c


class Polarization(enum.Enum):
    S = "s"   # transverse electric
    P = "p"   # transverse magnetic


class DegenerateInterfaceError(ValueError):
    """Vanishing Fresnel denominator (contrived lossless coincidence)."""


@dataclass(frozen=True)
class LayerStack:
    """Semi-infinite terminal medium plus finite films facing the vacuum gap.

    films are (material, thickness_m) pairs ordered from the vacuum interface
    inward.  The stack is a single-body property: its reflection never
    references the opposing body.
    """

    terminal: Material
    films: tuple[tuple[Material, float], ...] = ()

    def __post_init__(self) -> None:
        films = tuple((m, float(d)) for m, d in self.films)
        object.__setattr__(self, "films", films)
        for _, d in films:
            if not (d > 0.0 and math.isfinite(d)):
                raise ValueError(f"film thickness must be finite and > 0, got {d!r}")


def _branch_sqrt(arg) -> np.ndarray:
    out = np.sqrt(np.asarray(arg, dtype=complex), out=np.empty(np.shape(arg), complex))
    # flipped in place (out= keeps a 0-d root an array); the principal root has
    # Re >= 0, so after this flip Im == 0 implies Re >= 0
    return np.negative(out, out=out, where=out.imag < 0.0)


def _product(a, b):
    """a b, bitwise _product(b, a): numpy's complex multiply (FMA) rounds a b, b a apart."""
    return 0.5 * (a * b + b * a)


def kz(eps: complex, mu: complex, omega: float, krho) -> complex:
    """z-wavevector sqrt(eps*mu*(w/c)^2 - krho^2) on the physical branch.

    The branch has Im kz >= 0 so that exp(i kz d) decays into lossy media and
    along evanescent tails; when Im kz = 0 exactly, Re kz >= 0.  krho may be
    a scalar or an ndarray.
    """
    k0 = omega / _C
    arg = complex(eps) * complex(mu) * k0 * k0 - np.square(np.asarray(krho, dtype=float))
    out = _branch_sqrt(arg)
    return out if np.ndim(krho) else complex(out)


def _fresnel(w1, kz1, w2, kz2):
    # r = (w2 kz1 - w1 kz2) / (w2 kz1 + w1 kz2); w is mu for s, eps for p
    a, b = w2 * kz1, w1 * kz2
    den = a + b
    if np.any(den == 0.0):
        raise DegenerateInterfaceError("vanishing Fresnel denominator")
    return (a - b) / den


def interface_reflection(eps_from: complex, mu_from: complex,
                         eps_to: complex, mu_to: complex,
                         pol: Polarization, omega: float, krho) -> complex:
    """Fresnel reflection for a wave in medium `from` hitting medium `to`.

    s polarization weighs the z-wavevectors by mu, p polarization by eps,
    so the two polarization values are exact eps<->mu duals of each other.
    """
    kz1 = kz(eps_from, mu_from, omega, krho)
    kz2 = kz(eps_to, mu_to, omega, krho)
    if pol is Polarization.S:
        return _fresnel(mu_from, kz1, mu_to, kz2)
    return _fresnel(eps_from, kz1, eps_to, kz2)


def _media_chain(stack: LayerStack, omega):
    """(eps, mu, thickness) per medium from vacuum inward, truncated at the
    first black medium, which acts as a semi-infinite matched absorber.
    omega is checked as eval_response checks it, also when no response is
    evaluated."""
    chain = [(1.0 + 0.0j, 1.0 + 0.0j, None)]   # vacuum host
    for material, d in (*stack.films, (stack.terminal, None)):
        if is_black(material):
            if len(chain) == 1:
                _positive_omega(omega)
            chain.append((1.0 + 0.0j, 1.0 + 0.0j, None))
            break
        chain.append((*eval_response(material, omega), d))
    return chain


def stack_reflection(stack: LayerStack, pol: Polarization | None, omega, krho,
                     kz_host_sq=None):
    """Reflection coefficient of the full stack seen from vacuum.

    Zero films reduces to the bare vacuum-terminal interface.  Otherwise the
    downward recursion
        R_j = (r_{j,j+1} + R_{j+1} e^{2i kz_{j+1} d_{j+1}})
              / (1 + r_{j,j+1} R_{j+1} e^{2i kz_{j+1} d_{j+1}})
    is applied from the terminal medium up to the vacuum interface.  A black
    terminal (or film) truncates the chain; a bare black half space returns
    exactly zero.  krho may be scalar or ndarray; omega may be an ndarray
    that broadcasts against it (one frequency per point, or per row of
    points), every point bitwise its scalar-omega value.  The media are
    evaluated at omega's own shape, once per frequency it holds.

    pol=None returns both polarizations, shape (2,) + the point shape, s
    first: the s (mu) and p (eps) weights are stacked on a leading axis, so
    one chain, one set of kz and one recursion serve both.  A single
    polarization is row 0 (s) or row 1 (p) of that same recursion, bitwise;
    it is a complex for scalar omega and krho, an array otherwise.

    kz_host_sq optionally supplies the exact vacuum kz^2 = (w/c)^2 - krho^2,
    which the wavevector quadrature knows without cancellation; krho then
    gives only the shape, and every medium kz is sqrt(kz_host_sq +
    (eps*mu - 1)(w/c)^2), so a vacuum-like medium reproduces the host kz exactly.
    """
    # the media at omega's own shape, once per frequency; a scalar omega
    # against array krho is an array too, so it rounds as a per-point omega
    shape = np.broadcast_shapes(np.shape(omega), np.shape(krho))
    omega = np.reshape(omega, np.shape(omega) or (1,) * len(shape))
    k0 = omega / _C
    if kz_host_sq is None:
        krho_arr = np.asarray(krho, dtype=float)
        kz_host_sq = (k0 - krho_arr) * (k0 + krho_arr)
    chain = _media_chain(stack, omega)
    emu = [_product(e, m) for e, m, _ in chain[1:]]
    kzs = [_branch_sqrt(kz_host_sq),   # the vacuum host's (eps mu - 1)(w/c)^2 is 0
           *(_branch_sqrt(kz_host_sq + (em - 1.0) * k0 * k0) for em in emu)]
    weights = [np.reshape([m, e], (2,) + (1,) * (len(shape) - np.ndim(m)) + np.shape(m))
               for e, m, _ in chain]

    n = len(chain)
    r = _fresnel(weights[n - 2], kzs[n - 2], weights[n - 1], kzs[n - 1])
    for j in range(n - 3, -1, -1):
        d_next = chain[j + 1][2]
        r = r * np.exp(2j * kzs[j + 1] * d_next)
        r_if = _fresnel(weights[j], kzs[j], weights[j + 1], kzs[j + 1])
        r = (r_if + r) / (1.0 + r_if * r)
    if pol is None:
        return r
    r = r[0 if pol is Polarization.S else 1]
    return r if omega.ndim else complex(r)
