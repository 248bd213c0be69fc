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

from .materials import CONSTANTS, Material, eval_response, is_black

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
    out = np.sqrt(np.asarray(arg, dtype=complex))
    # the principal root has Re >= 0, so after this flip Im == 0 implies Re >= 0
    return np.where(out.imag < 0.0, -out, out)


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
    num = w2 * kz1 - w1 * kz2
    den = w2 * kz1 + w1 * kz2
    if np.any(den == 0.0):
        raise DegenerateInterfaceError("vanishing Fresnel denominator")
    return num / den


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
    first black medium, which acts as a semi-infinite matched absorber."""
    chain = [(1.0 + 0.0j, 1.0 + 0.0j, None)]   # vacuum host
    for material, d in stack.films:
        if is_black(material):
            chain.append((1.0 + 0.0j, 1.0 + 0.0j, None))
            return chain
        e, m = eval_response(material, omega)
        chain.append((e, m, d))
    if is_black(stack.terminal):
        chain.append((1.0 + 0.0j, 1.0 + 0.0j, None))
    else:
        e, m = eval_response(stack.terminal, omega)
        chain.append((e, m, None))
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
    that broadcasts against it (one frequency per point), every point
    bitwise its scalar-omega value.

    pol=None stacks the s (mu) and p (eps) weights on a leading axis, so one
    chain, one set of kz and one recursion return shape (2,) + the point
    shape, s first; for ndarray krho each row is bitwise its single-pol value.

    kz_host_sq optionally supplies the exact vacuum kz^2 = (w/c)^2 - krho^2
    (the evanescent-branch quadrature knows it without cancellation); every
    medium kz is then sqrt(kz_host_sq + (eps*mu - 1)(w/c)^2), so a vacuum-like
    medium reproduces the host kz exactly.
    """
    # one frequency per point, so that every point takes the same arithmetic
    # whether omega came as a scalar or an array
    omega = np.broadcast_to(omega, np.broadcast_shapes(np.shape(omega), np.shape(krho)))
    k0 = omega / _C
    if kz_host_sq is None:
        krho_arr = np.asarray(krho, dtype=float)
        kz_host_sq = (k0 - krho_arr) * (k0 + krho_arr)
    chain = _media_chain(stack, omega)
    kzs = [_branch_sqrt(kz_host_sq + (e * m - 1.0) * k0 * k0) for e, m, _ in chain]
    if pol is None:
        weights = [np.reshape([m, e], (2,) + (1,) * (omega.ndim - np.ndim(m)) + np.shape(m))
                   for e, m, _ in chain]
    else:
        weights = [m if pol is Polarization.S else e for e, m, _ in chain]

    n = len(chain)
    r = _fresnel(weights[n - 2], kzs[n - 2], weights[n - 1], kzs[n - 1])
    for j in range(n - 3, -1, -1):
        d_next = chain[j + 1][2]
        phase = np.exp(2j * kzs[j + 1] * d_next)
        r_if = _fresnel(weights[j], kzs[j], weights[j + 1], kzs[j + 1])
        r = (r_if + r * phase) / (1.0 + r_if * r * phase)
    return r if pol is None or omega.ndim else complex(np.asarray(r))
