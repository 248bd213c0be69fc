"""Material dispersion models and thermal photon statistics.

Every medium that can appear in a layer stack is described by one of the
small frozen dataclasses below, evaluated through :func:`eval_response`,
which returns the complex relative permittivity and permeability at an
angular frequency.  All models are passive: the imaginary parts of both
responses are non-negative for every positive frequency.

The module also hosts the mean thermal photon energy (Planck weight) and
its temperature derivative, the weights of every spectral integral in the
package.  Frequencies are angular (rad/s); SI units throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "PhysicalConstants",
    "CONSTANTS",
    "Constant",
    "Drude",
    "LorentzSum",
    "Tabulated",
    "Black",
    "Material",
    "eval_response",
    "is_black",
    "planck_energy",
    "planck_energy_dT",
]

# exact SI definitions (2019); sigma stored at full float64 precision so the
# derived-vs-stored identity holds far below 1e-12
_H_PLANCK = 6.62607015e-34
_HBAR = _H_PLANCK / (2.0 * math.pi)
_K_B = 1.380649e-23
_C_LIGHT = 299792458.0
_SIGMA_SB = 5.670374419184429e-08       # pi^2 k_b^4 / (60 c^2 hbar^3)


@dataclass(frozen=True)
class PhysicalConstants:
    """Fixed physical constants used everywhere; not configurable."""

    hbar: float = _HBAR          # J s
    k_b: float = _K_B            # J/K
    c: float = _C_LIGHT          # m/s
    sigma_sb: float = _SIGMA_SB  # W m^-2 K^-4

    def sigma_sb_derived(self) -> float:
        """Stefan-Boltzmann constant recomputed from (hbar, k_b, c)."""
        return math.pi**2 * self.k_b**4 / (60.0 * self.c**2 * self.hbar**3)


CONSTANTS = PhysicalConstants()


def _require_finite(name: str, *values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite material parameter {name}: {v!r}")


def _check_temperatures(message: str, positive: bool = False, **temps: float) -> None:
    """ValueError(message, got ...) unless every temperature is finite and
    >= 0 (> 0 if positive); then one naming the first whose T^4, the scale
    of every blackbody rate, overflows (above about 1.16e77 K)."""
    if not all((T > 0.0 if positive else T >= 0.0) and math.isfinite(T) for T in temps.values()):
        raise ValueError(f"{message}, got {', '.join(map(repr, temps.values()))}")
    for name, T in temps.items():
        try:
            T**4
        except OverflowError:
            raise ValueError(f"{name} = {T!r} K is too large: T^4 overflows") from None


def _require_passive_complex(name: str, z: complex) -> None:
    _require_finite(name, z.real, z.imag)
    if z.imag < 0.0:
        raise ValueError(f"{name} has negative imaginary part {z.imag!r} (active medium)")


@dataclass(frozen=True)
class Constant:
    """Frequency-independent complex (eps, mu)."""

    eps: complex = 1.0 + 0.0j
    mu: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps", complex(self.eps))
        object.__setattr__(self, "mu", complex(self.mu))
        _require_passive_complex("eps", self.eps)
        _require_passive_complex("mu", self.mu)


@dataclass(frozen=True)
class Drude:
    """Free-carrier response eps(w) = eps_inf - omega_p^2/(w^2 + i gamma w).

    The permeability is a fixed constant (default vacuum).
    """

    eps_inf: float
    omega_p: float   # rad/s
    gamma: float     # rad/s
    mu: complex = 1.0 + 0.0j

    def __post_init__(self) -> None:
        object.__setattr__(self, "mu", complex(self.mu))
        _require_finite("eps_inf/omega_p/gamma", self.eps_inf, self.omega_p, self.gamma)
        _require_passive_complex("mu", self.mu)
        if self.omega_p < 0.0 or self.gamma < 0.0:
            raise ValueError("Drude omega_p and gamma must be >= 0")


@dataclass(frozen=True)
class LorentzSum:
    """Sum of Lorentz oscillators for eps, and optionally for mu.

    Each term is (strength, omega_0, gamma) contributing
    strength * omega_0^2 / (omega_0^2 - w^2 - i gamma w).
    """

    eps_inf: float
    eps_terms: tuple[tuple[float, float, float], ...] = ()
    mu_inf: float = 1.0
    mu_terms: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "eps_terms", tuple(tuple(t) for t in self.eps_terms))
        object.__setattr__(self, "mu_terms", tuple(tuple(t) for t in self.mu_terms))
        _require_finite("eps_inf/mu_inf", self.eps_inf, self.mu_inf)
        for label, terms in (("eps", self.eps_terms), ("mu", self.mu_terms)):
            for s, w0, g in terms:
                _require_finite(f"{label} oscillator", s, w0, g)
                if s < 0.0 or w0 <= 0.0 or g < 0.0:
                    raise ValueError(
                        f"{label} oscillator (strength={s}, omega0={w0}, gamma={g}) "
                        "violates passivity (need strength >= 0, omega0 > 0, gamma >= 0)"
                    )


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Sampled (omega, eps, mu); linear interpolation, no extrapolation."""

    omega: np.ndarray        # strictly increasing, rad/s
    eps: np.ndarray          # complex samples
    mu: np.ndarray           # complex samples

    def __post_init__(self) -> None:
        w = np.asarray(self.omega, dtype=float)
        e = np.asarray(self.eps, dtype=complex)
        m = np.asarray(self.mu, dtype=complex)
        if w.ndim != 1 or w.size < 2 or e.shape != w.shape or m.shape != w.shape:
            raise ValueError("tabulated material needs matching 1-D omega/eps/mu samples")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(e)) and np.all(np.isfinite(m))):
            raise ValueError("non-finite entry in material table")
        if np.any(np.diff(w) <= 0.0):
            raise ValueError("non-monotonic table: omega samples must be strictly increasing")
        if np.any(e.imag < 0.0) or np.any(m.imag < 0.0):
            raise ValueError("material table violates passivity (negative imaginary part)")
        object.__setattr__(self, "omega", w)
        object.__setattr__(self, "eps", e)
        object.__setattr__(self, "mu", m)


@dataclass(frozen=True)
class Black:
    """Perfectly absorbing marker: impedance-matched (eps = mu = 1), nothing
    returns from beyond it.  The reflection code treats it as a semi-infinite
    terminal, so a bare black half space reflects exactly zero."""


Material = Constant | Drude | LorentzSum | Tabulated | Black


def is_black(material: Material) -> bool:
    return isinstance(material, Black)


def _positive_omega(omega) -> np.ndarray:
    """omega as a float array of its shape, or ValueError naming its first
    value that is not positive and finite."""
    w = np.asarray(omega, dtype=float)
    ok = (w > 0.0) & (w < math.inf)
    if not ok.all():
        raise ValueError(f"omega must be positive and finite, got {float(w[~ok][0])!r}")
    return w


def _resonances(material: Material) -> np.ndarray:
    """Complex frequencies c - i delta, c > 0, where eps or mu has a pole, a zero
    or equals -1, each term on its own background inf: the roots of
    w^2 + i gamma w = w0^2 k, k = 1 (Lorentz pole) or 1 + s / (inf - t) (Lorentz
    response t in {0, -1}), w0^2 k = wp^2 / (inf - t) (Drude), skipping inf = t."""
    rows = []
    if isinstance(material, Drude):
        rows = [(material.omega_p * material.omega_p / (material.eps_inf - t), material.gamma)
                for t in (0.0, -1.0) if material.eps_inf != t]
    elif isinstance(material, LorentzSum):
        rows = [(w0 * w0 * k, g)
                for inf, terms in ((material.eps_inf, material.eps_terms),
                                   (material.mu_inf, material.mu_terms))
                for s, w0, g in terms
                for k in (1.0, *(1.0 + s / (inf - t) for t in (0.0, -1.0) if inf != t))]
    w0_sq, g = np.array(rows, dtype=float).reshape(-1, 2).T
    w = np.sqrt(w0_sq - 0.25 * g * g + 0j) - 0.5j * g
    return w[w.real > 0.0]


def eval_response(material: Material, omega):
    """Complex (eps, mu) of a material at angular frequency omega > 0.

    An ndarray omega gives arrays of its shape, bitwise the scalar calls.
    Tabulated materials interpolate linearly and refuse frequencies outside
    the table range, naming the first.  A Black material reports vacuum
    response (1, 1); its special handling lives in the reflection code (see
    :func:`is_black`).
    """
    shape = np.shape(omega)
    # scalars take the array path too, so both give the same bits
    w = _positive_omega(omega).reshape(-1)
    if isinstance(material, Constant):
        eps, mu = np.full(w.shape, material.eps), np.full(w.shape, material.mu)
    elif isinstance(material, Drude):
        eps = material.eps_inf - material.omega_p**2 / (w**2 + 1j * material.gamma * w)
        mu = np.full(w.shape, material.mu)
    elif isinstance(material, LorentzSum):
        eps, mu = (sum((s * w0**2 / (w0**2 - w**2 - 1j * g * w) for s, w0, g in terms),
                       np.full(w.shape, complex(inf)))
                   for inf, terms in ((material.eps_inf, material.eps_terms),
                                      (material.mu_inf, material.mu_terms)))
    elif isinstance(material, Tabulated):
        t = material.omega
        outside = (w < t[0]) | (w > t[-1])
        if outside.any():
            raise ValueError(
                f"omega {w[outside][0]:.6e} outside table range [{t[0]:.6e}, {t[-1]:.6e}]; "
                "extrapolation is not supported"
            )
        eps = np.interp(w, t, material.eps.real) + 1j * np.interp(w, t, material.eps.imag)
        mu = np.interp(w, t, material.mu.real) + 1j * np.interp(w, t, material.mu.imag)
    elif isinstance(material, Black):
        eps = mu = np.full(w.shape, 1.0 + 0.0j)
    else:
        raise TypeError(f"unknown material type {type(material).__name__}")
    return (eps.reshape(shape), mu.reshape(shape)) if shape else (complex(eps[0]), complex(mu[0]))


def planck_energy(omega, T: float, variant: str = "thermal"):
    """Mean energy of a photon mode at temperature T.

    variant="thermal" returns hbar*w * n(w, T) with the Bose occupation
    n = 1/(exp(hbar*w/k_b/T) - 1), evaluated through expm1 so the classical
    limit hbar*w << k_b*T carries no cancellation.  variant="total" adds the
    zero-point hbar*w/2; the two variants differ by exactly that amount.

    Parameters
    ----------
    omega : float or ndarray
        Angular frequency, rad/s, > 0.
    T : float
        Temperature, K, >= 0.
    variant : str
        "thermal" or "total".

    Returns
    -------
    float or ndarray, J
    """
    if variant not in ("thermal", "total"):
        raise ValueError(f"unknown variant {variant!r}")
    if not (T >= 0.0 and math.isfinite(T)):
        raise ValueError(f"temperature must be finite and >= 0, got {T!r}")
    w = _positive_omega(omega)
    if T == 0.0:
        thermal = np.zeros_like(w)
    else:
        x = _HBAR * w / (_K_B * T)
        with np.errstate(over="ignore"):
            # where expm1 overflows the true value underflows to zero anyway
            thermal = _HBAR * w / np.expm1(x)
    out = thermal if variant == "thermal" else thermal + 0.5 * _HBAR * w
    return out if isinstance(omega, np.ndarray) else float(out)


def planck_energy_dT(omega, T: float):
    """Temperature derivative of the thermal Planck energy, J/K.

    Analytic form k_b * (x / (2 sinh(x/2)))^2 with x = hbar*w/(k_b*T);
    strictly positive, tends to k_b in the classical limit and is
    exponentially suppressed for x >> 1.
    """
    if not (T > 0.0 and math.isfinite(T)):
        raise ValueError(f"temperature must be finite and > 0, got {T!r}")
    w = _positive_omega(omega)
    x = _HBAR * w / (_K_B * T)
    with np.errstate(over="ignore"):
        r = x / (2.0 * np.sinh(0.5 * x))   # overflow of sinh -> r = 0 (suppressed tail)
    out = _K_B * r * r
    return out if isinstance(omega, np.ndarray) else float(out)
