"""Checks of the benchmark's outputs against references, closed forms and
properties.  Each check returns a Check; none of them imports gaprad, so
the self-test can feed them values moved beyond their tolerances.

Tolerances:
- a scalar observable passes within rtol * |ref| + ref_err, where rtol is
  the tolerance the operation asked for and ref_err the stored error of
  the independent reference;
- a spectrum channel also gets gaprad's documented absolute noise floor,
  1e-13 of the channel's Landauer ceiling;
- reciprocity under a body swap holds to 1e-12 relative, and a stack
  reflection matches the 40-digit recursion to 1e-10 relative;
- a view factor of these meshes (fixed-order quadrature, no requested
  tolerance) matches its catalog formula to 1e-6 relative, and the dyadic
  route matches (w^2 / 2 pi c^2) A1 F to 1e-6 relative.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

NOISE_FRACTION = 1e-13        # gaprad's documented noise floor of a channel
T_MAX = 20.0                  # gaprad's evanescent cutoff in t = |kz| gap
RECIPROCITY_RTOL = 1e-12
REFLECTION_RTOL = 1e-10
VIEW_FACTOR_RTOL = 1e-6
DIRECT_RTOL = 1e-6
C = 299792458.0


@dataclass(frozen=True)
class Check:
    """One verdict.  A failed check with a fault names a known fault of the
    program in operation op: the run counts that operation as failed
    instead of reporting its outputs incorrect."""

    name: str
    ok: bool
    detail: str
    op: str = ""
    fault: str = ""


def within(name: str, value: float, ref: float, rtol: float, abs_err: float = 0.0,
           fault: str = "", fault_tol: float = 0.0) -> Check:
    """value within rtol * |ref| + abs_err of ref.  A miss of at most
    fault_tol is the known fault `fault` of the program; a larger miss, or
    any miss where no fault is named, is a wrong output."""
    tol = rtol * abs(ref) + abs_err
    dev = abs(value - ref)
    ok = math.isfinite(value) and dev <= tol
    known = not ok and math.isfinite(value) and dev <= fault_tol
    return Check(name, ok, f"{value!r} vs {ref!r}: |dev| {dev:.3e}, tol {tol:.3e}",
                 fault=fault if known else "")


# ------------------------------------------------------------ closed forms

def parallel_squares_view_factor(side: float, gap: float) -> float:
    """Catalog view factor of directly opposed, aligned side x side squares."""
    X = Y = side / gap
    t1 = 0.5 * math.log((1 + X * X) * (1 + Y * Y) / (1 + X * X + Y * Y))
    t2 = X * math.sqrt(1 + Y * Y) * math.atan(X / math.sqrt(1 + Y * Y))
    t3 = Y * math.sqrt(1 + X * X) * math.atan(Y / math.sqrt(1 + X * X))
    return 2 / (math.pi * X * Y) * (t1 + t2 + t3 - X * math.atan(X) - Y * math.atan(Y))


def perpendicular_view_factor(h: float, w: float, edge: float) -> float:
    """Catalog view factor from a w x edge rectangle to an h x edge rectangle
    at right angles to it along their common edge."""
    H, W = h / edge, w / edge
    a = (1 + W * W) * (1 + H * H) / (1 + W * W + H * H)
    b = W * W * (1 + W * W + H * H) / ((1 + W * W) * (W * W + H * H))
    c = H * H * (1 + H * H + W * W) / ((1 + H * H) * (H * H + W * W))
    r = math.sqrt(H * H + W * W)
    return (W * math.atan(1 / W) + H * math.atan(1 / H) - r * math.atan(1 / r)
            + 0.25 * (math.log(a) + W * W * math.log(b) + H * H * math.log(c))) / (math.pi * W)


# ------------------------------------------------------------ properties

def landauer(name: str, value: float, ceiling: float) -> Check:
    """A channel lies between 0 and its Landauer ceiling (noise floor
    allowed below 0)."""
    ok = -NOISE_FRACTION * ceiling <= value <= ceiling
    return Check(name, ok, f"{value!r} in [0, {ceiling!r}]")


def energy_ceilings(omega: float, gap: float) -> dict[str, float]:
    """k0^2/4pi for propagating channels, t_max^2/(4 pi gap^2) for evanescent."""
    k0 = omega / C
    prop = k0 * k0 / (4.0 * math.pi)
    evan = T_MAX * T_MAX / (4.0 * math.pi * gap * gap)
    return {"prop_s": prop, "prop_p": prop, "evan_s": evan, "evan_p": evan}


def momentum_ceilings(omega: float, gap: float) -> dict[str, float]:
    """Energy ceilings times the branch bound 2|kz|/omega of the momentum
    kernel (the scale of gaprad's momentum noise floor)."""
    k0 = omega / C
    e = energy_ceilings(omega, gap)
    return {"prop_s": e["prop_s"] * 2 * k0 / omega, "prop_p": e["prop_p"] * 2 * k0 / omega,
            "evan_s": e["evan_s"] * 2 * T_MAX / (omega * gap),
            "evan_p": e["evan_p"] * 2 * T_MAX / (omega * gap)}


def channel(name: str, value: float, ref: float, ref_err: float, rtol: float,
            ceiling: float, fault: str = "", fault_tol: float = 0.0) -> Check:
    """A spectrum channel against its reference, with gaprad's noise floor
    of NOISE_FRACTION times the channel's ceiling."""
    return within(name, value, ref, rtol, ref_err + NOISE_FRACTION * ceiling,
                  fault, fault_tol)


def reciprocal(name: str, a: float, b: float) -> Check:
    dev = abs(a - b)
    ok = dev <= RECIPROCITY_RTOL * abs(a)
    return Check(name, ok, f"|{a!r} - {b!r}| = {dev:.3e}")


def reflection(name: str, r: complex, r_ref: complex) -> Check:
    dev = abs(r - r_ref)
    ok = dev <= REFLECTION_RTOL * max(1.0, abs(r_ref))
    return Check(name, ok, f"{r!r} vs {r_ref!r}: |dev| {dev:.3e}")


def sha256_line(name: str, output_text: str, config_text: str, prefix: str) -> Check:
    """The output names the sha256 of the config text it was run from."""
    want = hashlib.sha256(config_text.encode("utf-8")).hexdigest()
    ok = f"{prefix}config_sha256 = {want}" in output_text.splitlines()
    return Check(name, ok, f"config_sha256 {want[:12]}... {'found' if ok else 'missing'}")


def flag(name: str, ok: bool, detail: str = "") -> Check:
    return Check(name, bool(ok), detail)
