"""Globally adaptive 1-D quadrature on nested Gauss-Kronrod panels.

One integrator serves every integral in the package: the in-plane
wavevector integrals of the transmissivities, the frequency integrals of
the spectral module, and the blackbody closure checks.  Each panel carries
a 15-point Kronrod value together with the error estimate given by its
difference from the embedded 7-point Gauss value.  Each sweep bisects
every panel whose error exceeds the relative tolerance times the running
total (or an absolute floor for integrals that vanish) and evaluates all
new panels in one integrand call, the batched idiom of QUADPACK and
quad_vec.  Vector integrands (both polarizations of a transmissivity)
pass the test component by component.  Kronrod nodes are interior, so
endpoints are never evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

__all__ = ["IntegrationSpec", "IntegralResult", "adaptive_integrate"]

# 15-point Kronrod extension of 7-point Gauss on [-1, 1]; Gauss nodes are
# the odd-indexed Kronrod nodes.
_XK_HALF = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
])
_WK_HALF = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG_HALF = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

_XK = np.concatenate([-_XK_HALF[:-1], _XK_HALF[::-1]])          # 15 ascending nodes
_WK = np.concatenate([_WK_HALF[:-1], _WK_HALF[::-1]])
_WG = np.zeros(15)
_WG[1:15:2] = np.concatenate([_WG_HALF[:-1], _WG_HALF[::-1]])   # Gauss weights on shared nodes


@dataclass(frozen=True)
class IntegrationSpec:
    """Tolerances and limits for adaptive integration.

    window is an optional explicit frequency window (rad/s) consumed by the
    spectral integrals; None selects the automatic Planck-weighted window.
    """

    rtol: float = 1e-8
    abs_floor: float = 1e-300
    max_subdivisions: int = 4000
    window: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if not (self.rtol > 0.0 and math.isfinite(self.rtol)):
            raise ValueError(f"rtol must be positive, got {self.rtol!r}")
        if not (self.abs_floor >= 0.0):
            raise ValueError("abs_floor must be >= 0")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be >= 0")
        if self.window is not None:
            lo, hi = self.window
            if not (lo < hi):
                raise ValueError(f"window must satisfy lo < hi, got {self.window!r}")

    def tighter(self, factor: float) -> "IntegrationSpec":
        """Copy with the relative tolerance divided by factor."""
        return replace(self, rtol=self.rtol / factor)


@dataclass(frozen=True)
class IntegralResult:
    value: float                      # ndarray (m,) for an (n, m) integrand
    error: float                      # sum of panel error estimates, likewise
    converged: bool
    worst_interval: tuple[float, float] | None = None   # set when not converged
    neval: int = 0


def _eval_panels(f: Callable, lo: np.ndarray, hi: np.ndarray):
    """Kronrod values and Gauss-Kronrod error estimates, (panels, components),
    and whether f returned one value per abscissa."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    x = (mid[:, None] + half[:, None] * _XK[None, :]).ravel()
    fx = np.asarray(f(x), dtype=float)
    scalar = fx.ndim == 1
    fx = fx.reshape(len(half), 15, -1)
    finite = np.isfinite(fx).all(axis=2)
    if not finite.all():
        bad = x.reshape(len(half), 15)[~finite]
        raise ValueError(f"non-finite integrand value near x={bad[0]!r}")
    vals = half[:, None] * np.einsum("pic,i->pc", fx, _WK)
    errs = np.abs(vals - half[:, None] * np.einsum("pic,i->pc", fx, _WG))
    return vals, errs, scalar


def adaptive_integrate(f: Callable[[np.ndarray], np.ndarray],
                       a: float, b: float,
                       spec: IntegrationSpec = IntegrationSpec(),
                       initial_edges: Sequence[float] | None = None,
                       abs_floor: float = 0.0) -> IntegralResult:
    """Integrate f over [a, b] to the tolerances in spec.

    f must accept an ndarray of n abscissae and return n values, or an
    (n, m) array of m components; it is never called at a or b.  Each
    sweep bisects every panel on which some component's error exceeds
    max(rtol * |its running total|, floor) and evaluates the new panels in
    one call.  The budget is max_subdivisions bisections per component;
    when it runs short, the panels furthest over their tolerance go first.
    initial_edges seeds the panel layout (useful to resolve known scales
    before adaptivity starts); it must begin at a and end at b.  On
    exhaustion the partial result is returned with converged=False and the
    location of the worst remaining panel.  value and error are floats for
    a scalar integrand and (m,) arrays otherwise.

    abs_floor raises the spec's absolute floor for this one integral;
    callers that know the rounding scale of their integrand (for example a
    transmission numerator built from 1 - |R|^2 cancellations) pass it so
    that a pure-noise integrand converges to its floor instead of burning
    the whole subdivision budget.
    """
    if not (a < b):
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    floor = max(spec.abs_floor, abs_floor)
    if initial_edges is None:
        edges = np.array([a, b], dtype=float)
    else:
        edges = np.asarray(initial_edges, dtype=float)
        if edges[0] != a or edges[-1] != b or np.any(np.diff(edges) <= 0.0):
            raise ValueError("initial_edges must increase strictly from a to b")

    lo, hi = edges[:-1], edges[1:]
    vals, errs, scalar = _eval_panels(f, lo, hi)
    neval = 15 * len(lo)
    budget = spec.max_subdivisions * vals.shape[1]
    while True:
        tol = np.maximum(spec.rtol * np.abs(vals.sum(axis=0)), floor)
        # per panel, the largest error/tolerance ratio of a failing component
        with np.errstate(divide="ignore"):
            excess = np.divide(errs, tol, out=np.zeros_like(errs),
                               where=errs > tol).max(axis=1)
        split = np.flatnonzero(excess)
        if len(split) == 0 or budget == 0:
            break
        split = split[np.argsort(-excess[split], kind="stable")[:budget]]
        budget -= len(split)
        mid = 0.5 * (lo[split] + hi[split])
        v2, e2, _ = _eval_panels(f, np.concatenate([lo[split], mid]),
                                 np.concatenate([mid, hi[split]]))
        neval += 30 * len(split)
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        vals = np.concatenate([vals[keep], v2])
        errs = np.concatenate([errs[keep], e2])

    # compensated final sums: panel order must not matter
    value = np.array([math.fsum(col) for col in vals.T])
    error = np.array([math.fsum(col) for col in errs.T])
    if scalar:
        value, error = float(value[0]), float(error[0])
    converged = len(split) == 0
    i = excess.argmax()
    worst = None if converged else (float(lo[i]), float(hi[i]))
    return IntegralResult(value=value, error=error, converged=converged,
                          worst_interval=worst, neval=neval)
