"""Globally adaptive 1-D quadrature on nested Gauss-Kronrod panels.

One integrator serves every integral in the package: the in-plane
wavevector integrals of the transmissivities, the frequency integrals and
the blackbody closure checks.  Each panel carries a 15-point Kronrod value
and the error estimate given by its difference from the embedded 7-point
Gauss value.  Each sweep bisects every panel whose error exceeds the
relative tolerance times the running total (or an absolute floor) and
evaluates all new panels in one pass, the batched idiom of QUADPACK and
quad_vec.  Vector integrands (both polarizations) pass the test component
by component; a batch of integrals (one per frequency) shares each sweep
while every row converges on its own.  Kronrod nodes are interior, so
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
    spectral integrals, positive and finite; None selects the automatic
    Planck-weighted window.
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
            if not (0.0 < lo < hi < math.inf):
                raise ValueError(f"frequency window must satisfy 0 < lo < hi < inf, "
                                 f"got window={self.window!r}")

    def tighter(self, factor: float) -> "IntegrationSpec":
        """Copy with the relative tolerance divided by factor."""
        return replace(self, rtol=self.rtol / factor)


@dataclass(frozen=True)
class IntegralResult:
    value: float                      # ndarray (m,) for an (n, m) integrand
    error: float                      # sum of panel error estimates, likewise
    converged: bool                   # for a batch: every row converged
    worst_interval: tuple[float, float] | None = None   # set when not converged
    neval: int = 0                    # for a batch: the total over its rows
    rows: tuple["IntegralResult", ...] = ()   # a batch's per-row results


# at most this many panels (15 abscissae each) go into one integrand call,
# which bounds the integrand's temporaries however many rows are in flight
_PANELS_PER_CALL = 96


def _eval_panels(f: Callable, lo: np.ndarray, hi: np.ndarray, row: np.ndarray):
    """Kronrod values and Gauss-Kronrod error estimates, (panels, components),
    and whether f returned one value per abscissa."""
    half = 0.5 * (hi - lo)
    mid = 0.5 * (hi + lo)
    vals, errs = [], []
    for i in range(0, len(lo), _PANELS_PER_CALL):
        s = slice(i, i + _PANELS_PER_CALL)
        x = (mid[s, None] + half[s, None] * _XK[None, :]).ravel()
        fx = np.asarray(f(x, np.repeat(row[s], 15)), dtype=float)
        scalar = fx.ndim == 1
        fx = fx.reshape(len(x) // 15, 15, -1)
        finite = np.isfinite(fx).all(axis=2)
        if not finite.all():
            bad = x.reshape(-1, 15)[~finite]
            raise ValueError(f"non-finite integrand value near x={bad[0]!r}")
        vals.append(half[s, None] * np.einsum("pic,i->pc", fx, _WK))
        errs.append(np.abs(vals[-1] - half[s, None] * np.einsum("pic,i->pc", fx, _WG)))
    return np.concatenate(vals), np.concatenate(errs), scalar


def adaptive_integrate(f: Callable[..., np.ndarray],
                       a: float, b: float,
                       spec: IntegrationSpec = IntegrationSpec(),
                       initial_edges: Sequence[float] | None = None,
                       abs_floor=0.0, batch: int | None = None) -> IntegralResult:
    """Integrate f over a finite [a, b], a < b, to the tolerances in spec.

    f must accept an ndarray of n abscissae and return n values, or an
    (n, m) array of m components; it is never called at a or b.  Each
    sweep bisects every panel on which some component's error exceeds
    max(rtol * |its running total|, floor) and evaluates the new panels in
    one pass, in calls of at most 96 panels.  The budget is
    max_subdivisions bisections per component; when it runs short, the
    panels furthest over their tolerance go first.  initial_edges seeds
    the panel layout (useful to resolve known scales before adaptivity
    starts); it must begin at a and end at b.  On exhaustion the partial
    result is returned with converged=False and the location of the worst
    remaining panel.  value and error are the sums the tolerance test last
    used: floats for a scalar integrand and (m,) arrays otherwise.

    abs_floor raises the spec's absolute floor for this one integral;
    callers that know the rounding scale of their integrand (for example a
    transmission numerator built from 1 - |R|^2 cancellations) pass it so
    that a pure-noise integrand converges to its floor instead of burning
    the whole subdivision budget.

    batch=B >= 1 runs B integrals over the same [a, b] and initial_edges in
    one sweep loop: f(x, row) gets the integral row[i] of each abscissa x[i],
    and abs_floor may be a (B,) array.  Each row keeps its own tolerance,
    budget and convergence, and its sums depend on its own panels only, so
    it is bitwise the integral done alone.  value and error gain a leading
    (B,) axis, converged means every row, neval is the total, and rows
    holds each row's IntegralResult, whose arrays are views of the batch's.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch!r}")
    n_rows = 1 if batch is None else batch
    g = (lambda x, row: f(x)) if batch is None else f
    floor = np.maximum(spec.abs_floor, np.broadcast_to(abs_floor, (n_rows,)))
    if initial_edges is None:
        edges = np.array([a, b], dtype=float)
    else:
        edges = np.asarray(initial_edges, dtype=float)
        if edges[0] != a or edges[-1] != b or np.any(np.diff(edges) <= 0.0):
            raise ValueError("initial_edges must increase strictly from a to b")

    seeds = len(edges) - 1
    lo, hi = np.tile(edges[:-1], n_rows), np.tile(edges[1:], n_rows)
    row = np.repeat(np.arange(n_rows), seeds)
    vals, errs, scalar = _eval_panels(g, lo, hi, row)
    m = vals.shape[1]
    budget = np.full(n_rows, spec.max_subdivisions * m)
    while True:
        # bincount adds each row's panels in their array order, which
        # depends on that row alone
        totals = np.stack([np.bincount(row, vals[:, c], n_rows) for c in range(m)], 1)
        tol = np.maximum(spec.rtol * np.abs(totals), floor[:, None])
        # per panel, the largest error/tolerance ratio of a failing component
        with np.errstate(divide="ignore"):
            excess = np.divide(errs, tol[row], out=np.zeros_like(errs),
                               where=errs > tol[row]).max(axis=1)
        # rows whose budget is spent keep their failing panels
        split = np.flatnonzero((excess > 0.0) & (budget[row] > 0))
        if len(split) == 0:
            break
        # within each row, furthest over tolerance first, up to its budget
        split = split[np.lexsort((-excess[split], row[split]))]
        rank = np.arange(len(split)) - np.searchsorted(row[split], row[split])
        split = split[rank < budget[row[split]]]
        srow = row[split]
        budget -= np.bincount(srow, minlength=n_rows)
        mid = 0.5 * (lo[split] + hi[split])
        v2, e2, _ = _eval_panels(g, np.concatenate([lo[split], mid]),
                                 np.concatenate([mid, hi[split]]),
                                 np.concatenate([srow, srow]))
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], lo[split], mid])
        hi = np.concatenate([hi[keep], mid, hi[split]])
        row = np.concatenate([row[keep], srow, srow])
        vals = np.concatenate([vals[keep], v2])
        errs = np.concatenate([errs[keep], e2])

    # every row reports the totals its panels were last tested against;
    # its worst panel is its first, in array order, of largest excess
    errors = np.stack([np.bincount(row, errs[:, c], n_rows) for c in range(m)], 1)
    order = np.lexsort((-excess, row))
    worst_i = order[np.searchsorted(row[order], np.arange(n_rows))]
    worst = [None if excess[i] == 0.0 else (float(lo[i]), float(hi[i])) for i in worst_i]
    neval = (30 * np.bincount(row, minlength=n_rows) - 15 * seeds).tolist()
    if scalar:
        totals, errors = totals[:, 0], errors[:, 0]
    per_row = zip(*(a.tolist() if scalar else a for a in (totals, errors)), worst, neval)
    rows = tuple(IntegralResult(v, e, w is None, w, n) for v, e, w, n in per_row)
    if batch is None:
        return rows[0]
    first_bad = next((w for w in worst if w is not None), None)
    return IntegralResult(totals, errors, first_bad is None, first_bad, sum(neval), rows)
