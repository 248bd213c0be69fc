"""Globally adaptive 1-D quadrature on nested Gauss-Kronrod panels.

One integrator serves every integral in the package: the in-plane
wavevector integrals of the transmissivities, the frequency integrals, the
blackbody closure checks and the view factors' boundary integrals.  Each
panel carries a 15-point Kronrod value and QUADPACK's QK15 error estimate
(Piessens et al., QUADPACK, Springer 1983): with resasc = the Kronrod
integral of |f - mean f| over the panel, its error is
resasc * min(1, (200 |K15 - G7| / resasc)^1.5), the raw Kronrod-Gauss
difference where resasc vanishes.  An integral passes when the sum of its
panel errors is at most max(rtol * |total|, floor), as in QUADPACK's QAG,
with one absolute floor per integral.
Each sweep of a failing integral bisects every panel whose error exceeds
its tolerance over its panel count and evaluates all new panels in one
pass, the batched idiom of quad_vec, in calls of at most 96 panels.  Each
call's weighted sums (Kronrod and Gauss in one contraction of both weight
rows with the values, then resasc's) are formed before the next call, so
no temporary of the values outgrows one call however large a sweep grows;
QK15's formula then runs once over the sweep's sums.  Vector integrands
(both polarizations) pass the test component by component; a batch of
integrals (one per frequency or boundary run) shares each sweep in calls
of whole panels, each row with its own seeds and convergence.  Noisy
integrands (the frequency integrals over inner quadratures) may keep the
older test instead: each panel's bare Kronrod-Gauss difference against the
whole tolerance.  Kronrod nodes are interior, so endpoints are never
evaluated.
"""

from __future__ import annotations

import math
import numbers
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
_WKG = np.stack([_WK, _WG])   # Kronrod and Gauss sums in one contraction
_NODES = len(_XK)   # abscissae per panel


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
            raise ValueError(f"abs_floor must be >= 0, got {self.abs_floor!r}")
        if self.abs_floor == math.inf:   # its tolerance would pass every panel
            raise ValueError(f"abs_floor must be finite, got {self.abs_floor!r}")
        if not isinstance(self.max_subdivisions, numbers.Integral):
            raise ValueError(f"max_subdivisions must be an integer, "
                             f"got {self.max_subdivisions!r}")
        if self.max_subdivisions < 0:
            raise ValueError("max_subdivisions must be >= 0")
        if self.window is not None:
            if np.shape(self.window) != (2,):
                raise ValueError(f"window must be a (lo, hi) pair, got {self.window!r}")
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


def _eval_panels(f: Callable, lo: np.ndarray, hi: np.ndarray, row: np.ndarray,
                 raw_error: bool):
    """Kronrod values and error estimates, (panels, components), and whether
    f returned one value per abscissa.  The estimate is QK15's, or with
    raw_error the bare Kronrod-Gauss difference.  Each call's weighted sums
    are formed before the next call, so no temporary of the integrand's
    values outgrows one call; QK15's formula then runs once over the sums."""
    half = 0.5 * (hi - lo)[:, None]
    mid = 0.5 * (hi + lo)[:, None]
    kg, res = [], []
    for s in (slice(i, i + _PANELS_PER_CALL) for i in range(0, len(lo), _PANELS_PER_CALL)):
        x = mid[s] + half[s] * _XK
        fx = np.asarray(f(x.ravel(), np.repeat(row[s], _NODES)), dtype=float)
        scalar = fx.ndim == 1
        # one row of 15 values per (component, panel), without a copy when
        # f returns a transposed (components, points) array, as the gap
        # kernel does
        m = fx.T.reshape(-1, _NODES)
        if not np.isfinite(m).all():
            bad = ~np.isfinite(fx).reshape(x.size, -1).all(axis=1)
            raise ValueError(f"non-finite integrand value near x={x.ravel()[bad][0]!r}")
        # einsum, unlike BLAS, sums each row alike wherever it sits, so a
        # batch row stays bitwise its integral done alone
        sums = np.einsum("ri,ki->kr", m, _WKG)   # the K15 and G7 sums
        kg.append(sums.reshape(2, -1, len(x)))
        if not raw_error:   # resasc's: the Kronrod sum of |f - mean f|
            res.append(np.einsum("ri,i->r", np.abs(m - 0.5 * sums[0, :, None]), _WK)
                       .reshape(-1, len(x)))
    k15, g7 = np.concatenate(kg, axis=2).transpose(0, 2, 1)   # (panels, components) each
    raw = np.abs(half * (k15 - g7))
    if raw_error:
        return half * k15, raw, scalar
    resasc = np.abs(half) * np.concatenate(res, axis=1).T
    ratio = np.divide(200.0 * raw, resasc, out=np.ones_like(raw), where=resasc > 0.0)
    return (half * k15, np.where(resasc > 0.0, resasc * np.minimum(ratio, 1.0) ** 1.5, raw),
            scalar)


def _seed_panels(a: float, b: float, initial_edges, n_rows: int):
    """(lo, hi, row, seeds per row) of the seed panels: initial_edges is
    None, one edge sequence for every row, or one per row of a batch."""
    if initial_edges is None:
        per_row = [(a, b)] * n_rows
    elif len(initial_edges) == 0 or np.ndim(initial_edges[0]) == 0:
        per_row = [initial_edges] * n_rows
    elif len(initial_edges) == n_rows:
        per_row = initial_edges
    else:
        raise ValueError(f"need one edge array per row, got {len(initial_edges)} "
                         f"for {n_rows} rows")
    # all rows' edges in one array: a row's last edge starts no panel and
    # its first edge ends none
    counts = np.array([len(e) for e in per_row])
    edges = np.concatenate(per_row, dtype=float)
    ok = edges.ndim == 1 and np.all(counts >= 2)
    if ok:
        last = np.cumsum(counts) - 1
        first = last - (counts - 1)
        lo, hi = np.delete(edges, last), np.delete(edges, first)
        ok = np.all(edges[first] == a) and np.all(edges[last] == b) and np.all(hi > lo)
    if not ok:
        raise ValueError("initial_edges must increase strictly from a to b")
    return lo, hi, np.repeat(np.arange(n_rows), counts - 1), counts - 1


def adaptive_integrate(f: Callable[..., np.ndarray],
                       a: float, b: float,
                       spec: IntegrationSpec = IntegrationSpec(),
                       initial_edges: Sequence | None = None,
                       abs_floor=0.0, batch: int | None = None,
                       per_panel: bool = False) -> IntegralResult:
    """Integrate f over a finite [a, b], a < b, to the tolerances in spec.

    f must accept an ndarray of n abscissae and return n values, or an
    (n, m) array of m components; it is never called at a or b.  An
    integral passes when, for every component, the sum of its panel errors
    is at most max(rtol * |its total|, floor).  Until it does, each sweep
    bisects every panel on which some failing component's error exceeds
    that tolerance over the panel count, and evaluates the new panels in
    one pass: f is called on at most 96 panels at a time, and each call's
    weighted sums are formed before the next.  The budget is
    max_subdivisions bisections per component; when it runs short, the
    panels furthest over their share go first.  initial_edges seeds the
    panel layout (useful to resolve known scales before adaptivity
    starts); it must begin at a and end at b.  On exhaustion the partial
    result is returned with converged=False and the location of the worst
    remaining panel.  value and error are the sums the tolerance test last
    used: floats for a scalar integrand and (m,) arrays otherwise.

    abs_floor raises the spec's absolute floor for this one integral;
    callers that know the rounding scale of their integrand (for example a
    transmission numerator built from 1 - |R|^2 cancellations) pass it so
    that a pure-noise integrand converges to its floor instead of burning
    the whole subdivision budget.

    batch=B >= 1 runs B integrals over the same [a, b] in one sweep loop:
    f(x, row) gets the integral row[i] of each abscissa x[i], in whole
    panels: len(x) is a multiple of 15 and row is constant over each run of
    15 abscissae, so f may view them as (panels, 15).  abs_floor may be a
    (B,) array, and initial_edges may be one edge array per row (rows need
    not share a seed count).  Each row keeps its own tolerance, budget
    and convergence, and its sums depend on its own panels only, so it is
    bitwise the integral done alone.  value and error gain a leading (B,)
    axis, converged means every row, neval is the total, and rows holds
    each row's IntegralResult, whose arrays are views of the batch's.

    per_panel=True keeps the looser test for an integrand that carries
    noise of its own, as the frequency integrand built from inner
    quadratures does: each panel's bare Kronrod-Gauss difference is held to
    max(rtol * |total|, floor) on its own, so the summed error may exceed
    it.  On such noise the QK15 estimate of a panel shrinks more slowly than
    the panel, and a summed test bisects on without end.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got [{a!r}, {b!r}]")
    if batch is not None and not isinstance(batch, numbers.Integral):
        raise ValueError(f"batch must be an integer, got {batch!r}")
    if batch is not None and batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch!r}")
    n_rows = 1 if batch is None else batch
    g = (lambda x, row: f(x)) if batch is None else f
    try:
        floor = np.broadcast_to(np.asarray(abs_floor, dtype=float), (n_rows,))
    except (TypeError, ValueError):
        floor = np.full(n_rows, np.nan)
    if not (floor >= 0.0).all():   # NaN too: its tolerance would pass every panel
        raise ValueError(f"abs_floor must be >= 0, one number or one per row ({n_rows}), "
                         f"got {abs_floor!r}")
    if (floor == math.inf).any():   # and so would an infinite one
        raise ValueError(f"abs_floor must be finite, got {abs_floor!r}")
    floor = np.maximum(spec.abs_floor, floor)
    lo, hi, row, seeds = _seed_panels(a, b, initial_edges, n_rows)
    vals, errs, scalar = _eval_panels(g, lo, hi, row, per_panel)
    m = vals.shape[1]
    budget = np.full(n_rows, spec.max_subdivisions * m)
    while True:
        # bincount adds each row's panels in their array order, which
        # depends on that row alone
        totals = np.stack([np.bincount(row, vals[:, c], n_rows) for c in range(m)], 1)
        errors = np.stack([np.bincount(row, errs[:, c], n_rows) for c in range(m)], 1)
        # an rtol above 1 may overflow here: an infinite tolerance passes
        with np.errstate(over="ignore"):
            tol = np.maximum(spec.rtol * np.abs(totals), floor[:, None])
        # a failing component's share of its tolerance on each panel of its row
        panels = np.bincount(row, minlength=n_rows)
        share = (tol if per_panel
                 else np.where(errors > tol, tol / panels[:, None], np.inf))[row]
        # per panel, the largest error/share ratio of a failing component
        with np.errstate(divide="ignore"):
            excess = np.divide(errs, share, out=np.zeros_like(errs),
                               where=errs > share).max(axis=1)
        # rows whose budget is spent keep their failing panels
        split = np.flatnonzero((excess > 0.0) & (budget[row] > 0))
        if len(split) == 0:
            break
        # within each row, furthest over its share first, up to its budget
        split = split[np.lexsort((-excess[split], row[split]))]
        rank = np.arange(len(split)) - np.searchsorted(row[split], row[split])
        split = split[rank < budget[row[split]]]
        srow = row[split]
        budget -= np.bincount(srow, minlength=n_rows)
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate([lo[split], mid])
        new_hi = np.concatenate([mid, hi[split]])
        new_row = np.concatenate([srow, srow])
        v2, e2, _ = _eval_panels(g, new_lo, new_hi, new_row, per_panel)
        keep = np.ones(len(lo), dtype=bool)
        keep[split] = False
        lo = np.concatenate([lo[keep], new_lo])
        hi = np.concatenate([hi[keep], new_hi])
        row = np.concatenate([row[keep], new_row])
        vals = np.concatenate([vals[keep], v2])
        errs = np.concatenate([errs[keep], e2])

    # every row reports the sums its panels were last tested against; its
    # worst panel is its first, in array order, of largest excess
    order = np.lexsort((-excess, row))
    worst_i = order[np.searchsorted(row[order], np.arange(n_rows))]
    worst = [None if excess[i] == 0.0 else (float(lo[i]), float(hi[i])) for i in worst_i]
    neval = (30 * panels - 15 * seeds).tolist()
    if scalar:
        totals, errors = totals[:, 0], errors[:, 0]
    per_row = zip(*(a.tolist() if scalar else a for a in (totals, errors)), worst, neval)
    rows = tuple(IntegralResult(v, e, w is None, w, n) for v, e, w, n in per_row)
    if batch is None:
        return rows[0]
    first_bad = next((w for w in worst if w is not None), None)
    return IntegralResult(totals, errors, first_bad is None, first_bad, sum(neval), rows)
