"""Spans around gaprad's public functions, and the layer metrics built from them.

Tracer.install() replaces each public function by a wrapper at every
module attribute through which gaprad itself (or the benchmark) calls it,
so the package under test is not edited.  Every wrapped call records one
span: (id, parent id, operation id, name, start, end, extra), where extra
holds what the layer did (points, evaluations and panels, triangle pairs,
CPU seconds).  Spans stay in memory and are written once, at the end.

The wrappers are thread-safe: each thread keeps its own stack of open
spans, ids come from a counter under a lock, and a span opened on a
worker thread with an empty stack (the spectrum thread pool) takes the
main thread's innermost open span as its parent.
"""

from __future__ import annotations

import itertools
import threading
import time
import tracemalloc

import numpy as np

import gaprad.cli
import gaprad.geometry
import gaprad.planar
import gaprad.spectral
import gaprad.transmissivity
from gaprad.transmissivity import EVANESCENT_CUTOFF

_perf = time.perf_counter
_cpu = time.process_time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.op: int | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._saved: list[tuple] = []

    # ------------------------------------------------------------ recording

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            main = threading.current_thread() is threading.main_thread()
            stack = self._main_stack if main else []
            self._local.stack = stack
        return stack

    def call(self, name: str, fn, args=(), kwargs=None, before=None, after=None):
        """Run fn(*args, **kwargs) inside a span.  before(args, kwargs)
        returns state for after(state, result), which returns the span's
        extra count."""
        kwargs = kwargs or {}
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            main = self._main_stack
            parent = main[-1] if main else None
        with self._lock:
            sid = next(self._ids)
        state = before(args, kwargs) if before else None
        stack.append(sid)
        t0 = _perf()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = _perf()
            stack.pop()
            extra = after(state, result) if after and result is not None else 0
            with self._lock:
                self.spans.append((sid, parent, self.op, name, t0, t1, extra))

    def wrap(self, name: str, fn, before=None, after=None):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)
        wrapper.__wrapped__ = fn
        return wrapper

    # ------------------------------------------------------------ patching

    def _patch(self, module, attr: str, wrapper) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def install(self) -> None:
        """Wrap the public functions of every gaprad layer at their call sites."""
        tm, pl, sp, ge, cl = (gaprad.transmissivity, gaprad.planar, gaprad.spectral,
                              gaprad.geometry, gaprad.cli)
        self._patch(pl, "eval_response", self.wrap("materials.eval_response", pl.eval_response))
        for mod in (sp, ge):
            self._patch(mod, "planck_energy", self.wrap("materials.planck", mod.planck_energy))
        self._patch(sp, "planck_energy_dT", self.wrap("materials.planck", sp.planck_energy_dT))
        self._patch(tm, "stack_reflection", self.wrap(
            "planar.stack_reflection", tm.stack_reflection,
            before=lambda a, k: int(np.size(a[3] if len(a) > 3 else k["krho"])),
            after=lambda points, _: points))
        for attr in ("energy_integrand", "momentum_integrand"):
            self._patch(tm, attr, self.wrap("transmissivity.integrand", getattr(tm, attr)))
        for attr in ("energy_transmissivity_pp", "momentum_transmissivity_pp"):
            self._patch(sp, attr, self.wrap("transmissivity.pp", getattr(sp, attr)))
        self._patch(tm, "adaptive_integrate", self._quadrature(tm.adaptive_integrate, inner=True))
        for mod in (sp, ge):
            self._patch(mod, "adaptive_integrate",
                        self._quadrature(mod.adaptive_integrate, inner=False))
        for attr in ("heat_flux", "conductance", "neq_pressure"):
            for mod in (sp, cl):
                self._patch(mod, attr, self.wrap(f"spectral.{attr}", getattr(mod, attr)))
        for mod in (sp, cl):
            self._patch(mod, "spectrum", self.wrap(
                "spectral.spectrum", mod.spectrum,
                before=lambda a, k: _cpu(), after=lambda c0, _: _cpu() - c0))
        self._patch(cl, "load_mesh", self.wrap("geometry.load_mesh", cl.load_mesh))
        for mod in (ge, cl):
            self._patch(mod, "view_factor", self.wrap(
                "geometry.view_factor", mod.view_factor,
                before=lambda a, k: len(a[0].triangles) * len(a[1].triangles),
                after=lambda pairs, _: pairs))
        self._patch(cl, "bb_heat_rate", self.wrap("geometry.bb_heat_rate", cl.bb_heat_rate))
        self._patch(ge, "bb_transmissivity_direct", self._direct(ge.bb_transmissivity_direct))
        self._patch(cl, "parse_config", self.wrap("cli.parse_config", cl.parse_config))
        self._patch(cl, "run", self.wrap("cli.run", cl.run))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _quadrature(self, fn, inner: bool):
        """adaptive_integrate wrapper: the inner (wavevector) integrals are
        told apart by their upper limit, EVANESCENT_CUTOFF or omega/c; the
        integrand callbacks get spans of their own so self time can be
        separated from them."""
        def wrapper(f, a, b, *args, **kwargs):
            if inner:
                name = ("quadrature.inner.evan" if b == EVANESCENT_CUTOFF
                        else "quadrature.inner.prop")
            else:
                name = "quadrature.outer"
            edges = kwargs.get("initial_edges", args[1] if len(args) > 1 else None)
            panels = 1 if edges is None else len(edges) - 1
            callback = self.wrap(name + ".f", f)
            return self.call(name, fn, (callback, a, b) + args, kwargs,
                             after=lambda _, res: (res.neval, panels, res.converged))
        return wrapper

    def _direct(self, fn):
        """bb_transmissivity_direct with its peak traced allocation (bytes)."""
        def run(*args, **kwargs):
            tracemalloc.start()
            try:
                result = fn(*args, **kwargs)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return result, peak

        def wrapper(*args, **kwargs):
            result, self.direct_peak = self.call("geometry.direct", run, args, kwargs)
            return result
        self.direct_peak = 0
        return wrapper

    # ------------------------------------------------------------ output

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,op,name,start_s,end_s,extra\n")
            for sid, parent, op, name, t0, t1, extra in self.spans:
                fh.write(f"{sid},{parent or ''},{op},{name},{t0:.9f},{t1:.9f},"
                         f"{extra if not isinstance(extra, tuple) else extra[0]}\n")


PER_LAYER = (
    "materials.eval_response.calls", "materials.eval_response.s", "materials.planck.calls",
    "planar.stack_reflection.calls", "planar.stack_reflection.points",
    "planar.stack_reflection.s", "planar.stack_reflection.ns_per_point",
    "quadrature.inner.calls", "quadrature.inner.neval", "quadrature.inner.self_s",
    "quadrature.inner.useful_ratio", "quadrature.outer.neval", "quadrature.outer.self_s",
    "quadrature.unconverged",
    "transmissivity.pp.calls", "transmissivity.pp.s", "transmissivity.integrand.s",
    "transmissivity.prop.neval", "transmissivity.prop.s",
    "transmissivity.evan.neval", "transmissivity.evan.s",
    "spectral.heat_flux.s", "spectral.conductance.s", "spectral.neq_pressure.s",
    "spectral.spectrum.s", "spectral.spectrum.cpu_s",
    "geometry.load_mesh.s", "geometry.view_factor.s", "geometry.view_factor.pairs_per_s",
    "geometry.bb_heat_rate.s", "geometry.direct.s", "geometry.direct.peak_alloc_mb",
    "cli.parse_config.s", "cli.run.s", "cli.output_bytes",
    "trace.overhead_s", "trace.op_coverage", "trace.spans",
)

UNITS = {"calls": "count", "points": "count", "neval": "count", "unconverged": "count",
         "spans": "count", "output_bytes": "B", "ns_per_point": "ns", "pairs_per_s": "1/s",
         "peak_alloc_mb": "MB", "useful_ratio": "ratio", "op_coverage": "ratio",
         "s": "s", "self_s": "s", "cpu_s": "s", "overhead_s": "s"}


def unit_of(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


def layer_metrics(spans, direct_peak_bytes: int = 0) -> dict[str, float]:
    """Per-layer metrics of one round's spans (idle layers read zero)."""
    calls: dict[str, int] = {}
    secs: dict[str, float] = {}
    extra: dict[str, float] = {}
    child_s: dict[int, float] = {}
    quad = []
    unconverged = 0
    for sid, parent, _, name, t0, t1, ex in spans:
        dur = t1 - t0
        calls[name] = calls.get(name, 0) + 1
        secs[name] = secs.get(name, 0.0) + dur
        if parent is not None:
            child_s[parent] = child_s.get(parent, 0.0) + dur
        if name.startswith("quadrature.") and not name.endswith(".f"):
            quad.append((sid, name, dur, ex))
        elif isinstance(ex, (int, float)):
            extra[name] = extra.get(name, 0) + ex

    inner = {"neval": 0, "panels": 0, "self": 0.0, "calls": 0}
    outer = {"neval": 0, "self": 0.0}
    branch_neval = {"prop": 0, "evan": 0}
    for sid, name, dur, ex in quad:
        if not ex:
            continue
        neval, panels0, converged = ex
        unconverged += not converged
        self_s = dur - child_s.get(sid, 0.0)
        if name == "quadrature.outer":
            outer["neval"] += neval
            outer["self"] += self_s
        else:
            # each bisection replaces one panel by two and costs 30 points
            inner["panels"] += panels0 + (neval - 15 * panels0) // 30
            inner["neval"] += neval
            inner["self"] += self_s
            inner["calls"] += 1
            branch_neval[name.rsplit(".", 1)[1]] += neval

    points = extra.get("planar.stack_reflection", 0)
    pairs = extra.get("geometry.view_factor", 0)
    out = {
        "materials.eval_response.calls": calls.get("materials.eval_response", 0),
        "materials.eval_response.s": secs.get("materials.eval_response", 0.0),
        "materials.planck.calls": calls.get("materials.planck", 0),
        "planar.stack_reflection.calls": calls.get("planar.stack_reflection", 0),
        "planar.stack_reflection.points": points,
        "planar.stack_reflection.s": secs.get("planar.stack_reflection", 0.0),
        "planar.stack_reflection.ns_per_point":
            1e9 * secs["planar.stack_reflection"] / points if points else 0.0,
        "quadrature.inner.calls": inner["calls"],
        "quadrature.inner.neval": inner["neval"],
        "quadrature.inner.self_s": inner["self"],
        "quadrature.inner.useful_ratio":
            15.0 * inner["panels"] / inner["neval"] if inner["neval"] else 0.0,
        "quadrature.outer.neval": outer["neval"],
        "quadrature.outer.self_s": outer["self"],
        "quadrature.unconverged": unconverged,
        "transmissivity.pp.calls": calls.get("transmissivity.pp", 0),
        "transmissivity.pp.s": secs.get("transmissivity.pp", 0.0),
        "transmissivity.integrand.s": secs.get("transmissivity.integrand", 0.0),
        "transmissivity.prop.neval": branch_neval["prop"],
        "transmissivity.prop.s": secs.get("quadrature.inner.prop", 0.0),
        "transmissivity.evan.neval": branch_neval["evan"],
        "transmissivity.evan.s": secs.get("quadrature.inner.evan", 0.0),
        "spectral.heat_flux.s": secs.get("spectral.heat_flux", 0.0),
        "spectral.conductance.s": secs.get("spectral.conductance", 0.0),
        "spectral.neq_pressure.s": secs.get("spectral.neq_pressure", 0.0),
        "spectral.spectrum.s": secs.get("spectral.spectrum", 0.0),
        "spectral.spectrum.cpu_s": extra.get("spectral.spectrum", 0.0),
        "geometry.load_mesh.s": secs.get("geometry.load_mesh", 0.0),
        "geometry.view_factor.s": secs.get("geometry.view_factor", 0.0),
        "geometry.view_factor.pairs_per_s":
            pairs / secs["geometry.view_factor"] if pairs else 0.0,
        "geometry.bb_heat_rate.s": secs.get("geometry.bb_heat_rate", 0.0),
        "geometry.direct.s": secs.get("geometry.direct", 0.0),
        "geometry.direct.peak_alloc_mb": direct_peak_bytes / 2 ** 20,
        "cli.parse_config.s": secs.get("cli.parse_config", 0.0),
        "cli.run.s": secs.get("cli.run", 0.0),
        "trace.spans": len(spans),
    }
    return out
