"""The benchmark tracer on frequency-batched calls.

A spectrum and a scalar observable each send whole frequency arrays
through the transmissivities, so every inner wavevector integral is a
batch.  The tracer reads a scalar upper limit, an int neval and a bool
converged from each adaptive_integrate call; an array in any of them
would break a traced benchmark run.  This test only reads bench/.
"""

import json
import math
from pathlib import Path

import numpy as np

from gaprad import GapSystem, IntegrationSpec, LayerStack
import gaprad.spectral
from conftest import SIC

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_metrics_on_batched_calls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    system = GapSystem(LayerStack(SIC), LayerStack(SIC), 1e-7, 400.0, 300.0)
    spec = IntegrationSpec(rtol=1e-4)
    tracer = spans.Tracer()
    tracer.install()
    try:
        rows = gaprad.spectral.spectrum(system, np.geomspace(1e13, 1e15, 3), spec)
        flux = gaprad.spectral.heat_flux(system, spec)
    finally:
        tracer.uninstall()
    assert len(rows) == 3 and flux.converged
    metrics = spans.layer_metrics(tracer.spans)
    json.dumps(metrics)
    assert all(math.isfinite(v) for v in metrics.values())
    names = {span[3] for span in tracer.spans}
    assert {"quadrature.inner.prop", "quadrature.inner.evan"} <= names
    assert metrics["quadrature.unconverged"] == 0
