"""The benchmark tracer still finds gaprad's layers at their call sites.

bench/spans.py wraps module attributes (gaprad.transmissivity's
stack_reflection, integrands and adaptive_integrate, gaprad.spectral's
transmissivities); a rename there would make a traced benchmark run fail.
This test only reads bench/.
"""

from pathlib import Path

from gaprad import Constant, GapSystem, IntegrationSpec, LayerStack
import gaprad.spectral

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_records_every_gap_layer(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    st = LayerStack(Constant(3 + 0.5j), ((Constant(2 + 0.2j), 5e-8),))
    system = GapSystem(st, LayerStack(Constant(5 + 1j)), 1e-7, 400.0, 300.0)
    tracer = spans.Tracer()
    tracer.install()
    try:
        bd = gaprad.spectral.energy_transmissivity_pp(system, 1e14, IntegrationSpec(rtol=1e-4))
    finally:
        tracer.uninstall()
    assert bd.converged and bd.total > 0.0
    names = {span[3] for span in tracer.spans}
    for name in ("transmissivity.pp", "planar.stack_reflection", "transmissivity.integrand",
                 "quadrature.inner.prop", "quadrature.inner.evan"):
        assert name in names, name
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["planar.stack_reflection.points"] > 0
    # one two-component integral per branch, one reflection per body and
    # integrand call
    assert metrics["quadrature.inner.calls"] == 2
    count = lambda prefix: sum(span[3].startswith(prefix) for span in tracer.spans)
    assert count("planar.stack_reflection") == 2 * count("quadrature.inner.prop.f") \
        + 2 * count("quadrature.inner.evan.f")
    # the tracer is gone again: the module attributes are the originals
    assert not hasattr(gaprad.spectral.energy_transmissivity_pp, "__wrapped__")
