"""The benchmark tracer on the mesh path.

bench/spans.py wraps gaprad.geometry's and gaprad.cli's view_factor,
bb_heat_rate, bb_transmissivity_direct, adaptive_integrate and
planck_energy, and gaprad.cli's run; a rename there would make a traced
mesh run fail.  This test only reads bench/.
"""

import math
from pathlib import Path

import gaprad.cli
import gaprad.geometry
from gaprad import rectangle_mesh, save_obj

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_tracer_records_every_mesh_layer(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    m1 = rectangle_mesh([0, 0, 0], [1, 0, 0], [0, 1, 0], 2, 2)
    m2 = rectangle_mesh([0, 0, 1], [0, 1, 0], [1, 0, 0], 2, 2)
    save_obj(m1, tmp_path / "sq1.obj")
    save_obj(m2, tmp_path / "sq2.obj")
    conf = tmp_path / "run.conf"
    conf.write_text("[geometry]\nmesh1 = sq1.obj\nmesh2 = sq2.obj\nT1 = 400\nT2 = 300\n",
                    encoding="utf-8")
    tracer = spans.Tracer()
    tracer.install()
    try:
        codes = [gaprad.cli.main(["--config", str(conf), "--mode", mode,
                                  "--out", str(tmp_path / mode)])
                 for mode in ("viewfactor", "bb-heat")]
        direct = gaprad.geometry.bb_transmissivity_direct(m1, m2, 1e15)
    finally:
        tracer.uninstall()
    assert codes == [0, 0] and direct.value > 0.0
    names = {span[3] for span in tracer.spans}
    for name in ("geometry.view_factor", "geometry.bb_heat_rate", "geometry.direct",
                 "quadrature.outer", "materials.planck", "cli.run"):
        assert name in names, name
    metrics = spans.layer_metrics(tracer.spans, tracer.direct_peak)
    assert all(math.isfinite(v) for v in metrics.values())
    assert metrics["geometry.direct.peak_alloc_mb"] > 0
    assert not hasattr(gaprad.geometry.bb_transmissivity_direct, "__wrapped__")
