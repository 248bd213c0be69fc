"""One round of the benchmark's mesh workload passes.

bench/workloads.py builds the mesh operations (view factor and bb-heat
through the CLI, the dyadic route) and the checks of their outputs;
bench/run.py runs a round and judges it.  A mesh change that the
benchmark would refuse, by a failed operation or a wrong output, fails
here with the operation and check named.  This test only reads bench/.
"""

from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_mesh_round_passes_every_check(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    wl = workloads.build("mesh", 0, tmp_path / "mesh")
    _, _, values, failures = run.run_round(wl.ops)
    checks = wl.check_round(values)
    names = [name for name, _ in wl.ops]
    failed, wrong = run.judge(names, [failures], [checks], wl.check_once())
    assert failed == [] and wrong == []
    assert len(checks) >= len(names)
