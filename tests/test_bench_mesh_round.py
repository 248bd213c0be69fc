"""One round of each benchmark workload fails only by gaprad's known faults.

bench/workloads.py builds the operations of a workload and the checks of
their outputs; bench/run.py runs a round and judges it.  A change that the
benchmark would refuse, by a wrong output or by a larger failed share,
fails here with the operation and check named.  This test only reads
bench/.
"""

from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _judged_round(monkeypatch, tmp_path, name, seed=0):
    """(failed as (round, op, why), wrong checks, checks, op names) of one round."""
    monkeypatch.syspath_prepend(str(BENCH))
    import run
    import workloads

    wl = workloads.build(name, seed, tmp_path / name)
    _, _, values, failures = run.run_round(wl.ops)
    checks = wl.check_round(values)
    names = [op for op, _ in wl.ops]
    failed, wrong = run.judge(names, [failures], [checks], wl.check_once())
    return failed, wrong, checks, names


@pytest.mark.parametrize("seed", range(5))
def test_mesh_round_passes_every_check(monkeypatch, tmp_path, seed):
    # the seed draws the dyadic route's frequency
    failed, wrong, checks, names = _judged_round(monkeypatch, tmp_path, "mesh", seed)
    assert failed == [] and wrong == []
    assert len(checks) >= len(names)


@pytest.mark.parametrize("name", ["nearfield", "farfield", "spectrum"])
def test_round_fails_only_by_known_faults(monkeypatch, tmp_path, name):
    failed, wrong, checks, names = _judged_round(monkeypatch, tmp_path, name)
    import workloads

    def known_fault(op):
        if op in workloads.KNOWN_FAULTS:
            return workloads.KNOWN_FAULTS[op][0]
        return workloads.SPECTRUM_FAULT[0] if op.startswith("spectrum_") else None

    assert wrong == []
    for _, op, why in failed:
        fault = known_fault(op)
        assert fault is not None and why.startswith(fault + ": "), (op, why)
    assert len(checks) >= len(names)
