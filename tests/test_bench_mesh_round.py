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
    # the evanescent fault that workloads.KNOWN_FAULTS and SPECTRUM_FAULT
    # still name no longer shows: no operation of a gap workload fails
    failed, wrong, checks, names = _judged_round(monkeypatch, tmp_path, name)
    assert failed == [] and wrong == []
    assert len(checks) >= len(names)
