#!/usr/bin/env python3
"""Self-test of the benchmark's checks and failure counting; runs in seconds.

    python3 bench/selftest.py

Every check must pass on a value inside its tolerance and fail on one
moved just beyond it, and an operation that raises, reports
non-convergence or exits non-zero must be counted as failed.  Exits 1 and
names the case on the first mismatch.
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import cases  # noqa: E402
import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

FAILURES: list[str] = []


def expect(label: str, check: checks.Check, ok: bool) -> None:
    if check.ok != ok:
        FAILURES.append(f"{label}: expected {'pass' if ok else 'fail'}, got {check.detail}")


def pair(label: str, make, inside: float, outside: float) -> None:
    """make(value) -> Check must pass at inside and fail at outside."""
    expect(f"{label} inside", make(inside), True)
    expect(f"{label} beyond", make(outside), False)


@dataclass
class Fake:
    """Stands in for a gaprad ScalarResult."""
    value: float
    converged: bool = True


def test_checks() -> None:
    ref, rtol, err = 60039.9, 1e-8, 1e-9
    tol = rtol * ref + err
    pair("within", lambda v: checks.within("x", v, ref, rtol, err),
         ref + 0.99 * tol, ref + 1.01 * tol)
    pair("within below", lambda v: checks.within("x", v, ref, rtol, err),
         ref - 0.99 * tol, ref - 1.01 * tol)
    expect("within nan", checks.within("x", math.nan, ref, rtol), False)

    ceil = 7.5e12
    pair("landauer ceiling", lambda v: checks.landauer("x", v, ceil), ceil, ceil * (1 + 1e-12))
    pair("landauer zero", lambda v: checks.landauer("x", v, ceil),
         -0.5e-13 * ceil, -2e-13 * ceil)

    omega, gap = 1.7e14, 50e-9
    ceil = checks.energy_ceilings(omega, gap)["evan_p"]
    tol = 1e-8 * 2.0e14 + 3.0 + checks.NOISE_FRACTION * ceil
    pair("channel", lambda v: checks.channel("x", v, 2.0e14, 3.0, 1e-8, ceil),
         2.0e14 + 0.99 * tol, 2.0e14 + 1.01 * tol)

    a = 1.234e9
    pair("reciprocity", lambda b: checks.reciprocal("x", a, b),
         a * (1 + 0.9e-12), a * (1 + 1.1e-12))
    r = 0.3 - 0.8j
    pair("reflection", lambda v: checks.reflection("x", v, r),
         r + 0.9e-10, r + 1.1e-10)

    config = "[output]\nmode = viewfactor\n"
    good = f"config_sha256 = {hashlib.sha256(config.encode()).hexdigest()}\nversion = 0.1.0\n"
    expect("sha256 match", checks.sha256_line("x", good, config, ""), True)
    expect("sha256 other config", checks.sha256_line("x", good, config + " ", ""), False)
    expect("sha256 absent", checks.sha256_line("x", "version = 0.1.0\n", config, ""), False)
    expect("flag", checks.flag("x", False), False)

    # closed forms against the catalog digits
    pair("parallel squares", lambda v: checks.within("x", v, 0.41525328, 1e-8),
         checks.parallel_squares_view_factor(1.0, 0.5), 0.41525328 * (1 + 2e-8))
    pair("perpendicular squares", lambda v: checks.within("x", v, 0.2000437761, 1e-9),
         checks.perpendicular_view_factor(1.0, 1.0, 1.0), 0.2000437761 * (1 + 2e-9))

    # scalar references: every stored operation, moved beyond rtol + error
    for name in cases.SCALAR_OPS:
        stored = reference_value(name)
        rtol = cases.SCALAR_OPS[name][-1]
        tol = rtol * abs(stored[0]) + stored[1]
        pair(f"scalar {name}", lambda v: workloads._scalar_check(name, Fake(v)),
             stored[0] + 0.99 * tol, stored[0] + 1.01 * tol)

    # the numpy and mpmath recursions agree on the film stack
    k0 = 1e15 / reference.C
    for kz0 in (0.4 * k0 + 0j, 3j * k0):
        krho = math.sqrt(k0 * k0 - (kz0 * kz0).real)
        a = complex(reference.reflection(cases.FILM_ON_GOLD, "p", np.array([k0]),
                                         np.array([kz0]))[0])
        b = reference.reflection_mp(cases.FILM_ON_GOLD, "p", 1e15, krho)
        expect(f"reflection recursions at kz0={kz0:.3e}", checks.reflection("x", a, b), True)


def verdict(check: checks.Check) -> str:
    return "ok" if check.ok else "fault" if check.fault else "wrong"


def expect_verdicts(label: str, make, cases_: list) -> None:
    """make(value) -> Check must give each (value, verdict) of cases_."""
    for value, want in cases_:
        got = verdict(make(value))
        if got != want:
            FAILURES.append(f"{label} at {value!r}: expected {want}, got {got}")


def test_known_faults() -> None:
    """A miss up to a known fault's cap is that fault; a larger miss, or a
    miss where no fault is known, is a wrong output."""
    for name in cases.SCALAR_OPS:
        ref, err = reference_value(name)
        tol = cases.SCALAR_OPS[name][-1] * abs(ref) + err
        if name in workloads.KNOWN_FAULTS:
            cap = workloads.KNOWN_FAULTS[name][1] * abs(ref)
            want = [(ref + 0.99 * tol, "ok"), (ref + 2 * tol, "fault"),
                    (ref - 0.99 * cap, "fault"), (ref + 1.01 * cap, "wrong"),
                    (-ref, "wrong")]
        else:
            want = [(ref - 0.99 * tol, "ok"), (ref + 1.01 * tol, "wrong")]
        expect_verdicts(f"scalar {name}", lambda v: workloads._scalar_check(name, Fake(v)),
                        want)

    # spectrum channels: a table holding the reference values at the checked
    # rows passes; one channel moved within the cap is the known fault, moved
    # beyond it or with every channel scaled by 0.5 the outputs are wrong
    grid = reference.spectrum_grid()
    rows = [workloads.SPECTRUM_FAULT_ROWS["sic"], 10, 200]
    refs = dict(zip(rows, reference.spectrum_rows("sic", grid[rows])))
    header = workloads.SPECTRUM_HEADER
    table = np.zeros((len(grid), len(header)))
    table[:, 0] = grid
    for i, ref in refs.items():
        for j, col in enumerate(header):
            if col in ref:
                table[i, j] = ref[col][0]

    def verdicts(t) -> set[str]:
        return {verdict(c) for c in workloads.spectrum_reference_checks("x", t, refs)}

    if verdicts(table) != {"ok"}:
        FAILURES.append(f"spectrum reference: exact table gives {verdicts(table)}")
    j = header.index("Te_evan_p")
    value, err = refs[200]["Te_evan_p"]
    ceil = checks.energy_ceilings(grid[200], cases.SPECTRUM_GAP)["evan_p"]
    _, rel_cap, ceil_cap = workloads.SPECTRUM_FAULT
    tol = cases.SPECTRUM_RTOL * abs(value) + err + checks.NOISE_FRACTION * ceil
    cap = rel_cap * abs(value) + ceil_cap * ceil
    for moved, want in ((0.99 * tol, {"ok"}), (2 * tol, {"ok", "fault"}),
                        (0.99 * cap, {"ok", "fault"}), (1.01 * cap, {"ok", "wrong"})):
        t = table.copy()
        t[200, j] += moved
        if verdicts(t) != want:
            FAILURES.append(f"spectrum reference moved by {moved:.3e}: {verdicts(t)}")
    t = table.copy()
    t[:, 1:] *= 0.5
    if "wrong" not in verdicts(t):
        FAILURES.append("spectrum reference: channels scaled by 0.5 pass")


def reference_value(name: str) -> tuple[float, float]:
    _, b1, _, _, T1, T2, _ = cases.SCALAR_OPS[name]
    if b1[0]["kind"] == "black":
        return reference.black_heat_flux(T1, T2), 0.0
    stored = json.loads(workloads.REFERENCES.read_text(encoding="utf-8"))[name]
    return stored["value"], stored["error"]


def test_failure_counting(tmp: Path) -> None:
    def raises():
        raise ValueError("omega outside table range")

    def unconverged():
        return Fake(1.0, converged=False), "not converged"

    bad_config = tmp / "bad.conf"
    bad_config.write_text("[output]\nmode = nonsense\n", encoding="utf-8")
    missing = workloads._cli_op(tmp / "absent.conf", tmp, "absent", [])
    invalid = workloads._cli_op(bad_config, tmp, "invalid", [])
    fine = lambda: (Fake(2.0), None)                      # noqa: E731
    ops = [("raises", raises), ("unconverged", unconverged), ("missing", missing),
           ("invalid", invalid), ("fine", fine)]
    _, _, values, failures = run.run_round(ops)
    names = [n for n, _ in ops]
    failed, wrong = run.judge(names, [failures], [[]], [])
    got = sorted(name for _, name, _ in failed)
    if got != sorted(["raises", "unconverged", "missing", "invalid"]):
        FAILURES.append(f"failure counting: failed {got}")
    if wrong or values[-1] is None or any(v is not None for v in values[:-1]):
        FAILURES.append("failure counting: values of failed operations must be dropped")

    # a known-fault miss fails its operation; any other miss is a wrong output
    miss = checks.within("fine vs reference", 1.1, 1.0, 1e-8)
    known = checks.Check(miss.name, False, miss.detail, op="fine", fault="known fault")
    failed, wrong = run.judge(["fine"], [[None]], [[known]], [])
    if len(failed) != 1 or wrong:
        FAILURES.append("known-fault miss must count as a failed operation")
    failed, wrong = run.judge(["fine"], [[None]], [[miss]], [miss])
    if failed or len(wrong) != 2:
        FAILURES.append("a miss outside the known faults must make the outputs wrong")


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.OUT))
    try:
        test_checks()
        test_known_faults()
        test_failure_counting(tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    for f in FAILURES:
        print("SELFTEST FAIL", f)
    print(f"selftest: {'FAIL' if FAILURES else 'ok'} ({len(FAILURES)} failures)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
