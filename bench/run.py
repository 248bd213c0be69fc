#!/usr/bin/env python3
"""Run one gaprad benchmark workload and print its metrics.

    python3 bench/run.py --workload nearfield [--seed 0] [--seconds 25] [--trace 0]

The run builds the workload's inputs, measures set-up time in fresh
interpreters, then runs whole rounds of the workload's operations (each
round runs every operation once, in order) for about --seconds seconds,
checks every output, and prints one JSON object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones (wall and CPU time per
round, averaged over the rounds, and the median set-up time); with
--trace 1 untraced and traced rounds alternate and the metrics are the
per-layer ones of the traced rounds.  Exits 2 without a result when
gaprad's sources (src/gaprad) are not beside the benchmark.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from checks import Check

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_RUNS = 15
SETUP_GROUP = 3
# a run of one round would stop exactly when that round was slow; a traced
# run needs one untraced and one traced round
MIN_ROUNDS = 2
WORKLOADS = ("nearfield", "farfield", "spectrum", "mesh")


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-child", metavar="WORKDIR",
                   help="build the inputs in WORKDIR, print 'ready' and exit")
    return p.parse_args(argv)


def _setup_child(args) -> int:
    import workloads
    workloads.build(args.workload, args.seed, Path(args.setup_child))
    print("ready", flush=True)
    return 0


def measure_setup(args, runs: int) -> list[float]:
    """Times from spawning an interpreter to its 'ready' line: start, import
    gaprad and build the workload's inputs, up to the first operation."""
    times = []
    for i in range(runs):
        workdir = OUT / f"setup-{os.getpid()}-{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-child", str(workdir)]
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
            proc.stdout.read()
            code = proc.wait(timeout=120)
        shutil.rmtree(workdir, ignore_errors=True)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed with status {code}")
        times.append(t1 - t0)
    return times


@dataclass
class Round:
    wall: float
    cpu: float
    values: list
    failures: list
    tracer: object = None           # the round's Tracer when it was traced
    first_out: int = 0              # index of its first CLI output directory


def execute(fn):
    """Run one operation; a raise counts as a failure like a reported one."""
    try:
        return fn()
    except Exception as exc:                        # the benchmark must keep counting
        return None, f"raised {type(exc).__name__}: {exc}"


def run_round(ops, tracer=None):
    """(wall_s, cpu_s, values, failures) of one pass over the operations."""
    values, failures = [], []
    t0, c0 = time.perf_counter(), time.process_time()
    for i, (name, fn) in enumerate(ops):
        if tracer is None:
            value, failure = execute(fn)
        else:
            tracer.op = i
            value, failure = tracer.call(f"op.{name}", execute, (fn,))
        values.append(None if failure else value)
        failures.append(failure)
    return time.perf_counter() - t0, time.process_time() - c0, values, failures


def judge(names, round_failures, round_checks, once_checks):
    """(failed operations as (round, name, why), failed checks).

    An operation fails when it raised, reported non-convergence or exited
    non-zero, or when a check names a known fault of the program in its
    output; every other failed check makes the run's outputs incorrect."""
    failed, wrong = [], []
    for k, (failures, checks) in enumerate(zip(round_failures, round_checks)):
        why = dict(zip(names, failures))
        for c in checks:
            if c.ok:
                continue
            if c.fault:
                why[c.op] = why[c.op] or f"{c.fault}: {c.name} ({c.detail})"
            else:
                wrong.append(c)
        failed += [(k, name, why[name]) for name in names if why[name]]
    wrong += [c for c in once_checks if not c.ok]
    return failed, wrong


def _guarded(check, *args):
    """Run a workload's check function; a check that raises is a failed check."""
    try:
        return check(*args)
    except Exception as exc:                        # broken output, not a crash
        return [Check(f"{check.__name__} raised", False, f"{type(exc).__name__}: {exc}")]


def _output_bytes(workload, first: int, count: int) -> int:
    total = 0
    for d in workload.out_dirs[first:first + count]:
        total += sum(f.stat().st_size for f in d.iterdir() if f.is_file())
    return total


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "gaprad" / "__init__.py").is_file():
        print(f"error: gaprad sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.setup_child:
        return _setup_child(args)

    import workloads
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    try:
        return _measure(args, workloads, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _measure(args, workloads, workdir: Path) -> int:
    # set-up samples are taken in groups between rounds, so that their
    # median covers the whole run rather than one moment of the machine;
    # a traced run reports no set-up time and takes none
    want = 0 if args.trace else SETUP_RUNS
    setup = measure_setup(args, min(SETUP_GROUP, want))
    wl = workloads.build(args.workload, args.seed, workdir)

    if args.trace:
        from spans import Tracer
    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if args.trace and len(rounds) % 2 == 1 else None
        first_out = len(wl.out_dirs)
        if tracer:
            tracer.install()
        try:
            wall, cpu, values, failures = run_round(wl.ops, tracer)
        finally:
            if tracer:
                tracer.uninstall()
        rounds.append(Round(wall, cpu, values, failures, tracer, first_out))
        setup += measure_setup(args, min(SETUP_GROUP, want - len(setup)))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in rounds)
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup += measure_setup(args, want - len(setup))

    names = [name for name, _ in wl.ops]
    round_checks = [_guarded(wl.check_round, r.values) for r in rounds]
    once = _guarded(wl.check_once)
    failed_ops, wrong = judge(names, [r.failures for r in rounds], round_checks, once)
    attempted = len(names) * len(rounds)
    for k, name, why in failed_ops:
        print(f"FAILED round {k} {name}: {why}")
    for c in wrong:
        print(f"CHECK FAILED {c.name}: {c.detail}")
    total = sum(map(len, round_checks)) + len(once)
    print(f"{total} checks, {len(wrong)} wrong outputs; {len(failed_ops)} of {attempted} "
          f"operations failed; {len(rounds)} rounds of {len(names)} operations")
    print("round wall_s: " + " ".join(f"{r.wall:.3f}{'T' if r.tracer else ''}" for r in rounds))

    untraced = [r for r in rounds if r.tracer is None]
    if not args.trace:
        metrics = {
            # the whole timed interval per round: a round's time on a shared
            # host is bimodal, and a median of three to five rounds jumps
            # between the modes where their mean does not
            "wall_s": (statistics.fmean(r.wall for r in untraced), "s"),
            "cpu_s": (statistics.fmean(r.cpu for r in untraced), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        from spans import PER_LAYER, layer_metrics, unit_of
        traced = [r for r in rounds if r.tracer is not None]
        per_round = [layer_metrics(r.tracer.spans, r.tracer.direct_peak) for r in traced]
        # counts from the first traced round, times as medians over all of them
        layers = {k: (statistics.median(m[k] for m in per_round)
                      if unit_of(k) in ("s", "ns", "1/s") else v)
                  for k, v in per_round[0].items()}
        first = traced[0]
        layers["cli.output_bytes"] = _output_bytes(wl, first.first_out, len(names))
        layers["trace.overhead_s"] = (statistics.fmean(r.wall for r in traced)
                                      - statistics.fmean(r.wall for r in untraced))
        op_s = sum(t1 - t0 for _, parent, _, name, t0, t1, _ in first.tracer.spans
                   if parent is None and name.startswith("op."))
        layers["trace.op_coverage"] = op_s / first.wall
        first.tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.csv")
        metrics = {k: (layers[k], unit_of(k)) for k in PER_LAYER}

    print(json.dumps({
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failed_ops),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
