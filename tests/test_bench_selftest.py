"""The benchmark's own self-test passes against this tree.

bench/selftest.py checks the benchmark's checks and failure counting, and
imports gaprad from src/; a gaprad change that breaks the harness fails
here.  This test only reads bench/ (the self-test's scratch directory is
the benchmark's ignored output directory).
"""

import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(BENCH / "selftest.py")],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "selftest: ok" in proc.stdout
