"""`perf_kernels.py` still runs against the program it times.

No default test run collects it (its name does not start with ``test_``),
so this runs it in a fresh pytest with timing off: every benchmark body is
called once.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

pytest.importorskip("pytest_benchmark")

ROOT = Path(__file__).resolve().parents[1]


def test_perf_kernels_runs():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--benchmark-disable",
         str(ROOT / "tests" / "perf_kernels.py")],
        capture_output=True, text=True, cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        timeout=300)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    assert " passed" in proc.stdout and "skipped" not in proc.stdout
