"""The benchmark's own self-test runs against the package as it stands.

``bench/tracing.py`` looks names of the package up when it is imported, and
every workload checks its outputs, so a change under ``src/`` that renames a
traced function or breaks a workload fails here rather than in a bench run.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_selftest_passes():
    done = subprocess.run(
        [sys.executable, "bench/selftest.py"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert "selftest: ok" in done.stdout
