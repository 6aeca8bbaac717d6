"""The benchmark under ``perfbench/`` drives the library through its public
names and patches some of them when tracing.  These checks run its
self-test and its tracer's install/uninstall, so a renamed or deleted name
fails here as well as in a benchmark run."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_in_perfbench(*args):
    return subprocess.run(
        [sys.executable, *args], cwd=PERFBENCH, capture_output=True, text=True, timeout=120
    )


def test_benchmark_selftest_passes():
    done = run_in_perfbench("selftest.py")
    assert done.returncode == 0, done.stdout + done.stderr


def test_tracer_installs_on_every_layer():
    done = run_in_perfbench(
        "-c", "import tracing; t = tracing.Tracer(); t.install(); t.uninstall()"
    )
    assert done.returncode == 0, done.stderr
