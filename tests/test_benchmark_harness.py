"""The benchmark under ``perfbench/`` drives the library through its public
names and patches some of them when tracing.  These checks run its
self-test, its tracer's install/uninstall and one traced pass, so a renamed
or deleted name, or work that escapes what the tracer wraps, fails here as
well as in a benchmark run."""

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


def test_traced_pass_sees_retrigger_windows(tmp_path):
    """One traced pass over one ``conn-err`` instance, prepared in a temporary
    directory: every day is right, and the tracer counts the windows that
    retriggers recompute, which it sees only while a traced
    ``Engine.retrigger`` runs."""
    script = (
        "import sys, run, tracing\n"
        "from workloads import WORKLOADS\n"
        "wl = WORKLOADS['conn-err']\n"
        "stem = sys.argv[1] + '/conn-err'\n"
        "run.prepare('conn-err', 1, stem)\n"
        "inst = run.Instance(stem + '-0', wl.instance_seeds(1)[0])\n"
        "tally = run.Tally(wl.T)\n"
        "_, layers = run.traced_pass(wl, [inst], tally, tracing.Tracer())\n"
        "print(tally.wrong, layers['engine.retrigger_windows'])\n"
    )
    done = run_in_perfbench("-c", script, str(tmp_path))
    assert done.returncode == 0, done.stderr
    wrong, windows = map(int, done.stdout.split())
    assert wrong == 0
    assert windows > 0
