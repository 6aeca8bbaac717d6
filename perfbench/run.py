"""Run one workload of the predlift benchmark and print its metrics.

    python3 perfbench/run.py --workload conn-err --seed 1 --seconds 25 --trace 0

The inputs are made from ``--seed`` in a child process (``prepare.py``):
a fixed number of independent instances, each with the reference answer
of every day.  This process then runs whole passes until ``--seconds``
have passed.  A pass runs every instance once: the program's set-up, then
every day, with every day's output checked against the reference.  Before
the passes, set-up alone is repeated for a tenth of the run, so that a
set-up of a few milliseconds is still timed many times.

The machine's speed drifts by up to 2x, in phases from a fraction of a
second to more than a minute, and a drift only ever adds time.  So every set-up and
every day's call counts with its fastest time over the run's repetitions:
an instance's day loop is the sum of its days' fastest times, and the
metrics aggregate those over the instances and days.

With ``--trace 0`` the program runs unwrapped and the end-to-end metrics
are printed.  With ``--trace 1`` untraced and traced passes alternate and
the per-layer metrics are printed, medians over the traced passes, together
with the tracing overhead.  The last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Results and traces are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import program  # noqa: F401  (imports predlift from the checkout)
import tracing
from reference import bad_days
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
PREPARE_TIMEOUT_S = 150
SETUP_SHARE = 0.1


class Round:
    """Timings and outputs of one instance: set-up, then every day."""

    def __init__(self, wl, stem: str, seed: int, engines: list | None = None):
        self.stamps: list[float] = []
        self.day_units: list[int] = []
        if engines is None:
            mark = lambda: self.stamps.append(perf_counter())  # noqa: E731
        else:

            def mark():
                self.stamps.append(perf_counter())
                self.day_units.append(sum(e.counters.total_units() for e in engines))

        t0 = perf_counter()
        loaded = wl.setup(stem, seed)
        t1 = perf_counter()
        self.outputs, self.info = wl.days(loaded, mark, engines)
        t2 = perf_counter()
        self.setup_s = t1 - t0
        self.total_s = t2 - t0


class Instance:
    """One input of the run: its files, seed, reference digests and the
    timings of its rounds."""

    def __init__(self, stem: str, seed: int):
        self.stem = stem
        self.seed = seed
        with open(f"{stem}.ref") as f:
            self.expected = f.read().split()
        self.setups: list[float] = []
        self.days: list[np.ndarray] = []


class Tally:
    """Days attempted and failed over a run, and whether any output was
    wrong.  A round that raises fails every one of its days."""

    def __init__(self, T: int):
        self.T = T
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def run(self, wl, inst: Instance, engines=None) -> Round | None:
        self.attempted += self.T
        try:
            rnd = Round(wl, inst.stem, inst.seed, engines)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.failed += self.T
            return None
        bad = bad_days(inst.expected, rnd.outputs)
        self.failed += len(bad)
        self.wrong += len(bad)
        return rnd


def repeat_setup(wl, instances, seconds: float) -> None:
    begin = perf_counter()
    while True:
        for inst in instances:
            if perf_counter() - begin >= seconds:
                return
            t0 = perf_counter()
            wl.setup(inst.stem, inst.seed)
            inst.setups.append(perf_counter() - t0)
            gc.collect()


def end_to_end(wl, instances, seconds, tally) -> tuple[dict, int]:
    deadline = perf_counter() + seconds
    repeat_setup(wl, instances, SETUP_SHARE * seconds)
    passes = 0
    while passes == 0 or perf_counter() < deadline:
        for inst in instances:
            rnd = tally.run(wl, inst)
            if rnd is not None:
                inst.setups.append(rnd.setup_s)
                inst.days.append(np.diff(rnd.stamps))
            del rnd
            gc.collect()
        passes += 1
    if any(not inst.days for inst in instances):
        raise SystemExit("perfbench: an instance failed in every pass")
    days = [np.min(inst.days, axis=0) for inst in instances]
    setup = statistics.fmean(min(inst.setups) for inst in instances)
    loop = statistics.fmean(float(d.sum()) for d in days)
    days = np.concatenate(days)
    metrics = {
        "setup_s": (setup, "s"),
        "total_s": (setup + loop, "s"),
        "days_per_s": (wl.T / loop, "1/s"),
        "update_p50_us": (float(np.percentile(days, 50)) * 1e6, "us"),
        "update_p95_ms": (float(np.percentile(days, 95)) * 1e3, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
    }
    return metrics, passes


def traced_pass(wl, instances, tally, tracer) -> tuple[list[float], dict] | None:
    """One pass with every layer wrapped: each instance's total time and the
    pass's per-layer metrics, or None if a round failed."""
    counts, day_units, totals = [], [], []
    tracer.reset()
    tracer.install()
    try:
        for inst in instances:
            engines = []
            rnd = tally.run(wl, inst, engines)
            if rnd is None:
                return None
            counts.append(tracer.instance_counts(engines, rnd.info))
            day_units.append(np.diff(rnd.day_units))
            totals.append(rnd.total_s)
            del rnd, engines
            gc.collect()
    finally:
        tracer.uninstall()
    return totals, tracer.layer_metrics(counts, np.concatenate(day_units))


def per_layer(wl, instances, seconds, tally, trace_path) -> tuple[dict, int]:
    tracer = tracing.Tracer()
    deadline = perf_counter() + seconds
    untraced, traced, layers = [], [], []
    while not traced or perf_counter() < deadline:
        if len(untraced) <= len(traced):
            totals = []
            for inst in instances:
                rnd = tally.run(wl, inst)
                if rnd is None:
                    break
                totals.append(rnd.total_s)
                del rnd
                gc.collect()
            else:
                untraced.append(totals)
        else:
            result = traced_pass(wl, instances, tally, tracer)
            if result is not None:
                traced.append(result[0])
                layers.append(result[1])
        gc.collect()
        if tally.failed and not (traced and untraced) and perf_counter() >= deadline:
            raise SystemExit("perfbench: no pass completed")
    tracer.save(trace_path)
    metrics = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        if tracing.is_exact(name) and len(set(values)) > 1:
            print(f"perfbench: {name} differs between traced passes: {values}", file=sys.stderr)
            tally.wrong += 1
        metrics[name] = (statistics.median(values), tracing.unit_of(name))
    # each instance's fastest whole round, averaged over the instances
    fastest = [statistics.fmean(map(min, zip(*totals))) for totals in (traced, untraced)]
    metrics["trace.overhead_s"] = (fastest[0] - fastest[1], "s")
    return metrics, len(traced)


def prepare(workload: str, seed: int, stem: str) -> list[dict]:
    cmd = [sys.executable, str(HERE / "prepare.py"), "--workload", workload, "--seed", str(seed),
           "--stem", stem]
    code = subprocess.run(cmd, timeout=PREPARE_TIMEOUT_S).returncode
    if code not in (0, 3):
        raise SystemExit(f"perfbench: prepare.py exited with code {code}")
    with open(f"{stem}.inputs.json") as f:
        return json.load(f)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        stem = str(Path(work) / args.workload)
        inputs = prepare(args.workload, args.seed, stem)
        instances = [Instance(f"{stem}-{j}", s) for j, s in enumerate(wl.instance_seeds(args.seed))]
        tally = Tally(wl.T)
        if args.trace:
            trace_path = OUT / f"{args.workload}.spans.npz"
            metrics, passes = per_layer(wl, instances, args.seconds, tally, trace_path)
        else:
            metrics, passes = end_to_end(wl, instances, args.seconds, tally)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    correct = tally.wrong == 0 and not any(props["problems"] for props in inputs)
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, passes=passes, T=wl.T, inputs=inputs)
    with open(OUT / f"{args.workload}.trace{args.trace}.json", "w") as f:
        json.dump(detail, f, indent=1)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14} {name:32} {value:16.6f} {unit}")
    print(f"{args.workload:14} passes {passes} of {len(instances)} instances, "
          f"days attempted {tally.attempted}, failed {tally.failed}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
