"""The traced run: spans around the public calls of each predlift layer,
recorded in memory, and the per-layer metrics computed from them.

``install`` replaces public functions and methods with wrappers for the
length of one pass and ``uninstall`` puts the originals back, so untraced
passes run the program unchanged.  A wrapper records one span per call; a
generator is wrapped resume by resume, so a span never covers the time a
generator sits suspended.  A span's self time is its duration minus the
durations of its child spans.
"""

from __future__ import annotations

import inspect
from array import array
from functools import wraps
from time import perf_counter

import numpy as np

import program  # noqa: F401  (imports predlift from the checkout)
from predlift import (
    boosting,
    decremental,
    engine,
    fileio,
    incremental,
    problems,
    scheduling,
    timetree,
)


class Tracer:
    """Spans of one pass in flat arrays: label id, start, end and the index
    of the enclosing span (-1 at the top)."""

    def __init__(self):
        self.labels: list[str] = []
        self.label_ids: dict[str, int] = {}
        self.label = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack: list[int] = []
        self.units: list[int] = []
        # engines whose retrigger generator is being resumed, innermost last
        self.retriggering: list = []
        self._restore: list = []
        self.reset()

    def reset(self) -> None:
        for a in (self.label, self.start, self.end, self.parent):
            del a[:]
        self.stack.clear()
        self.units[:] = [0] * len(self.units)
        self.preprocess_windows = 0
        self.retrigger_windows = 0
        self.live_retrigger_windows = 0
        self.backstops: dict[int, object] = {}

    def _label_id(self, label: str) -> int:
        if label not in self.label_ids:
            self.label_ids[label] = len(self.labels)
            self.labels.append(label)
            self.units.append(0)
        return self.label_ids[label]

    def wrap(self, label: str, fn, observe=None, scope=None):
        """A traced stand-in for ``fn``.  ``observe(lid, args, result)`` sees
        every call's result; while a generator made by ``fn`` is resumed, its
        first argument sits on the ``scope`` list."""
        lid = self._label_id(label)
        labels, starts, ends, parents = self.label, self.start, self.end, self.parent
        stack = self.stack

        if inspect.isgeneratorfunction(fn):

            @wraps(fn)
            def traced_gen(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    i = len(starts)
                    labels.append(lid)
                    parents.append(stack[-1] if stack else -1)
                    ends.append(0.0)
                    stack.append(i)
                    if scope is not None:
                        scope.append(args[0])
                    starts.append(perf_counter())
                    try:
                        units = next(inner)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        ends[i] = perf_counter()
                        stack.pop()
                        if scope is not None:
                            scope.pop()
                    yield units

            return traced_gen

        @wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            labels.append(lid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(lid, args, result)
            return result

        return traced

    def patch(self, owner, name: str, label: str, **kw) -> None:
        original = inspect.getattr_static(owner, name)
        if isinstance(original, classmethod):
            replacement = classmethod(self.wrap(label, original.__func__, **kw))
        else:
            replacement = self.wrap(label, original, **kw)
        self._restore.append((owner, name, original))
        setattr(owner, name, replacement)

    # -- observers -------------------------------------------------------------

    def _units_int(self, lid, args, result):
        self.units[lid] += result

    def _units_second(self, lid, args, result):
        self.units[lid] += result[1]

    def _window(self, lid, args, result):
        self.units[lid] += result[1] + result[2]
        if self.retriggering:
            self.retrigger_windows += 1
            if args[1].end >= self.retriggering[-1].current_day:
                self.live_retrigger_windows += 1
        else:
            self.preprocess_windows += 1

    def _backstop(self, lid, args, result):
        self.backstops[id(args[0])] = args[0]

    # -- installation ------------------------------------------------------------

    def install(self) -> None:
        for name in (
            "read_predictions",
            "read_stream",
            "read_bundles",
            "read_insertion_predicted_instance",
        ):
            self.patch(fileio, name, f"fileio.{name}")
        self.patch(timetree.PartitionTree, "build", "timetree.build")
        self.patch(scheduling.SlotLine, "assign_harmonic", "scheduling.assign_harmonic")
        # the engine calls fix_ordering through its own module's name
        self.patch(scheduling, "fix_ordering", "scheduling.fix_ordering")
        self.patch(engine, "fix_ordering", "scheduling.fix_ordering")
        self.patch(engine.Engine, "ingest_predictions", "engine.ingest_predictions")
        self.patch(engine.Engine, "process_day", "engine.process_day")
        self.patch(engine.Engine, "retrigger", "engine.retrigger", scope=self.retriggering)
        self.patch(
            incremental.LiftedIncremental, "compute_window", "incremental.compute_window",
            observe=self._window,
        )
        self.patch(
            problems.MsfProblem, "compute_window", "problems.msf_window", observe=self._window
        )
        self.patch(problems.MsfProblem, "day_output", "problems.output")
        for contract in (problems.CounterContract, problems.ConnectivityContract):
            self.patch(contract, "insert", "problems.insert", observe=self._units_int)
        for contract in (
            problems.CounterContract,
            problems.ConnectivityContract,
            problems.DecrementalMaxContract,
        ):
            self.patch(contract, "clone", "problems.clone", observe=self._units_second)
            self.patch(contract, "output", "problems.output")
        self.patch(
            problems.DecrementalMaxContract, "delete", "problems.delete", observe=self._units_int
        )
        self.patch(
            problems.DecrementalMaxContract, "initialize", "decremental.initialize",
            observe=self._units_second,
        )
        self.patch(decremental.DecrementalRun, "process_day", "decremental.process_day")
        self.patch(boosting.Backstop, "feed", "boosting.feed", observe=self._backstop)
        self.patch(boosting.SteppableEngine, "step", "boosting.step")

    def uninstall(self) -> None:
        while self._restore:
            owner, name, original = self._restore.pop()
            setattr(owner, name, original)

    # -- per-layer metrics -----------------------------------------------------------

    def span_table(self) -> dict[str, np.ndarray]:
        label = np.frombuffer(self.label, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        nested = parent >= 0
        children = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        return {"label": label, "duration": dur, "self": dur - children}

    def instance_counts(self, engines, info) -> dict[str, int]:
        """Counts of one instance's run, read from its engines' counters and
        the run details its workload's ``days`` returned; drops the backstops
        seen so far."""
        counters = [e.counters for e in engines]
        # engines of one boosting epoch share its horizon guess and are alive
        # together; the other workloads run one engine per instance
        held: dict[int, int] = {}
        for e in engines:
            held[e.T] = held.get(e.T, 0) + sum(m is not None for m in e.memory)
        epochs = info.get("epochs", ())
        counts = {
            "scheduling.ops": sum(c.scheduler_ops for c in counters),
            "engine.retrigger_calls": sum(c.retrigger_calls for c in counters),
            "engine.reschedules": sum(c.reschedules for c in counters),
            "engine.peak_windows": max(held.values(), default=0),
            "engine.units_total": sum(c.total_units() for c in counters),
            "engine.units_compute": sum(c.window_compute_units for c in counters),
            "engine.units_clone": sum(c.clone_units for c in counters),
            "decremental.out_of_set_inserts": (
                info["run"].out_of_set_inserts if "run" in info else 0
            ),
            "boosting.meta_steps": sum(b.meta_steps for b in self.backstops.values()),
            "boosting.replayed_days": sum(e.replayed for e in epochs),
            "boosting.instances": sum(e.L for e in epochs),
        }
        self.backstops.clear()
        return counts

    def layer_metrics(self, counts: list[dict[str, int]], day_units) -> dict[str, float]:
        """Per-layer metrics of one pass, from its spans, each instance's
        ``instance_counts`` and every day's work units.  Times are means per
        instance, like the end-to-end ``total_s``; counts are totals over
        the pass, except the peak of windows held, which is the largest."""
        spans = self.span_table()
        n = len(self.labels)
        per_instance = 1 / len(counts)
        self_s = np.bincount(spans["label"], weights=spans["self"], minlength=n) * per_instance
        total_s = np.bincount(spans["label"], weights=spans["duration"], minlength=n) * per_instance

        def sec(*labels):
            return float(sum(self_s[self.label_ids[x]] for x in labels))

        def units(*labels):
            return sum(self.units[self.label_ids[x]] for x in labels) * per_instance

        def per_unit(seconds, count):
            return seconds * 1e6 / count if count else 0.0

        total = {k: sum(c[k] for c in counts) for k in counts[0]}
        total["engine.peak_windows"] = max(c["engine.peak_windows"] for c in counts)
        windows = ("incremental.compute_window", "problems.msf_window")
        return {
            "fileio.load_s": sec(*(x for x in self.labels if x.startswith("fileio."))),
            "timetree.build_s": sec("timetree.build"),
            "scheduling.assign_s": sec("scheduling.assign_harmonic", "scheduling.fix_ordering"),
            "scheduling.ops": total["scheduling.ops"],
            "engine.ingest_s": sec("engine.ingest_predictions"),
            "engine.preprocess_windows": self.preprocess_windows,
            "engine.retrigger_s": sec("engine.retrigger"),
            "engine.retrigger_calls": total["engine.retrigger_calls"],
            "engine.retrigger_windows": self.retrigger_windows,
            "engine.retrigger_live_share": (
                self.live_retrigger_windows / self.retrigger_windows
                if self.retrigger_windows
                else 0.0
            ),
            "engine.reschedules": total["engine.reschedules"],
            "engine.day_self_s": sec("engine.process_day"),
            "engine.peak_windows": total["engine.peak_windows"],
            "engine.units_total": total["engine.units_total"],
            "engine.units_compute": total["engine.units_compute"],
            "engine.units_clone": total["engine.units_clone"],
            "engine.day_units_p50": float(np.percentile(day_units, 50)),
            "engine.day_units_p95": float(np.percentile(day_units, 95)),
            "engine.day_units_max": int(max(day_units)),
            "incremental.window_self_s": sec("incremental.compute_window"),
            "problems.clone_s": sec("problems.clone"),
            "problems.insert_s": sec("problems.insert"),
            "problems.delete_s": sec("problems.delete"),
            "problems.output_s": sec("problems.output"),
            "problems.msf_window_s": sec("problems.msf_window"),
            "problems.clone_us_per_unit": per_unit(sec("problems.clone"), units("problems.clone")),
            "problems.insert_us_per_unit": per_unit(
                sec("problems.insert"), units("problems.insert")
            ),
            "problems.delete_us_per_unit": per_unit(
                sec("problems.delete"), units("problems.delete")
            ),
            "problems.window_us_per_unit": per_unit(
                float(sum(total_s[self.label_ids[x]] for x in windows)), units(*windows)
            ),
            "decremental.self_s": sec("decremental.process_day"),
            "decremental.initialize_s": sec("decremental.initialize"),
            "decremental.out_of_set_inserts": total["decremental.out_of_set_inserts"],
            "boosting.feed_s": sec("boosting.feed"),
            "boosting.step_self_s": sec("boosting.step"),
            "boosting.meta_steps": total["boosting.meta_steps"],
            "boosting.replayed_days": total["boosting.replayed_days"],
            "boosting.instances": total["boosting.instances"],
        }

    def save(self, path) -> None:
        """Write the pass's spans: label names, and per span its label id,
        start and end (perf_counter seconds) and enclosing span index."""
        np.savez(
            path,
            labels=np.array(self.labels),
            label=np.frombuffer(self.label, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
        )


# Per-layer metrics, their units, and which of them are exact counts: a
# count must repeat exactly in every traced pass of the same inputs.
UNITS = {
    "scheduling.ops": "count",
    "engine.preprocess_windows": "count",
    "engine.retrigger_calls": "count",
    "engine.retrigger_windows": "count",
    "engine.retrigger_live_share": "share",
    "engine.reschedules": "count",
    "engine.peak_windows": "count",
    "engine.units_total": "units",
    "engine.units_compute": "units",
    "engine.units_clone": "units",
    "engine.day_units_p50": "units",
    "engine.day_units_p95": "units",
    "engine.day_units_max": "units",
    "decremental.out_of_set_inserts": "count",
    "boosting.meta_steps": "count",
    "boosting.replayed_days": "count",
    "boosting.instances": "count",
}


def unit_of(metric: str) -> str:
    if metric.endswith("_us_per_unit"):
        return "us/unit"
    if metric.endswith("_s"):
        return "s"
    return UNITS[metric]


def is_exact(metric: str) -> bool:
    return unit_of(metric) in ("count", "units", "share")
