"""Self-test of the benchmark's correctness check, at tiny T.

    python3 perfbench/selftest.py

For each kind of workload it makes a tiny input, runs one round of the
program and checks that the reference accepts every day.  It then corrupts
one day's output, and drops the last one, and checks that exactly that day
is flagged; and it checks that an input with the wrong l1 error is refused.
Exits 0 when every check holds.
"""

from __future__ import annotations

import random
import shutil
import sys
import tempfile

import program  # noqa: F401  (imports predlift from the checkout)
from prepare import input_problems
from reference import bad_days, daily_answers, digest
from run import OUT, Round
from workloads import BoostedCounter, DecrementalMax, PredictedRun

TINY = (
    PredictedRun("tiny-conn", "connectivity", T=64, n=12, model="inject", sigma=64, instances=1),
    PredictedRun("tiny-msf", "msf", T=64, n=12, model="exact", sigma=0, instances=1),
    DecrementalMax("tiny-decmax", "decmax", T=64, n=16, model="uniform", sigma=4, instances=1),
    BoostedCounter("tiny-boost", "counter", T=32, n=4, model="inject", sigma=32, instances=1),
)


def corrupt(problem: str, answer):
    """A near miss: the same kind of answer, wrong by one step."""
    if problem == "counter":
        return answer + 1
    if problem == "connectivity":
        return answer[:-1]
    if problem == "msf":
        return (answer[0] + 1, answer[1])
    return 0 if answer is None else answer - 1


def check(workload, seed: int, stem: str) -> list[str]:
    errors = []
    stream, props = workload.generate(seed, stem)
    if input_problems(workload, stream, props):
        errors.append(f"input problems: {input_problems(workload, stream, props)}")
    expected = [digest(a) for a in daily_answers(workload.problem, stream)]
    outputs = list(Round(workload, stem, seed).outputs)
    if bad_days(expected, outputs):
        errors.append(f"correct run flagged on days {bad_days(expected, outputs)}")
    day = random.Random(seed).randrange(workload.T)
    corrupted = list(outputs)
    corrupted[day] = corrupt(workload.problem, corrupted[day])
    if bad_days(expected, corrupted) != [day]:
        errors.append(f"corrupting day {day + 1} flagged {bad_days(expected, corrupted)}")
    if bad_days(expected, outputs[:-1]) != [workload.T - 1]:
        errors.append("a missing last output was not flagged")
    if workload.model in ("inject", "exact"):
        wrong = dict(props, l1=props["l1"] + 1)
        if not input_problems(workload, stream, wrong):
            errors.append("a wrong l1 error was not flagged")
    return errors


def main() -> int:
    OUT.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    failures = 0
    try:
        for workload in TINY:
            for seed in (1, 2):
                errors = check(workload, seed, f"{work}/{workload.name}-{seed}")
                failures += len(errors)
                status = "ok" if not errors else "FAIL " + "; ".join(errors)
                print(f"{workload.name:12} seed {seed}: {status}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
