"""Make one workload's input files and their reference answers.

    python3 perfbench/prepare.py --workload conn-err --seed 1 --stem DIR/conn-err

writes, for each instance j of the run, the files ``STEM-j.*`` that the
program reads and ``STEM-j.ref`` (one digest of the reference answer per
day), and ``STEM.inputs.json`` (each instance's seed and measured input
properties).  It exits with code 3 when an input property does not hold.
``run.py`` calls it in a child process, so generation and the reference
never count in the measured process's peak memory.
"""

from __future__ import annotations

import argparse
import json
import sys

import program  # noqa: F401  (imports predlift from the checkout)
from reference import daily_answers, digest
from workloads import WORKLOADS


def input_problems(wl, stream, props) -> list[str]:
    """Properties every input must have, as a list of violations."""
    problems = []
    if len(stream) != wl.T or [day for day, _ in stream] != list(range(1, wl.T + 1)):
        problems.append(f"stream does not hold exactly one event on each of days 1..{wl.T}")
    if wl.model == "inject" and props["l1"] != wl.sigma:
        problems.append(f"inject instance has l1 {props['l1']}, asked for {wl.sigma}")
    if wl.model == "exact" and props["l1"] != 0:
        problems.append(f"exact instance has l1 {props['l1']}")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--stem", required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    inputs = []
    for j, seed in enumerate(wl.instance_seeds(args.seed)):
        stem = f"{args.stem}-{j}"
        stream, props = wl.generate(seed, stem)
        props["seed"] = seed
        props["problems"] = input_problems(wl, stream, props)
        with open(f"{stem}.ref", "w") as f:
            f.writelines(digest(a) + "\n" for a in daily_answers(wl.problem, stream))
        for p in props["problems"]:
            print(f"perfbench: instance {j} (seed {seed}): {p}", file=sys.stderr)
        inputs.append(props)
    with open(f"{args.stem}.inputs.json", "w") as f:
        json.dump(inputs, f)
    return 3 if any(props["problems"] for props in inputs) else 0


if __name__ == "__main__":
    sys.exit(main())
