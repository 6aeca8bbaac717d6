"""Command-line harness: generate synthetic instances, run them in any
mode, verify against the brute-force oracle, and emit work-vs-error CSVs.

Exit codes: 0 ok, 1 verification mismatch, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import sys

from . import fileio
from .boosting import Backstop, BoostConfig, RecomputeBackstop, SteppableEngine, boost_run
from .decremental import DecrementalRun
from .engine import Engine, ScheduleBug, drain, run_offline, run_predicted
from .incremental import lift_incremental
from .model import INSERT, BundleViolation, validate_bundle_sequence
from .problems import (
    connectivity_contract,
    counter_contract,
    decremental_max_contract,
    msf_problem,
    oracle_answer,
    oracle_daily_outputs,
)
from .streamgen import (
    ErrorModel,
    generate_deletion_predicted_stream,
    generate_insertion_predicted_instance,
    generate_offline_instance,
    make_bundles,
)

OFFLINE_PROBLEMS = ("counter", "connectivity", "msf")
PROBLEMS = OFFLINE_PROBLEMS + ("decmax",)
MODES = ("predicted", "offline", "brute-force", "backstopped", "boosted")


def _problem_impl(name: str):
    if name == "counter":
        return lift_incremental(counter_contract())
    if name == "connectivity":
        return lift_incremental(connectivity_contract())
    if name == "msf":
        return msf_problem()
    raise ValueError(f"no engine problem for {name!r}")


def format_output(problem: str, out) -> str:
    if problem == "counter":
        return str(out)
    if problem == "connectivity":
        return "|".join("-".join(str(v) for v in comp) for comp in out) or "-"
    if problem == "msf":
        weight, ids = out
        return f"{weight} {','.join(ids) if ids else '-'}"
    if problem == "decmax":
        return "-" if out is None else str(out)
    raise ValueError(problem)


def cmd_generate(args) -> int:
    model = ErrorModel(args.model, sigma=args.sigma, rho=args.rho)
    if args.problem == "decmax":
        predicted_set, events, err = generate_insertion_predicted_instance(
            args.n, args.T, model, args.seed
        )
        fileio.write_insertion_predicted_instance(f"{args.out}.inst", predicted_set, events)
        print(f"# l1_error {err}")
        return 0
    if args.deletion_predicted:
        items, err = generate_deletion_predicted_stream(
            args.problem, args.n, args.T, model, args.seed
        )
        fileio.write_deletion_predicted_stream(f"{args.out}.dstream", items)
        print(f"# l1_error {err}")
        return 0
    inst = generate_offline_instance(args.problem, args.n, args.T, model, args.seed)
    fileio.write_predictions(
        f"{args.out}.pred", inst.predictions, meta={k: v for k, v in inst.meta.items()}
    )
    fileio.write_stream(f"{args.out}.stream", inst.stream)
    fileio.write_bundles(f"{args.out}.bundles", make_bundles(inst.predictions, inst.T))
    print(f"# l1_error {inst.l1}")
    return 0


class FileUsage(ValueError):
    pass


def _check_payloads(problem: str, path: str, stream, predicted_set=(), predictions=()) -> None:
    """Every insertion, every element of a predicted set, and every predicted
    insertion in ``predictions`` carries the payload fields ``problem``
    reads, and a predicted insertion reads as the stream's.  The library
    rejects the same payloads; this check names the file."""
    impl = decremental_max_contract() if problem == "decmax" else _problem_impl(problem)
    need = impl.payload_fields
    predicted = [p.event for p in predictions if p.event.kind == INSERT and not p.is_sentinel]
    short = [f"S {el}" for el, _, payload in predicted_set if len(payload) < need]
    short += [
        f"day {day} {ev.element}"
        for day, ev in stream
        if ev.kind == INSERT and len(ev.payload) < need
    ]
    short += [f"predicted insertion of {ev.element}" for ev in predicted if len(ev.payload) < need]
    if short:
        raise FileUsage(f"{path}: {short[0]}: payload too short ({problem} reads {need} fields)")
    realized = {ev.element: ev.payload[:need] for _, ev in stream if ev.kind == INSERT}
    for ev in predicted:
        if ev.element in realized and ev.payload[:need] != realized[ev.element]:
            raise FileUsage(
                f"{path}: predicted insertion of {ev.element}: payload {ev.payload[:need]}, "
                f"the stream's {realized[ev.element]} ({problem} reads {need} fields)"
            )


def _run_offline_problem(args, stream):
    """Daily outputs of an offline problem's stream in ``args.mode``, and
    the counters of its engine (None when several engines ran)."""
    problem = _problem_impl(args.problem)
    predictions = fileio.read_predictions(args.pred) if args.pred else []
    if args.mode in ("predicted", "backstopped"):
        _check_payloads(args.problem, args.pred, stream, predictions=predictions)
    T = len(stream)
    if args.mode == "offline":
        eng = run_offline(problem, T, stream, args.seed)
    elif args.mode == "predicted":
        eng = run_predicted(problem, T, predictions, stream, args.seed)
    elif args.mode == "backstopped":
        eng = Engine(problem, T, args.seed)
        backstop = RecomputeBackstop(lambda active: oracle_answer(args.problem, active))
        stepped = SteppableEngine(eng, predictions)
        meta = Backstop([stepped, SteppableEngine(backstop)])
        for day, ev in stream:
            meta.feed(day, ev)
        # the backstop may answer every day before the engine has run one:
        # finish the engine, so its counters cover every day and a fault in
        # its remaining work is raised
        while not stepped.is_complete():
            stepped.step()
        return meta.outputs, eng.counters
    else:  # boosted
        if not args.bundles:
            raise FileUsage("boosted mode needs --bundles")
        sequence = fileio.read_bundles(args.bundles)
        try:
            validate_bundle_sequence(sequence)
        except BundleViolation as exc:
            raise FileUsage(f"{args.bundles}: {exc}") from None
        bundles = {b.index: list(b.predictions) for b in sequence}
        predicted = [p for b in sequence for p in b.predictions]
        _check_payloads(args.problem, args.bundles, stream, predictions=predicted)
        ground = {p.event.element for bs in bundles.values() for p in bs if not p.is_sentinel}

        def factory(T_hat, preds, seed):
            return SteppableEngine(Engine(_problem_impl(args.problem), T_hat, seed), preds)

        outs, _ = boost_run(
            factory,
            bundles,
            stream,
            max(2, len(ground)),
            BoostConfig(k=args.k, instances_cap=args.instances_cap, seed=args.seed),
            log=lambda line: print(line),
        )
        return outs, None
    return eng.outputs, eng.counters


def _dispatch_run(args):
    """Read the run's input once and run it in ``args.mode``.  Returns the
    realized stream, its daily outputs, and the counters of the run's
    engine (None when no single engine ran)."""
    online = args.problem == "decmax" or args.dstream
    if online and args.mode not in ("predicted", "brute-force"):
        raise FileUsage(f"--mode {args.mode} needs a --stream input")
    # a flag the run would never read is an error, not silently ignored
    if args.pred and (online or args.mode not in ("predicted", "backstopped")):
        raise FileUsage("--pred is read only with --stream in --mode predicted or backstopped")
    if args.bundles and args.mode != "boosted":
        raise FileUsage("--bundles is read only by --mode boosted")
    given = [flag for flag in ("instance", "dstream", "stream") if getattr(args, flag)]
    if len(given) > 1:
        raise FileUsage(f"give one input, not --{' and --'.join(given)}")
    if args.instance and args.problem != "decmax":
        raise FileUsage("--instance is read only by --problem decmax")
    if args.problem == "decmax" and not args.instance:
        raise FileUsage("decmax needs --instance")
    path = args.instance if args.problem == "decmax" else args.dstream or args.stream
    if not path:
        raise FileUsage("need --stream (or --instance / --dstream)")
    predicted_set = []
    if args.problem == "decmax":
        predicted_set, items = fileio.read_insertion_predicted_instance(path)
    elif args.dstream:
        items = fileio.read_deletion_predicted_stream(path)
    stream = [(day, ev) for day, ev, _ in items] if online else fileio.read_stream(path)
    _check_payloads(args.problem, path, stream, predicted_set)
    if args.mode == "brute-force":
        return stream, oracle_daily_outputs(args.problem, stream), None  # no engine at all
    if args.problem == "decmax":
        run = DecrementalRun(decremental_max_contract(), predicted_set, len(items), args.seed)
        for day, ev, reins in items:
            run.process_day(day, ev, reins)
        return stream, run.outputs, run.counters
    if args.dstream:
        eng = Engine(_problem_impl(args.problem), len(items), args.seed)
        for day, ev, pred in items:
            drain(eng.process_day(day, ev, predicted_deletion_day=pred))
        return stream, eng.outputs, eng.counters
    return (stream, *_run_offline_problem(args, stream))


def cmd_run(args) -> int:
    stream, outputs, counters = _dispatch_run(args)
    for (day, _), out in zip(stream, outputs):
        print(f"{day} {format_output(args.problem, out)}")
    if counters is not None:
        print("#counters")
        print(counters.format_block())
    return 0


def cmd_verify(args) -> int:
    args.mode = "predicted"
    stream, outputs, _ = _dispatch_run(args)
    expected = oracle_daily_outputs(args.problem, stream)
    mismatches = 0
    for (day, _), got, want in zip(stream, outputs, expected):
        if got != want:
            mismatches += 1
            print(
                f"day {day}: predicted={format_output(args.problem, got)} "
                f"oracle={format_output(args.problem, want)}"
            )
    if mismatches:
        print(f"FAIL {mismatches}/{len(stream)} days differ")
        return 1
    print(f"PASS all {len(stream)} days match the oracle")
    return 0


def cmd_bench(args) -> int:
    if args.seeds < 1:
        raise FileUsage(f"--seeds must be at least 1, got {args.seeds}")
    multipliers = [int(x) for x in args.errors.split(",")]
    rows = []
    for mult in multipliers:
        for s in range(args.seeds):
            model = ErrorModel("inject", sigma=mult * args.T)
            inst = generate_offline_instance(args.problem, args.n, args.T, model, args.seed + s)
            eng = run_predicted(
                _problem_impl(args.problem),
                inst.T,
                inst.predictions,
                inst.stream,
                args.seed + s,
            )
            c = eng.counters
            rows.append(
                dict(
                    model=f"inject{mult}T",
                    T=inst.T,
                    l1_error=inst.l1,
                    preprocess_units=c.preprocess_units,
                    retrigger_units=c.retrigger_units,
                    total_units=c.total_units(),
                    reschedules=c.reschedules,
                    depth=c.depth,
                )
            )
    with open(args.out, "w", newline="") as f:
        writer = csv.DictWriter(f, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="predlift")
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("generate", help="emit a synthetic instance")
    g.add_argument("--problem", choices=PROBLEMS, required=True)
    g.add_argument("--model", default="exact")
    g.add_argument("--sigma", type=int, default=0)
    g.add_argument("--rho", type=float, default=0.0)
    g.add_argument("--T", type=int, required=True)
    g.add_argument("--n", type=int, default=16)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--deletion-predicted", action="store_true")
    g.add_argument("--out", required=True)
    g.set_defaults(fn=cmd_generate)

    def run_flags(p):
        p.add_argument("--problem", choices=PROBLEMS, required=True)
        p.add_argument("--pred")
        p.add_argument("--stream")
        p.add_argument("--bundles")
        p.add_argument("--instance")
        p.add_argument("--dstream")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--k", type=int, default=1)
        p.add_argument("--instances-cap", type=int, default=4)

    r = sub.add_parser("run", help="run an instance in a given mode")
    run_flags(r)
    r.add_argument("--mode", choices=MODES, default="predicted")
    r.set_defaults(fn=cmd_run)

    v = sub.add_parser("verify", help="diff predicted mode against brute force")
    run_flags(v)
    v.set_defaults(fn=cmd_verify)

    b = sub.add_parser("bench", help="work-vs-error sweep to CSV")
    b.add_argument("--problem", choices=OFFLINE_PROBLEMS, default="counter")
    b.add_argument("--T", type=int, default=1024)
    b.add_argument("--n", type=int, default=16)
    b.add_argument("--seeds", type=int, default=20)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--errors", default="1,2,4,8")
    b.add_argument("--out", required=True)
    b.set_defaults(fn=cmd_bench)
    return ap


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (fileio.FormatError, FileUsage, ScheduleBug, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
