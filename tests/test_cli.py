"""End-to-end harness runs through the CLI entry point."""

import csv
import warnings

import pytest

from predlift.cli import main


def gen(tmp_path, problem="counter", model="uniform", sigma="4", T="48", seed="1", extra=()):
    out = str(tmp_path / "inst")
    rc = main(
        [
            "generate", "--problem", problem, "--model", model, "--sigma", sigma,
            "--T", T, "--n", "10", "--seed", seed, "--out", out, *extra,
        ]
    )
    assert rc == 0
    return out


def test_generate_run_verify_counter(tmp_path, capsys):
    out = gen(tmp_path)
    rc = main(
        ["run", "--problem", "counter", "--pred", f"{out}.pred",
         "--stream", f"{out}.stream", "--mode", "predicted", "--seed", "5"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    day_lines = [l for l in lines if l and l[0].isdigit()]
    assert len(day_lines) == 48
    assert any(l.startswith("#counters") for l in lines)

    rc = main(
        ["verify", "--problem", "counter", "--pred", f"{out}.pred",
         "--stream", f"{out}.stream", "--seed", "5"]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_modes_agree_on_outputs(tmp_path, capsys):
    out = gen(tmp_path, problem="msf", sigma="6", T="32")

    def day_lines(mode, extra=()):
        rc = main(
            ["run", "--problem", "msf", "--stream", f"{out}.stream", "--mode", mode,
             "--seed", "2", *extra]
        )
        assert rc == 0
        return [
            l for l in capsys.readouterr().out.strip().splitlines()
            if l and l[0].isdigit()
        ]

    pred = ("--pred", f"{out}.pred")
    predicted = day_lines("predicted", extra=pred)
    assert day_lines("offline") == predicted
    assert day_lines("brute-force") == predicted
    assert day_lines("backstopped", extra=pred) == predicted
    boosted = day_lines("boosted", extra=("--bundles", f"{out}.bundles", "--instances-cap", "2"))
    assert boosted == predicted


def test_backstopped_counters_cover_every_day(tmp_path, capsys):
    """The backstop can answer every day before the engine runs one; the
    engine is then finished, so ``#counters`` covers all T days."""
    out = gen(tmp_path, problem="msf", sigma="4", T="64")
    capsys.readouterr()

    def run(mode):
        rc = main(
            ["run", "--problem", "msf", "--stream", f"{out}.stream", "--pred", f"{out}.pred",
             "--mode", mode, "--seed", "2"]
        )
        assert rc == 0
        days, counters = capsys.readouterr().out.split("#counters\n")
        return days, counters

    days, counters = run("backstopped")
    assert "day_overhead=64" in counters.splitlines()
    assert (days, counters) == run("predicted")


def test_verify_decmax_instance(tmp_path, capsys):
    out = gen(tmp_path, problem="decmax", model="drop", sigma="0", T="40", extra=())
    rc = main(
        ["verify", "--problem", "decmax", "--instance", f"{out}.inst", "--seed", "3"]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_deletion_predicted_flow(tmp_path, capsys):
    out = gen(tmp_path, problem="connectivity", extra=("--deletion-predicted",))
    rc = main(
        ["verify", "--problem", "connectivity", "--dstream", f"{out}.dstream", "--seed", "4"]
    )
    assert rc == 0
    assert "PASS" in capsys.readouterr().out


def test_bench_writes_csv(tmp_path, capsys):
    path = str(tmp_path / "bench.csv")
    rc = main(
        ["bench", "--problem", "counter", "--T", "64", "--seeds", "2",
         "--errors", "1,2", "--out", path]
    )
    assert rc == 0
    with open(path) as f:
        rows = list(csv.DictReader(f))
    assert len(rows) == 4
    assert set(rows[0]) == {
        "model", "T", "l1_error", "preprocess_units", "retrigger_units",
        "total_units", "reschedules", "depth",
    }
    assert all(int(r["l1_error"]) > 0 for r in rows)


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.stream"
    bad.write_text("1 a I\n5 b I\n")
    ghost = tmp_path / "ghost.stream"
    ghost.write_text("1 a I\n2 zz D\n3 b I\n")  # zz is deleted but never inserted
    ghost_inst = tmp_path / "ghost.inst"
    ghost_inst.write_text("S a 1 5\n1 I a 5\n2 D zz never\n")  # zz was never announced
    inst = tmp_path / "ok.inst"
    inst.write_text("S a 1 5\n1 I a 5\n")
    dstream = tmp_path / "ok.dstream"
    dstream.write_text("1 I a 3\n2 I b inf\n3 D a\n")
    edges = tmp_path / "edges.dstream"
    edges.write_text("1 I a 0 1 5 3\n2 I b 1 2 4 inf\n3 D a\n")
    short_edge = tmp_path / "short.stream"
    short_edge.write_text("1 a I 1\n")  # an edge needs two endpoints
    no_value = tmp_path / "novalue.inst"
    no_value.write_text("S a 2\n1 I a 5\n")  # a predicted element needs its value
    # lines no writer writes: fields past a record's grammar, a late S line
    junk_delete = tmp_path / "junk.dstream"
    junk_delete.write_text("1 I a 3\n2 D a 99 junk\n")
    extra_never = tmp_path / "extra.inst"
    extra_never.write_text("S a 1 5\n1 I a 5\n2 I b 6\n3 D a never extra\n")
    late_s = tmp_path / "late.inst"
    late_s.write_text("S a 1 5\n1 I a 5\nS c 3 7\n2 D a never\n")
    two_edges = tmp_path / "edge.stream"
    two_edges.write_text("1 a I 0 1\n2 b I 1 2\n")
    counter_stream = tmp_path / "c.stream"
    counter_stream.write_text("1 a I\n2 b I\n")
    unread_pred = tmp_path / "unread.pred"
    unread_pred.write_text("a I 1\nb I 2\nzz I 5\n")  # zz is never inserted
    cases = [
        ["--problem", "counter", "--stream", str(bad)],
        *(
            ["--problem", "counter", "--stream", str(ghost), "--mode", mode]
            for mode in ("offline", "predicted", "backstopped")
        ),
        ["--problem", "decmax", "--instance", str(ghost_inst)],
        # these modes run a --stream input only; an instance or dstream is
        # not silently run in predicted mode instead
        *(
            ["--problem", "decmax", "--instance", str(inst), "--mode", mode]
            for mode in ("offline", "backstopped", "boosted")
        ),
        *(
            ["--problem", "counter", "--dstream", str(dstream), "--mode", mode]
            for mode in ("offline", "backstopped", "boosted")
        ),
        # MSF is no incremental algorithm to lift with predicted deletions
        ["--problem", "msf", "--dstream", str(edges)],
        # payloads too short for the problem
        ["--problem", "connectivity", "--stream", str(short_edge), "--mode", "offline"],
        ["--problem", "decmax", "--instance", str(no_value)],
        ["--problem", "counter", "--dstream", str(junk_delete)],
        ["--problem", "decmax", "--instance", str(extra_never)],
        ["--problem", "decmax", "--instance", str(late_s)],
        # a flag the mode never reads is rejected, not ignored
        ["--problem", "connectivity", "--stream", str(two_edges), "--mode", "offline",
         "--pred", str(unread_pred)],
        ["--problem", "counter", "--stream", str(two_edges), "--mode", "predicted",
         "--bundles", str(tmp_path / "nonexistent")],
        # one input per run, and an instance only for the problem that reads one
        ["--problem", "decmax", "--instance", str(inst), "--stream", str(counter_stream)],
        ["--problem", "counter", "--stream", str(counter_stream), "--instance", str(inst)],
        ["--problem", "counter", "--dstream", str(dstream), "--stream", str(counter_stream)],
    ]
    for case in cases:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", *case, "--seed", "1"])
        assert rc == 2, case
        assert "error:" in capsys.readouterr().err
        assert not caught, case  # rejected, not dropped from a backstop with a warning
    # a predicted insertion of zz, which the stream never inserts, carries
    # no payload to read: rejected up front, naming the file and the element
    edge_stream = tmp_path / "edges.stream"
    edge_stream.write_text("1 a I 0 1 5\n2 b I 1 2 3\n3 a D\n4 c I 0 2 1\n5 d I 2 3 4\n6 b D\n")
    phantom = tmp_path / "phantom.pred"
    phantom.write_text("a I 1 0 1 5\nb I 2 1 2 3\na D 3\nc I 4 0 2 1\nd I 5 2 3 4\nzz I 5\n")
    phantom_bundles = tmp_path / "phantom.bundles"
    phantom_bundles.write_text(
        "#bundle 1 1\na I 1 0 1 5\n#bundle 2 1\na I 1 0 1 5\nb I 2 1 2 3\n"
        "#bundle 3 1\na I 1 0 1 5\nb I 2 1 2 3\na D 3\nzz I 5\n"
    )
    phantom_cases = [
        *(
            (problem, ["--pred", str(phantom), "--mode", mode])
            for problem in ("connectivity", "msf")
            for mode in ("predicted", "backstopped")
        ),
        *(
            (problem, ["--bundles", str(phantom_bundles), "--mode", "boosted"])
            for problem in ("connectivity", "msf")
        ),
    ]
    for problem, case in phantom_cases:
        rc = main(["run", "--problem", problem, "--stream", str(edge_stream), *case, "--seed", "1"])
        assert rc == 2, (problem, case)
        err = capsys.readouterr().err
        assert case[1] in err and "zz" in err, (problem, case)
    # the counter reads no payload, so the same predictions run, and so do
    # predictions with no payloads at all over the same edge stream
    bare = tmp_path / "bare.pred"
    bare.write_text("a I 1\nb I 2\na D 3\nc I 4\nd I 5\nzz I 5\n")
    bare_bundles = tmp_path / "bare.bundles"
    bare_bundles.write_text(
        "#bundle 1 1\na I 1\n#bundle 2 1\na I 1\nb I 2\n#bundle 3 1\na I 1\nb I 2\na D 3\nzz I 5\n"
    )
    for pred, bundles in ((phantom, phantom_bundles), (bare, bare_bundles)):
        for case in (["--pred", str(pred)], ["--bundles", str(bundles), "--mode", "boosted"]):
            rc = main(["run", "--problem", "counter", "--stream", str(edge_stream), *case])
            assert rc == 0, case
            capsys.readouterr()
    # connectivity reads (u, v) of an MSF edge: predictions of two fields
    # run over a stream of three, and answer as the stream's own do
    pair = tmp_path / "pair.pred"
    pair.write_text("a I 1 0 1\nb I 2 1 2\na D 3\nc I 4 0 2\nd I 5 2 3\n")
    full = tmp_path / "full.pred"
    full.write_text("a I 1 0 1 5\nb I 2 1 2 3\na D 3\nc I 4 0 2 1\nd I 5 2 3 4\n")
    outs = []
    for pred in (pair, full):
        rc = main(["run", "--problem", "connectivity", "--stream", str(edge_stream),
                   "--pred", str(pred)])
        assert rc == 0, pred
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    # a predicted (u, v) other than the stream's is rejected, naming the file
    pair.write_text("a I 1 0 1\nb I 2 1 3\na D 3\nc I 4 0 2\nd I 5 2 3\n")
    rc = main(["run", "--problem", "connectivity", "--stream", str(edge_stream),
               "--pred", str(pair)])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(pair) in err and "insertion of b" in err
    out = tmp_path / "bench.csv"
    assert main(["bench", "--seeds", "0", "--T", "16", "--out", str(out)]) == 2
    assert "--seeds" in capsys.readouterr().err
    assert not out.exists()  # rejected before the output file is opened


def test_msf_predicted_deletion_of_never_inserted_edge(tmp_path, capsys):
    """A prediction that deletes an edge the stream never inserts holds no
    payload the run needs: it is ignored, and the outputs are the stream's."""
    stream = tmp_path / "msf.stream"
    stream.write_text("1 a I 0 1 5\n2 b I 1 2 3\n3 a D\n4 c I 0 2 1\n")
    pred = tmp_path / "msf.pred"
    pred.write_text("a I 1 0 1 5\nb I 2 1 2 3\na D 3\nc I 4 0 2 1\nzz D 3\n")
    rc = main(["run", "--problem", "msf", "--stream", str(stream), "--pred", str(pred)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["1 5 a", "2 8 a,b", "3 3 b", "4 4 b,c"]


def test_boosted_rejects_invalid_bundle_chain(tmp_path, capsys):
    stream = tmp_path / "x.stream"
    stream.write_text("1 a I\n2 b I\n")
    bundles = tmp_path / "x.bundles"
    bundles.write_text("#bundle 1 1\na I 1\n#bundle 2 1\nb I 2\nc I 3\n")  # drops a
    rc = main(
        ["run", "--problem", "counter", "--stream", str(stream), "--mode", "boosted",
         "--bundles", str(bundles), "--seed", "1"]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert str(bundles) in err and "does not contain its predecessor" in err


def test_unreachable_inject_error_exit_code(tmp_path, capsys):
    out = str(tmp_path / "inst")
    rc = main(
        ["generate", "--problem", "connectivity", "--model", "inject", "--sigma", "512",
         "--T", "128", "--n", "16", "--seed", "0", "--out", out]
    )
    assert rc == 2
    err = capsys.readouterr().err
    assert "sigma=512" in err and "T=128" in err


def test_error_model_parameters_out_of_range_exit_code(tmp_path, capsys):
    """A negative sigma or a rho outside [0, 1] is an input error naming
    the parameter, from ``generate`` and from ``bench`` (whose --errors
    multiplies T into an inject sigma), and nothing is written."""
    out = tmp_path / "inst"
    for model, flag, value in (("drop", "--rho", "2"), ("drop", "--rho", "-0.5"),
                               ("uniform", "--sigma", "-3")):
        rc = main(
            ["generate", "--problem", "counter", "--model", model, flag, value,
             "--T", "8", "--n", "4", "--seed", "0", "--out", str(out)]
        )
        assert rc == 2, (model, flag, value)
        err = capsys.readouterr().err
        assert flag[2:] in err and "randrange" not in err, err
    csv_path = tmp_path / "b.csv"
    rc = main(
        ["bench", "--problem", "counter", "--T", "16", "--errors", "-1", "--seeds", "1",
         "--out", str(csv_path)]
    )
    assert rc == 2
    assert "sigma" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_boosted_rejects_a_count_below_one(tmp_path, capsys):
    """--k and --instances-cap below 1 are input errors, not clamped to one
    instance per epoch."""
    out = gen(tmp_path, T="32")
    capsys.readouterr()
    for flag, value in (("--instances-cap", "0"), ("--k", "0"), ("--k", "-1")):
        rc = main(
            ["run", "--problem", "counter", "--stream", f"{out}.stream", "--mode", "boosted",
             "--bundles", f"{out}.bundles", "--seed", "1", flag, value]
        )
        assert rc == 2, (flag, value)
        captured = capsys.readouterr()
        assert "at least 1" in captured.err and not captured.out.strip(), (flag, value)


def test_decmax_insertion_other_than_its_set_value_names_the_file(tmp_path, capsys):
    """The max is initialized with the predicted set's values, so an
    insertion carrying another value is an input error naming the file and
    the S line, in both commands, not a run that answers with the old
    value."""
    inst = tmp_path / "revalued.inst"
    inst.write_text("S a 1 5\nS b 2 7\n1 I a 100\n2 I b 7\n3 D b never\n4 D a never\n")
    for cmd in ("run", "verify"):
        assert main([cmd, "--problem", "decmax", "--instance", str(inst)]) == 2
        err = capsys.readouterr().err
        assert f"{inst}: S a" in err and "(100,)" in err, cmd


def test_missing_files_exit_code():
    rc = main(["run", "--problem", "counter", "--seed", "1"])
    assert rc == 2


def test_empty_input_names_the_file(tmp_path, capsys):
    """A run needs at least one day: an input with no events is an input
    error naming its file, in every input format and in both commands."""
    for name, args in (
        ("empty.stream", ["--problem", "counter", "--stream"]),
        ("empty.inst", ["--problem", "decmax", "--instance"]),
        ("empty.dstream", ["--problem", "connectivity", "--dstream"]),
    ):
        path = tmp_path / name
        path.write_text("")
        for cmd in ("run", "verify"):
            assert main([cmd, *args, str(path)]) == 2
            assert f"{path}: no events" in capsys.readouterr().err


def test_generate_rejects_an_empty_horizon_and_a_lone_vertex(tmp_path, capsys):
    out = str(tmp_path / "z")
    assert main(["generate", "--problem", "counter", "--T", "0", "--out", out]) == 2
    assert "--T must be at least 1" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    for problem in ("connectivity", "msf"):
        rc = main(["generate", "--problem", problem, "--T", "8", "--n", "1", "--out", out])
        assert rc == 2
        assert f"--n must be at least 2 for {problem}" in capsys.readouterr().err
    # a flag the generator never reads is rejected, not ignored
    rc = main(["generate", "--problem", "decmax", "--T", "8", "--deletion-predicted", "--out", out])
    assert rc == 2
    assert "--deletion-predicted" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
    assert main(["generate", "--problem", "counter", "--T", "8", "--n", "1", "--out", out]) == 0


def test_generate_rejects_an_msf_deletion_predicted_stream(tmp_path, capsys):
    """``run`` rejects every MSF ``.dstream`` (an online insertion needs a
    lifted incremental problem), so ``generate`` writes none."""
    out = str(tmp_path / "m")
    rc = main(["generate", "--problem", "msf", "--T", "16", "--deletion-predicted", "--out", out])
    assert rc == 2
    assert "--deletion-predicted does not apply to msf" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())
