"""File formats: roundtrips and error reporting with line numbers."""

import pytest

from predlift import fileio
from predlift.model import DELETE, END_OF_HORIZON, INSERT, Event, Prediction, PredictionBundle
from predlift.streamgen import ErrorModel, generate_offline_instance, make_bundles


def test_prediction_roundtrip(tmp_path):
    path = str(tmp_path / "x.pred")
    preds = [
        Prediction(Event("a", INSERT), 3),
        Prediction(Event("a", DELETE), 9),
        Prediction(Event("pad", INSERT), END_OF_HORIZON),
    ]
    fileio.write_predictions(path, preds, meta={"l1_error": 7})
    back = fileio.read_predictions(path)
    assert [(p.event.element, p.event.kind, p.predicted_day) for p in back] == [
        ("a", INSERT, 3),
        ("a", DELETE, 9),
        ("pad", INSERT, END_OF_HORIZON),
    ]
    with open(path) as f:
        assert f.readline() == "# l1_error 7\n"


def test_prediction_payload_roundtrip(tmp_path):
    """A prediction line carries its event's payload, in a prediction file
    and in a bundle; a payload-free line stays three fields."""
    preds = [
        Prediction(Event("a", INSERT, (0, 1, 5)), 3),
        Prediction(Event("a", DELETE), 9),
        Prediction(Event("b", INSERT, (7,)), 4),
        Prediction(Event("pad", INSERT), END_OF_HORIZON),
    ]
    path = str(tmp_path / "x.pred")
    fileio.write_predictions(path, preds)
    assert fileio.read_predictions(path) == preds
    with open(path) as f:
        assert f.read().splitlines() == ["a I 3 0 1 5", "a D 9", "b I 4 7", "pad I inf"]
    bundles = [PredictionBundle(1, 1, tuple(preds[:2])), PredictionBundle(2, 1, tuple(preds))]
    path = str(tmp_path / "x.bundles")
    fileio.write_bundles(path, bundles)
    assert fileio.read_bundles(path) == bundles


def test_stream_roundtrip(tmp_path):
    path = str(tmp_path / "x.stream")
    stream = [
        (1, Event("a", INSERT, (0, 1, 5))),
        (2, Event("b", INSERT, (1, 2, 9))),
        (3, Event("a", DELETE)),
    ]
    fileio.write_stream(path, stream)
    assert fileio.read_stream(path) == stream


def test_stream_day_gap_reports_line(tmp_path):
    path = str(tmp_path / "bad.stream")
    path_obj = tmp_path / "bad.stream"
    path_obj.write_text("1 a I\n3 b I\n")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_stream(path)
    assert ":2:" in str(err.value)


def test_bad_kind_rejected(tmp_path):
    p = tmp_path / "bad.pred"
    p.write_text("a Z 5\n")
    with pytest.raises(fileio.FormatError):
        fileio.read_predictions(str(p))


def test_bundles_roundtrip(tmp_path):
    inst = generate_offline_instance("counter", 6, 32, ErrorModel("exact"), 0)
    bundles = make_bundles(inst.predictions, 32)
    path = str(tmp_path / "x.bundles")
    fileio.write_bundles(path, bundles)
    back = fileio.read_bundles(path)
    assert len(back) == len(bundles)
    for a, b in zip(back, bundles):
        assert a.index == b.index and a.delivery_day == b.delivery_day
        assert len(a.predictions) == len(b.predictions)


def test_bad_bundle_header_reports_line(tmp_path):
    p = tmp_path / "bad.bundles"
    p.write_text("#bundle 1 1\na I 3\n#bundle x 1\n")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_bundles(str(p))
    assert f"{p}:3:" in str(err.value)


def test_bad_bundle_kind_reports_line(tmp_path):
    p = tmp_path / "bad.bundles"
    p.write_text("#bundle 1 1\na I 3\na X 3\n")
    with pytest.raises(fileio.FormatError) as err:
        fileio.read_bundles(str(p))
    assert f"{p}:3:" in str(err.value) and "bad kind" in str(err.value)


def test_deletion_predicted_roundtrip(tmp_path):
    path = str(tmp_path / "x.dstream")
    items = [
        (1, Event("a", INSERT, (1, 2)), 4),
        (2, Event("b", INSERT, (2, 3)), END_OF_HORIZON),
        (3, Event("a", DELETE), None),
    ]
    fileio.write_deletion_predicted_stream(path, items)
    assert fileio.read_deletion_predicted_stream(path) == items


def test_insertion_predicted_roundtrip(tmp_path):
    path = str(tmp_path / "x.inst")
    pset = [("a", 3, (50,)), ("b", 7, (60,))]
    events = [
        (1, Event("a", INSERT, (50,)), None),
        (2, Event("a", DELETE), 5),
        (3, Event("b", INSERT, (60,)), None),
        (4, Event("b", DELETE), None),
    ]
    fileio.write_insertion_predicted_instance(path, pset, events)
    pback, eback = fileio.read_insertion_predicted_instance(path)
    assert pback == pset
    assert eback == events


def test_bad_line_reports_path_and_line(tmp_path):
    """Each reader rejects, at its line, what its writer never writes."""
    cases = [
        (fileio.read_predictions, "# l1_error 0\na I 3\n", "a I 3 4 x\n"),
        (fileio.read_predictions, "a I 3 0 1\n", "b I\n"),
        (fileio.read_predictions, "a I 3\n", "a I x\n"),
        (fileio.read_predictions, "a I 1 0 1 5\n", "a D 3 0 1 5\n"),  # a deletion's payload
        (fileio.read_stream, "1 a I\n", "2 b\n"),
        (fileio.read_stream, "1 a I 0 1\n", "2 b I 0 x\n"),
        (fileio.read_stream, "1 a I\n", "2 b X\n"),
        (fileio.read_stream, "1 a I 7 7 7\n", "2 a D 7 7 7\n"),
        (fileio.read_bundles, "\n", "a I 3\n"),  # before any #bundle header
        (fileio.read_bundles, "#bundle 1 1\n", "a I 3 x\n"),
        (fileio.read_bundles, "#bundle 1 1\na I 3\n", "#bundle 2\n"),
        (fileio.read_bundles, "#bundle 1 1\na I 3 0 1\n", "#bundle 2 1 5\n"),
        (fileio.read_bundles, "#bundle 1 1\na I 3 0 1\n", "a D 4 0 1\n"),
        (fileio.read_deletion_predicted_stream, "1 I a 3\n", "2 D a 99 junk\n"),
        (fileio.read_deletion_predicted_stream, "1 I a 3\n", "2 I b\n"),
        (fileio.read_deletion_predicted_stream, "1 I a 3\n", "3 D a\n"),
        (fileio.read_insertion_predicted_instance, "S a 1 5\n1 I a 5\n", "2 D a\n"),
        (fileio.read_insertion_predicted_instance, "S a 1 5\n1 I a 5\n2 D a 4\n",
         "3 D a never extra\n"),
        (fileio.read_insertion_predicted_instance, "S a 1 5\n1 I a 5\n", "S c 3 7\n"),
        (fileio.read_insertion_predicted_instance, "S a 1 5\n", "S b\n"),
        (fileio.read_insertion_predicted_instance, "S a 1 5\n", "1 X a\n"),
    ]
    for reader, good, bad in cases:
        path = tmp_path / "bad"
        path.write_text(good + bad)
        with pytest.raises(fileio.FormatError) as err:
            reader(str(path))
        lineno = len(good.splitlines()) + 1
        assert str(err.value).startswith(f"{path}:{lineno}: "), (reader, bad)
