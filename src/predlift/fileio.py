"""Flat-file formats for predictions, realized streams, and bundles.

All files are ASCII, one record per line, fields separated by single
spaces.  Blank lines and lines starting with ``#`` (metadata) are skipped,
except a bundle file's ``#bundle`` headers.

prediction file     ``element kind predicted_day``        kind in {I, D}
realized stream     ``day element kind [payload...]``
bundle file         ``#bundle <index> <delivery_day>`` followed by
                    prediction lines; ``inf`` marks sentinel padding
deletion-predicted  ``day I element [payload...] predicted_deletion_day``
stream              ``day D element``
insertion-predicted ``S element predicted_insertion_day [payload...]``
instance            lines, then a realized stream of ``day I element
                    [payload...]`` and ``day D element reinsertion_day``
                    lines, the reinsertion day possibly ``never``

Each reader rejects, with a ``FormatError`` naming ``path:line``, what its
writer never writes: a record with more or fewer fields than its grammar
(only a payload may add fields), a kind other than ``I``/``D``, a day or
payload field that is not an integer (a day may be ``inf``), stream days
that do not run 1, 2, 3, ... (exactly one real event per day), a bundle
file's prediction line before its first ``#bundle`` header, and an
instance's ``S`` line after its first stream line.
"""

from __future__ import annotations

from typing import Iterable

from .model import DELETE, END_OF_HORIZON, INSERT, Event, Prediction, PredictionBundle


class FormatError(ValueError):
    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def _records(path: str, n: int, payload: bool = False, marker: str | None = None):
    """Yield (line number, fields) for each record line of ``path``, which
    must have ``n`` fields (see ``_arity``).  Blank lines and ``#`` lines
    are skipped, except those whose first field is ``marker``."""
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            parts = line.split()
            if parts and (parts[0][0] != "#" or parts[0] == marker):
                if len(parts) != n:
                    _arity(parts, n, path, lineno, payload)
                yield lineno, parts


def _arity(parts: list[str], n: int, path: str, lineno: int, payload: bool = False) -> None:
    """Reject a record of other than ``n`` fields, or of fewer when it may
    end in a payload."""
    if len(parts) != n and not (payload and len(parts) > n):
        at_least = "at least " if payload else ""
        raise FormatError(path, lineno, f"expected {at_least}{n} fields, got {len(parts)}")


def _kind(tok: str, path: str, lineno: int) -> str:
    if tok != INSERT and tok != DELETE:
        raise FormatError(path, lineno, f"bad kind {tok!r}")
    return tok


def _day_str(day: int) -> str:
    return "inf" if day >= END_OF_HORIZON else str(day)


def _parse_day(tok: str, path: str, lineno: int) -> int:
    if tok == "inf":
        return END_OF_HORIZON
    try:
        return int(tok)
    except ValueError:
        raise FormatError(path, lineno, f"bad day {tok!r}") from None


def _stream_day(tok: str, events: list, path: str, lineno: int) -> int:
    """The day of a stream line that follows ``events``: exactly one real
    event per day, so the days run 1, 2, 3, ..."""
    day = _parse_day(tok, path, lineno)
    if day != len(events) + 1:
        raise FormatError(path, lineno, f"day {day} out of order (expected {len(events) + 1})")
    return day


def _payload_str(payload: tuple) -> str:
    return "".join(f" {x}" for x in payload)


def _parse_payload(tokens: list[str], path: str, lineno: int) -> tuple:
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise FormatError(path, lineno, f"bad payload {tokens!r}") from None


def _prediction_str(p: Prediction) -> str:
    return f"{p.event.element} {p.event.kind} {_day_str(p.predicted_day)}\n"


def _parse_prediction(parts: list[str], path: str, lineno: int) -> Prediction:
    kind = _kind(parts[1], path, lineno)
    return Prediction(Event(parts[0], kind), _parse_day(parts[2], path, lineno))


def write_predictions(path: str, predictions: Iterable[Prediction], meta: dict | None = None):
    with open(path, "w") as f:
        for k, v in (meta or {}).items():
            f.write(f"# {k} {v}\n")
        f.writelines(map(_prediction_str, predictions))


def read_predictions(path: str) -> list[Prediction]:
    return [_parse_prediction(parts, path, lineno) for lineno, parts in _records(path, 3)]


def write_stream(path: str, events: Iterable[tuple[int, Event]]):
    with open(path, "w") as f:
        for day, ev in events:
            f.write(f"{day} {ev.element} {ev.kind}{_payload_str(ev.payload)}\n")


def read_stream(path: str) -> list[tuple[int, Event]]:
    events = []
    for lineno, parts in _records(path, 3, payload=True):
        day = _stream_day(parts[0], events, path, lineno)
        kind = _kind(parts[2], path, lineno)
        events.append((day, Event(parts[1], kind, _parse_payload(parts[3:], path, lineno))))
    return events


def write_bundles(path: str, bundles: Iterable[PredictionBundle]):
    with open(path, "w") as f:
        for b in bundles:
            f.write(f"#bundle {b.index} {b.delivery_day}\n")
            f.writelines(map(_prediction_str, b.predictions))


def read_bundles(path: str) -> list[PredictionBundle]:
    heads: list[tuple[int, int, list[Prediction]]] = []
    for lineno, parts in _records(path, 3, marker="#bundle"):
        if parts[0] == "#bundle":
            try:
                heads.append((int(parts[1]), int(parts[2]), []))
            except ValueError:
                raise FormatError(path, lineno, f"bad #bundle header {' '.join(parts)!r}") from None
        elif heads:
            heads[-1][2].append(_parse_prediction(parts, path, lineno))
        else:
            raise FormatError(path, lineno, "prediction line before any #bundle header")
    return [PredictionBundle(index, delivery, tuple(preds)) for index, delivery, preds in heads]


def write_deletion_predicted_stream(
    path: str, events: Iterable[tuple[int, Event, int | None]]
):
    """Each item is (day, event, predicted_deletion_day); the prediction is
    present exactly on insertion events."""
    with open(path, "w") as f:
        for day, ev, pred in events:
            if ev.kind == INSERT:
                f.write(f"{day} I {ev.element}{_payload_str(ev.payload)} {_day_str(pred)}\n")
            else:
                f.write(f"{day} D {ev.element}\n")


def read_deletion_predicted_stream(path: str) -> list[tuple[int, Event, int | None]]:
    out = []
    for lineno, parts in _records(path, 3, payload=True):
        day = _stream_day(parts[0], out, path, lineno)
        if _kind(parts[1], path, lineno) == INSERT:
            _arity(parts, 4, path, lineno, payload=True)
            payload = _parse_payload(parts[3:-1], path, lineno)
            pred = _parse_day(parts[-1], path, lineno)
            out.append((day, Event(parts[2], INSERT, payload), pred))
        else:
            _arity(parts, 3, path, lineno)
            out.append((day, Event(parts[2], DELETE), None))
    return out


def write_insertion_predicted_instance(
    path: str,
    predicted_set: Iterable[tuple[str, int, tuple]],
    events: Iterable[tuple[int, Event, int | None]],
):
    """Header: the predicted ground set S with insertion-day predictions and
    payloads.  Body: the realized stream; deletion lines carry the
    reinsertion prediction day or ``never``."""
    with open(path, "w") as f:
        for element, day, payload in predicted_set:
            f.write(f"S {element} {_day_str(day)}{_payload_str(payload)}\n")
        for day, ev, reins in events:
            if ev.kind == INSERT:
                f.write(f"{day} I {ev.element}{_payload_str(ev.payload)}\n")
            else:
                f.write(f"{day} D {ev.element} {'never' if reins is None else _day_str(reins)}\n")


def read_insertion_predicted_instance(
    path: str,
) -> tuple[list[tuple[str, int, tuple]], list[tuple[int, Event, int | None]]]:
    predicted_set: list[tuple[str, int, tuple]] = []
    events: list[tuple[int, Event, int | None]] = []
    for lineno, parts in _records(path, 3, payload=True):
        if parts[0] == "S":
            if events:
                raise FormatError(path, lineno, "S line after the first stream line")
            day = _parse_day(parts[2], path, lineno)
            predicted_set.append((parts[1], day, _parse_payload(parts[3:], path, lineno)))
            continue
        day = _stream_day(parts[0], events, path, lineno)
        if _kind(parts[1], path, lineno) == INSERT:
            payload = _parse_payload(parts[3:], path, lineno)
            events.append((day, Event(parts[2], INSERT, payload), None))
        else:
            _arity(parts, 4, path, lineno)
            reins = None if parts[3] == "never" else _parse_day(parts[3], path, lineno)
            events.append((day, Event(parts[2], DELETE), reins))
    return predicted_set, events
