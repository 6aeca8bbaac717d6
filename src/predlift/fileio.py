"""Flat-file formats for predictions, realized streams, and bundles.

All files are ASCII, one record per line, fields separated by single
spaces.  Lines starting with ``#`` are metadata or structure markers.

prediction file     ``element kind predicted_day``        kind in {I, D}
realized stream     ``day element kind [payload...]``     strictly increasing
                    day, exactly one real event per day
bundle file         ``#bundle <index> <delivery_day>`` followed by
                    prediction lines; ``inf`` marks sentinel padding
deletion-predicted  ``day I element [payload...] predicted_deletion_day``
stream              ``day D element``
insertion-predicted ``S element predicted_insertion_day [payload...]``
instance            header lines, then a realized stream whose D lines
                    carry a reinsertion prediction day or ``never``
"""

from __future__ import annotations

import os
from typing import Iterable, TextIO

from .model import DELETE, END_OF_HORIZON, INSERT, Event, Prediction, PredictionBundle


class FormatError(ValueError):
    def __init__(self, path: str, lineno: int, message: str):
        super().__init__(f"{path}:{lineno}: {message}")
        self.path = path
        self.lineno = lineno


def _day_str(day: int) -> str:
    return "inf" if day >= END_OF_HORIZON else str(day)


def _parse_day(tok: str, path: str, lineno: int) -> int:
    if tok == "inf":
        return END_OF_HORIZON
    try:
        return int(tok)
    except ValueError:
        raise FormatError(path, lineno, f"bad day {tok!r}") from None


def _parse_payload(tokens: list[str], path: str, lineno: int) -> tuple:
    try:
        return tuple(int(t) for t in tokens)
    except ValueError:
        raise FormatError(path, lineno, f"bad payload {tokens!r}") from None


def write_predictions(path: str, predictions: Iterable[Prediction], meta: dict | None = None):
    with open(path, "w") as f:
        for k, v in (meta or {}).items():
            f.write(f"# {k} {v}\n")
        for p in predictions:
            f.write(f"{p.event.element} {p.event.kind} {_day_str(p.predicted_day)}\n")


def read_predictions(path: str) -> list[Prediction]:
    preds = []
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(path, lineno, f"expected 3 fields, got {len(parts)}")
            element, kind, day_tok = parts
            if kind not in (INSERT, DELETE):
                raise FormatError(path, lineno, f"bad kind {kind!r}")
            day = _parse_day(day_tok, path, lineno)
            preds.append(Prediction(Event(element, kind), day))
    return preds


def write_stream(path: str, events: Iterable[tuple[int, Event]]):
    with open(path, "w") as f:
        for day, ev in events:
            payload = " ".join(str(x) for x in ev.payload)
            f.write(f"{day} {ev.element} {ev.kind}{' ' + payload if payload else ''}\n")


def read_stream(path: str) -> list[tuple[int, Event]]:
    events = []
    prev_day = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise FormatError(path, lineno, "expected at least day, element, kind")
            day = _parse_day(parts[0], path, lineno)
            element, kind = parts[1], parts[2]
            if kind not in (INSERT, DELETE):
                raise FormatError(path, lineno, f"bad kind {kind!r}")
            if day != prev_day + 1:
                raise FormatError(
                    path, lineno, f"day {day} out of order (expected {prev_day + 1})"
                )
            prev_day = day
            payload = _parse_payload(parts[3:], path, lineno)
            events.append((day, Event(element, kind, payload)))
    return events


def write_bundles(path: str, bundles: Iterable[PredictionBundle]):
    with open(path, "w") as f:
        for b in bundles:
            f.write(f"#bundle {b.index} {b.delivery_day}\n")
            for p in b.predictions:
                f.write(f"{p.event.element} {p.event.kind} {_day_str(p.predicted_day)}\n")


def read_bundles(path: str) -> list[PredictionBundle]:
    bundles: list[PredictionBundle] = []
    current: list[Prediction] | None = None
    index = delivery = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#bundle"):
                if current is not None:
                    bundles.append(PredictionBundle(index, delivery, tuple(current)))
                parts = line.split()
                if len(parts) != 3:
                    raise FormatError(path, lineno, "bad #bundle header")
                try:
                    index, delivery = int(parts[1]), int(parts[2])
                except ValueError:
                    raise FormatError(path, lineno, f"bad #bundle header {line!r}") from None
                current = []
                continue
            if line.startswith("#"):
                continue
            if current is None:
                raise FormatError(path, lineno, "prediction line before any #bundle header")
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(path, lineno, f"expected 3 fields, got {len(parts)}")
            element, kind, day_tok = parts
            if kind not in (INSERT, DELETE):
                raise FormatError(path, lineno, f"bad kind {kind!r}")
            day = _parse_day(day_tok, path, lineno)
            current.append(Prediction(Event(element, kind), day))
    if current is not None:
        bundles.append(PredictionBundle(index, delivery, tuple(current)))
    return bundles


def write_deletion_predicted_stream(
    path: str, events: Iterable[tuple[int, Event, int | None]]
):
    """Each item is (day, event, predicted_deletion_day); the prediction is
    present exactly on insertion events."""
    with open(path, "w") as f:
        for day, ev, pred in events:
            if ev.kind == INSERT:
                payload = " ".join(str(x) for x in ev.payload)
                sep = " " + payload if payload else ""
                f.write(f"{day} I {ev.element}{sep} {_day_str(pred)}\n")
            else:
                f.write(f"{day} D {ev.element}\n")


def read_deletion_predicted_stream(path: str) -> list[tuple[int, Event, int | None]]:
    out = []
    prev_day = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) < 3:
                raise FormatError(path, lineno, "short line")
            day = _parse_day(parts[0], path, lineno)
            if day != prev_day + 1:
                raise FormatError(path, lineno, f"day {day} out of order")
            prev_day = day
            kind, element = parts[1], parts[2]
            if kind == INSERT:
                if len(parts) < 4:
                    raise FormatError(path, lineno, "insertion missing predicted deletion day")
                pred = _parse_day(parts[-1], path, lineno)
                payload = _parse_payload(parts[3:-1], path, lineno)
                out.append((day, Event(element, INSERT, payload), pred))
            elif kind == DELETE:
                out.append((day, Event(element, DELETE), None))
            else:
                raise FormatError(path, lineno, f"bad kind {kind!r}")
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
            ptxt = " ".join(str(x) for x in payload)
            f.write(f"S {element} {_day_str(day)}{' ' + ptxt if ptxt else ''}\n")
        for day, ev, reins in events:
            if ev.kind == INSERT:
                payload = " ".join(str(x) for x in ev.payload)
                sep = " " + payload if payload else ""
                f.write(f"{day} I {ev.element}{sep}\n")
            else:
                f.write(f"{day} D {ev.element} {'never' if reins is None else _day_str(reins)}\n")


def read_insertion_predicted_instance(
    path: str,
) -> tuple[list[tuple[str, int, tuple]], list[tuple[int, Event, int | None]]]:
    predicted_set: list[tuple[str, int, tuple]] = []
    events: list[tuple[int, Event, int | None]] = []
    prev_day = 0
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if parts[0] == "S":
                if len(parts) < 3:
                    raise FormatError(path, lineno, "short S line")
                day = _parse_day(parts[2], path, lineno)
                payload = _parse_payload(parts[3:], path, lineno)
                predicted_set.append((parts[1], day, payload))
                continue
            if len(parts) < 3:
                raise FormatError(path, lineno, "short line")
            day = _parse_day(parts[0], path, lineno)
            if day != prev_day + 1:
                raise FormatError(path, lineno, f"day {day} out of order")
            prev_day = day
            kind, element = parts[1], parts[2]
            if kind == INSERT:
                payload = _parse_payload(parts[3:], path, lineno)
                events.append((day, Event(element, INSERT, payload), None))
            elif kind == DELETE:
                if len(parts) < 4:
                    raise FormatError(path, lineno, "deletion missing reinsertion prediction")
                reins = None if parts[3] == "never" else _parse_day(parts[3], path, lineno)
                events.append((day, Event(element, DELETE), reins))
            else:
                raise FormatError(path, lineno, f"bad kind {kind!r}")
    return predicted_set, events
