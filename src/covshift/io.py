"""Reading observation matrices and streams, and persisting training summaries.

CSV files hold one observation per row; an optional header row is detected
automatically.  JSONL streams hold one observation per line as
{"t": <index>, "x": [<numbers>]}.  Malformed input raises DataError with the
offending row and column named.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Iterator

import numpy as np

from .errors import DataError
from .training import TrainingSummary

__all__ = [
    "read_csv_matrix",
    "read_jsonl_stream",
    "save_summary",
    "load_summary",
]


def _parse_cell(text: str, row: int, col: int) -> float:
    try:
        return float(text)
    except ValueError:
        raise DataError(
            f"row {row}, column {col}: {text!r} is not a number"
        ) from None


def read_csv_matrix(path: str) -> np.ndarray:
    """Load a CSV file of observations into a (n, p) float array.

    The first row is treated as a header when any of its cells is not a
    number.  Rows must all have the same number of columns.
    """
    rows = []
    width = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for index, record in enumerate(reader, start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            if width is None:
                width = len(record)
                try:
                    first = [float(cell) for cell in record]
                except ValueError:
                    continue  # header row
                rows.append(first)
                continue
            if len(record) != width:
                raise DataError(
                    f"row {index} has {len(record)} columns, expected {width}"
                )
            rows.append(
                [_parse_cell(cell, index, col) for col, cell in enumerate(record, 1)]
            )
    if not rows:
        raise DataError(f"{path}: no data rows")
    return np.asarray(rows, dtype=np.float64)


def read_jsonl_stream(handle: IO[str]) -> Iterator[np.ndarray]:
    """Yield observation vectors from a JSONL stream of {"t": ..., "x": [...]}."""
    for index, line in enumerate(handle, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DataError(f"line {index}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict) or "x" not in record:
            raise DataError(f'line {index}: expected an object with an "x" field')
        x = record["x"]
        if not isinstance(x, list):
            raise DataError(f'line {index}: "x" must be a list of numbers')
        try:
            vec = np.asarray(x, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f'line {index}: "x" must be a list of numbers') from None
        if vec.ndim != 1:
            raise DataError(f'line {index}: "x" must be a flat list')
        yield vec


def save_summary(summary: TrainingSummary, path: str) -> None:
    """Write a training summary as JSON."""
    with open(path, "w") as handle:
        json.dump(summary.to_dict(), handle, indent=2)
        handle.write("\n")


def load_summary(path: str) -> TrainingSummary:
    """Read a training summary saved by save_summary."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: invalid JSON ({exc.msg})") from None
    if not isinstance(payload, dict):
        raise DataError(f"{path}: expected a JSON object")
    try:
        return TrainingSummary.from_dict(payload)
    except KeyError as exc:
        raise DataError(f"{path}: missing field {exc}") from None
