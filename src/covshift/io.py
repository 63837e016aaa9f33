"""Reading observation matrices and streams, and persisting training summaries.

CSV files hold one observation per row; an optional header row is detected
automatically.  JSONL streams hold one observation per line as
{"t": <index>, "x": [<numbers>]}: read_jsonl_stream yields them one at a time
from a text handle, read_jsonl_batches a read at a time from a binary stream,
so a monitor answers every row it has received before it blocks on the next.
Malformed input raises DataError with the offending row and column (or line)
named.
"""

from __future__ import annotations

import csv
import json
from typing import IO, Iterator

import numpy as np

from .errors import DataError
from .training import TrainingSummary

# bytes asked of each read1 by read_jsonl_batches
_READ_SIZE = 1 << 16

__all__ = [
    "read_csv_matrix",
    "read_jsonl_stream",
    "read_jsonl_batches",
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
    number.  Rows must all have the same number of columns, and every cell
    must be finite.
    """
    rows, lines = [], []  # parsed rows and their file row numbers
    width = None
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        for index, record in enumerate(reader, start=1):
            if not record or all(not cell.strip() for cell in record):
                continue
            first = width is None
            if first:
                width = len(record)
            elif len(record) != width:
                raise DataError(
                    f"row {index} has {len(record)} columns, expected {width}"
                )
            try:
                rows.append(list(map(float, record)))
            except ValueError:
                if first:
                    continue  # header row
                # name the first cell that is not a number
                for col, cell in enumerate(record, 1):
                    _parse_cell(cell, index, col)
                raise
            lines.append(index)
    if not rows:
        raise DataError(f"{path}: no data rows")
    data = np.asarray(rows, dtype=np.float64)
    finite = np.isfinite(data)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise DataError(
            f"row {lines[r]}, column {c + 1}: {data[r, c]} is not a finite number"
        )
    return data


def _parse_line(line: str, index: int):
    """Observation vector of one JSONL line, None for a blank line."""
    line = line.strip()
    if not line:
        return None
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise DataError(f"line {index}: invalid JSON ({exc.msg})") from None
    if not isinstance(record, dict) or "x" not in record:
        raise DataError(f'line {index}: expected an object with an "x" field')
    xs = record["x"]
    try:
        vec = np.asarray(xs)
    except ValueError:  # ragged nesting
        vec = np.asarray(None)
    # scalars, nesting, strings, nulls and all-boolean lists fail the
    # dtype check; a boolean among numbers converts to 1 or 0, so a line
    # that spells a boolean anywhere has its elements' types checked
    if vec.ndim != 1 or vec.dtype.kind not in "iuf" or (
        ("true" in line or "false" in line)
        and any(isinstance(v, bool) for v in xs)
    ):
        raise DataError(f'line {index}: "x" must be a flat list of numbers')
    vec = vec.astype(np.float64, copy=False)
    # NaN, Infinity and overflowing literals such as 1e400
    if not np.isfinite(vec).all():
        raise DataError(f'line {index}: "x" holds a non-finite number')
    return vec


def read_jsonl_stream(handle: IO[str]) -> Iterator[np.ndarray]:
    """Yield observation vectors from a JSONL stream of {"t": ..., "x": [...]}."""
    for index, line in enumerate(handle, start=1):
        vec = _parse_line(line, index)
        if vec is not None:
            yield vec


def read_jsonl_batches(stream: IO[bytes]) -> Iterator[np.ndarray]:
    """Yield the observations of a binary JSONL stream a read at a time.

    stream has read1 (sys.stdin.buffer, a file opened "rb"): each read takes
    only what has arrived, and its complete lines come out as one (k, p)
    array, the partial last line waiting for the next read.  Lines are
    numbered across reads and parsed as read_jsonl_stream parses them; every
    row must be as wide as the first.  On a bad line the good rows before it
    are yielded first, then DataError names the line.
    """
    index, width, tail = 0, None, b""
    while True:
        chunk = stream.read1(_READ_SIZE)
        lines = (tail + chunk).split(b"\n")
        tail = lines.pop() if chunk else b""  # at the end, a last line counts
        rows = []
        for line in lines:
            index += 1
            try:
                vec = _parse_bytes(line, index, width)
            except DataError:
                if rows:
                    yield np.vstack(rows)
                raise
            if vec is not None:
                width = vec.shape[0]
                rows.append(vec)
        if rows:
            yield np.vstack(rows)
        if not chunk:
            return


def _parse_bytes(line: bytes, index: int, width):
    """_parse_line of an undecoded line whose row must have width numbers
    (any width when None)."""
    try:
        text = line.decode()
    except UnicodeDecodeError:
        raise DataError(f"line {index}: not UTF-8 text") from None
    vec = _parse_line(text, index)
    if vec is not None and width is not None and vec.shape[0] != width:
        raise DataError(
            f'line {index}: "x" has {vec.shape[0]} numbers, the first row has {width}'
        )
    return vec


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
