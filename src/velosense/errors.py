"""Exception types shared across the toolkit, and the one reader and writer of
artifacts.

`cli.main` maps each error type a command can raise to an exit code:
malformed input (an unscorable network included) to 2, an infeasible
configuration or fleet plan to 3. An unreachable trip is no error: `ingest`
drops it and counts it in its report. Every JSON artifact is read by
`read_artifact` and written by `write_json`, every CSV table is written by
`write_table`, and every CSV input read by column name is split by
`read_table`. A JSON integer or string column is checked by `int_column` or
`str_column`; the ids of `probs.csv` are typed by `load_matrix`'s
`np.loadtxt` pass instead, and `int_range` checks their range as it checks
`int_column`'s."""

import csv
import json
from collections.abc import Iterator
from contextlib import contextmanager

import numpy as np


class VeloSenseError(Exception):
    """Base class for all toolkit errors."""


class MalformedInputError(VeloSenseError):
    """An input file or record violates the expected schema."""


class InfeasiblePlanError(VeloSenseError):
    """A fleet plan cannot serve the trip log (no idle bike at a start stand)."""


class ConfigInfeasibleError(VeloSenseError):
    """A synthetic-data or experiment configuration admits no valid output."""


@contextmanager
def blamed_on(path):
    """Prefix a malformed-input error raised while checking values read from `path`, a
    file or a field, with `path`, so the message names the input to fix; None adds nothing."""
    try:
        yield
    except MalformedInputError as exc:
        if path is None:
            raise
        raise MalformedInputError(f"{path}: {exc}") from exc


@contextmanager
def malformed_fields(source):
    """Report a missing or mistyped field of a loaded artifact, or a warning that a
    reader promotes to an error while it parses, as malformed input."""
    try:
        yield
    except (AttributeError, KeyError, IndexError, TypeError, ValueError, OverflowError, Warning) as exc:
        raise MalformedInputError(f"{source}: missing or malformed field {exc}") from exc


def read_json(path):
    """Parse a JSON file; text that cannot be parsed is malformed input naming `path`."""
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            raise MalformedInputError(f"{path}: not JSON ({exc})") from exc


@contextmanager
def read_artifact(path, fmt, command):
    """Yield the JSON object of a `fmt` artifact, which `velosense <command>` writes, and
    report a missing or mistyped field of it as malformed input; reject any other input."""
    doc = read_json(path)
    found = doc.get("format") if isinstance(doc, dict) else None
    if found != fmt:
        raise MalformedInputError(f"{path}: expected {fmt}, got {found!r}; re-run `velosense {command}`")
    with malformed_fields(path):
        yield doc


def int_column(values, source, name, lo=0, hi=2**63) -> np.ndarray:
    """The JSON array `values` as int64, given each entry is an int (a bool is not
    one) in lo..hi-1; anything else is malformed input naming `source` and `name`."""
    if not isinstance(values, list) or not set(map(type, values)) <= {int}:
        raise MalformedInputError(f"{source}: {name} must be a list of integers")
    try:
        column = np.array(values, dtype=np.int64)
    except OverflowError:  # an entry past int64 is outside lo..hi-1 too
        raise _outside(next(v for v in values if not lo <= v < hi), source, name, lo, hi) from None
    return int_range(column, source, name, lo, hi)


def int_range(column: np.ndarray, source, name, lo=0, hi=2**63) -> np.ndarray:
    """The int64 array `column`, given each entry is in lo..hi-1, where lo and hi-1
    are int64 values; the first entry outside is malformed input naming `source` and `name`."""
    if len(column) and not (lo <= int(column.min()) and int(column.max()) < hi):
        first = np.flatnonzero((column < lo) | (column > hi - 1))[0]
        raise _outside(column[first], source, name, lo, hi)
    return column


def _outside(value, source, name, lo, hi) -> MalformedInputError:
    return MalformedInputError(f"{source}: {name} holds {value}, outside {lo}..{hi - 1}")


def str_column(values, source, name) -> list[str]:
    """The JSON array `values`, given each entry is a string; anything else is
    malformed input naming `source` and `name`."""
    if not isinstance(values, list) or not set(map(type, values)) <= {str}:
        raise MalformedInputError(f"{source}: {name} must be a list of strings")
    return values


def read_table(source) -> tuple[dict[str, int], Iterator[list[str]]]:
    """A CSV source's column index by header name and its rows, by the rules of
    csv.DictReader: the first row is the header, a repeated name takes its last
    column, and blank rows are skipped. The caller reads a field a row is too
    short to hold as missing."""
    reader = csv.reader(source)
    return {name: i for i, name in enumerate(next(reader, []))}, filter(None, reader)


_COMPACT = json.JSONEncoder(separators=(",", ":"))


def write_json(path, doc) -> None:
    """Write `doc` as compact UTF-8 JSON, the text `json.dumps(doc, separators=(",", ":"))`
    gives once each ndarray in it is a list. An ndarray value of `doc` or of a dict nested
    in it is encoded from its own `.tolist()`, one at a time, so the largest transient is
    one array, not the whole document."""
    with open(path, "w", encoding="utf-8") as fh:
        _write_value(fh, doc)


def _write_value(fh, value) -> None:
    if isinstance(value, dict) and all(type(key) is str for key in value):
        fh.write("{")
        for i, (key, item) in enumerate(value.items()):
            fh.write(f"{',' if i else ''}{_COMPACT.encode(key)}:")
            _write_value(fh, item)
        fh.write("}")
    else:
        fh.write(_COMPACT.encode(value.tolist() if isinstance(value, np.ndarray) else value))


def write_table(path, header, rows) -> None:
    """Write a CSV table in csv's default dialect (comma, CRLF): `header`, then `rows`."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
