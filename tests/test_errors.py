import csv
import json
import math

import numpy as np
import pytest

from velosense.errors import (
    MalformedInputError,
    blamed_on,
    int_column,
    int_range,
    read_json,
    write_json,
    write_table,
)


COMPACT = (",", ":")


def test_write_json_is_one_dumps_and_reads_back(tmp_path):
    doc = {
        "format": "velosense-test-v1",
        "horizon": (360, 1320),
        "paths": {"count": [2], "nodes": (0, 1, 2), "seg_lengths_m": (150.0, 0.1 + 0.2)},
        "events": [(3, 481), (4, 482)],
        "nested": {"p": 1e-17, "none": None, "ok": True},
    }
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == json.dumps(doc, separators=COMPACT).encode("utf-8")
    assert read_json(path) == json.loads(json.dumps(doc))


def _as_lists(value):
    """`value` with every ndarray in it, at any depth of dicts, as its `.tolist()`."""
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


def test_write_json_encodes_arrays_as_dumps_encodes_their_lists(tmp_path):
    """Byte for byte, write_json of a nested document holding int and float arrays
    (NaN, -0.0, 2-D, empty), non-ASCII strings and plain lists is the compact
    `json.dumps` of the same document with lists in place of the arrays."""
    doc = {
        "format": "velosense-test-v1",
        "ids": ["Zürich", "東京", "a\"b\\c", "\u2028"],
        "int": np.array([0, -1, 2**62, -(2**63)], dtype=np.int64),
        "float": np.array([0.1 + 0.2, math.nan, -0.0, math.inf, -math.inf, 5e-324, 1e300]),
        "grid": np.arange(6, dtype=np.int64).reshape(2, 3),
        "empty": {"ints": np.array([], dtype=np.int64), "floats": np.empty((0, 2)), "dict": {}},
        "nested": {"names": {"é": np.array([1.5, 2.0]), "plain": [1, (2, 3.25), None, True]}, "x": 3.0},
        "lists": [[1, 2], {"k": "v"}],
        "by_id": {1: 2.5, "2": 3},
        "scalar": np.float64(0.25),
    }
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == json.dumps(_as_lists(doc), separators=COMPACT).encode("utf-8")
    assert read_json(path)["grid"] == [[0, 1, 2], [3, 4, 5]]


def test_write_table_uses_csvs_default_dialect(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(1, 0.1 + 0.2, "a,b"), (2, "", None)]
    write_table(path, ["id", "x", "label"], iter(rows))
    assert path.read_bytes() == b'id,x,label\r\n1,0.30000000000000004,"a,b"\r\n2,,\r\n'
    with open(path, encoding="utf-8", newline="") as fh:
        rows_read = list(csv.reader(fh))
    assert rows_read == [["id", "x", "label"], ["1", "0.30000000000000004", "a,b"], ["2", "", ""]]


def test_blamed_on_names_the_path_of_malformed_input_only():
    with pytest.raises(MalformedInputError, match=r"^alloc\.json: 5 sensor counts for 6 stands$"):
        with blamed_on("alloc.json"):
            raise MalformedInputError("5 sensor counts for 6 stands")
    with pytest.raises(ValueError, match=r"^budget must be >= 1, got 0$"):
        with blamed_on("probs.csv"):
            raise ValueError("budget must be >= 1, got 0")


@pytest.mark.parametrize(
    "values, lo, hi, holds",
    [([3, 2**64], 0, 2**63, 2**64), ([-1, 2**64], 0, 2**63, -1), ([4, 5, 6], 0, 5, 5),
     ([7, 2], 3, 9, 2), ([-2**65], -5, 5, -2**65)],
    ids=["past-int64", "first-outside-before-past-int64", "at-hi", "below-lo", "below-int64"],
)
def test_int_column_names_the_first_entry_outside_its_range(values, lo, hi, holds):
    message = rf"^f\.json: x holds {holds}, outside {lo}\.\.{hi - 1}$"
    with pytest.raises(MalformedInputError, match=message):
        int_column(values, "f.json", "x", lo, hi)
    if all(-2**63 <= v < 2**63 for v in values):
        with pytest.raises(MalformedInputError, match=message):
            int_range(np.array(values, dtype=np.int64), "f.json", "x", lo, hi)


def test_int_column_takes_ints_only_across_int64():
    column = int_column([0, 2**63 - 1, 5], "f.json", "x")
    assert column.dtype == np.int64 and column.tolist() == [0, 2**63 - 1, 5]
    assert int_column([-2**63], "f.json", "x", lo=-2**63).tolist() == [-2**63]
    for values in ([True], [1.0], ["1"], 5):
        with pytest.raises(MalformedInputError, match=r"^f\.json: x must be a list of integers$"):
            int_column(values, "f.json", "x")
