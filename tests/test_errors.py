import csv
import json

import pytest

from velosense.errors import MalformedInputError, blamed_on, read_json, write_json, write_table


def test_write_json_is_one_dumps_and_reads_back(tmp_path):
    doc = {
        "format": "velosense-test-v1",
        "horizon": (360, 1320),
        "paths": [{"nodes": (0, 1, 2), "seg_lengths_m": (150.0, 0.1 + 0.2)}],
        "events": [(3, 481), (4, 482)],
        "nested": {"p": 1e-17, "none": None, "ok": True},
    }
    path = tmp_path / "doc.json"
    write_json(path, doc)
    assert path.read_bytes() == json.dumps(doc).encode("utf-8")
    assert read_json(path) == json.loads(json.dumps(doc))


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
