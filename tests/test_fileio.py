import json
import math

import numpy as np

from poissonlab.fileio import read_json, write_csv, write_json


def strict_loads(text):
    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_write_json_nulls_non_finite_values_and_lists_their_paths(tmp_path):
    doc = {"rmse": float("inf"), "history": [1.0, float("nan")], "rows": [{"x": -math.inf}], "n": 3}
    path = write_json(tmp_path / "doc.json", doc)
    parsed = strict_loads(path.read_text())
    assert parsed["non_finite"] == ["history[1]", "rmse", "rows[0].x"]
    assert parsed["rmse"] is None and parsed["history"] == [1.0, None]
    restored = read_json(path)
    assert "non_finite" not in restored
    assert math.isnan(restored["rmse"]) and math.isnan(restored["history"][1])
    assert math.isnan(restored["rows"][0]["x"])
    assert restored["history"][0] == 1.0 and restored["n"] == 3


def test_write_json_finite_document_has_no_non_finite_key(tmp_path):
    doc = {"b": [0.1, 2.5e-300], "a": {"c": None}}
    path = write_json(tmp_path / "doc.json", doc)
    assert path.read_text() == json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert read_json(path) == doc


def test_write_csv_float_array_matches_cell_by_cell_text(tmp_path):
    rows = np.array([[0.1, -0.0, 1.0 / 3.0], [1e-300, math.inf, math.nan], [-2.5e17, 5e-324, 7.0]])
    for array in (rows, rows.astype(np.float32)):
        fast = write_csv(tmp_path / "fast.csv", ("a", "b", "c"), array)
        slow = write_csv(tmp_path / "slow.csv", ("a", "b", "c"), [list(row) for row in array])
        assert fast.read_bytes() == slow.read_bytes()
    assert write_csv(tmp_path / "fast.csv", ("a", "b", "c"), rows).read_text().splitlines()[2] == "1e-300,inf,nan"
