import hashlib
import json
import math
import tracemalloc

import numpy as np

from poissonlab.fileio import CSV_BLOCK_ROWS, format_cell, read_json, sha256_file, write_csv, write_json


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


def joined_csv(header, rows) -> bytes:
    """The whole file as one joined string: the reference for write_csv."""
    lines = [",".join(header)] + [",".join(format_cell(cell) for cell in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def test_write_csv_matches_a_joined_reference_across_blocks(tmp_path):
    rng = np.random.default_rng(0)
    for n in (0, 1, CSV_BLOCK_ROWS, 2 * CSV_BLOCK_ROWS + 3):
        array = rng.standard_normal((n, 4)) * 10.0 ** rng.integers(-300, 300, (n, 4))
        header = ("a", "b", "c", "d")
        path = write_csv(tmp_path / "array.csv", header, array)
        assert path.read_bytes() == joined_csv(header, array.tolist())
        generic = [(i, np.int64(-i), float(i) / 7.0, np.float32(0.1), f"tag{i}") for i in range(n)]
        header = ("i", "j", "x", "y", "tag")
        path = write_csv(tmp_path / "generic.csv", header, iter(generic))
        assert path.read_bytes() == joined_csv(header, generic)
    assert write_csv(tmp_path / "empty.csv", ("a", "b"), np.empty((0, 2))).read_bytes() == b"a,b\n"


def traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_write_csv_memory_does_not_grow_with_the_file(tmp_path):
    # 2000 rows of 101 floats make a 3.8 MB file; a writer that joins every
    # line before writing peaks near 11.5 MB here.
    array = np.random.default_rng(1).standard_normal((2000, 101))
    header = tuple(f"y_{j}" for j in range(101))
    peak = traced_peak(lambda: write_csv(tmp_path / "outputs.csv", header, array))
    assert (tmp_path / "outputs.csv").stat().st_size > 3_000_000
    assert peak < 2_000_000


def test_sha256_file_reads_in_chunks(tmp_path):
    path = tmp_path / "big.bin"
    path.write_bytes(np.random.default_rng(2).bytes(16 << 20))
    digests = []
    peak = traced_peak(lambda: digests.append(sha256_file(path)))
    assert peak < 4_000_000
    assert digests == [hashlib.sha256(path.read_bytes()).hexdigest()]
