"""Deterministic artifact writers: CSV with '\\n' line endings and a
mandatory header, strict JSON (RFC 8259) with sorted keys and shortest
round-trip floats.

Memory for a CSV or a digest does not grow with the file: write_csv
formats and writes its rows in blocks of CSV_BLOCK_ROWS, and sha256_file
reads the file in chunks of HASH_CHUNK_BYTES.

JSON has no token for inf or NaN, so write_json writes each such value
as null and lists where it was under a top-level "non_finite" key, for
example ["loss_history[41]", "rmse_train"]; read_json puts NaN back there.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import fields, is_dataclass
from itertools import islice
from pathlib import Path

import numpy as np

# Rows formatted and written per write() call. A block's text is held
# whole, so this bounds write_csv's memory; 64 rows of 101 floats is
# about 120 kB.
CSV_BLOCK_ROWS = 64
# Bytes read per read() call while hashing.
HASH_CHUNK_BYTES = 1 << 16


def jsonable(obj, non_finite: list, path: str = ""):
    """Recursively convert numpy scalars/arrays so json can emit them.

    A dataclass instance becomes the dict of its fields, read as they are
    (dataclasses.asdict would deep-copy every list first). A float that
    is not finite becomes None; its path, such as "rows[0].rmse", is
    appended to non_finite.
    """
    if isinstance(obj, (float, np.floating)):
        if math.isfinite(obj):
            return float(obj)
        non_finite.append(path)
        return None
    if is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in fields(obj)}
    if isinstance(obj, dict):
        items = {str(k): v for k, v in obj.items()}
        return {k: jsonable(items[k], non_finite, f"{path}.{k}" if path else k) for k in sorted(items)}
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [jsonable(v, non_finite, f"{path}[{i}]") for i, v in enumerate(obj)]
    if isinstance(obj, np.integer):
        return int(obj)
    return obj


def format_cell(value) -> str:
    """CSV cell text; floats use repr for lossless, stable round-trips, and None is an empty cell."""
    if value is None:
        return ""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Header line, then one line per row, written CSV_BLOCK_ROWS rows at a
    time. A 2-D float ndarray is formatted a row at a time through Python
    floats, which gives the text format_cell gives each cell without a
    call per cell. rows may be any iterable; it is read once."""
    path = Path(path)
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        lines = (",".join(map(repr, row.tolist())) for row in rows)
    else:
        lines = (",".join(format_cell(cell) for cell in row) for row in rows)
    with path.open("w", encoding="utf-8", newline="\n") as out:
        out.write(",".join(header) + "\n")
        while block := list(islice(lines, CSV_BLOCK_ROWS)):
            out.write("\n".join(block) + "\n")
    return path


def write_json(path, obj) -> Path:
    path = Path(path)
    non_finite = []
    doc = jsonable(obj, non_finite)
    if non_finite:
        doc["non_finite"] = non_finite
    path.write_text(
        json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n", encoding="utf-8"
    )
    return path


def read_json(path):
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if isinstance(doc, dict):
        for where in doc.pop("non_finite", []):
            *parents, last = (
                int(part[1:-1]) if part.startswith("[") else part
                for part in re.findall(r"\[\d+\]|[^.\[\]]+", where)
            )
            node = doc
            for part in parents:
                node = node[part]
            node[last] = math.nan
    return doc


def sha256_file(path) -> str:
    """Hex SHA-256 of the file's bytes, read HASH_CHUNK_BYTES at a time."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as f:
        while chunk := f.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()
