"""Deterministic artifact writers: CSV with '\\n' line endings and a
mandatory header, strict JSON (RFC 8259) with sorted keys and shortest
round-trip floats.

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
from pathlib import Path

import numpy as np


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
    """CSV cell text; floats use repr for lossless, stable round-trips."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def write_csv(path, header, rows) -> Path:
    """Header line, then one line per row. A 2-D float ndarray is formatted
    a row at a time through Python floats, which gives the text
    format_cell gives each cell without a call per cell."""
    path = Path(path)
    lines = [",".join(header)]
    if isinstance(rows, np.ndarray) and rows.ndim == 2 and rows.dtype.kind == "f":
        lines.extend(",".join(map(repr, row.tolist())) for row in rows)
    else:
        lines.extend(",".join(format_cell(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
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
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()
