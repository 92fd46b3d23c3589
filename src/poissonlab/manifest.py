"""Run manifests: config snapshot (the run's one record of its seeds, as
`--seed` wrote them), machine descriptor, timings, and a digest inventory
of every file a command wrote.

Files flagged deterministic must hash identically across reruns with
the same config; timing-bearing files (train report, cost ledger, the
manifest itself) are expected to differ.
"""

from __future__ import annotations

import os
import platform
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import InputError
from .fileio import read_json, sha256_file, write_json

MANIFEST_NAME = "manifest.json"
TOOL_NAME = "poissonlab"


def machine_descriptor() -> dict:
    """Where a run ran, read without starting a child process.

    `platform.processor()`, and `platform.platform()`, which reads it,
    run `uname -p` on Linux for a field that comes back '' there and
    repeats `machine` on macOS; the platform string is therefore built
    from `platform.uname()`'s system, release and machine.
    """
    uname = platform.uname()
    return {
        "platform": f"{uname.system}-{uname.release}-{uname.machine}",
        "machine": uname.machine,
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
    }


def file_entry(out_dir: Path, name: str, deterministic: bool) -> dict:
    path = Path(out_dir) / name
    return {
        "name": name,
        "bytes": path.stat().st_size,
        "sha256": sha256_file(path),
        "deterministic": deterministic,
    }


def write_manifest(out_dir, config_doc: dict, timings: dict, files: list) -> Path:
    """files is a list of (name, deterministic) pairs already on disk."""
    out_dir = Path(out_dir)
    doc = {
        "tool": {"name": TOOL_NAME, "version": __version__},
        "machine": machine_descriptor(),
        "config": config_doc,
        "timings": timings,
        "files": [file_entry(out_dir, name, det) for name, det in files],
    }
    return write_json(out_dir / MANIFEST_NAME, doc)


def read_run_file(path) -> dict:
    """A run's JSON artifact, which must hold an object; InputError if it does not."""
    try:
        doc = read_json(path)
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise InputError(f"{path} is not a JSON document: {exc}") from exc
    if not isinstance(doc, dict):
        raise InputError(f"{path} must hold a JSON object, got {type(doc).__name__}")
    return doc


def load_manifest(run_dir) -> dict:
    path = Path(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise FileNotFoundError(f"no {MANIFEST_NAME} in {run_dir}")
    doc = read_run_file(path)
    for key in ("config", "machine"):
        if not isinstance(doc.get(key, {}), dict):
            raise InputError(f"{path}: {key} must be a JSON object, got {type(doc[key]).__name__}")
    return doc
