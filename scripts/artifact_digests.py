"""Print digests of every deterministic artifact the demo runs write.

Runs every config that `digest_configs` yields (`configs/*.json`,
`perfbench/wide_datagen.json` and the variants below) through
`poissonlab` into a temporary directory and prints one JSON object that
maps each config to the SHA-256 of every file its manifest flags
deterministic (the loss history among them, as `loss.csv`), plus a
SHA-256 of the architecture sweep's rows without their wall times and
of the candidate table's rows without their ledgers (timings and the
verdicts that follow from them).

For each surrogate run it also digests the saved model's predictions
on a fixed seeded block of 64 parameter rows drawn from the config's
ranges: 64 stacked one-row `predict` calls, the path the ledger's
`t_pr` times, and one batch call. A further 1,000 rows drawn next from
the same stream are digested as one batch call, which takes the forward
pass's path for batches of 128 rows or more (15 whole blocks of 64 rows
and a 40-row tail).

The variants are edits of `configs/surrogate_tanh.json`, each
written as a temporary config and listed under its own key. With
`train.learning_rate` 1.0 the run diverges in the main training and in
every sweep layout, so its digests cover losses and gradients near
overflow, not only a converging run. With `space.sampling` "grid" its
64 samples are a 4 x 4 x 4 grid, so the grid branch of sampling is
covered too. With `split.ratios` [1, 0, 0] the test split is empty, so
the scores taken on it (test RMSE, sensitivity, grid transfer) are
covered in their absent form.

Two commits give bit-identical deterministic artifacts when their
outputs are equal:

    python3 scripts/artifact_digests.py > after.json
    (in a checkout of the other commit) python3 scripts/artifact_digests.py > before.json
    diff before.json after.json

Uses only the standard library, numpy and the package under `src/`
next to this script.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from poissonlab import cli  # noqa: E402
from poissonlab.config import parse_config  # noqa: E402
from poissonlab.fileio import sha256_file  # noqa: E402
from poissonlab.surrogate import SurrogateModel  # noqa: E402

# A config's command follows from the first of these sections it holds.
COMMAND_BY_SECTION = (
    ("space", "surrogate"),
    ("ann", "train-ann"),
    ("regression", "fit"),
    ("ledger", "breakeven"),
    ("problems", "solve"),
)


def command_for(config: dict) -> str:
    for section, command in COMMAND_BY_SECTION:
        if section in config:
            return command
    raise ValueError(f"no command for a config with sections {sorted(config)}")


# A base config and the variants of it that run as well: (section, key,
# value) edits. At learning rate 1.0 its training diverges; ratios
# [1, 0, 0] leave the test split empty.
VARIANT_BASE = "configs/surrogate_tanh.json"
VARIANTS = (("train", "learning_rate", 1.0), ("space", "sampling", "grid"), ("split", "ratios", [1.0, 0.0, 0.0]))


def digest_configs():
    """(key, config document) of every config this script runs, in order:
    each `configs/*.json`, `perfbench/wide_datagen.json`, then each variant."""
    for path in sorted((ROOT / "configs").glob("*.json")) + [ROOT / "perfbench" / "wide_datagen.json"]:
        yield str(path.relative_to(ROOT)), json.loads(path.read_text(encoding="utf-8"))
    for section, key, value in VARIANTS:
        config = json.loads((ROOT / VARIANT_BASE).read_text(encoding="utf-8"))
        config[section][key] = value
        yield f"{VARIANT_BASE} {section}.{key}={value}", config


# The seed and size of the block of queries a saved surrogate answers,
# and the size of the large batch drawn after it.
PREDICT_SEED, PREDICT_ROWS, LARGE_BATCH_ROWS = 0, 64, 1000


def digest_predictions(config: dict, model_path: Path) -> dict:
    """Digests of a saved surrogate's one-row and batch predictions on the
    query block, and of its batch prediction on the large batch."""
    model = SurrogateModel.from_dict(json.loads(model_path.read_text(encoding="utf-8")))
    ranges = np.array(parse_config(config).space.ranges)
    rng = np.random.default_rng(PREDICT_SEED)
    block = rng.uniform(ranges[:, 0], ranges[:, 1], size=(PREDICT_ROWS, len(ranges)))
    large = rng.uniform(ranges[:, 0], ranges[:, 1], size=(LARGE_BATCH_ROWS, len(ranges)))
    # A diverged model predicts inf and NaN; those bits are digested too.
    with np.errstate(over="ignore", invalid="ignore"):
        single = np.vstack([model.predict(row) for row in block])
        batch = model.predict(block)
        large_batch = model.predict(large)
    return {
        "predict_single": hashlib.sha256(single.tobytes()).hexdigest(),
        "predict_batch": hashlib.sha256(batch.tobytes()).hexdigest(),
        f"predict_batch_{LARGE_BATCH_ROWS}": hashlib.sha256(large_batch.tobytes()).hexdigest(),
    }


def digest_run(config: dict, config_path: Path, out_dir: Path) -> dict:
    """Run `config`, written to `config_path`, into `out_dir` and digest its artifacts."""
    config_path.write_text(json.dumps(config), encoding="utf-8")
    command = command_for(config)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main([command, "--config", str(config_path), "--out", str(out_dir)])
    if code != 0:
        raise RuntimeError(f"{config_path.name} exited {code}")
    manifest = json.loads((out_dir / "manifest.json").read_text(encoding="utf-8"))
    files = {
        entry["name"]: sha256_file(out_dir / entry["name"])
        for entry in manifest["files"]
        if entry["deterministic"]
    }
    run = {"command": command, "files": files}
    sweep = out_dir / "arch_sweep.json"
    if sweep.exists():
        rows = json.loads(sweep.read_text(encoding="utf-8"))["rows"]
        run["arch_sweep"] = sha256_json([{k: v for k, v in row.items() if k != "wall_time"} for row in rows])
    candidates = out_dir / "candidates.json"
    if candidates.exists():
        rows = json.loads(candidates.read_text(encoding="utf-8"))["rows"]
        run["candidates"] = sha256_json([{k: v for k, v in row.items() if k != "ledger"} for row in rows])
    if command == "surrogate":
        run.update(digest_predictions(config, out_dir / "model.json"))
    return run


def sha256_json(value) -> str:
    return hashlib.sha256(json.dumps(value).encode()).hexdigest()


def main() -> int:
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, (key, config) in enumerate(digest_configs()):
            digests[key] = digest_run(config, Path(tmp) / f"{i}.json", Path(tmp) / str(i))
    json.dump(digests, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
