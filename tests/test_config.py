"""Config parsing over the demo configs: every malformed leaf is a clean
rejection, --seed replaces exactly the seed keys, and every demo's run
renders as the ten-question report."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from poissonlab.cli import main
from poissonlab.config import SECTIONS, override_seeds, parse_config
from poissonlab.errors import ConfigError

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.json"))

# The command a config runs comes from the digest script's one table.
_spec = importlib.util.spec_from_file_location("artifact_digests", ROOT / "scripts" / "artifact_digests.py")
artifact_digests = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(artifact_digests)
command_for = artifact_digests.command_for

# Every leaf of every demo config is replaced by each of these in turn.
# 1e309 must reach the parser as that literal (json.loads reads it as inf).
REPLACEMENTS = (True, "x", None, [], {}, [["x"]], "OUT_OF_RANGE", float("nan"))


def leaves(node, path=()):
    """Paths to every scalar and every empty list or object under node."""
    if isinstance(node, dict):
        children = list(node.items())
    elif isinstance(node, list):
        children = list(enumerate(node))
    else:
        children = []
    if not children:
        yield path
    for key, child in children:
        yield from leaves(child, (*path, key))


def at(node, path):
    for key in path:
        node = node[key]
    return node


def replaced(doc, path, value) -> str:
    out = copy.deepcopy(doc)
    at(out, path[:-1])[path[-1]] = value
    return json.dumps(out).replace('"OUT_OF_RANGE"', "1e309")


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_every_leaf_mutation_is_a_clean_exit(config, tmp_path, capsys):
    doc = json.loads(config.read_text())
    command = command_for(doc)
    path = tmp_path / "config.json"
    for leaf in leaves(doc):
        for value in REPLACEMENTS:
            text = replaced(doc, leaf, value)
            case = f"{config.name} {'.'.join(map(str, leaf))} = {value!r}"
            if command == "surrogate":
                # Running the whole pipeline per mutation would be too slow.
                try:
                    parse_config(json.loads(text))
                except ConfigError:
                    pass
                continue
            path.write_text(text)
            code = main([command, "--config", str(path), "--out", str(tmp_path / "out")])
            assert code in (0, 2, 3, 4), case
    capsys.readouterr()


@pytest.mark.parametrize("config", CONFIGS, ids=[p.stem for p in CONFIGS])
def test_every_demo_run_reports_ten_rows(config, tmp_path, capsys):
    run = tmp_path / "run"
    assert main([command_for(json.loads(config.read_text())), "--config", str(config), "--out", str(run)]) == 0
    capsys.readouterr()
    assert main(["report", "--run", str(run)]) == 0
    q_rows = [line for line in capsys.readouterr().out.splitlines() if line.startswith("Q")]
    assert [row.split()[0] for row in q_rows] == [f"Q{i}" for i in range(1, 11)]


def test_seed_override_replaces_exactly_the_seed_keys():
    doc = {}
    for config in CONFIGS:
        doc.update(json.loads(config.read_text()))
    assert {"regression", "train", "space", "split", "eval", "data_curve"} <= set(doc)
    parse_config(doc)

    out = override_seeds(doc, 99)
    changed = {".".join(map(str, leaf)) for leaf in leaves(doc) if at(doc, leaf) != at(out, leaf)}
    assert changed == {"regression.seed", "train.init_seed", "space.master_seed", "split.seed", "eval.seed"}
    assert out["data_curve"]["seeds"] == doc["data_curve"]["seeds"]
    cfg = parse_config(out)
    assert (cfg.regression.seed, cfg.train.init_seed, cfg.space.master_seed) == (99, 99, 99)
    assert (cfg.split_seed, cfg.eval_spec.seed) == (99, 99)


def test_row_count_limit_is_the_float_budget():
    # A (count, n_nodes) array may hold at most 2**28 floats (2 GiB), far
    # below the largest array numpy can shape. Only parsed: no run here
    # allocates a count at the limit.
    base = json.loads((ROOT / "configs" / "surrogate_minimal.json").read_text())
    n_nodes = base["n_nodes"]
    limit = 2**28 // n_nodes
    for path, set_count in (
        ("space.n_samples", lambda doc, n: doc["space"].update(n_samples=n)),
        ("eval.n_fresh", lambda doc, n: doc["eval"].update(n_fresh=n)),
        (r"data_curve.sizes\[1\]", lambda doc, n: doc["data_curve"].update(sizes=[8, n])),
    ):
        doc = copy.deepcopy(base)
        set_count(doc, limit)
        parse_config(doc)
        set_count(doc, limit + 1)
        with pytest.raises(ConfigError, match=rf"^{path}: must be <= {limit},"):
            parse_config(doc)


def test_every_config_key_is_set_by_a_digested_config():
    # A key that no digested config sets is a setting whose output nobody
    # checks: each top-level key, and each key of an object section, must
    # be set by a config that scripts/artifact_digests.py runs.
    accepted = set(SECTIONS)
    for key, (_, reader) in SECTIONS.items():
        accepted |= {f"{key}.{name}" for name in getattr(reader, "readers", ())}
    set_keys = set()
    for _, doc in artifact_digests.digest_configs():
        parse_config(doc)
        for key, value in doc.items():
            set_keys.add(key)
            if isinstance(value, dict):
                set_keys |= {f"{key}.{name}" for name in value}
    assert sorted(accepted - set_keys) == []
