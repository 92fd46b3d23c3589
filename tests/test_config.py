"""Config parsing over the demo configs: every malformed leaf is a clean
rejection, --seed replaces exactly the seed keys, and every demo's run
renders as the ten-question report."""

import copy
import importlib.util
import json
import re
from pathlib import Path

import pytest

from poissonlab.cli import main
from poissonlab.config import SECTIONS, _arrays, override_seeds, parse_config
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
    # No array of the inventory may hold more than 2**28 floats (2 GiB), far
    # below the largest array numpy can shape: each row's count parses at its
    # limit and is rejected one past it. Only parsed: no run here allocates a
    # count at the limit.
    rows_of_101 = 2**28 // 101
    # With a 0.75 test share, the most samples whose test rows fit on 201 nodes.
    test_rows_of_201 = (4 * (2**28 // 201 + 1) - 1) // 3

    def space(doc, n, **edits):
        doc["space"]["n_samples"] = n
        doc.update(edits)

    for source, path, array, set_count, limit in (
        ("surrogate_minimal", "n_nodes", "solve workspace", lambda doc, n: doc.update(n_nodes=n), 2**21),
        ("surrogate_minimal", "arch.hidden", "weight matrix",
         lambda doc, n: doc["arch"].update(hidden=[n]), rows_of_101),
        ("surrogate_tanh", r"arch_sweep\[1\]", "weight matrix",
         lambda doc, n: doc.update(arch_sweep=[[8], [2**14, n]]), 2**14),
        ("train_ann_demo", "ann.layer_sizes", "weight matrix",
         lambda doc, n: doc["ann"].update(layer_sizes=[2**14, n]), 2**14),
        ("surrogate_minimal", "space.n_samples", "output array", space, rows_of_101),
        ("surrogate_minimal", "space.n_samples", "activation",
         lambda doc, n: space(doc, n, arch={"hidden": [2**14]}), 2**14),
        ("surrogate_minimal", "space.n_samples", "grid-transfer reference",
         lambda doc, n: space(doc, n, split={"ratios": [0.25, 0, 0.75], "seed": 3}), test_rows_of_201),
        ("surrogate_minimal", "eval.n_fresh", "output array",
         lambda doc, n: doc["eval"].update(n_fresh=n), rows_of_101),
        ("surrogate_minimal", r"data_curve.sizes\[1\]", "output array",
         lambda doc, n: doc["data_curve"].update(sizes=[8, n]), rows_of_101),
        ("fit_demo", "regression.n", "design matrix", lambda doc, n: doc["regression"].update(n=n), 2**27),
        ("train_ann_demo", "regression.n", "activation",
         lambda doc, n: doc.update(regression=dict(doc["regression"], n=n), ann={"layer_sizes": [1, 2**14, 1]}),
         2**14),
    ):
        doc = json.loads((ROOT / "configs" / f"{source}.json").read_text())
        set_count(doc, limit)
        parse_config(doc)
        set_count(doc, limit + 1)
        with pytest.raises(ConfigError, match=rf"^{path}: a \d+ x \d+ {array} holds more than {2**28} floats$"):
            parse_config(doc)


def test_every_budget_key_is_a_path_the_parser_accepts():
    # The inventory names each array by the key that sizes it, as every other
    # rejection names its key: each one, less a list index, is a key the parser reads.
    doc = {}
    for config in CONFIGS:
        doc.update(json.loads(config.read_text()))
    accepted = set(SECTIONS)
    for key, (_, reader) in SECTIONS.items():
        accepted |= {f"{key}.{name}" for name in getattr(reader, "readers", ())}
    keys = {re.sub(r"\[\d+\]$", "", key) for key, *_ in _arrays(parse_config(doc))}
    assert keys == {"n_nodes", "ann.layer_sizes", "arch.hidden", "arch_sweep", "space.n_samples",
                    "eval.n_fresh", "data_curve.sizes", "regression.n"}
    assert keys <= accepted


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
