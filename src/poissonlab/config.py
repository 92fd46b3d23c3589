"""Strict JSON experiment configs, declared once in `SECTIONS`.

`SECTIONS` maps each top-level key to the `ExperimentConfig` attribute
it fills and the reader of its value. A `_Section` reads an object into
a domain object (such as `TrainConfig`) or a small frozen spec, with one
reader per key named after that object's field. A key is optional only
when the object has a default for it. Seed keys are read by `_seed` and
always required, so every seed a run consumes is spelled out;
`override_seeds` and `ExperimentConfig.require` read the same table.

Readers check a value's kind before using it. Numbers must be finite:
`json.loads` accepts `NaN` and `Infinity` and reads `1e309` as inf.
Unknown keys and every other rejection raise `ConfigError` with the
key's path, such as `ledger.t_dg`; a domain object's `ParameterError`
is re-raised as one with its section's path. The memory budget has one
home, `_arrays`: every array a command sizes from the config, each held
to `_FLOAT_BUDGET` floats by one check in `parse_config`.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, fields, replace
from pathlib import Path

from .ann import TRANSFERS, TrainConfig
from .costs import CostLedger, check_n_predictions
from .errors import ConfigError, ParameterError
from .pde import DEFAULT_N_NODES, PARAMETERS, PoissonProblem
from .surrogate import SAMPLINGS, SPLIT_TAGS, ParameterSpace, check_split_ratios, scaled_space


def _check_keys(obj, path: str, known, required) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {obj!r}")
    unknown = set(obj) - set(known)
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    missing = set(required) - set(obj)
    if missing:
        raise ConfigError(f"{path}: missing keys {sorted(missing)}")


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an integer literal beyond the float range
        number = math.inf
    if not math.isfinite(number):
        raise ConfigError(f"{path}: expected a finite number, got {value!r}")
    return number


def _positive(value, path: str) -> float:
    number = _number(value, path)
    if not number > 0:
        raise ConfigError(f"{path}: must be > 0, got {value!r}")
    return number


def _at_least(minimum: float, maximum: float = math.inf):
    def read(value, path: str) -> int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        if value < minimum:
            raise ConfigError(f"{path}: must be >= {minimum}, got {value}")
        if value > maximum:
            raise ConfigError(f"{path}: must be <= {maximum}, got {value}")
        return value

    return read


_width = _at_least(1)
# `override_seeds` replaces the value of every key read by `_seed`.
_seed = _at_least(0)


def _text(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        raise ConfigError(f"{path}: expected a non-empty string, got {value!r}")
    return value


def _one_of(*choices: str):
    def read(value, path: str) -> str:
        if not isinstance(value, str) or value not in choices:
            raise ConfigError(f"{path}: expected one of {list(choices)}, got {value!r}")
        return value

    return read


def _list_of(item, min_len: int = 0, max_len: float = math.inf):
    def read(value, path: str) -> tuple:
        if not isinstance(value, list):
            raise ConfigError(f"{path}: expected a list, got {value!r}")
        if not min_len <= len(value) <= max_len:
            raise ConfigError(f"{path}: expected {min_len}..{max_len} entries, got {len(value)}")
        return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(value))

    return read


_interval = _list_of(_number, 2, 2)


class _Section:
    """Reads a JSON object into `build(**fields)`, one reader per key."""

    def __init__(self, build, **readers):
        self.build = build
        self.readers = readers
        defaults = {f.name for f in fields(build) if f.default is not MISSING}
        self.seed_keys = tuple(key for key, reader in readers.items() if reader is _seed)
        self.required = (set(readers) - defaults) | set(self.seed_keys)

    def __call__(self, value, path: str):
        _check_keys(value, path, self.readers, self.required)
        kwargs = {k: read(value[k], f"{path}.{k}") for k, read in self.readers.items() if k in value}
        try:
            return self.build(**kwargs)
        except ParameterError as exc:
            raise ConfigError(f"{path}: {exc}") from exc


@dataclass(frozen=True)
class RegressionSpec:
    n: int
    true_w: float
    true_b: float
    x_range: tuple
    noise_amplitude: float
    seed: int


@dataclass(frozen=True)
class AnnSpec:
    layer_sizes: tuple
    transfers: tuple | None = None
    init_weights: tuple | None = None
    init_biases: tuple | None = None

    def __post_init__(self):
        if self.transfers is not None and len(self.transfers) != len(self.layer_sizes) - 1:
            raise ParameterError("transfers: need one tag per layer")
        if (self.init_weights is None) != (self.init_biases is None):
            raise ParameterError("init_weights and init_biases must be given together")


@dataclass(frozen=True)
class SplitSpec:
    ratios: tuple
    seed: int

    def __post_init__(self):
        # split_dataset floors the val and test counts, so shares summing below 1 leave a train row.
        if sum(check_split_ratios(self.ratios)[1:]) >= 1:
            raise ParameterError(f"ratios must leave the train split a share > 0, got {list(self.ratios)}")


@dataclass(frozen=True)
class ArchSpec:
    hidden: tuple
    hidden_transfer: str = "tanh"
    output_transfer: str = "purelin"

    def layer_sizes(self, n_out: int) -> tuple:
        return (len(PARAMETERS), *self.hidden, n_out)

    def transfer_tags(self) -> tuple:
        return (*([self.hidden_transfer] * len(self.hidden)), self.output_transfer)


@dataclass(frozen=True)
class DataCurveSpec:
    sizes: tuple
    seeds: tuple


@dataclass(frozen=True)
class EvalSpec:
    multipliers: tuple
    perturbations: tuple
    seed: int
    n_fresh: int = 32


@dataclass(frozen=True)
class CostSpec:
    repetitions: int
    n_predictions: int

    def __post_init__(self):
        check_n_predictions(self.n_predictions)


@dataclass(frozen=True)
class OutputSpec:
    directory: str


_transfer = _one_of(*TRANSFERS)
_problem = _Section(PoissonProblem, g=_number, x0=_number, x1=_number, y0=_number, y1=_number)

# A policy bound on memory, as costs.repetitions' is on time: no array in
# `_arrays` may hold more than 2**28 float64 values (2 GiB).
_FLOAT_BUDGET = 2**28

# Top-level key -> (ExperimentConfig attribute, reader).
SECTIONS = {
    "problems": ("problems", _list_of(_problem, min_len=1)),
    "n_nodes": ("n_nodes", _at_least(3)),
    "regression": ("regression", _Section(
        RegressionSpec, n=_at_least(2), true_w=_number, true_b=_number,
        x_range=_interval, noise_amplitude=_number, seed=_seed)),
    "ann": ("ann_spec", _Section(
        AnnSpec, layer_sizes=_list_of(_width, min_len=2), transfers=_list_of(_transfer),
        init_weights=_list_of(_list_of(_list_of(_number))), init_biases=_list_of(_list_of(_number)))),
    "train": ("train", _Section(
        TrainConfig, learning_rate=_number, stop_tolerance=_number, max_epochs=_width,
        init_seed=_seed)),
    # Not a memory bound: ParameterSpace takes the count's cube root when built,
    # which overflows a float past about 10**924.
    "space": ("space", _Section(
        ParameterSpace, **{f"{p}_range": _interval for p in PARAMETERS}, x0=_number,
        x1=_number, sampling=_one_of(*SAMPLINGS), n_samples=_at_least(1, sys.float_info.max),
        master_seed=_seed)),
    "split": ("split", _Section(
        SplitSpec, ratios=_list_of(_number, len(SPLIT_TAGS), len(SPLIT_TAGS)), seed=_seed)),
    "arch": ("arch", _Section(
        ArchSpec, hidden=_list_of(_width), hidden_transfer=_transfer, output_transfer=_transfer)),
    "arch_sweep": ("arch_sweep", _list_of(_list_of(_width), min_len=1)),
    # data_curve.seeds are the master seeds of the curve's runs, not replaced by --seed.
    "data_curve": ("data_curve", _Section(
        DataCurveSpec, sizes=_list_of(_width, min_len=1), seeds=_list_of(_at_least(0), min_len=1))),
    "eval": ("eval_spec", _Section(
        EvalSpec, multipliers=_list_of(_positive, min_len=1),
        perturbations=_list_of(_number, min_len=1), seed=_seed, n_fresh=_width)),
    # A policy bound, not a numpy limit: costs.measure makes one timed call of
    # each method per repetition, and 10,000 take under a second on configs/.
    "costs": ("cost_spec", _Section(CostSpec, repetitions=_at_least(1, 10_000), n_predictions=_at_least(0))),
    "ledger": ("ledger", _Section(
        CostLedger, t_dg=_number, t_nt=_number, t_pr=_number, t_solve=_number,
        n_predictions=_at_least(0))),
    "output": ("output", _Section(OutputSpec, directory=_text)),
}


@dataclass
class ExperimentConfig:
    """Parsed config plus the raw document for manifests and round-trips."""

    raw: dict
    problems: tuple | None = None
    n_nodes: int = DEFAULT_N_NODES
    regression: RegressionSpec | None = None
    ann_spec: AnnSpec | None = None
    train: TrainConfig | None = None
    space: ParameterSpace | None = None
    split: SplitSpec | None = None
    arch: ArchSpec | None = None
    arch_sweep: tuple | None = None
    data_curve: DataCurveSpec | None = None
    eval_spec: EvalSpec | None = None
    cost_spec: CostSpec | None = None
    ledger: CostLedger | None = None
    output: OutputSpec | None = None

    @property
    def split_ratios(self) -> tuple | None:
        return None if self.split is None else self.split.ratios

    @property
    def split_seed(self) -> int | None:
        return None if self.split is None else self.split.seed

    def require(self, *keys: str) -> None:
        """Raise ConfigError unless every named top-level section was given."""
        for key in keys:
            if getattr(self, SECTIONS[key][0]) is None:
                raise ConfigError(f"config is missing the required `{key}` section")


def _arrays(cfg: ExperimentConfig):
    """(key, rows, columns, array) of every array a command sizes from the config."""
    n_nodes = cfg.n_nodes
    # A Thomas solve holds about 430 B a node (tracemalloc, a batched fdm_values):
    # at 64 floats a node, a surrogate's grid-transfer solve on 2 * n_nodes - 1 nodes.
    yield "n_nodes", n_nodes, 128, "solve workspace"
    nets = {"arch.hidden": cfg.arch.layer_sizes(n_nodes)} if cfg.arch is not None else {}
    nets.update((f"arch_sweep[{i}]", (len(PARAMETERS), *h, n_nodes)) for i, h in enumerate(cfg.arch_sweep or ()))
    ann_sizes = () if cfg.ann_spec is None else cfg.ann_spec.layer_sizes
    for key, sizes in {"ann.layer_sizes": ann_sizes, **nets}.items():
        for fan_in, fan_out in zip(sizes, sizes[1:]):
            yield key, fan_out, fan_in, "weight matrix"
    # One row per sample of the outputs, the predictions and every layer's activations.
    width = max([n_nodes, *(w for sizes in nets.values() for w in sizes)])
    array = "activation" if width > n_nodes else "output array"
    if cfg.space is not None:
        yield "space.n_samples", cfg.space.n_samples, width, array
        if cfg.split is not None:  # its test rows, counted as split_dataset counts them
            tests = int(cfg.space.n_samples * cfg.split_ratios[2])
            yield "space.n_samples", tests, 2 * n_nodes - 1, "grid-transfer reference"
    if cfg.eval_spec is not None:
        yield "eval.n_fresh", cfg.eval_spec.n_fresh, width, array
    for i, size in enumerate(cfg.data_curve.sizes if cfg.data_curve is not None else ()):
        yield f"data_curve.sizes[{i}]", size, width, array
    if cfg.regression is not None:  # fit's (n, 2) design matrix, and train-ann's activations
        widest = max([2, *ann_sizes])
        yield "regression.n", cfg.regression.n, widest, "activation" if widest > 2 else "design matrix"


def parse_config(doc: dict) -> ExperimentConfig:
    _check_keys(doc, "config", SECTIONS, ())
    cfg = ExperimentConfig(raw=doc)
    for key, (attr, reader) in SECTIONS.items():
        if key in doc:
            setattr(cfg, attr, reader(doc[key], key))
    # Checked before the data curve's sizes build spaces, whose cube roots overflow.
    for key, rows, columns, array in _arrays(cfg):
        if rows * columns > _FLOAT_BUDGET:
            raise ConfigError(f"{key}: a {rows} x {columns} {array} holds more than {_FLOAT_BUDGET} floats")
    # Each data-curve point samples the space at its own size, and each
    # evaluation multiplier widens it.
    if cfg.data_curve is not None and cfg.space is not None:
        for i, size in enumerate(cfg.data_curve.sizes):
            try:
                replace(cfg.space, n_samples=size)
            except ParameterError as exc:
                raise ConfigError(f"data_curve.sizes[{i}]: {exc}") from exc
    if cfg.eval_spec is not None and cfg.space is not None:
        for i, multiplier in enumerate(cfg.eval_spec.multipliers):
            try:
                scaled_space(cfg.space, multiplier)
            except ParameterError as exc:
                raise ConfigError(f"eval.multipliers[{i}]: {exc}") from exc
    return cfg


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    except (OSError, UnicodeDecodeError) as exc:  # a directory, or not UTF-8 text
        raise ConfigError(f"{path}: cannot read as UTF-8 text: {exc}") from exc
    except ValueError as exc:  # such as an integer literal past Python's 4,300-digit limit
        raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    return parse_config(doc)


def override_seeds(doc: dict, seed: int) -> dict:
    """Replace every seed field in a raw config document with `seed`."""
    out = json.loads(json.dumps(doc))
    for key, (_, reader) in SECTIONS.items():
        section = out.get(key)
        if isinstance(reader, _Section) and isinstance(section, dict):
            for name in reader.seed_keys:
                if name in section:
                    section[name] = seed
    return out
